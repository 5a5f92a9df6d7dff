"""The JSONL traces of a fixed grid, checked against committed digests.

Speed never buys a change in traces: an optimization of the engine must give
every run of the grid the same bytes.  scripts/trace_digests.py defines the
grid (small fields with the non-RDA draws the scenarios leave out, table1
and rda50 to exhaustion, rda50 at n=1600 for 40 rounds and the output
files of two CLI grids, as its docstring lists) and writes their digests to
scripts/trace_digests.json.  Each entry of that file is one case here, so a
failure names its run.  The small fields and rda50 seed 0 run again with
their member-head pick forced onto the float32 screen of large fields, and
must give the same bytes as with their rank tables.

A change that alters the model on purpose rewrites the file by running the
script, and says so in CHANGES.md.
"""

import json

import numpy as np
import pytest

import trace_digests as script
from wsncluster import eepca, engine
from wsncluster.baselines import PolicyKind

RUNS = {name: run for name, *run in script.grid()}
COMMITTED = json.loads(script.COMMITTED.read_text())


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    return script.cli_digests(tmp_path_factory.mktemp("cli"))


def _digest(name, tmp_path):
    return script.trace_digest(*RUNS[name], tmp_path / "trace.jsonl")


def test_committed_digests_name_the_scripts_grid(cli_digests):
    names = [name for name, *_ in script.grid()] + list(cli_digests)
    assert sorted(COMMITTED) == sorted(names)


@pytest.mark.parametrize("name", sorted(COMMITTED.keys() & RUNS.keys()))
def test_trace_bytes_match_the_committed_digest(name, tmp_path):
    assert _digest(name, tmp_path) == COMMITTED[name]


@pytest.mark.parametrize("name", sorted(COMMITTED.keys() - RUNS.keys()))
def test_cli_files_match_the_committed_digest(name, cli_digests):
    assert cli_digests.get(name) == COMMITTED[name]


@pytest.mark.parametrize("name", sorted(
    name for name in RUNS if name.startswith(("small", "rda50/")) and name.endswith("/seed=0")))
def test_small_fields_pick_heads_alike_through_the_screen(name, tmp_path, monkeypatch):
    # gate 0 sends every field through nearest_heads' screen; at the default
    # gate these fields take the rank tables, which may not be called here
    def refuse(*args):
        raise AssertionError("ranked_heads called")

    monkeypatch.setattr(eepca, "RANK_MAX_NODES", 0)
    monkeypatch.setattr(eepca, "ranked_heads", refuse)
    assert _digest(name, tmp_path) == COMMITTED[name]


def test_large_field_builds_no_rank_table():
    # above the gate the pick holds the screen operand and no n x n table;
    # at or below it, the rank and cost tables alone
    field = RUNS["rda50-n1600/eepca/seed=0"][0]
    big = engine._Sim(field, PolicyKind.EEPCA).pick_heads
    assert field.n_nodes > eepca.RANK_MAX_NODES
    assert big.func is eepca._screened_heads
    shapes = [a.shape for a in big.args if isinstance(a, np.ndarray)]
    assert shapes == [(1600,), (1600,), (9, 1600)]
    small = engine._Sim(RUNS["rda50/eepca/seed=0"][0], PolicyKind.EEPCA).pick_heads
    assert small.func is eepca.ranked_heads
    assert [a.shape for a in small.args] == [(100, 100), (100, 100)]
