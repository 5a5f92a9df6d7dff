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

The traces are the same on every SIMD level numpy dispatches to: a few runs
are repeated in subprocesses with numpy's dispatch targets turned off, from
each one the host supports upwards, and must match the committed digests.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import trace_digests as script
from wsncluster import eepca, engine
from wsncluster.baselines import PolicyKind

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

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


# numpy's dispatch targets this host supports, lowest first
SIMD_TARGETS = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
# the runs whose traces moved with AVX512 off while d^4 was numpy's array power
SIMD_RUNS = ["table1/leach/seed=0", "table1/leach/seed=3", "table1/leach/seed=4",
             "table1/sep/seed=1", "rda50/leach/seed=0", "rda50/leach/seed=1",
             "rda50/leach/seed=4", "rda50/sep/seed=1", "rda50/sep/seed=4",
             "rda50-n1600/eepca/seed=1000"]
# run in a subprocess: argv[1] a scratch directory, argv[2:] the targets off
SIMD_CHILD = """
import json, sys
from pathlib import Path
import trace_digests as script
from test_trace_identity import RUNS, SIMD_RUNS, __cpu_features__
trace = Path(sys.argv[1]) / "trace.jsonl"
print(json.dumps({"still_on": [t for t in sys.argv[2:] if __cpu_features__[t]],
                  "digests": {name: script.trace_digest(*RUNS[name], trace)
                              for name in SIMD_RUNS}}))
"""


@pytest.fixture(scope="module")
def simd_digests(tmp_path_factory):
    """For each supported target, the SIMD_RUNS digests with it and every
    target above it off, the subprocesses running side by side."""
    here = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(here, "..", "src"), os.path.join(here, "..", "scripts"),
                            here])
    procs = {}
    for i, target in enumerate(SIMD_TARGETS):
        off = SIMD_TARGETS[i:]
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": ",".join(off)}
        procs[target] = subprocess.Popen(
            [sys.executable, "-c", SIMD_CHILD, str(tmp_path_factory.mktemp(target)), *off],
            env=env, stdout=subprocess.PIPE, text=True)
    return {target: json.loads(proc.communicate(timeout=300)[0])
            for target, proc in procs.items()}


@pytest.mark.parametrize("target", SIMD_TARGETS or [pytest.param(None, marks=pytest.mark.skip(
    reason="numpy dispatches to no target above its baseline on this host"))])
def test_traces_hold_with_simd_targets_off(target, simd_digests):
    got = simd_digests[target]
    assert got["still_on"] == []
    assert got["digests"] == {name: COMMITTED[name] for name in SIMD_RUNS}
