"""The JSONL traces of a small fixed grid, pinned by sha256.

Speed never buys a change in traces: an optimization of the engine must give
every run of this grid the same bytes.  The grid covers death rounds and the
per-frame steady path (small_config to exhaustion), prediction suppression
(rda50 for 300 rounds) and the large-field head selection (rda50 at n=1600
for 5 rounds).  Two small_config variants keep the non-RDA draws that the
scenarios leave out: a send probability below 1 (one uniform draw compared
per node and frame) and a length range of more than one value (one integer
draw per node and frame).  A third, of 21 nodes with a one-value RDA
message-count range, which draws no bits, draws 21 lengths a round, 32 bits
each: every other round then ends its length draws with half of a 64-bit
step held for the next 32-bit draw.  The small fields run again with their
member-head pick forced onto the float32 screen of large fields, and must
give the same bytes as with their rank tables.  scripts/trace_digests.py
checks a larger grid by hand against its committed digests.

A change that alters the model on purpose re-pins these digests, rewrites
scripts/trace_digests.json, and says so in CHANGES.md.
"""

import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from wsncluster import eepca, engine
from wsncluster.baselines import PolicyKind
from wsncluster.engine import run
from wsncluster.model import load_scenario

ROOT = Path(__file__).parent.parent
RDA50 = load_scenario(ROOT / "scenarios" / "rda50.json")
FIELD1600 = dataclasses.replace(RDA50, n_nodes=1600, m_field=400.0)

DIGESTS = {
    "small/leach":
        "edcf5b4976c50689e33d8ce260bf7b499fb12e614e6232f972ccabe32aa5e4c2",
    "small/sep":
        "9c4a84b6fab102d6e08b2bf4cef80dea9f064ebad02a623cb032aa56defd9b6f",
    "small/eepca":
        "f228f4c9768d31881e0a91b484d6be0913c6395460459209ec7dff24a4420283",
    "small-tx0.6/leach":
        "e02541e0442d84a0f16611f9dcfbae4171c88ab7c64ed8467c4feee0b55048e5",
    "small-tx0.6/sep":
        "d1b040404451f77797899c94e390055eabb9852af1ed7e418864d6221e5958f9",
    "small-tx0.6/eepca":
        "b7161df0f9390b9ca53250f5a19df6d143c22ede788efe14a481aea64addfd62",
    "small-len2000-6000/leach":
        "79b7ae08aa94e2064207f18861f85c148b1886ff78816d003e525551c2a5ae3e",
    "small-len2000-6000/sep":
        "a0e435c866088765518443eab297d0d96d2f1ef89958432a269a6e549669165e",
    "small-len2000-6000/eepca":
        "45089633d49d0d8b9977d18544f8ee432446a981ba4c99279551c42a701f6ef4",
    "small-n21-rda4/leach":
        "c59770362f68b4426e4d85ca27bebdf3ccada3cc36d6c04c65a2e0fbc9ba48ba",
    "small-n21-rda4/sep":
        "c2b06aa64b7a609bbbbdaef86fab06a349bed0bdd1f943debec0853bf6867ea0",
    "small-n21-rda4/eepca":
        "331224926bf94ddd16e8a4098b761c2504d2057d54cd5f17b6894481eb19782c",
    "rda50/leach":
        "b07e3ec59d8bea3930cd034cfe70aa51aacae90a60f04a9a45ad750da826f729",
    "rda50/sep":
        "f0dba4919981a7a2a92b75f258d46563c3ccbb799ed4325cc076f259f0591ec6",
    "rda50/eepca":
        "71b28e9bae6b55d03e45d50e65d2b5f97caea7efac908fd4664eed6f88f813cc",
    "rda50-n1600/leach":
        "bc44ce430a580904f8e91357daee5acf6bbd09b1392c189211474ebf921c2141",
    "rda50-n1600/eepca":
        "ba81cb77bcbd59d950f54e701b429c02fb8b65c884b690fdddaa060a7100106d",
}


SMALL_VARIANTS = {
    "small": {},
    "small-tx0.6": {"nonrda_tx_prob_per_frame": 0.6},
    "small-len2000-6000": {"nonrda_len_range_bits": (2000, 6000)},
    "small-n21-rda4": {"n_nodes": 21, "frac_rda": 0.5, "frac_malfunction": 0.1,
                       "rda_msgs_range": (4, 4)},
}


def _config(name, small_config):
    if name in SMALL_VARIANTS:
        return dataclasses.replace(small_config, **SMALL_VARIANTS[name]), 10000
    if name == "rda50":
        return RDA50.with_seed(0), 300
    return FIELD1600.with_seed(0), 5


def _digest(config, policy, max_rounds, tmp_path):
    path = tmp_path / "trace.jsonl"
    run(config, policy, max_rounds=max_rounds).write_jsonl(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_trace_bytes_are_pinned(key, small_config, tmp_path):
    name, policy = key.split("/")
    config, max_rounds = _config(name, small_config)
    assert _digest(config, policy, max_rounds, tmp_path) == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(k for k in DIGESTS if not k.startswith("rda50-n1600")))
@pytest.mark.parametrize("gate", [0, 10**6])
def test_small_fields_pick_heads_alike_either_side_of_the_gate(key, gate, small_config,
                                                                tmp_path, monkeypatch):
    # gate 0 sends every field through nearest_heads' screen, 10**6 through
    # the rank tables; each may call only its own pick
    name, policy = key.split("/")
    config, max_rounds = _config(name, small_config)
    unused = "nearest_heads" if gate else "ranked_heads"

    def refuse(*args):
        raise AssertionError(f"{unused} called")

    monkeypatch.setattr(eepca, "RANK_MAX_NODES", gate)
    monkeypatch.setattr(eepca, unused, refuse)
    assert _digest(config, policy, max_rounds, tmp_path) == DIGESTS[key]


def test_large_field_builds_no_rank_table():
    # above the gate the pick holds the screen operand and no n x n table;
    # at or below it, the rank and cost tables alone
    big = engine._Sim(FIELD1600, PolicyKind.EEPCA).pick_heads
    assert FIELD1600.n_nodes > eepca.RANK_MAX_NODES
    assert big.func is eepca._screened_heads
    shapes = [a.shape for a in big.args if isinstance(a, np.ndarray)]
    assert shapes == [(1600,), (1600,), (9, 1600)]
    small = engine._Sim(RDA50, PolicyKind.EEPCA).pick_heads
    assert small.func is eepca.ranked_heads
    assert [a.shape for a in small.args] == [(100, 100), (100, 100)]


def test_committed_digests_name_the_scripts_grid(tmp_path):
    # scripts/trace_digests.json, which --check reads by default, holds one
    # digest per run of the script's grid and its three CLI entries; the
    # CLI names come from digesting stand-in files, so nothing is simulated
    spec = importlib.util.spec_from_file_location(
        "trace_digests", ROOT / "scripts" / "trace_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "summary.csv").write_text("config_hash,runs\nabc,1\n")
    (tmp_path / "curves.csv").write_text("")
    names = [name for name, *_ in script.grid()] + list(script.cli_digests(tmp_path))
    assert len(set(names)) == len(names)
    assert sorted(json.loads(script.BASELINE.read_text())) == sorted(names)
