"""The JSONL traces of a small fixed grid, pinned by sha256.

Speed never buys a change in traces: an optimization of the engine must give
every run of this grid the same bytes.  The grid covers death rounds and the
per-frame steady path (small_config to exhaustion), prediction suppression
(rda50 for 300 rounds) and the large-field head selection (rda50 at n=1600
for 5 rounds).  Two small_config variants keep the non-RDA draws that the
scenarios leave out: a send probability below 1 (one uniform draw compared
per node and frame) and a length range of more than one value (one integer
draw per node and frame).  The small fields run again with their member-head
pick forced onto the float32 screen of large fields, and must give the same
bytes as with their rank tables.  scripts/trace_digests.py checks a larger
grid by hand.

A change that alters the model on purpose re-pins these digests and says so
in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from wsncluster import eepca, engine
from wsncluster.baselines import PolicyKind
from wsncluster.engine import run
from wsncluster.model import load_scenario

RDA50 = load_scenario(Path(__file__).parent.parent / "scenarios" / "rda50.json")
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

    monkeypatch.setattr(engine, "RANK_MAX_NODES", gate)
    monkeypatch.setattr(eepca, unused, refuse)
    assert _digest(config, policy, max_rounds, tmp_path) == DIGESTS[key]


def test_large_field_builds_no_rank_table():
    # above the gate only the screen operand is built; at or below it only
    # the tables
    big = engine._Sim(FIELD1600, PolicyKind.EEPCA, detail=False)
    assert FIELD1600.n_nodes > engine.RANK_MAX_NODES
    assert big.rank is None and not hasattr(big, "cpb_pair") and big.screen is not None
    small = engine._Sim(RDA50, PolicyKind.EEPCA, detail=False)
    assert small.screen is None and small.rank.shape == small.cpb_pair.shape == (100, 100)
