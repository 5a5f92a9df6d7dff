"""The JSONL traces of a small fixed grid, pinned by sha256.

Speed never buys a change in traces: an optimization of the engine must give
every run of this grid the same bytes.  The grid covers death rounds and the
per-frame steady path (small_config to exhaustion), prediction suppression
(rda50 for 300 rounds) and the large-field head selection (rda50 at n=1600
for 5 rounds).  scripts/trace_digests.py checks a larger grid by hand.

A change that alters the model on purpose re-pins these digests and says so
in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

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


def _config(name, small_config):
    if name == "small":
        return small_config, 10000
    if name == "rda50":
        return RDA50.with_seed(0), 300
    return FIELD1600.with_seed(0), 5


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_trace_bytes_are_pinned(key, small_config, tmp_path):
    name, policy = key.split("/")
    config, max_rounds = _config(name, small_config)
    path = tmp_path / "trace.jsonl"
    run(config, policy, max_rounds=max_rounds).write_jsonl(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[key]
