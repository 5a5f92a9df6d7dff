#!/usr/bin/env python3
"""sha256 of the JSONL trace of every run in a fixed identity grid.

    PYTHONPATH=src python scripts/trace_digests.py --out digests.json

The grid is the one a change that must keep traces byte-identical is checked
on: scenarios/table1.json and scenarios/rda50.json, seeds 0-4 under leach,
sep and eepca, each run to exhaustion; and rda50 at n_nodes=1600 on a 400 m
field, seeds 0, 1, 1000 and 1001 under leach and eepca, 40 rounds each.  The
output is a JSON object from run name to digest, sorted by name, so comparing
two commits is one `diff` of their outputs.  It takes about a minute on one
core.
"""

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from wsncluster.engine import run
from wsncluster.model import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def grid():
    """(run name, config, policy, max_rounds) for every run of the grid."""
    table1 = load_scenario(ROOT / "scenarios" / "table1.json")
    rda50 = load_scenario(ROOT / "scenarios" / "rda50.json")
    for name, base in (("table1", table1), ("rda50", rda50)):
        for policy in ("leach", "sep", "eepca"):
            for seed in range(5):
                yield f"{name}/{policy}/seed={seed}", base.with_seed(seed), policy, 10000
    field = dataclasses.replace(rda50, n_nodes=1600, m_field=400.0)
    for policy in ("leach", "eepca"):
        for seed in (0, 1, 1000, 1001):
            yield f"rda50-n1600/{policy}/seed={seed}", field.with_seed(seed), policy, 40


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        for name, config, policy, max_rounds in grid():
            run(config, policy, max_rounds=max_rounds).write_jsonl(path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
