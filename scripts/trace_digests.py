#!/usr/bin/env python3
"""sha256 of the JSONL trace of every run in a fixed identity grid.

    PYTHONPATH=src python scripts/trace_digests.py --out digests.json
    PYTHONPATH=src python scripts/trace_digests.py --check digests.json

The grid is the one a change that must keep traces byte-identical is checked
on: scenarios/table1.json and scenarios/rda50.json, seeds 0-4 under leach,
sep and eepca, each run to exhaustion; and rda50 at n_nodes=1600 on a 400 m
field, seeds 0, 1, 1000 and 1001 under leach and eepca, 40 rounds each.
--out writes a JSON object from run name to digest, sorted by name.  --check
compares the digests with such a file written at another commit, names every
run whose digest differs or that one side lacks, and exits 1 if there is
any.  It takes about a minute on one core.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
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
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--check", metavar="BASELINE", type=Path,
                        help="JSON file of digests to compare with")
    args = parser.parse_args()
    if args.out is None and args.check is None:
        parser.error("give --out, --check or both")
    baseline = json.loads(args.check.read_text()) if args.check else None
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        for name, config, policy, max_rounds in grid():
            run(config, policy, max_rounds=max_rounds).write_jsonl(path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if args.out:
        Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if baseline is not None:
        bad = 0
        for name in sorted(digests.keys() | baseline.keys()):
            if name not in baseline:
                print(f"missing in {args.check}: {name}")
            elif name not in digests:
                print(f"missing in the grid: {name}")
            elif digests[name] != baseline[name]:
                print(f"differs: {name}")
            else:
                continue
            bad += 1
        print(f"{bad} runs differ or are missing" if bad
              else f"all {len(digests)} runs match {args.check}")
        sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
