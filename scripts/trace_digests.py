#!/usr/bin/env python3
"""sha256 of the JSONL trace of every run in a fixed identity grid.

    PYTHONPATH=src python scripts/trace_digests.py --check
    PYTHONPATH=src python scripts/trace_digests.py --out digests.json
    PYTHONPATH=src python scripts/trace_digests.py --check digests.json

The grid is the one a change that must keep traces byte-identical is checked
on: scenarios/table1.json and scenarios/rda50.json, seeds 0-4 under leach,
sep and eepca, each run to exhaustion; and rda50 at n_nodes=1600 on a 400 m
field, seeds 0, 1, 1000 and 1001 under leach and eepca, 40 rounds each.
The CLI's output path is checked too: the summary.csv and curves.csv of one
CLI grid, rda50 under leach, sep and eepca, seeds 0-1, 400 rounds at most.
summary.csv is digested without its config_hash column, and that column
on its own as a separate entry, so a change to the ScenarioConfig fields,
which moves every config hash, shows in that entry alone.
--out writes a JSON object from run or file name to digest, sorted by name.
--check compares the digests with such a file written at another commit,
by default the committed scripts/trace_digests.json, names every entry
whose digest differs or that one side lacks, and exits 1 if there is any.
It takes about a minute on one core.  A change that alters traces on
purpose rewrites scripts/trace_digests.json with --out.  To write the
baseline of a commit whose copy of this script digests differently, run
this copy with PYTHONPATH at that commit's src/.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from wsncluster import cli
from wsncluster.engine import run
from wsncluster.model import load_scenario

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().with_suffix(".json")


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


CLI_ARGS = ["--scenario", str(ROOT / "scenarios" / "rda50.json"),
            "--policy", "leach,sep,eepca", "--seeds", "2", "--max-rounds", "400"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests(out: Path) -> dict:
    """Digests of the CLI grid's files in out: curves.csv, summary.csv
    without its config_hash column, and that column."""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("config_hash")
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(row[:col] + row[col + 1:] for row in rows)
    return {
        "cli/rda50/curves.csv": hashlib.sha256((out / "curves.csv").read_bytes()).hexdigest(),
        "cli/rda50/summary.csv/runs": _sha256(buf.getvalue()),
        "cli/rda50/summary.csv/config_hash": _sha256("\n".join(row[col] for row in rows)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--check", metavar="BASELINE", type=Path, nargs="?", const=BASELINE,
                        help=f"JSON file of digests to compare with (default {BASELINE.name})")
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
        out = Path(tmp) / "cli"
        if cli.main([*CLI_ARGS, "--out", str(out)]) != 0:
            sys.exit("the CLI grid failed")
        digests.update(cli_digests(out))
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
        print(f"{bad} entries differ or are missing" if bad
              else f"all {len(digests)} entries match {args.check}")
        sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
