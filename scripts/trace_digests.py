#!/usr/bin/env python3
"""Write the sha256 of every trace and CLI output file of the identity grid.

    PYTHONPATH=src python scripts/trace_digests.py && git diff scripts/trace_digests.json
    PYTHONPATH=../parent/src python scripts/trace_digests.py --out ../old.json --traces ../old

This is the one definition of the grid on which a change that must keep
traces byte-identical is checked, and scripts/trace_digests.json holds its
60 digests.  tests/test_trace_identity.py loads this script and checks
every entry of that file on each test run, one case per entry.  The grid:
- a 20-node field (the tests' small_config) and three variants of it, each
  under leach, sep and eepca, run to exhaustion: `small`; `small-tx0.6`, a
  non-RDA send probability of 0.6 (one uniform draw compared per node and
  frame); `small-len2000-6000`, a non-RDA length range of more than one
  value (one integer draw per node and frame); and `small-n21-rda4`, 21
  nodes, half of them RDA nodes holding exactly 4 messages a round, whose
  21 length draws of 32 bits leave half of a 64-bit step held for the next
  draw every other round;
- scenarios/table1.json and scenarios/rda50.json, seeds 0-4 under leach,
  sep and eepca, run to exhaustion: death rounds, the per-frame steady path
  and prediction suppression;
- rda50 at n_nodes=1600 on a 400 m field, seeds 0, 1, 1000 and 1001 under
  leach and eepca, 40 rounds each: the large-field head pick;
- the output files of two CLI grids: rda50 under leach, sep and eepca,
  seeds 0-1, 400 rounds at most; and the 20-node field under the three
  policies, seeds 0-1, swept over alpha 0.6 and 0.8, run to exhaustion.
  Each grid's curves.csv, metadata.json and summary.csv are digested as
  written, and summary.csv twice more: without its config_hash column, and
  that column on its own, so a change to the ScenarioConfig fields, which
  moves every config hash, leaves the first of those two entries alone.

The script writes a JSON object from run or file name to digest, sorted by
name, to --out, by default scripts/trace_digests.json; it takes under a
minute on one core.  A change that alters traces on purpose rewrites the
committed file and says so in CHANGES.md; `git diff` then names the
entries that moved.  To compare with another commit, write a second file
with that commit's src/ on PYTHONPATH and diff the two files.  --traces DIR
keeps each run's trace as DIR/<run name>.jsonl and the CLI grids' files
under DIR/cli; scripts/trace_diff.py compares two such trees and says, for
each run, where it first moved and whether only the reported sums did.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

from wsncluster import cli
from wsncluster.engine import run
from wsncluster.model import ScenarioConfig, load_scenario

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = Path(__file__).resolve().with_suffix(".json")

SMALL = dataclasses.replace(
    ScenarioConfig(), n_nodes=20, e_min=0.05, e_max=0.15, homogeneous_energy=0.1)
SMALL_VARIANTS = {
    "small": {},
    "small-tx0.6": {"nonrda_tx_prob_per_frame": 0.6},
    "small-len2000-6000": {"nonrda_len_range_bits": (2000, 6000)},
    "small-n21-rda4": {"n_nodes": 21, "frac_rda": 0.5, "frac_malfunction": 0.1,
                       "rda_msgs_range": (4, 4)},
}
POLICIES = ("leach", "sep", "eepca")


def grid():
    """(run name, config, policy, max_rounds) for every run of the grid."""
    for name, changes in SMALL_VARIANTS.items():
        config = dataclasses.replace(SMALL, **changes)
        for policy in POLICIES:
            yield f"{name}/{policy}/seed={config.rng_seed}", config, policy, 10000
    table1 = load_scenario(ROOT / "scenarios" / "table1.json")
    rda50 = load_scenario(ROOT / "scenarios" / "rda50.json")
    for name, base in (("table1", table1), ("rda50", rda50)):
        for policy in POLICIES:
            for seed in range(5):
                yield f"{name}/{policy}/seed={seed}", base.with_seed(seed), policy, 10000
    field = dataclasses.replace(rda50, n_nodes=1600, m_field=400.0)
    for policy in ("leach", "eepca"):
        for seed in (0, 1, 1000, 1001):
            yield f"rda50-n1600/{policy}/seed={seed}", field.with_seed(seed), policy, 40


CLI_GRIDS = {
    "rda50": ["--policy", ",".join(POLICIES), "--seeds", "2", "--max-rounds", "400"],
    "small-alpha": ["--policy", ",".join(POLICIES), "--seeds", "2", "--sweep", "alpha=0.6,0.8"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(config, policy, max_rounds, path: Path) -> str:
    """Digest of one run's JSONL trace, written to path."""
    run(config, policy, max_rounds=max_rounds).write_jsonl(path)
    return _sha256(path.read_bytes())


def cli_digests(out: Path, *args: str) -> dict:
    """Run each CLI grid, with args appended to its options, into a
    subdirectory of out and digest its files: curves.csv, metadata.json and
    summary.csv as written, then summary.csv without its config_hash column,
    and that column."""
    out.mkdir(parents=True, exist_ok=True)
    scenarios = {"rda50": ROOT / "scenarios" / "rda50.json", "small-alpha": out / "small.json"}
    scenarios["small-alpha"].write_text(json.dumps(SMALL.to_flat_dict()))
    digests = {}
    for name, options in CLI_GRIDS.items():
        grid_out = out / name
        if cli.main(["--scenario", str(scenarios[name]), *options, *args,
                     "--out", str(grid_out)]) != 0:
            raise RuntimeError(f"the CLI grid {name} failed")
        with open(grid_out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("config_hash")
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(row[:col] + row[col + 1:] for row in rows)
        digests.update({
            f"cli/{name}/{file}": _sha256((grid_out / file).read_bytes())
            for file in ("curves.csv", "metadata.json", "summary.csv")})
        digests.update({
            f"cli/{name}/summary.csv/runs": _sha256(buf.getvalue().encode()),
            f"cli/{name}/summary.csv/config_hash":
                _sha256("\n".join(row[col] for row in rows).encode()),
        })
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=COMMITTED,
                        help=f"JSON file to write (default {COMMITTED.name})")
    parser.add_argument("--traces", type=Path, metavar="DIR",
                        help="keep the traces and CLI files in DIR, for scripts/trace_diff.py")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name, config, policy, max_rounds in grid():
            trace = args.traces / f"{name}.jsonl" if args.traces else Path(tmp) / "trace.jsonl"
            trace.parent.mkdir(parents=True, exist_ok=True)
            digests[name] = trace_digest(config, policy, max_rounds, trace)
        digests.update(cli_digests((args.traces or Path(tmp)) / "cli"))
    args.out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
