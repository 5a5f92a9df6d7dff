#!/usr/bin/env python3
"""Run one of the paper's experiment grids, as scenarios/experiments.json
defines it.

    PYTHONPATH=src python scripts/run_experiment.py lifetime --jobs 2
    PYTHONPATH=src python scripts/run_experiment.py alpha --seeds 5 --out /tmp/alpha

The table's entries are the grids the acceptance suite checks: lifetime
(C01, C02), rda-lifetime (monitoring quality, C06), alpha (C03),
heterogeneity (C04) and epsilon (C05).  Each names a scenario file beside
the table, the policies, the seed count and, for a sweep, the variable and
its values.  This turns one entry into the wsncluster call that writes
summary.csv, curves.csv and metadata.json to --out, results/NAME by
default.  --seeds overrides the entry's seed count; any further option,
such as --jobs N or --max-rounds N, is passed on to wsncluster.
"""

import argparse
import json
import sys
from pathlib import Path

from wsncluster import cli

TABLE = Path(__file__).resolve().parent.parent / "scenarios" / "experiments.json"
EXPERIMENTS = json.loads(TABLE.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", choices=EXPERIMENTS)
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args, rest = parser.parse_known_args(argv)
    exp = EXPERIMENTS[args.name]
    cli_argv = [
        "--scenario", str(TABLE.parent / exp["scenario"]),
        "--policy", ",".join(exp["policies"]),
        "--seeds", str(exp["seeds"] if args.seeds is None else args.seeds),
        "--out", args.out or f"results/{args.name}",
    ]
    if "sweep" in exp:
        cli_argv += ["--sweep", f"{exp['sweep']}={','.join(map(str, exp['values']))}"]
    return cli.main(cli_argv + rest)


if __name__ == "__main__":
    sys.exit(main())
