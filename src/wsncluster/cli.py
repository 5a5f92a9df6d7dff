"""Experiment runner: sweeps over scenario parameters, policies and seeds,
emitting summary/curve CSVs plus a metadata file.

Example:
    wsncluster --scenario scenarios/table1.json --policy leach,sep,eepca \\
        --seeds 100 --out results/lifetime
    wsncluster --scenario scenarios/table1.json --policy eepca --seeds 50 \\
        --sweep alpha=0.5,0.6,0.7,0.8,0.9 --out results/alpha
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import metrics
from .baselines import PolicyKind
from .engine import run
from .model import ConfigError, ScenarioConfig, load_scenario

SWEEP_VARS = ("alpha", "epsilon_tol", "frac_energy_heterogeneous", "none")


@dataclasses.dataclass
class SweepSpec:
    base: ScenarioConfig
    policies: list[PolicyKind]
    seeds: int
    sweep_var: str = "none"
    values: list[float] = dataclasses.field(default_factory=list)
    out_dir: Path = Path("results")
    max_rounds: int = 10000
    jobs: int = 1

    def __post_init__(self):
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError("sweep", f"must be one of {SWEEP_VARS}")
        if self.sweep_var != "none" and not self.values:
            raise ConfigError("sweep", "value list must be nonempty")
        if self.seeds < 1:
            raise ConfigError("seeds", "must be at least 1")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds", "must be at least 1")


def apply_sweep_value(base: ScenarioConfig, var: str, value: float) -> ScenarioConfig:
    if var == "none":
        return base
    if var == "alpha":
        # beta is always derived, never set independently
        return dataclasses.replace(base, alpha=value, beta=1.0 - value)
    return dataclasses.replace(base, **{var: value})


def _one_run(args):
    base, var, value, policy, seed, max_rounds = args
    config = apply_sweep_value(base, var, value).with_seed(seed)
    trace = run(config, policy, max_rounds=max_rounds)
    summary = metrics.summarize(trace)
    sv = "" if var == "none" else value
    return (metrics.summary_row(summary, trace, var, sv),
            metrics.curve_rows(summary, var, sv))


def run_experiment(spec: SweepSpec) -> int:
    """Run the full (value x policy x seed) grid and write CSV artifacts."""
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        probe = spec.out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 3

    values = spec.values if spec.sweep_var != "none" else [0.0]
    seeds = [spec.base.rng_seed + i for i in range(spec.seeds)]
    tasks = [(spec.base, spec.sweep_var, value, policy, seed, spec.max_rounds)
             for value in values
             for policy in spec.policies
             for seed in seeds]

    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_one_run, tasks, chunksize=1))
    else:
        results = [_one_run(t) for t in tasks]

    summary_rows = [r[0] for r in results]
    curve_rows = [row for r in results for row in r[1]]
    metrics.write_summary_csv(spec.out_dir / "summary.csv", summary_rows)
    metrics.write_curves_csv(spec.out_dir / "curves.csv", curve_rows)

    meta = {
        "config": spec.base.to_flat_dict(),
        "config_hash": spec.base.config_hash(),
        "policies": [p.value for p in spec.policies],
        "sweep_var": spec.sweep_var,
        "sweep_values": values if spec.sweep_var != "none" else [],
        "seeds": seeds,
        "max_rounds": spec.max_rounds,
    }
    with open(spec.out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsncluster",
        description="Round-based heterogeneous WSN clustering simulator")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--policy", default="eepca",
                        help="comma-separated policies: leach,sep,eepca")
    parser.add_argument("--seeds", type=int, default=1, help="number of seeds")
    parser.add_argument("--sweep", default=None, metavar="VAR=V1,V2,...",
                        help=f"sweep variable, one of {SWEEP_VARS[:-1]}")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--max-rounds", type=int, default=10000)
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = load_scenario(args.scenario)
        policies = [PolicyKind.parse(p) for p in args.policy.split(",")]
        if args.sweep:
            var, _, raw = args.sweep.partition("=")
            values = [float(v) for v in raw.split(",") if v]
        else:
            var, values = "none", []
        spec = SweepSpec(base=base, policies=policies, seeds=args.seeds,
                         sweep_var=var, values=values, out_dir=Path(args.out),
                         max_rounds=args.max_rounds, jobs=args.jobs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
