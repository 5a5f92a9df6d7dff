#!/usr/bin/env python3
"""Per-phase wall time of simulator rounds, with page faults and kernel time.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/phase_times.py
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/phase_times.py \\
        --against ../other-checkout --repeats 8

Runs scenarios/rda50.json roles at the table1 density (100 nodes per
100 m x 100 m) for n = 100, 400, 1600 and 3200 under leach and eepca,
scenario seed 0, 40 rounds each; then scenarios/rda50.json itself (n = 100)
under leach, sep and eepca, scenario seed 0, run to exhaustion, the shape of
the lifetime experiments, whose late rounds have deaths, sparse grids and the
per-frame steady path.  It prints one markdown table row per cell:
heads per round, then microseconds per round for the whole round, each
engine phase (setup broadcasts, election, cluster formation, steady phase)
and the nearest-head pick inside cluster formation, then minor page faults
and kernel microseconds per round from resource.getrusage.  The pick is
eepca.nearest_heads, the float32 screen, above engine.RANK_MAX_NODES nodes
and eepca.ranked_heads, the lookup in the per-run rank table, at or below
it.  Timers wrap the phase methods of engine._Sim and both pick functions
from outside for the duration of the run; the engine itself is unchanged
and the traces are the ones an untimed run gives.  _Sim set-up is not
counted.

Each cell is run --repeats times and its row holds the median of each
column.  --against PATH also loads the simulator of the checkout at PATH,
under another package name, and steps a run of each tree in one loop, round
by round, alternating which tree plays a round first; each cell then gets a
row for PATH's tree (marked "against") above the row for this one.  Host
speed that drifts between processes, minutes or even runs then hits both
rows alike.  --sizes picks the node counts to run, any n >= 2 at the
same density (the rows run to exhaustion come with 100), so a one-size
comparison such as --sizes 1600 takes seconds.
"""

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import wsncluster

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 400, 1600, 3200)
ROUNDS = 40
EXHAUSTION = 10000  # run()'s default round limit
PHASES = ("_setup_broadcasts", "_election", "_form_clusters", "_steady")
# what picks each member's head inside _form_clusters
PICKS = ("nearest_heads", "ranked_heads")
# table columns in order; whichever pick runs is timed as nearest_heads
COLUMNS = ("round", "_setup_broadcasts", "_election", "_form_clusters",
           "nearest_heads", "_steady")


def load_tree(checkout: Path, name: str):
    """The wsncluster package of the checkout's src/, imported as name."""
    pkg = checkout / "src" / "wsncluster"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _timed(fn, totals, key):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - t0
    return wrapper


@contextlib.contextmanager
def timed_phases(pkg, totals):
    """Wrap the phase methods of pkg's engine._Sim and those PICKS its
    eepca has in timers adding into totals, for the duration."""
    sim_cls = importlib.import_module(pkg.__name__ + ".engine")._Sim
    eepca = importlib.import_module(pkg.__name__ + ".eepca")
    saved = {name: getattr(sim_cls, name) for name in PHASES}
    picks = {name: getattr(eepca, name) for name in PICKS if hasattr(eepca, name)}
    for name in PHASES:
        setattr(sim_cls, name, _timed(saved[name], totals, name))
    for name, fn in picks.items():
        setattr(eepca, name, _timed(fn, totals, "nearest_heads"))
    try:
        yield sim_cls
    finally:
        for name, fn in saved.items():
            setattr(sim_cls, name, fn)
        for name, fn in picks.items():
            setattr(eepca, name, fn)


def time_cell(pkgs, configs, policy, rounds, first=0):
    """Up to `rounds` rounds of one run per package, stepped together: round
    r of every run before round r + 1 of any, the package that plays first
    turning each round, starting at index `first`.  Returns per package the
    seconds per phase, round count, heads, minor faults and kernel seconds."""
    cells = [(defaultdict(float), [0, 0, 0, 0.0]) for _ in pkgs]
    with contextlib.ExitStack() as stack:
        sims = [stack.enter_context(timed_phases(pkg, totals))(
                    config, pkg.PolicyKind.parse(policy), detail=False)
                for pkg, config, (totals, _) in zip(pkgs, configs, cells)]
        for r in range(rounds):
            start = (first + r) % len(pkgs)
            for i in [*range(start, len(pkgs)), *range(start)]:
                sim, (totals, counts) = sims[i], cells[i]
                if not sim.alive.any():
                    continue
                before = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                rec = sim.play_round(r)
                totals["round"] += time.perf_counter() - t0
                after = resource.getrusage(resource.RUSAGE_SELF)
                counts[0] += 1
                counts[1] += len(rec.head_ids)
                counts[2] += after.ru_minflt - before.ru_minflt
                counts[3] += after.ru_stime - before.ru_stime
            if not any(sim.alive.any() for sim in sims):
                break
    return [(totals, *counts) for totals, counts in cells]


def _row(label, policy, cells):
    """One table row: the median of each column over the runs in cells."""
    per_run = [[h / p, *(t[k] / p * 1e6 for k in COLUMNS), f / p, kern / p * 1e6]
               for t, p, h, f, kern in cells]
    heads, *us, faults, kernel = map(statistics.median, zip(*per_run))
    print(f"| {label} | {policy} | {heads:.1f} | "
          + " | ".join(f"{v:,.0f}" for v in us)
          + f" | {faults:.1f} | {kernel:,.0f} |")


def _configs(pkg, sizes):
    """(row label, config, policy, rounds) of every cell, in table order."""
    rda50 = pkg.load_scenario(ROOT / "scenarios" / "rda50.json")
    for n in sizes:
        side = 100.0 * math.sqrt(n / 100.0)
        config = dataclasses.replace(rda50, n_nodes=n, m_field=side)
        for policy in ("leach", "eepca"):
            yield f"{n} ({side:.0f} m)", config, policy, ROUNDS
    if 100 in sizes:
        for policy in ("leach", "sep", "eepca"):
            yield "100 (100 m), to exhaustion", rda50, policy, EXHAUSTION


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path,
                    help="checkout whose simulator is timed alongside this one")
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs of each cell per tree; rows hold the medians")
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES, metavar="N",
                    help="node counts to run, each at least 2, at 100 nodes per "
                         f"hectare (default {' '.join(map(str, SIZES))})")
    args = ap.parse_args()
    if min(args.sizes) < 2:
        ap.error("--sizes takes node counts of at least 2")
    trees = [("", wsncluster)]
    if args.against is not None:
        trees.insert(0, (" (against)", load_tree(args.against.resolve(),
                                                 "wsncluster_against")))
    pkgs = [pkg for _, pkg in trees]
    # warm-up, so the first row pays no first-call costs
    time_cell(pkgs, [pkg.load_scenario(ROOT / "scenarios" / "rda50.json") for pkg in pkgs],
              "eepca", 2)
    print("| n (field) | policy | heads/round | round | setup bcasts | election "
          "| clusters | nearest heads | steady | minor faults | kernel µs |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for cells in zip(*(_configs(pkg, args.sizes) for pkg in pkgs)):
        configs = [config for _, config, _, _ in cells]
        label, _, policy, rounds = cells[-1]
        runs = [time_cell(pkgs, configs, policy, rounds, first=k % len(pkgs))
                for k in range(args.repeats)]
        for (mark, _), cell_runs in zip(trees, zip(*runs)):
            _row(label, policy + mark, cell_runs)


if __name__ == "__main__":
    main()
