#!/usr/bin/env python3
"""Per-phase wall time of simulator rounds, with page faults and kernel time.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/phase_times.py

Runs scenarios/rda50.json roles at the table1 density (100 nodes per
100 m x 100 m) for n = 100, 400, 1600 and 3200 under leach and eepca,
scenario seed 0, 40 rounds each; then scenarios/rda50.json itself (n = 100)
under leach, sep and eepca, scenario seed 0, run to exhaustion, the shape of
the lifetime experiments, whose late rounds have deaths, sparse grids and the
per-frame steady path.  It prints one markdown table row per cell:
heads per round, then microseconds per round for the whole round, each
engine phase (setup broadcasts, election, cluster formation, steady phase)
and eepca.nearest_heads inside cluster formation, then minor page faults and
kernel microseconds per round from resource.getrusage.  Timers wrap the
phase methods of engine._Sim and eepca.nearest_heads from outside for the
duration of the run; the engine itself is unchanged and the traces are the
ones an untimed run gives.  _Sim set-up is not counted.
"""

import dataclasses
import math
import resource
import time
from collections import defaultdict
from pathlib import Path

from wsncluster import eepca
from wsncluster.baselines import PolicyKind
from wsncluster.engine import _Sim
from wsncluster.model import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 400, 1600, 3200)
ROUNDS = 40
EXHAUSTION = 10000  # run()'s default round limit
PHASES = ("_setup_broadcasts", "_election", "_form_clusters", "_steady")
# table columns in order; nearest_heads runs inside _form_clusters
COLUMNS = ("round", "_setup_broadcasts", "_election", "_form_clusters",
           "nearest_heads", "_steady")


def _timed(fn, totals, key):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - t0
    return wrapper


def time_cell(config, policy, rounds):
    """Seconds per phase over up to `rounds` rounds, plus round count, heads,
    minor faults and kernel seconds."""
    totals = defaultdict(float)
    saved = {name: getattr(_Sim, name) for name in PHASES}
    saved_nearest = eepca.nearest_heads
    for name in PHASES:
        setattr(_Sim, name, _timed(saved[name], totals, name))
    eepca.nearest_heads = _timed(saved_nearest, totals, "nearest_heads")
    try:
        sim = _Sim(config, PolicyKind.parse(policy), detail=False)
        heads = played = 0
        before = resource.getrusage(resource.RUSAGE_SELF)
        for r in range(rounds):
            if not sim.alive.any():
                break
            t0 = time.perf_counter()
            rec = sim.play_round(r)
            totals["round"] += time.perf_counter() - t0
            heads += len(rec.head_ids)
            played += 1
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        for name, fn in saved.items():
            setattr(_Sim, name, fn)
        eepca.nearest_heads = saved_nearest
    faults = after.ru_minflt - before.ru_minflt
    kernel = after.ru_stime - before.ru_stime
    return totals, played, heads, faults, kernel


def _row(label, policy, cell):
    totals, played, heads, faults, kernel = cell
    us = [f"{totals[k] / played * 1e6:,.0f}" for k in COLUMNS]
    print(f"| {label} | {policy} | {heads / played:.1f} | " + " | ".join(us)
          + f" | {faults / played:.1f} | {kernel / played * 1e6:,.0f} |")


def main() -> None:
    rda50 = load_scenario(ROOT / "scenarios" / "rda50.json")
    time_cell(rda50, "eepca", 2)  # warm-up, so the first row pays no first-call costs
    print("| n (field) | policy | heads/round | round | setup bcasts | election "
          "| clusters | nearest heads | steady | minor faults | kernel µs |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for n in SIZES:
        side = 100.0 * math.sqrt(n / 100.0)
        config = dataclasses.replace(rda50, n_nodes=n, m_field=side)
        for policy in ("leach", "eepca"):
            _row(f"{n} ({side:.0f} m)", policy, time_cell(config, policy, ROUNDS))
    for policy in ("leach", "sep", "eepca"):
        _row("100 (100 m), to exhaustion", policy, time_cell(rda50, policy, EXHAUSTION))


if __name__ == "__main__":
    main()
