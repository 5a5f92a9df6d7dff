"""Per-run lifetime, stability and monitoring-quality metrics.

Death milestones are read off the alive-vs-round curve: first node death,
10% death (the stable period), 50% death and last node death.  Monitoring
quality is the cumulative count of fused messages the base station received.
Milestones count against the nodes alive at round 0: a node that starts with
no energy never dies in a round.  Milestones that never occur before the
round limit are censored.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunTrace


CENSORED = None  # milestone not reached before the round limit


@dataclass
class MetricsSummary:
    """One run's milestones (a round, or CENSORED) and per-round curves."""
    seed: int
    policy: str
    fnd_round: Optional[int]
    p10_round: Optional[int]
    p50_round: Optional[int]
    lnd_round: Optional[int]
    bs_messages_total: int
    cumulative_bs_messages: np.ndarray
    alive_curve: np.ndarray
    n_rounds: int


def summarize(trace: RunTrace) -> MetricsSummary:
    """Per-run metrics from a trace's columns."""
    rounds = trace.n_rounds
    if not rounds:
        raise ValueError("cannot summarize an empty trace")
    n = int(np.count_nonzero(trace.e_init > 0))  # a node that starts dead never dies
    dead = np.cumsum(trace.death_counts())
    # round k is entry k: a milestone is the first round whose dead count reaches it
    marks = np.searchsorted(dead, [1, math.ceil(0.1 * n), math.ceil(0.5 * n), n])
    fnd, p10, p50, lnd = (int(k) if k < rounds else CENSORED for k in marks)
    cum = np.cumsum(trace.bs_messages)
    return MetricsSummary(
        seed=trace.seed,
        policy=trace.policy.value,
        fnd_round=fnd,
        p10_round=p10,
        p50_round=p50,
        lnd_round=lnd,
        bs_messages_total=int(cum[-1]),
        cumulative_bs_messages=cum,
        alive_curve=np.array(trace.alive_end),
        n_rounds=rounds,
    )


SUMMARY_COLUMNS = ["policy", "seed", "sweep_var", "sweep_value", "config_hash",
                   "fnd_round", "p10_round", "p50_round", "lnd_round",
                   "bs_messages_total", "n_rounds", "termination"]

CURVE_COLUMNS = ["policy", "seed", "sweep_var", "sweep_value", "round", "alive", "bs_cum"]


def _csv_text(rows) -> str:
    """Rows in the csv module's default dialect, the one csv.DictWriter writes."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


CURVES_HEADER = _csv_text([CURVE_COLUMNS])


def write_summary_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k))
                             for k in SUMMARY_COLUMNS})


def write_curves_csv(fh, rows: str) -> None:
    """Append one run's curve rows, the text curve_rows gives, to an open
    curves file that starts with CURVES_HEADER."""
    fh.write(rows)


def summary_row(summary: MetricsSummary, trace: RunTrace,
                sweep_var: str = "none", sweep_value="") -> dict:
    return {
        "policy": summary.policy,
        "seed": summary.seed,
        "sweep_var": sweep_var,
        "sweep_value": sweep_value,
        "config_hash": trace.config_hash,
        "fnd_round": summary.fnd_round,
        "p10_round": summary.p10_round,
        "p50_round": summary.p50_round,
        "lnd_round": summary.lnd_round,
        "bs_messages_total": summary.bs_messages_total,
        "n_rounds": summary.n_rounds,
        "termination": trace.termination,
    }


# curve rows are formed this many rounds at a time
_CURVE_CHUNK = 256


def curve_rows(summary: MetricsSummary, sweep_var: str = "none", sweep_value="") -> str:
    """One run's rows of curves.csv as CSV text, one line per round in
    CURVE_COLUMNS order and no header.

    The key fields are quoted as the csv module quotes them, once; the
    round and both curves are integers, which it writes as str() does.  The
    rows are joined _CURVE_CHUNK rounds at a time, so the text is held as
    no more than its chunks and itself.
    """
    key = _csv_text([(summary.policy, summary.seed, sweep_var, sweep_value)]).removesuffix("\r\n")
    alive, bs = summary.alive_curve, summary.cumulative_bs_messages
    chunks = []
    for start in range(0, alive.size, _CURVE_CHUNK):
        stop = start + _CURVE_CHUNK
        chunks.append("".join([f"{key},{r},{a},{b}\r\n" for r, a, b in zip(
            range(start, stop), alive[start:stop].tolist(), bs[start:stop].tolist())]))
    return "".join(chunks)
