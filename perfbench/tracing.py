"""In-memory spans around module attributes of the simulator.

Each wrapped call records one span: (name, start, end, parent, run id).  The
run id numbers the simulation runs of a pass; spans outside any run carry -1.
`patched` swaps module attributes for traced wrappers and puts every original
back when it exits, also on error.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name): the attribute is looked up where the caller
# finds it, e.g. `cli.run` is the engine's `run` as the CLI imported it.  Only
# the attributes the per-layer metrics read are wrapped; the time of the rest
# counts as self time of their callers.
TARGETS = (
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "run", "engine.run"),
    ("metrics", "summarize", "metrics.summarize"),
    ("metrics", "curve_rows", "metrics.curve_rows"),
    ("metrics", "write_summary_csv", "metrics.write_summary_csv"),
    ("metrics", "write_curves_csv", "metrics.write_curves_csv"),
    ("engine", "deploy", "model.deploy"),
    ("engine", "make_plan", "planner.make_plan"),
    ("engine", "tx_energy", "radio.tx_energy"),
    ("engine", "sep_probabilities", "baselines.sep_probabilities"),
    ("eepca", "estimated_distance_matrix", "eepca.estimated_distance_matrix"),
    ("eepca", "cost_per_bit_matrix", "eepca.cost_per_bit_matrix"),
    ("eepca", "energy_factors_all", "eepca.energy_factors_all"),
    ("eepca", "avg_round_energies_all", "eepca.avg_round_energies_all"),
    ("eepca", "cost_factors_all", "eepca.cost_factors_all"),
    ("eepca", "election_probabilities_all", "eepca.election_probabilities_all"),
    ("eepca", "eepca_thresholds_all", "eepca.eepca_thresholds_all"),
)
RUN_SPAN = "engine.run"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0   # inclusive time
    self_s: float = 0.0    # minus the time of direct child spans


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans: list = []
        self._stack: list[int] = []
        self._run = -1
        self.runs = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, new_run: bool):
        idx = len(self._spans)
        self._spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        outer_run = self._run
        if new_run:
            self._run = self.runs
            self.runs += 1
        self._stack.append(idx)
        return idx, parent, outer_run

    def _close(self, nid, idx, parent, outer_run, start, end):
        self._stack.pop()
        self._spans[idx] = (nid, start, end, parent, self._run)
        self._run = outer_run

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        new_run = name == RUN_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open(nid, new_run)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(nid, *opened, start, time.perf_counter())
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        opened = self._open(nid, False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(nid, *opened, start, time.perf_counter())

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self._spans, dtype=float).reshape(-1, 5)
        return {"name": rows[:, 0].astype(np.int64), "start": rows[:, 1],
                "end": rows[:, 2], "parent": rows[:, 3].astype(np.int64),
                "run": rows[:, 4].astype(np.int64)}

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, inclusive time and self time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            m = a["name"] == nid
            out[name] = SpanStats(int(m.sum()), float(dur[m].sum()), float(own[m].sum()))
        return out

    def per_run(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per span name: (calls, inclusive seconds) in each simulation run."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        out = {}
        for nid, name in enumerate(self.names):
            m = (a["name"] == nid) & (a["run"] >= 0)
            out[name] = (np.bincount(a["run"][m], minlength=self.runs),
                         np.bincount(a["run"][m], weights=dur[m], minlength=self.runs))
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def patched(tracer: Tracer, modules: dict, targets=TARGETS):
    """Replace each target attribute with a traced wrapper; restore on exit.

    A target the program does not have raises AttributeError, so a renamed
    function cannot silently read as a layer that takes no time.
    """
    saved = []
    try:
        for mod_name, attr, span_name in targets:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(span_name, orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
