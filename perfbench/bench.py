"""One benchmark process for one workload.

It imports the simulator from the checkout's src/, generates the workload's
scenario JSON, warms up one single-round run per (scenario, policy) cell and
then runs the seed's fixed CLI batches again and again for the given number
of seconds.  Every simulation run that the CLI starts goes through a
stand-in for `cli.run`, which times it, digests its JSONL trace and checks
it.  With --trace 1 the same batches are replayed with spans around the
simulator's module functions.

Launch it through perfbench/run.py, which pins BLAS threads, measures set-up
over several processes and prints the result.  `--write-reference` rewrites
reference.json from the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ELECTION = ("eepca.energy_factors_all", "eepca.avg_round_energies_all",
            "eepca.cost_factors_all", "eepca.election_probabilities_all",
            "eepca.eepca_thresholds_all")
SETUP_PARTS = ("eepca.estimated_distance_matrix", "eepca.cost_per_bit_matrix",
               "model.deploy", "radio.tx_energy", "planner.make_plan",
               "baselines.sep_probabilities")
CLI_OUTPUT = ("summary.csv", "curves.csv", "metadata.json")
MIN_SETUP_PROBES = 6
ENERGY_RTOL = 1e-9


class BenchError(RuntimeError):
    """The program could not be run as the workload requires."""


def load_program() -> dict:
    """Import the simulator from the checkout; returns its modules by name."""
    if not (SRC / "wsncluster" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsncluster
    from wsncluster import cli, eepca, engine, metrics
    if Path(wsncluster.__file__).resolve().parent != SRC / "wsncluster":
        raise BenchError(f"imported wsncluster from {wsncluster.__file__}, not {SRC}")
    return {"cli": cli, "engine": engine, "eepca": eepca, "metrics": metrics}


# --- checking one run -----------------------------------------------------

@dataclass
class RunRecord:
    key: str
    config: object
    policy: str
    run_s: float
    rounds: int
    sha256: str
    milestones: dict
    death_rounds: int
    heads: int
    suppressed: int
    broadcast_chances: int   # alive nodes at the start of each round, summed
    problems: list[str] = field(default_factory=list)


def run_key(config, policy: str) -> str:
    return f"{policy}/seed={config.rng_seed}/alpha={config.alpha!r}"


def _milestones(trace) -> dict:
    n = trace.e_init.size
    marks = {"fnd": 1, "p10": math.ceil(0.1 * n), "p50": math.ceil(0.5 * n), "lnd": n}
    out = dict.fromkeys(marks)
    dead = bs = 0
    for rec in trace.records:
        dead += len(rec.deaths)
        bs += rec.bs_messages
        for name, need in marks.items():
            if out[name] is None and dead >= need:
                out[name] = rec.r
    out.update(bs_messages=bs, rounds=len(trace.records), termination=trace.termination)
    return out


def check_run(trace, config, run_s: float, reference: dict | None) -> RunRecord:
    """Digest a run's JSONL trace and check energy, alive counts and reference."""
    policy = trace.policy.value
    digest = hashlib.sha256()
    for rec in trace.records:
        digest.update((json.dumps(rec.to_json_dict()) + "\n").encode())
    alive = [int((trace.e_init > 0).sum())] + [rec.alive_end for rec in trace.records]
    r = RunRecord(
        key=run_key(config, policy), config=config, policy=policy, run_s=run_s,
        rounds=len(trace.records), sha256=digest.hexdigest(),
        milestones=_milestones(trace),
        death_rounds=sum(1 for rec in trace.records if rec.deaths),
        heads=sum(len(rec.head_ids) for rec in trace.records),
        suppressed=sum(len(rec.suppressed) for rec in trace.records),
        broadcast_chances=sum(alive[:-1]))
    e_init, e_final = float(trace.e_init.sum()), float(trace.e_final.sum())
    if not abs(trace.total_debits - (e_init - e_final)) <= ENERGY_RTOL * max(e_init, 1.0):
        r.problems.append(f"debits {trace.total_debits!r} != energy drop {e_init - e_final!r}")
    if any(b > a for a, b in zip(alive, alive[1:])):
        r.problems.append("alive count rose")
    if reference is not None:
        want = reference.get(r.key)
        if want is None:
            r.problems.append("no reference for this run")
        elif want != {"sha256": r.sha256, "milestones": r.milestones}:
            r.problems.append("trace differs from reference")
    return r


class Recorder:
    """Stands in for the `run` the CLI calls: times each run, then checks it.

    Time spent checking is kept in `check_s` so the batch timing can drop it.
    """

    def __init__(self, modules: dict, tracer: tracing.Tracer | None = None):
        self._cli = modules["cli"]
        self._tracer = tracer
        self._run = None
        self.reference: dict | None = None
        self.records: list[RunRecord] = []
        self.check_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        """Put the recorder in place of `cli.run`."""
        self._run = self._cli.run
        self._cli.run = self
        try:
            yield self
        finally:
            self._cli.run = self._run

    def __call__(self, config, policy, *args, **kwargs):
        start = time.perf_counter()
        trace = self._run(config, policy, *args, **kwargs)
        end = time.perf_counter()
        with (self._tracer.span("bench.check") if self._tracer
              else contextlib.nullcontext()):
            self.records.append(check_run(trace, config, end - start, self.reference))
        self.check_s += time.perf_counter() - end
        return trace


# --- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    records: list[RunRecord]
    cli_rest_s: list[float]  # per batch run: time in cli.main outside runs and checks
    repeats: int
    batch0_runs: int
    batch0_bytes: int
    problems: list[str]

    def run_s(self) -> dict[str, float]:
        """Each run's median whole-run time over the repeats.

        The host slows stretches of a few seconds at random; a run's median
        repeat is steadier than its fastest or a mean over the window.
        """
        times: dict[str, list[float]] = {}
        for r in self.records:
            times.setdefault(r.key, []).append(r.run_s)
        return {k: statistics.median(v) for k, v in times.items()}

    def rounds(self) -> int:
        """Rounds of one repeat of the batches."""
        return sum({r.key: r.rounds for r in self.records}.values())

    def median_cli_rest_s(self) -> float:
        """The CLI's time outside runs for one repeat: per batch, the median
        over the repeats."""
        per_batch = len(self.cli_rest_s) // self.repeats
        return sum(statistics.median(self.cli_rest_s[b::per_batch])
                   for b in range(per_batch))


def write_scenario(wl: Workload, seed: int, batch: int, path: Path) -> Path:
    path.write_text(json.dumps(wl.batch_scenario(seed, batch), indent=1))
    return path


def _check_cli_output(out_dir: Path, records: list[RunRecord], wl: Workload) -> list[str]:
    """The CLI's summary.csv must list exactly the runs it made, with their
    milestones."""
    if len(records) != wl.runs_per_batch:
        return [f"batch made {len(records)} runs, expected {wl.runs_per_batch}"]
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [(row["policy"], int(row["seed"]), row["lnd_round"], row["n_rounds"])
           for row in rows]
    want = [(r.policy, r.config.rng_seed,
             "" if r.milestones["lnd"] is None else str(r.milestones["lnd"]),
             str(r.rounds)) for r in records]
    return [] if got == want else ["summary.csv disagrees with the runs"]


def timed_pass(modules: dict, wl: Workload, seed: int, work_dir: Path,
               seconds: float, reference: dict | None = None,
               repeats: int | None = None,
               tracer: tracing.Tracer | None = None) -> PassResult:
    """Run the seed's `wl.batches` CLI batches, then again, until about
    `seconds` have passed (at least once), or exactly `repeats` times.

    Every repeat of a run must give the trace its first repeat gave.
    """
    cli = modules["cli"]
    recorder = Recorder(modules, tracer)
    recorder.reference = reference
    rest: list[float] = []
    problems: list[str] = []
    first_sha: dict[str, str] = {}
    batch0_runs = batch0_bytes = 0
    start = time.monotonic()
    with recorder.installed():
        for rep in itertools.count(1):
            for batch in range(wl.batches):
                scenario = write_scenario(wl, seed, batch, work_dir / "scenario.json")
                out_dir = work_dir / "cli"
                first, check_before = len(recorder.records), recorder.check_s
                t0 = time.perf_counter()
                code = cli.main(wl.argv(scenario, out_dir))
                busy = time.perf_counter() - t0 - (recorder.check_s - check_before)
                if code != 0:
                    raise BenchError(f"cli exited with {code} on batch {batch}")
                made = recorder.records[first:]
                rest.append(busy - sum(r.run_s for r in made))
                problems += _check_cli_output(out_dir, made, wl)
                for r in made:
                    if first_sha.setdefault(r.key, r.sha256) != r.sha256:
                        r.problems.append("trace differs from the run's first repeat")
                if rep == 1 and batch == 0:
                    batch0_runs = len(made)
                    batch0_bytes = sum((out_dir / f).stat().st_size for f in CLI_OUTPUT)
            elapsed = time.monotonic() - start
            if rep == repeats or (repeats is None
                                  and elapsed + elapsed / rep / 2 >= seconds):
                break
    return PassResult(recorder.records, rest, rep, batch0_runs, batch0_bytes, problems)


def warm_up(modules: dict, wl: Workload, seed: int, work_dir: Path) -> None:
    """One single-round run per (scenario, policy) cell of the first batch."""
    scenario = write_scenario(wl, seed, 0, work_dir / "scenario.json")
    if modules["cli"].main(wl.argv(scenario, work_dir / "warm", max_rounds=1)) != 0:
        raise BenchError("warm-up batch failed")


def peak_heap_mb(modules: dict, wl: Workload, work_dir: Path) -> float:
    """Peak memory that Python and numpy allocate (tracemalloc) while the CLI
    runs `wl.heap_args` in full on the reference seed's first scenario.

    The run is the same whatever the workload seed, so this repeats to within
    about 10 kB; the peak RSS moved by 10% with the state of the host.
    """
    scenario = write_scenario(wl, REFERENCE_SEED, 0, work_dir / "heap.json")
    tracemalloc.start()
    try:
        code = modules["cli"].main(wl.argv(scenario, work_dir / "heap",
                                           cli_args=wl.heap_args))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    if code != 0:
        raise BenchError(f"cli exited with {code} while measuring the heap")
    return peak


# --- metrics -----------------------------------------------------------------

def end_to_end_metrics(p: PassResult) -> dict:
    run_s = list(p.run_s().values())
    return {
        "runs_per_s": (len(run_s) / (sum(run_s) + p.median_cli_rest_s()), "1/s"),
        "sim_rounds_per_s": (p.rounds() / sum(run_s), "1/s"),
        "run_s_p50": (statistics.median(run_s), "s"),
    }


def setup_probes(modules: dict, cells: list) -> tracing.Tracer:
    """Time `run(..., max_rounds=0)`, which builds the simulation and stops."""
    tracer = tracing.Tracer()
    repeats = max(1, math.ceil(MIN_SETUP_PROBES / len(cells)))
    with tracing.patched(tracer, modules):
        run = tracer.wrap(tracing.RUN_SPAN, modules["engine"].run)
        for _ in range(repeats):
            for config, policy in cells:
                run(config, policy, max_rounds=0)
    return tracer


def layer_metrics(untraced: PassResult, traced: PassResult,
                  tracer: tracing.Tracer, probes: tracing.Tracer) -> dict:
    st = tracer.stats()
    runs = len(traced.records)
    rounds = traced.rounds() * traced.repeats

    def get(name):
        return st.get(name, tracing.SpanStats())

    m = {
        "engine.run.us_per_round": (get("engine.run").total_s / rounds * 1e6, "us"),
        "engine.self_us_per_round": (get("engine.run").self_s / rounds * 1e6, "us"),
        "eepca.election_us_per_round":
            (sum(get(n).total_s for n in ELECTION) / rounds * 1e6, "us"),
    }
    for name in ELECTION:
        m[f"{name}.calls"] = (get(name).calls / runs, "count")
        m[f"{name}.ms"] = (get(name).total_s * 1e3 / runs, "ms")
    for name in ("metrics.summarize", "metrics.curve_rows",
                 "metrics.write_curves_csv", "metrics.write_summary_csv"):
        m[f"{name}.ms"] = (get(name).total_s * 1e3 / runs, "ms")
    m["cli.run_experiment.self_ms"] = (get("cli.run_experiment").self_s * 1e3 / runs, "ms")

    per_probe = probes.per_run()
    none = (np.zeros(probes.runs), np.zeros(probes.runs))
    m["engine.setup_ms"] = (np.median(per_probe[tracing.RUN_SPAN][1]) * 1e3, "ms")
    for name in SETUP_PARTS:
        m[f"{name}.ms"] = (np.median(per_probe.get(name, none)[1]) * 1e3, "ms")
    m["radio.tx_energy.calls"] = (np.median(per_probe.get("radio.tx_energy", none)[0]),
                                  "count")

    # exact counts over the first batch, whose runs are fixed by the seed
    b0 = untraced.records[:untraced.batch0_runs]
    b0_rounds = sum(r.rounds for r in b0)
    suppressed = sum(r.suppressed for r in b0)
    m.update({
        "cli.bytes_written": (untraced.batch0_bytes, "B"),
        "engine.rounds": (b0_rounds, "count"),
        "engine.death_rounds": (sum(r.death_rounds for r in b0), "count"),
        "engine.heads_per_round": (sum(r.heads for r in b0) / b0_rounds, "count"),
        "engine.broadcasts_suppressed": (suppressed, "count"),
        "engine.suppression_ratio":
            (suppressed / sum(r.broadcast_chances for r in b0), "ratio"),
    })
    fast = end_to_end_metrics(untraced)["sim_rounds_per_s"][0]
    slow = end_to_end_metrics(traced)["sim_rounds_per_s"][0]
    m["sim_rounds_per_s.untraced"] = (fast, "1/s")
    m["sim_rounds_per_s.traced"] = (slow, "1/s")
    m["trace.overhead_pct"] = ((fast - slow) / fast * 100.0, "%")
    return m


# --- environment -------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --- entry points ---------------------------------------------------------------

def load_reference(wl: Workload, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(wl.name)


def measure(modules: dict, wl: Workload, seed: int, seconds: float,
            trace: bool, work: Path, reference: dict | None) -> dict:
    """Run the timed pass, and with `trace` the traced replay; check all runs.

    The replay makes as many repeats as the timed pass, so with `trace` the
    timed pass gets half of `seconds`.
    """
    untraced = timed_pass(modules, wl, seed, work, seconds / 2 if trace else seconds,
                          reference)
    passes = [untraced]
    if trace:
        tracer = tracing.Tracer()
        with tracing.patched(tracer, modules):
            traced = timed_pass(modules, wl, seed, work, seconds, reference,
                                repeats=untraced.repeats, tracer=tracer)
        passes.append(traced)
        tracer.write(work / "spans.npz")
        cells = [(r.config, r.policy) for r in untraced.records[:untraced.batch0_runs]]
        probes = setup_probes(modules, cells)
        for a, b in zip(untraced.records, traced.records):
            if a.sha256 != b.sha256:
                b.problems.append("traced run differs from untraced run")
        metrics = layer_metrics(untraced, traced, tracer, probes)
    else:
        metrics = end_to_end_metrics(untraced)
    with open(work / "runs.jsonl", "w") as fh:
        for r in untraced.records:
            fh.write(json.dumps({"key": r.key, "rounds": r.rounds, "run_s": r.run_s}) + "\n")

    records = [r for p in passes for r in p.records]
    problems = [f"{r.key}: {msg}" for r in records for msg in r.problems]
    problems += [msg for p in passes for msg in p.problems]
    return {
        "attempted": len(records), "failed": sum(1 for r in records if r.problems),
        "problems": problems, "correct": not problems,
        "timed_runs": len(untraced.run_s()), "repeats": untraced.repeats,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_reference() -> None:
    modules = load_program()
    out = {}
    for wl in WORKLOADS.values():
        work = ROOT / "perfbench" / "out" / "reference" / wl.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        p = timed_pass(modules, wl, REFERENCE_SEED, work, 0.0, repeats=1)
        bad = [r.key for r in p.records if r.problems] + p.problems
        if bad:
            raise BenchError(f"{wl.name}: reference runs fail their checks: {bad[:5]}")
        out[wl.name] = {r.key: {"sha256": r.sha256, "milestones": r.milestones}
                        for r in p.records}
        print(f"{wl.name}: {len(p.records)} runs", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, help="time.monotonic() when the launcher "
                    "started this process")
    ap.add_argument("--out", help="scratch directory for this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--heap", action="store_true",
                    help="with --setup-only: also measure the peak heap")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None or args.out is None or args.t0 is None:
        ap.error("--workload, --out and --t0 are required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    work = Path(args.out)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        modules = load_program()
        warm_up(modules, wl, args.seed, work)
        result = {"setup_s": time.monotonic() - args.t0}
        if args.setup_only:
            if args.heap:
                result["peak_heap_mb"] = peak_heap_mb(modules, wl, work)
        else:
            result.update(measure(modules, wl, args.seed, args.seconds, bool(args.trace),
                                  work, load_reference(wl, args.seed)))
            result.update(env=environment(), peak_rss_mb=peak_rss_mb())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
