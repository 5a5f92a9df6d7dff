"""wsncluster benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lifetime-n100 --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  Each benchmark process imports the
simulator from the checkout's src/ with BLAS pinned to one thread.  With
--trace 0 the launcher first starts SETUP_SAMPLES - 1 processes that only
set up, so set-up time is a median over several processes, and the first
of them also measures the peak heap of one fixed grid; the measuring
process then repeats the seed's CLI batches for --seconds and prints the
end-to-end metrics.  With --trace 1 the measuring process repeats its
batches for half of --seconds, replays them with spans around the
simulator's module functions and prints the per-layer metrics instead.
The last line of output is one JSON object; the line before it holds the
versions and machine the numbers came from.  The exit status is not 0 if
any process fails, and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# a run stops at the end of a repeat, and set-up takes a few seconds per process
DEADLINE_MARGIN_S = 60.0
# One thread per BLAS library: OpenBLAS would otherwise start one per core.
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class LaunchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Start one benchmark process and return the JSON object it printed last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise LaunchError("out of time before starting a benchmark process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "--t0", repr(t0), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise LaunchError("benchmark process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LaunchError(f"benchmark process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wsncluster benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_MARGIN_S + 2 * args.seconds
    out = HERE / "out" / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if not (ROOT / "src" / "wsncluster").is_dir():
            raise LaunchError(f"no simulator sources in {ROOT / 'src'}")
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(run_child(
                    [*common, "--setup-only", *(["--heap"] if k == 0 else []),
                     "--out", str(out / f"setup{k}")], deadline))
        res = run_child([*common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", str(out / "main")],
                        deadline)
        setups.append({"setup_s": res["setup_s"]})
        metrics = res["metrics"]
        if not args.trace:
            metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
            metrics["peak_heap_mb"] = {"value": setups[0]["peak_heap_mb"], "unit": "MB"}
            metrics["setup_s"] = {
                "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    except (LaunchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in res["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"env": res["env"], "runs": res["attempted"],
                      "timed_runs": res["timed_runs"], "repeats": res["repeats"],
                      "setup_s": [s["setup_s"] for s in setups]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
