"""Tests of the benchmark itself: metric names, restoring the traced module
attributes, and counting runs that differ from their reference as failed.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import RDA50, WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 20 nodes on small batteries: a batch of three runs takes well under a second
TINY = Workload(
    name="tiny", why="test",
    scenario=dict(RDA50, n_nodes=20, e_min=0.05, e_max=0.15, homogeneous_energy=0.1),
    cli_args=("--policy", "leach,sep,eepca", "--seeds", "1", "--max-rounds", "80"),
    runs_per_batch=3, batches=2, heap_args=("--policy", "eepca", "--seeds", "1"))


@pytest.fixture(scope="module")
def modules():
    return bench.load_program()


def _reference(records):
    return {r.key: {"sha256": r.sha256, "milestones": r.milestones} for r in records}


def test_benchmark_json_names_and_units():
    entries = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = entries + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert set(entries) == set(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_exactly_the_declared_metrics(modules, tmp_path, trace):
    result = bench.measure(modules, TINY, 3, 0.0, trace, tmp_path, None)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] == 6 * (1 + trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = set(result["metrics"])
    if not trace:   # the launcher adds these from its set-up processes
        got |= {"setup_s", "peak_rss_mb", "peak_heap_mb"}
    assert got == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def _record(key, run_s, rounds):
    return bench.RunRecord(key=key, config=None, policy="eepca", run_s=run_s,
                           rounds=rounds, sha256="", milestones={}, death_rounds=0,
                           heads=0, suppressed=0, broadcast_chances=1)


def test_end_to_end_metrics_take_each_runs_median_repeat():
    # two batches of one run each, repeated three times; the host was slow
    # during the first repeat
    times = {"a": [3.0, 1.0, 1.2], "b": [4.0, 2.1, 1.9]}
    records = [_record(k, times[k][rep], {"a": 100, "b": 300}[k])
               for rep in range(3) for k in ("a", "b")]
    p = bench.PassResult(records, cli_rest_s=[0.2, 0.4, 0.1, 0.1, 0.3, 0.3], repeats=3,
                         batch0_runs=1, batch0_bytes=0, problems=[])
    assert p.run_s() == {"a": 1.2, "b": 2.1}
    m = bench.end_to_end_metrics(p)
    assert m["sim_rounds_per_s"][0] == pytest.approx(400 / 3.3)
    assert m["run_s_p50"][0] == pytest.approx(1.65)
    # the CLI's own time is each batch's median too: 0.2 for batch 0, 0.3 for 1
    assert m["runs_per_s"][0] == pytest.approx(2 / (3.3 + 0.2 + 0.3))


def test_peak_heap_repeats(modules, tmp_path):
    bench.warm_up(modules, TINY, 0, tmp_path)
    first = bench.peak_heap_mb(modules, TINY, tmp_path)
    assert first > 0
    # one-off allocations move it by about 10 kB
    assert bench.peak_heap_mb(modules, TINY, tmp_path) == pytest.approx(first, abs=0.05)


def test_patched_restores_module_attributes(modules):
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer, modules):
            assert all(getattr(modules[m], a) is not fn
                       for (m, a), fn in before.items())
            raise RuntimeError("abort the traced pass")
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())

    # a target the program lacks fails the pass and undoes the wrapping so far
    gone = (*tracing.TARGETS, ("eepca", "no_such_function", "eepca.no_such_function"))
    with pytest.raises(AttributeError):
        with tracing.patched(tracer, modules, gone):
            pass
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def test_traced_replay_keeps_digests_and_accounts_for_run_time(modules, tmp_path):
    untraced = bench.timed_pass(modules, TINY, 5, tmp_path, 0.0)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, modules):
        traced = bench.timed_pass(modules, TINY, 5, tmp_path, 0.0,
                                  repeats=untraced.repeats, tracer=tracer)
    assert modules["cli"].run is modules["engine"].run
    assert [r.sha256 for r in traced.records] == [r.sha256 for r in untraced.records]
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = {}
    for d, parent in zip(dur, a["parent"]):
        child[parent] = child.get(parent, 0.0) + d
    assert all(child.get(i, 0.0) <= d + 1e-9 for i, d in enumerate(dur))
    assert tracer.runs == len(traced.records)
    st = tracer.stats()
    children = [n for n in st if n.startswith(("eepca.", "model.deploy", "planner.",
                                               "radio.", "baselines."))]
    run = st["engine.run"]
    assert run.self_s + sum(st[n].total_s for n in children) == pytest.approx(run.total_s)


def test_corrupted_reference_digest_counts_as_failure(modules, tmp_path):
    first = bench.timed_pass(modules, TINY, 0, tmp_path, 0.0)
    reference = _reference(first.records)
    clean = bench.measure(modules, TINY, 0, 0.0, False, tmp_path, reference)
    assert clean["correct"] and clean["failed"] == 0

    victim = first.records[1].key
    reference[victim] = dict(reference[victim], sha256="0" * 64)
    broken = bench.measure(modules, TINY, 0, 0.0, False, tmp_path, reference)
    assert not broken["correct"]
    assert broken["failed"] == 1
    assert broken["problems"] == [f"{victim}: trace differs from reference"]


def test_checked_in_reference_covers_every_workload():
    reference = json.loads(bench.REFERENCE_PATH.read_text())
    for wl in WORKLOADS.values():
        assert len(reference[wl.name]) == wl.runs_per_batch * wl.batches


def test_launcher_fails_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "field-n1600", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
