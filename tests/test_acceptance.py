"""Acceptance suite: one test per acceptance criterion.

The five multi-seed experiment grids (lifetime, rda-lifetime, alpha,
heterogeneity, epsilon) are the entries of scenarios/experiments.json, the
table scripts/run_experiment.py runs too.  They are expensive (a full
100-node run takes about a second), so their per-seed results are cached as
JSON under tests/_cache, keyed by the scenario hash, the sweep parameters
and a hash of the simulator source (src/wsncluster/*.py).  Any change to
the source therefore recomputes every experiment: a cold run is about 1,650
simulations, which _experiment spreads over every usable CPU through
cli.run_grid: a cold run of commit 1413743 took 14 min 03 s wall and
27 min 41 s user CPU in one pytest process on a 2-vCPU Xeon, whose speed
varies by about 2x between sessions.  With a warm cache the whole module
runs in seconds.
"""

import csv
import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import run_experiment
import wsncluster
from wsncluster import eepca
from wsncluster.baselines import PolicyKind
from wsncluster.cli import SweepSpec, run_grid
from wsncluster.eepca import eepca_thresholds_all, rotation_epochs
from wsncluster.engine import _Sim, run
from wsncluster.model import load_scenario
from wsncluster.planner import d_to_bs, expected_member_distances
from wsncluster.radio import tx_energy

CACHE_DIR = Path(__file__).parent / "_cache"
ROOT = Path(__file__).parent.parent
SCENARIOS = ROOT / "scenarios"
EXPERIMENTS = json.loads((SCENARIOS / "experiments.json").read_text())

BASE = load_scenario(SCENARIOS / "table1.json")
RDA = load_scenario(SCENARIOS / "rda50.json")

POLICIES = tuple(EXPERIMENTS["lifetime"]["policies"])
ALPHA_GRID = EXPERIMENTS["alpha"]["values"]
HET_GRID = EXPERIMENTS["heterogeneity"]["values"]
EPS_GRID = EXPERIMENTS["epsilon"]["values"]
# a cached run's milestones: cache field -> summary.csv column
MILESTONES = {"fnd": "fnd_round", "p10": "p10_round", "p50": "p50_round",
              "lnd": "lnd_round", "bs": "bs_messages_total"}


def source_hash(package_dir: Path) -> str:
    """sha256 over the names and bytes of the package's Python files."""
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


SOURCE_HASH = source_hash(Path(wsncluster.__file__).parent)


def cache_key(params: dict, src: str = SOURCE_HASH) -> str:
    blob = json.dumps({**params, "src": src}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _cached(name: str, params: dict, builder):
    key = cache_key(params)
    path = CACHE_DIR / f"{name}-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    data = builder()
    CACHE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data))
    return data


def _params(name: str) -> dict:
    """The cache parameters of a table entry: its scenario's hash, its seed
    count and, for a sweep, its values."""
    exp = EXPERIMENTS[name]
    params = {"config": load_scenario(SCENARIOS / exp["scenario"]).config_hash(),
              "seeds": exp["seeds"]}
    if "values" in exp:
        params["grid"] = exp["values"]
    return params


def _grid(name: str) -> dict:
    """A table entry's milestones per seed, keyed "value/policy" (value None
    without a sweep), from cli.run_grid over every usable CPU."""
    exp = EXPERIMENTS[name]
    jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    spec = SweepSpec(base=load_scenario(SCENARIOS / exp["scenario"]),
                     policies=[PolicyKind.parse(p) for p in exp["policies"]],
                     seeds=exp["seeds"], sweep_var=exp.get("sweep", "none"),
                     values=exp.get("values", []), jobs=jobs)
    rows = [{key: row[col] for key, col in MILESTONES.items()} for row, _ in run_grid(spec)]
    # run_grid yields in (value, policy, seed) order
    cells = [f"{value}/{policy}" for value in exp.get("values", (None,))
             for policy in exp["policies"]]
    n = exp["seeds"]
    return {cell: rows[i * n:(i + 1) * n] for i, cell in enumerate(cells)}


@functools.cache
def _experiment(name: str) -> dict:
    """A table entry's grid, from its cache file or run once per session."""
    return _cached(name, _params(name), lambda: _grid(name))


def _mean(rows, key):
    return float(np.mean([r[key] for r in rows]))


def test_cache_key_covers_every_source_byte(tmp_path):
    for path in Path(wsncluster.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert source_hash(tmp_path) == SOURCE_HASH
    params = _params("lifetime")
    for path in sorted(tmp_path.glob("*.py")):
        original = path.read_bytes()
        for i in (0, len(original) - 1):
            mutated = bytearray(original)
            mutated[i] ^= 1
            path.write_bytes(bytes(mutated))
            assert cache_key(params, source_hash(tmp_path)) != cache_key(params), \
                f"{path.name} byte {i}"
        path.write_bytes(original)


# --- the experiment table ------------------------------------------------

def test_table_grids_keep_their_cache_keys():
    # the keys, without the source hash, of the table's grids: a table edit
    # that changes a grid (0 for 0.0, a dropped seed or value) changes its
    # key, and so does a change to the scenario fields, which the config
    # hash covers
    assert {name: cache_key(_params(name), src="") for name in EXPERIMENTS} == {
        "lifetime": "b5734fe637f6",
        "rda-lifetime": "f8fa4c49e14b",
        "alpha": "ab5c3568f55f",
        "heterogeneity": "e3b170b85008",
        "epsilon": "21abf65e123c",
    }


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_experiment_writes_the_grid(name, tmp_path):
    out = tmp_path / name
    assert run_experiment.main(
        [name, "--seeds", "1", "--max-rounds", "2", "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = [(r["sweep_value"], r["policy"]) for r in csv.DictReader(fh)]
    exp = EXPERIMENTS[name]
    # one row per sweep value and policy; the value is blank without a sweep
    values = [str(v) for v in exp.get("values", [""])]
    assert sorted(rows) == sorted((v, p) for v in values for p in exp["policies"])


def test_run_experiment_rejects_an_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        run_experiment.main(["lifetimes"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(repr(name) in err for name in EXPERIMENTS), err


# --- criterion 1: lifetime ordering --------------------------------------

def test_c01_lifetime_ordering_and_ratios():
    lifetime_data = _experiment("lifetime")
    lnd = {p: _mean(lifetime_data[f"None/{p}"], "lnd") for p in POLICIES}
    assert lnd["eepca"] > lnd["sep"] > lnd["leach"], f"mean LND: {lnd}"
    assert lnd["eepca"] / lnd["leach"] >= 1.5, f"mean LND: {lnd}"
    assert lnd["eepca"] / lnd["sep"] >= 1.2, f"mean LND: {lnd}"


# --- criterion 2: terminal death-curve sharpness -------------------------

def test_c02_terminal_death_drop_sharper_than_leach():
    def span_ratio(policy):
        rows = _experiment("lifetime")[f"None/{policy}"]
        return float(np.mean([(r["lnd"] - r["fnd"]) / r["lnd"] for r in rows]))
    assert span_ratio("eepca") < span_ratio("leach")


# --- criterion 3: alpha sweep --------------------------------------------

def test_c03_alpha_sweep_interior_maximum():
    alpha_data = _experiment("alpha")
    means = [_mean(alpha_data[f"{a}/eepca"], "fnd") for a in ALPHA_GRID]
    best = ALPHA_GRID[int(np.argmax(means))]
    assert ALPHA_GRID[0] < best < ALPHA_GRID[-1], f"fnd means: {means}"
    assert 0.6 <= best <= 0.85, f"best alpha {best}, fnd means: {means}"


# --- criterion 4: heterogeneity sweep ------------------------------------

def test_c04_stable_period_under_heterogeneity():
    het_data = _experiment("heterogeneity")
    p10 = {p: [_mean(het_data[f"{f}/{p}"], "p10") for f in HET_GRID]
           for p in POLICIES}
    assert p10["sep"][-1] >= 1.15 * p10["leach"][-1], f"p10 at full het: {p10}"
    slopes = {p: abs(np.polyfit(HET_GRID, p10[p], 1)[0]) for p in POLICIES}
    assert slopes["eepca"] == min(slopes.values()), f"p10 slopes: {slopes}"


# --- criterion 5: epsilon sweep ------------------------------------------

def test_c05_epsilon_sweep_interior_maximum():
    eps_data = _experiment("epsilon")
    means = [_mean(eps_data[f"{e}/eepca"], "p10") for e in EPS_GRID]
    interior_max = max(means[1:-1])
    assert interior_max > means[0] and interior_max > means[-1], \
        f"p10 means over {EPS_GRID}: {means}"


# --- criterion 6: monitoring quality -------------------------------------

def test_c06_bs_messages_exceed_baselines():
    rda_lifetime_data = _experiment("rda-lifetime")
    bs = {p: _mean(rda_lifetime_data[f"None/{p}"], "bs") for p in POLICIES}
    assert bs["eepca"] > bs["leach"], f"mean BS messages: {bs}"
    assert bs["eepca"] > bs["sep"], f"mean BS messages: {bs}"


# --- criterion 7: prediction exactness -----------------------------------

def test_c07_prediction_exact_for_healthy_rda_nodes():
    # the belief ledger charges a member's steady-phase data at its predicted
    # cost; for a healthy RDA member that is what the data costs
    sim = _Sim(RDA, PolicyKind.EEPCA)
    healthy_rda = sim.is_rda & ~sim.is_malf
    steady = sim._steady
    checked = [0]

    def compared(assignment, heads, noise, *draws):
        member = healthy_rda & (assignment >= 0)
        e, belief = sim.e[member], sim.belief[member]
        out = steady(assignment, heads, noise, *draws)
        e_drop, belief_drop = e - sim.e[member], belief - sim.belief[member]
        assert np.allclose(belief_drop, e_drop, rtol=1e-12, atol=0.0)
        checked[0] += np.count_nonzero(e_drop > 0)
        return out

    sim._steady = compared
    for r in range(400):
        if not sim.alive.any():
            break
        alive_start = np.flatnonzero(healthy_rda & (sim.e > 0))
        sim.play_round(r)
        if r >= 1:
            assert set(alive_start) <= set(sim.trace.records[r].suppressed), \
                f"round {r}: healthy RDA node broadcast despite exact prediction"
    assert checked[0] > 1000  # the property must have been exercised


# --- criterion 8: energy conservation ------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("config", [BASE, RDA], ids=["plain", "rda"])
def test_c08_energy_conservation(config, policy):
    for seed in (0, 1):
        trace = run(config.with_seed(seed), policy, max_rounds=300)
        dropped = trace.e_init.sum() - trace.e_final.sum()
        assert dropped == pytest.approx(trace.total_debits, rel=1e-9)


# --- criterion 9: formula golden values ----------------------------------

def test_c09_formula_golden_values():
    # 4000 * 5e-9 + 4000 * 10e-12 * 50^2
    assert tx_energy(4000, 50.0, BASE.radio) == pytest.approx(1.2e-4, rel=1e-12)
    # 0.765 * 100 / 2
    assert d_to_bs(100.0) == pytest.approx(38.25, rel=1e-12)
    # near-group mean distance 2/3 * 75 once the cluster reaches d0
    assert expected_member_distances(100.0, 75.0)[0] == \
        pytest.approx(50.0, rel=1e-12)
    # 0.1 / (1 - 0.1 * 5): the LEACH threshold is the EEPCA one with w = 1
    p = np.array([0.1])
    epoch = rotation_epochs(p)
    t = eepca_thresholds_all(p, np.zeros(1, dtype=np.int64), np.ones(1),
                             np.ones(1, dtype=bool), epoch, 5 % epoch)
    assert t[0] == pytest.approx(0.2, rel=1e-12)


# --- criterion 10: Monte-Carlo disc oracle -------------------------------

def test_c10_uniform_disc_mean_radius():
    # rejection sampling from the square, independent of the closed form
    rng = np.random.default_rng(42)
    radii = []
    while sum(len(r) for r in radii) < 1_000_000:
        pts = rng.uniform(-75.0, 75.0, (500_000, 2))
        d = np.hypot(pts[:, 0], pts[:, 1])
        radii.append(d[d <= 75.0])
    mean = float(np.concatenate(radii)[:1_000_000].mean())
    assert abs(mean - 50.0) / 50.0 < 0.01


# --- criterion 11: reduction to the classic rotation ---------------------

def test_c11_unit_factors_reduce_to_leach(monkeypatch):
    # EEPCA with both factors 1 elects as LEACH does; table1 has no RDA node,
    # so no broadcast is suppressed
    a = run(BASE, PolicyKind.LEACH, max_rounds=2000)
    monkeypatch.setattr(eepca, "energy_factors_all", lambda e, *args: np.ones_like(e))
    monkeypatch.setattr(eepca, "cost_factors_all", lambda e_ideal, e_round: np.ones_like(e_round))
    b = run(BASE, PolicyKind.EEPCA, max_rounds=2000)
    assert list(a.records) == list(b.records)


# --- criterion 12: byte-identical trace files ----------------------------

def test_c12_trace_files_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        trace = run(BASE, PolicyKind.EEPCA, max_rounds=500)
        path = tmp_path / f"trace{i}.jsonl"
        trace.write_jsonl(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
