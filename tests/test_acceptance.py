"""Acceptance suite: one test per acceptance criterion.

The multi-seed experiments are expensive (a full 100-node run takes a few
seconds), so their per-seed results are cached as JSON under tests/_cache,
keyed by the scenario hash, the sweep parameters and a hash of the simulator
source (src/wsncluster/*.py).  Any change to the source therefore recomputes
every experiment: a cold run is about 1,650 simulations, about 35
CPU-minutes.  With a warm cache the whole module runs in seconds.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import wsncluster
from wsncluster.baselines import PolicyKind
from wsncluster.eepca import eepca_thresholds_all
from wsncluster.engine import run
from wsncluster.metrics import summarize
from wsncluster.model import ScenarioConfig, deploy
from wsncluster.planner import d_to_bs, expected_member_distances
from wsncluster.radio import tx_energy

CACHE_DIR = Path(__file__).parent / "_cache"

BASE = ScenarioConfig()
RDA = dataclasses.replace(BASE, frac_rda=0.5, frac_malfunction=0.1)

POLICIES = ("leach", "sep", "eepca")
LIFETIME_SEEDS = 100
ALPHA_GRID = [round(0.50 + 0.05 * i, 2) for i in range(9)]
ALPHA_SEEDS = 50
HET_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
HET_SEEDS = 30
EPS_GRID = [0.80, 0.85, 0.90, 0.95, 1.00]
EPS_SEEDS = 30


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


def _milestones(config: ScenarioConfig, policy: str, seed: int) -> dict:
    s = summarize(run(config.with_seed(seed), policy))
    return {"fnd": s.fnd_round, "p10": s.p10_round, "p50": s.p50_round,
            "lnd": s.lnd_round, "bs": s.bs_messages_total}


def _grid(config, policies, seeds, var=None, values=(None,)):
    out = {}
    for value in values:
        cfg = config
        if var == "alpha":
            cfg = dataclasses.replace(config, alpha=value, beta=1.0 - value)
        elif var is not None:
            cfg = dataclasses.replace(config, **{var: value})
        for policy in policies:
            out[f"{value}/{policy}"] = [_milestones(cfg, policy, s)
                                        for s in range(seeds)]
    return out


@pytest.fixture(scope="session")
def lifetime_data():
    params = {"config": BASE.config_hash(), "seeds": LIFETIME_SEEDS}
    return _cached("lifetime", params,
                   lambda: _grid(BASE, POLICIES, LIFETIME_SEEDS))


@pytest.fixture(scope="session")
def rda_lifetime_data():
    params = {"config": RDA.config_hash(), "seeds": LIFETIME_SEEDS}
    return _cached("rda-lifetime", params,
                   lambda: _grid(RDA, POLICIES, LIFETIME_SEEDS))


@pytest.fixture(scope="session")
def alpha_data():
    params = {"config": BASE.config_hash(), "seeds": ALPHA_SEEDS,
              "grid": ALPHA_GRID}
    return _cached("alpha", params,
                   lambda: _grid(BASE, ("eepca",), ALPHA_SEEDS,
                                 "alpha", ALPHA_GRID))


@pytest.fixture(scope="session")
def het_data():
    params = {"config": BASE.config_hash(), "seeds": HET_SEEDS, "grid": HET_GRID}
    return _cached("heterogeneity", params,
                   lambda: _grid(BASE, POLICIES, HET_SEEDS,
                                 "frac_energy_heterogeneous", HET_GRID))


@pytest.fixture(scope="session")
def eps_data():
    params = {"config": RDA.config_hash(), "seeds": EPS_SEEDS, "grid": EPS_GRID}
    return _cached("epsilon", params,
                   lambda: _grid(RDA, ("eepca",), EPS_SEEDS,
                                 "epsilon_tol", EPS_GRID))


def _mean(rows, key):
    return float(np.mean([r[key] for r in rows]))


def test_cache_key_covers_every_source_byte(tmp_path):
    for path in Path(wsncluster.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert source_hash(tmp_path) == SOURCE_HASH
    params = {"config": BASE.config_hash(), "seeds": LIFETIME_SEEDS}
    for path in sorted(tmp_path.glob("*.py")):
        original = path.read_bytes()
        for i in (0, len(original) - 1):
            mutated = bytearray(original)
            mutated[i] ^= 1
            path.write_bytes(bytes(mutated))
            assert cache_key(params, source_hash(tmp_path)) != cache_key(params), \
                f"{path.name} byte {i}"
        path.write_bytes(original)


# --- criterion 1: lifetime ordering --------------------------------------

def test_c01_lifetime_ordering_and_ratios(lifetime_data):
    lnd = {p: _mean(lifetime_data[f"None/{p}"], "lnd") for p in POLICIES}
    assert lnd["eepca"] > lnd["sep"] > lnd["leach"], f"mean LND: {lnd}"
    assert lnd["eepca"] / lnd["leach"] >= 1.5, f"mean LND: {lnd}"
    assert lnd["eepca"] / lnd["sep"] >= 1.2, f"mean LND: {lnd}"


# --- criterion 2: terminal death-curve sharpness -------------------------

def test_c02_terminal_death_drop_sharper_than_leach(lifetime_data):
    def span_ratio(policy):
        rows = lifetime_data[f"None/{policy}"]
        return float(np.mean([(r["lnd"] - r["fnd"]) / r["lnd"] for r in rows]))
    assert span_ratio("eepca") < span_ratio("leach")


# --- criterion 3: alpha sweep --------------------------------------------

def test_c03_alpha_sweep_interior_maximum(alpha_data):
    means = [_mean(alpha_data[f"{a}/eepca"], "fnd") for a in ALPHA_GRID]
    best = ALPHA_GRID[int(np.argmax(means))]
    assert ALPHA_GRID[0] < best < ALPHA_GRID[-1], f"fnd means: {means}"
    assert 0.6 <= best <= 0.85, f"best alpha {best}, fnd means: {means}"


# --- criterion 4: heterogeneity sweep ------------------------------------

def test_c04_stable_period_under_heterogeneity(het_data):
    p10 = {p: [_mean(het_data[f"{f}/{p}"], "p10") for f in HET_GRID]
           for p in POLICIES}
    assert p10["sep"][-1] >= 1.15 * p10["leach"][-1], f"p10 at full het: {p10}"
    slopes = {p: abs(np.polyfit(HET_GRID, p10[p], 1)[0]) for p in POLICIES}
    assert slopes["eepca"] == min(slopes.values()), f"p10 slopes: {slopes}"


# --- criterion 5: epsilon sweep ------------------------------------------

def test_c05_epsilon_sweep_interior_maximum(eps_data):
    means = [_mean(eps_data[f"{e}/eepca"], "p10") for e in EPS_GRID]
    interior_max = max(means[1:-1])
    assert interior_max > means[0] and interior_max > means[-1], \
        f"p10 means over {EPS_GRID}: {means}"


# --- criterion 6: monitoring quality -------------------------------------

def test_c06_bs_messages_exceed_baselines(rda_lifetime_data):
    bs = {p: _mean(rda_lifetime_data[f"None/{p}"], "bs") for p in POLICIES}
    assert bs["eepca"] > bs["leach"], f"mean BS messages: {bs}"
    assert bs["eepca"] > bs["sep"], f"mean BS messages: {bs}"


# --- criterion 7: prediction exactness -----------------------------------

def test_c07_prediction_exact_for_healthy_rda_nodes():
    trace = run(RDA, PolicyKind.EEPCA, max_rounds=400, detail=True)
    dep = deploy(RDA)
    healthy_rda = dep.is_rda & ~dep.is_malf
    checked = 0
    for rec in trace.records:
        sent = healthy_rda & (rec.data_energy > 0)
        actual = rec.data_energy[sent]
        predicted = rec.data_energy_predicted[sent]
        assert np.allclose(predicted, actual, rtol=1e-12, atol=0.0)
        checked += int(sent.sum())
        if rec.r >= 1:
            alive_start = np.flatnonzero(healthy_rda & (rec.e_start > 0))
            assert set(alive_start) <= set(rec.suppressed), \
                f"round {rec.r}: healthy RDA node broadcast despite exact prediction"
    assert checked > 1000  # the property must have been exercised


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
    t = eepca_thresholds_all(np.array([0.1]), 5, np.zeros(1, dtype=np.int64),
                             np.ones(1), np.ones(1, dtype=bool))
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

def test_c11_unit_factors_reduce_to_leach():
    forced = dataclasses.replace(BASE, force_unit_factors=True,
                                 disable_suppression=True)
    a = run(BASE, PolicyKind.LEACH, max_rounds=2000)
    b = run(forced, PolicyKind.EEPCA, max_rounds=2000)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.head_ids == rb.head_ids
        assert ra.deaths == rb.deaths
        assert ra.bs_messages == rb.bs_messages
        assert ra.debits == rb.debits
        assert ra.e_total_end == rb.e_total_end


# --- criterion 12: byte-identical trace files ----------------------------

def test_c12_trace_files_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        trace = run(BASE, PolicyKind.EEPCA, max_rounds=500)
        path = tmp_path / f"trace{i}.jsonl"
        trace.write_jsonl(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
