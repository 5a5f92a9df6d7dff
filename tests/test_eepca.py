import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wsncluster import eepca
from wsncluster.baselines import PolicyKind
from wsncluster.engine import _Sim
from wsncluster.model import RadioParams, ScenarioConfig
from wsncluster.radio import rx_energy, tx_energy

RADIO = RadioParams()


# --- per-node reference forms of the vectorized election -------------------
# The engine uses only the eepca *_all functions; these scalar forms state the
# contract one node at a time, and the tests below pin the two to each other.

def energy_factor(e_i: float, neighbor_energies) -> float:
    """Node energy over the mean believed energy of its neighbors.

    An empty neighborhood gives no information; the factor defaults to 1.
    """
    neighbor_energies = list(neighbor_energies)
    if not neighbor_energies:
        return 1.0
    mean = sum(neighbor_energies) / len(neighbor_energies)
    if mean <= 0:
        return 1.0
    return e_i / mean


def avg_round_energy_if_head(lengths, distances, radio: RadioParams,
                             ideal_fallback: float = 0.0) -> float:
    """Mean energy of one transmission from each neighbor to this node.

    With no neighbors the ideal value is returned so the cost factor
    degenerates to 1.
    """
    lengths = list(lengths)
    distances = list(distances)
    if not lengths:
        return ideal_fallback
    total = sum(tx_energy(l, d, radio) for l, d in zip(lengths, distances))
    return total / len(lengths)


def cost_factor(e_ideal: float, e_i_round: float, cap: float = 5.0) -> float:
    """Ideal per-transmission energy over this node's would-be intra-cluster mean."""
    if e_i_round <= 0:
        return cap
    return min(e_ideal / e_i_round, cap)


_P_EPS = 1e-12


def election_probability(p_opt: float, w_energy: float, w_cost: float,
                         alpha: float, beta: float) -> float:
    """p_i = p_opt * (alpha*w_energy + beta*w_cost), clamped into (0, 1)."""
    p = p_opt * (alpha * w_energy + beta * w_cost)
    return min(max(p, _P_EPS), 1.0 - _P_EPS)


def rotation_epoch(p_i: float) -> int:
    """Rounds per rotation epoch: ceil(1/p_i), so the epoch is always finite."""
    return int(math.ceil(1.0 / p_i))


def eepca_threshold(p_i: float, r: int, r_s: int, w: float, in_g: bool) -> float:
    """Election threshold for one node.

    The classic rotation threshold p/(1 - p*(r mod epoch)) is scaled by the
    bracket w + k*max(1 - w, 0), where k = r_s // epoch counts the whole
    epochs the node has gone unelected.  The starvation bonus is never
    negative: a node with w >= 1 keeps w however long it waits, and a node
    with w < 1 reaches 1 after one epoch and passes it after more.  With
    w == 1 this is the classic threshold.  Clamped into [0, 1].
    """
    if not in_g:
        return 0.0
    epoch = rotation_epoch(p_i)
    denom = 1.0 - p_i * (r % epoch)
    if denom <= 0:
        return 1.0
    base = p_i / denom
    t = base * (w + (r_s // epoch) * max(1.0 - w, 0.0))
    return min(max(t, 0.0), 1.0)


class TestEnergyFactor:
    def test_hand_value(self):
        assert energy_factor(2.0, [1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert energy_factor(3.0, [1.0, 1.0]) == pytest.approx(3.0)

    def test_no_neighbors_defaults_to_one(self):
        assert energy_factor(2.0, []) == 1.0
        assert energy_factor(2.0, [0.0, 0.0]) == 1.0

    def test_mean_rounding_to_zero_defaults_to_one(self):
        # the sum is the smallest subnormal, but half of it rounds to 0
        belief = np.array([0.0, 0.0, 5e-324, 0.0])
        src, dst = np.array([3, 3]), np.array([1, 2])
        out = eepca.energy_factors_all(np.ones(4), belief, src, dst,
                                       eepca.live_neighbors(src, dst, np.ones(4)))
        assert energy_factor(1.0, belief[dst]) == 1.0
        assert out[3] == 1.0

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, data):
        n = data.draw(st.integers(2, 8))
        e = np.array(data.draw(st.lists(
            st.floats(0.01, 5.0), min_size=n, max_size=n)))
        belief = np.array(data.draw(st.lists(
            st.floats(0.0, 5.0), min_size=n, max_size=n)))
        neigh = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=n, max_size=n)))
        np.fill_diagonal(neigh, False)
        src, dst = np.nonzero(neigh)
        out = eepca.energy_factors_all(e, belief, src, dst,
                                       eepca.live_neighbors(src, dst, np.ones(n)))
        for i in range(n):
            expect = energy_factor(e[i], belief[neigh[i]])
            assert out[i] == pytest.approx(expect, rel=1e-12)


class TestCostFactor:
    def test_hand_values(self):
        assert cost_factor(2e-5, 4e-5) == pytest.approx(0.5)
        assert cost_factor(2e-5, 1e-6) == 5.0  # capped
        assert cost_factor(2e-5, 0.0) == 5.0
        assert cost_factor(2e-5, 1e-6, cap=30.0) == pytest.approx(20.0)

    def test_round_energy_mean_over_neighbors(self):
        lengths = [1000, 2000]
        distances = [10.0, 20.0]
        expect = (tx_energy(1000, 10.0, RADIO)
                  + tx_energy(2000, 20.0, RADIO)) / 2
        got = avg_round_energy_if_head(lengths, distances, RADIO)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_round_energy_empty_falls_back_to_ideal(self):
        assert avg_round_energy_if_head([], [], RADIO, ideal_fallback=0.7) == 0.7

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_vectorized_round_energy_matches_scalar(self, data):
        n = data.draw(st.integers(2, 7))
        lengths = np.array(data.draw(st.lists(
            st.integers(100, 6000), min_size=n, max_size=n)), dtype=float)
        xs = np.array(data.draw(st.lists(
            st.floats(0.0, 100.0), min_size=n, max_size=n)))
        ys = np.array(data.draw(st.lists(
            st.floats(0.0, 100.0), min_size=n, max_size=n)))
        d = np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])
        neigh = (d < 40.0) & ~np.eye(n, dtype=bool)
        src, dst = np.nonzero(neigh)
        cpb = eepca.cost_per_bit_matrix(d[src, dst], RADIO)
        nb = eepca.live_neighbors(src, dst, np.ones(n))
        out = eepca.avg_round_energies_all(lengths, cpb, src, dst, nb, 0.123)
        for i in range(n):
            js = np.flatnonzero(neigh[i])
            expect = avg_round_energy_if_head(
                lengths[js], d[i, js], RADIO, ideal_fallback=0.123)
            assert out[i] == pytest.approx(expect, rel=1e-9)

    def test_vectorized_cost_factor_matches_scalar(self):
        e_round = np.array([4e-5, 1e-6, 0.0, 2e-5])
        out = eepca.cost_factors_all(2e-5, e_round)
        expect = [cost_factor(2e-5, v, eepca.COST_FACTOR_CAP) for v in e_round]
        assert out == pytest.approx(expect)

    def test_cap_is_read_at_call_time(self, monkeypatch):
        # an ablation moves the cap by patching the module constant
        e_round = np.array([1e-6, 0.0])
        assert eepca.cost_factors_all(2e-5, e_round).tolist() == [5.0, 5.0]
        monkeypatch.setattr(eepca, "COST_FACTOR_CAP", 30.0)
        assert eepca.cost_factors_all(2e-5, e_round) == pytest.approx([20.0, 30.0])


class TestElection:
    def test_probability_combines_factors(self):
        p = election_probability(0.2, w_energy=1.5, w_cost=0.5,
                                       alpha=0.7, beta=0.3)
        assert p == pytest.approx(0.2 * (0.7 * 1.5 + 0.3 * 0.5), rel=1e-12)

    def test_probability_clamped_open_interval(self):
        assert election_probability(0.9, 10.0, 10.0, 0.7, 0.3) < 1.0
        assert election_probability(0.2, 0.0, 0.0, 0.7, 0.3) > 0.0

    def test_epoch_is_finite_ceiling(self):
        assert rotation_epoch(0.25) == 4
        assert rotation_epoch(0.3) == 4
        assert rotation_epoch(0.999) == 2
        assert eepca.rotation_epochs(np.array([0.25, 0.3, 0.999])).tolist() == [4, 4, 2]

    def test_threshold_reduces_to_classic_rotation(self):
        # with unit weight this is p / (1 - p * (r mod epoch))
        t = eepca_threshold(0.1, r=5, r_s=0, w=1.0, in_g=True)
        assert t == pytest.approx(0.2, rel=1e-12)

    def test_threshold_zero_outside_g(self):
        assert eepca_threshold(0.5, 0, 0, 1.0, in_g=False) == 0.0

    def test_threshold_starvation_bonus(self):
        # two whole epochs unelected with w = 0.5 pulls the bracket to 1.5
        t = eepca_threshold(0.2, r=0, r_s=10, w=0.5, in_g=True)
        assert t == pytest.approx(0.2 * 1.5, rel=1e-12)
        # the bonus is never negative: three whole epochs with w = 1.5 keep 1.5
        t = eepca_threshold(0.2, r=0, r_s=15, w=1.5, in_g=True)
        assert t == pytest.approx(0.2 * 1.5, rel=1e-12)

    @given(st.integers(1, 40), st.integers(0, 200), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unit_weights_skip_equals_ones(self, n, r, data):
        # w=None skips the bracket, which is exactly 1.0 for unit weights
        p = np.array(data.draw(st.lists(st.floats(1e-12, 1 - 1e-12), min_size=n, max_size=n)))
        r_s = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)))
        in_g = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        epoch = eepca.rotation_epochs(p)
        got = eepca.eepca_thresholds_all(p, r_s, None, in_g, epoch, r % epoch)
        want = eepca.eepca_thresholds_all(p, r_s, np.ones(n), in_g, epoch, r % epoch)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_threshold_clamped_to_one(self):
        assert eepca_threshold(0.2, r=0, r_s=100, w=0.1, in_g=True) == 1.0

    @given(p=st.floats(0.01, 0.99), r=st.integers(0, 50), w=st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_threshold_non_decreasing_in_unelected_rounds(self, p, r, w):
        r_s = np.arange(0, 201)
        n = r_s.size
        epoch = eepca.rotation_epochs(np.full(n, p))
        vec = eepca.eepca_thresholds_all(np.full(n, p), r_s, np.full(n, w),
                                         np.ones(n, dtype=bool), epoch, r % epoch)
        scalar = np.array([eepca_threshold(p, r, int(k), w, True) for k in r_s])
        for t in (vec, scalar):
            assert np.all(np.diff(t) >= 0.0)
            assert np.all(t >= t[0])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_vectorized_thresholds_match_scalar(self, data):
        n = data.draw(st.integers(1, 6))
        p = np.array(data.draw(st.lists(
            st.floats(1e-6, 1.0 - 1e-6), min_size=n, max_size=n)))
        r = data.draw(st.integers(0, 50))
        r_s = np.array(data.draw(st.lists(
            st.integers(0, 40), min_size=n, max_size=n)))
        w = np.array(data.draw(st.lists(
            st.floats(0.0, 3.0), min_size=n, max_size=n)))
        in_g = np.array(data.draw(st.lists(
            st.booleans(), min_size=n, max_size=n)))
        epoch = eepca.rotation_epochs(p)
        out = eepca.eepca_thresholds_all(p, r_s, w, in_g, epoch, r % epoch)
        for i in range(n):
            expect = eepca_threshold(p[i], r, int(r_s[i]), w[i], bool(in_g[i]))
            assert out[i] == pytest.approx(expect, rel=1e-12, abs=1e-15)


def _setup_spend(config, dead=()):
    """Energy each node spends in round 0's info broadcasts."""
    sim = _Sim(config, PolicyKind.LEACH)
    sim.e[list(dead)] = 0.0
    sim.alive[list(dead)] = False
    before = sim.e.copy()
    sim._setup_broadcasts(0)
    return sim, before - sim.e


def _expected_setup_spend(config, sim):
    """One broadcast at neighbor_radius reach per alive node, plus one
    reception per alive node within that radius; nothing for dead nodes."""
    radio, bits = config.radio, config.broadcast_bits
    d = np.hypot(sim.x[:, None] - sim.x[None, :], sim.y[:, None] - sim.y[None, :])
    heard = ((d <= config.neighbor_radius) & (d > 0) & sim.alive[None, :]).sum(axis=1)
    spend = tx_energy(bits, config.neighbor_radius, radio) + heard * rx_energy(bits, radio)
    return np.where(sim.alive, spend, 0.0)


class TestNeighborTables:
    """What the setup broadcasts give each node: ranged distances to its
    neighbors, at the price of one broadcast and one reception per neighbor."""

    def test_distances_estimated_exactly(self):
        x, y = np.array([0.0, 5.0, 0.0]), np.array([0.0, 0.0, 8.0])
        bcast = tx_energy(2500, 12.0, RADIO)
        src, dst, d_est = eepca.neighbor_edges(x, y, 12.0, RADIO, bcast)
        est = dict(zip(zip(src.tolist(), dst.tolist()), d_est))
        assert est[0, 1] == pytest.approx(5.0, rel=1e-9)
        assert est[0, 2] == pytest.approx(8.0, rel=1e-9)
        assert est[1, 2] == pytest.approx(math.hypot(5.0, 8.0), rel=1e-9)

    def test_energy_debits(self, default_config):
        sim, spent = _setup_spend(default_config)
        assert sim.alive.all()
        assert spent == pytest.approx(_expected_setup_spend(default_config, sim), rel=1e-9)

    def test_out_of_range_node_excluded(self, default_config):
        # with a 1 m radius almost every node hears no one
        cfg = dataclasses.replace(default_config, neighbor_radius=1.0)
        sim, spent = _setup_spend(cfg)
        alone = np.isclose(spent, tx_energy(cfg.broadcast_bits, 1.0, cfg.radio), rtol=1e-9)
        assert alone.sum() > 90
        assert spent == pytest.approx(_expected_setup_spend(cfg, sim), rel=1e-9)

    def test_dead_node_neither_pays_nor_appears(self, default_config):
        hub = int(np.argmax(np.bincount(_Sim(default_config, PolicyKind.LEACH).src)))
        sim, spent = _setup_spend(default_config, dead=[hub])
        assert spent[hub] == 0.0
        assert (sim.src == hub).sum() >= 3
        assert spent == pytest.approx(_expected_setup_spend(default_config, sim), rel=1e-9)


def _dense_neighbors(x, y, radius, radio, broadcast_energy):
    """The all-pairs form the edge list replaces: (est <= radius) & ~eye over
    the n x n matrix of RSS-estimated distances."""
    d_true = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    est = np.zeros_like(d_true)
    off = d_true > 0
    rec = radio.k_rss * broadcast_energy / d_true[off] ** radio.alpha_pathloss
    est[off] = (radio.k_rss * broadcast_energy / rec) ** (1.0 / radio.alpha_pathloss)
    return est, (est <= radius) & ~np.eye(x.size, dtype=bool)


@st.composite
def _layouts(draw):
    """Node layouts with co-located nodes, coordinates on cell boundaries
    (whole multiples of the radius) and radii up to twice the field."""
    radius = draw(st.floats(0.5, 60.0))
    side = draw(st.floats(1.0, 120.0))
    coord = st.one_of(st.floats(0.0, side), st.integers(0, 6).map(lambda k: k * radius))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    radio = RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)),
                        k_rss=draw(st.sampled_from([1.0, 3.7e-4])))
    x, y = (np.array(c, dtype=float) for c in zip(*pts))
    return x, y, radius, radio


@st.composite
def _sparse_layouts(draw):
    """Tight groups of nodes spread over a field so wide that the cell side
    is max(ptp) / isqrt(n), many radii, rather than the radius."""
    radius = draw(st.floats(0.5, 4.0))
    side = draw(st.floats(500.0, 1e6))
    centres = draw(st.lists(st.tuples(st.floats(0.0, side), st.floats(0.0, side)),
                            min_size=2, max_size=12))
    spread = st.floats(-2.0 * radius, 2.0 * radius)
    pts = [(cx + draw(spread), cy + draw(spread)) for cx, cy in centres
           for _ in range(draw(st.integers(1, 5)))]
    radio = RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)))
    x, y = (np.array(c, dtype=float) for c in zip(*pts))
    return x, y, radius, radio


@st.composite
def _crowded_layouts(draw):
    """Up to 200 nodes on a field a few radii wide: many nodes to a cell, and
    neighbours across every side and corner of a cell."""
    radius = draw(st.floats(0.5, 20.0))
    side = radius * draw(st.floats(1.0, 8.0))
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.uniform(0.0, side, (2, n))
    radio = RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)))
    return x, y, radius, radio


def _cell_steps(x, y, src, dst, radius):
    """The (x, y) cell steps of the edges on a grid of radius-wide cells,
    the cell side neighbor_edges takes while max(ptp) / isqrt(n) is
    smaller."""
    side = radius * eepca._CELL_SLACK
    cx, cy = np.floor((x - x.min()) / side), np.floor((y - y.min()) / side)
    return set(zip((cx[dst] - cx[src]).tolist(), (cy[dst] - cy[src]).tolist()))


class TestNeighborEdges:
    @given(_layouts() | _sparse_layouts() | _crowded_layouts())
    @example((np.array([3.0]), np.array([4.0]), 12.0, RADIO))  # one node, no edges
    @settings(max_examples=300, deadline=None)
    def test_edges_equal_dense_oracle(self, layout):
        x, y, radius, radio = layout
        bcast = tx_energy(2500, radius, radio)
        src, dst, d_est = eepca.neighbor_edges(x, y, radius, radio, bcast)
        est, neigh = _dense_neighbors(x, y, radius, radio, bcast)
        o_src, o_dst = np.nonzero(neigh)  # row-major: sorted by src, then dst
        assert np.array_equal(src, o_src)
        assert np.array_equal(dst, o_dst)
        assert np.array_equal(d_est, est[neigh])  # bit for bit

    def test_crowded_layout_meets_every_stencil_offset(self):
        # 200 nodes on a 5-radius field: isqrt(200) = 14 cells would be
        # narrower than the radius, so cells are radius-wide, hold about 8
        # nodes each, and edges run to all 8 surrounding cells
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0.0, 60.0, (2, 200))
        bcast = tx_energy(2500, 12.0, RADIO)
        src, dst, d_est = eepca.neighbor_edges(x, y, 12.0, RADIO, bcast)
        est, neigh = _dense_neighbors(x, y, 12.0, RADIO, bcast)
        assert np.array_equal(np.stack((src, dst)), np.stack(np.nonzero(neigh)))
        assert np.array_equal(d_est, est[neigh])
        steps = {(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)}
        assert _cell_steps(x, y, src, dst, 12.0) == steps

    def test_far_apart_nodes_allocate_a_few_cells(self):
        # radius-wide cells would be 2e9 to a side; cells max(ptp) / isqrt(n)
        # wide make a table of 3 columns of 4 cells
        x, y = np.array([0.0, 1e9]), np.array([0.0, 1e9])
        tracemalloc.start()
        try:
            src, dst, _ = eepca.neighbor_edges(x, y, 0.5, RADIO, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert src.size == dst.size == 0
        assert peak < 1 << 14

    def test_co_located_and_boundary_pairs(self):
        # 0 and 1 share a spot; 2 is exactly one radius away, 3 two radii
        x = np.array([0.0, 0.0, 12.0, 24.0])
        y = np.zeros(4)
        src, dst, d_est = eepca.neighbor_edges(x, y, 12.0, RADIO, 1e-5)
        assert list(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)]
        assert d_est[0] == 0.0


class TestMatrices:
    def test_estimated_matrix_recovers_true_distances(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0, 100, 12), rng.uniform(0, 100, 12)
        bcast = tx_energy(2500, 12.0, RADIO)
        est = eepca.estimated_distance_matrix(x[:, None] - x[None, :],
                                              y[:, None] - y[None, :], RADIO, bcast)
        true = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        assert np.allclose(est, true, rtol=1e-9)
        assert (np.diag(est) == 0.0).all()

    def test_cost_matrix_spans_both_branches(self):
        d = np.array([[0.0, 10.0], [80.0, 0.0]])
        cpb = eepca.cost_per_bit_matrix(d, RADIO)
        assert cpb[0, 1] == pytest.approx(5e-9 + 1e-11 * 100, rel=1e-12)
        assert cpb[1, 0] == pytest.approx(5e-9 + 1.3e-15 * 80 ** 4, rel=1e-12)


# --- head selection ------------------------------------------------------------

def _pts(*xy):
    x, y = zip(*xy)
    return np.array(x, dtype=float), np.array(y, dtype=float)


def _nearest_heads(xm, ym, xh, yh, radio, bcast):
    """nearest_heads on the field of the members followed by the heads."""
    x, y = np.concatenate((xm, xh)), np.concatenate((ym, yh))
    return eepca.nearest_heads(x, y, eepca.screen_operand(x, y), np.arange(xm.size),
                               np.arange(xm.size, x.size), radio, bcast)


@st.composite
def _member_head_layouts(draw):
    """Members and heads on a small integer grid (exact ties), with co-located
    heads, members on or 1e-300 off a head, and the whole layout scaled by
    1e-120 to 1e120, so ranging may saturate to 0 or inf."""
    scale = 10.0 ** draw(st.integers(-120, 120))
    grid = st.integers(-4, 4).map(float)
    point = st.tuples(grid, grid) | st.tuples(st.floats(-4, 4), st.floats(-4, 4))
    heads = draw(st.lists(point, min_size=1, max_size=10))
    heads += draw(st.lists(st.sampled_from(heads), max_size=3))
    xh, yh = (np.array(c) * scale for c in zip(*heads))
    members = draw(st.lists(point | st.sampled_from(heads), min_size=1, max_size=20))
    xm, ym = (np.array(c) * scale for c in zip(*members))
    offset = st.sampled_from([0.0, 1e-300, -1e-300])
    xm = xm + np.array(draw(st.lists(offset, min_size=xm.size, max_size=xm.size)))
    ym = ym + np.array(draw(st.lists(offset, min_size=ym.size, max_size=ym.size)))
    radio = RadioParams(alpha_pathloss=draw(st.floats(1.0, 6.0)),
                        k_rss=draw(st.sampled_from([1e-30, 3.7e-4, 1.0, 1e6, 1e30])))
    bcast = 10.0 ** draw(st.floats(-200.0, 0.0))
    return xm, ym, xh, yh, radio, bcast


class TestNearestHeads:
    """Choosing heads by squared distance equals the argmin over every ranged
    member-head pair, in the index and in the distance's bits."""

    @given(_member_head_layouts())
    # equidistant from two heads: the lower head id wins
    @example((*_pts((0, 0)), *_pts((-2, 1), (2, 1)), RADIO, 1e-5))
    # a near-tie the ranging keeps apart, and one it rounds together (alpha 1.5)
    @example((*_pts((0, 0)), *_pts((1 + 1e-12, 0), (1, 0)), RADIO, 1e-5))
    @example((*_pts((0, 0)), *_pts((3.0000000000000004, 0), (3, 0)),
              RadioParams(alpha_pathloss=1.5), 1e-5))
    # a head co-located with the member
    @example((*_pts((2, 3)), *_pts((5, 5), (2, 3)), RADIO, 1e-5))
    # alpha 6 near 1e-60: both heads estimate 0, so the lower id wins
    @example((*_pts((0, 0)), *_pts((2e-60, 0), (1e-60, 0)),
              RadioParams(alpha_pathloss=6.0), 1e-5))
    # near 1e60 both estimates overflow to inf
    @example((*_pts((0, 0)), *_pts((2e60, 0), (1e60, 0)),
              RadioParams(alpha_pathloss=6.0), 1e-5))
    # k_rss * E underflows to 0, so every estimate is 0/0 and head 0 wins
    @example((*_pts((0, 0)), *_pts((2, 0), (1, 0)), RadioParams(k_rss=1e-30), 1e-300))
    # test_small_blocks_equal_argmin reruns this from other instances; the
    # test reads no instance state
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_equals_argmin_over_ranged_pairs(self, layout):
        xm, ym, xh, yh, radio, bcast = layout
        with np.errstate(all="ignore"):
            choice, d_est = _nearest_heads(xm, ym, xh, yh, radio, bcast)
            dense = eepca.estimated_distance_matrix(xm[:, None] - xh, ym[:, None] - yh,
                                                    radio, bcast)
        want = np.argmin(dense, axis=1)
        assert np.array_equal(choice, want)
        assert np.array_equal(d_est.view(np.int64),
                              dense[np.arange(xm.size), want].view(np.int64))

    @pytest.mark.parametrize("pairs", [1, 7, 13])
    def test_small_blocks_equal_argmin(self, pairs, monkeypatch):
        # blocks this small split the member rows at odd boundaries
        monkeypatch.setattr(eepca, "_PAIRS_PER_BLOCK", pairs)
        self.test_equals_argmin_over_ranged_pairs()

    def test_blocks_cover_every_member(self):
        # three whole blocks of 40-head rows and a partial fourth
        m = 3 * (eepca._PAIRS_PER_BLOCK // 40) + 17
        rng = np.random.default_rng(5)
        xm, ym = rng.uniform(0, 400, m), rng.uniform(0, 400, m)
        xh, yh = rng.uniform(0, 400, 40), rng.uniform(0, 400, 40)
        bcast = tx_energy(2500, 12.0, RADIO)
        choice, d_est = _nearest_heads(xm, ym, xh, yh, RADIO, bcast)
        dense = eepca.estimated_distance_matrix(xm[:, None] - xh, ym[:, None] - yh,
                                                RADIO, bcast)
        assert m * 40 > 3 * eepca._PAIRS_PER_BLOCK
        assert np.array_equal(choice, np.argmin(dense, axis=1))
        assert np.array_equal(d_est, dense.min(axis=1))


@st.composite
def _float32_near_ties(draw):
    """Members on a field of up to 1e6 m, or of 1e-20 m, where squared
    distances are float32 subnormals, each with one head at a random squared
    distance D and others at D + g, where g is within a few float32 screen
    bounds of 0 (err32 = 64 * 2**-24 * (max |h|^2 + |m|^2)) or a hair off an
    exact tie: the float32 screen must range exactly those members whose
    bound cannot separate the heads."""
    side = draw(st.sampled_from([1e-20, 100.0, 400.0, 1e4, 1e6]))
    coord = st.floats(0.0, side)
    xm = np.array(draw(st.lists(coord, min_size=1, max_size=6)))
    ym = np.array(draw(st.lists(coord, min_size=xm.size, max_size=xm.size)))
    err32 = 64 * 2.0 ** -24 * 4 * side * side
    gap = (st.floats(-4.0, 4.0).map(lambda k: k * err32)
           | st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6]).map(lambda k: k * side * side))
    heads = []
    for x, y in zip(xm, ym):
        d2 = draw(st.floats(1e-4, 0.25)) * side * side
        for g in [0.0] + draw(st.lists(gap, min_size=1, max_size=3)):
            phi = draw(st.floats(0.0, 2 * math.pi))
            r = math.sqrt(max(d2 + g, 0.0))
            heads.append((x + r * math.cos(phi), y + r * math.sin(phi)))
    xh, yh = (np.array(c) for c in zip(*heads))
    return xm, ym, xh, yh


@st.composite
def _offset_near_ties(draw):
    """Heads around a common offset of 1e3 to 1e9 m, with members on or a hair
    off the bisector of two of them.  |h|^2 - 2 h.m + |m|^2 then cancels
    terms of up to 1e18 m^2 down to a few m^2, so the screen's rounding is far
    larger than the gap between the two heads."""
    offset = draw(st.floats(1e3, 1e9))
    coord = st.floats(-50, 50)
    heads = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=8))
    (ax, ay), (bx, by) = heads[0], heads[1]
    along = st.floats(-30, 30)
    hair = st.sampled_from([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-4, -1e-4])
    members = [((ax + bx) / 2 - t * (by - ay) + h, (ay + by) / 2 + t * (bx - ax))
               for t, h in draw(st.lists(st.tuples(along, hair), min_size=1, max_size=12))]
    xh, yh = (np.array(c) + offset for c in zip(*heads))
    xm, ym = (np.array(c) + offset for c in zip(*members))
    return xm, ym, xh, yh


class TestHeadScreen:
    """The matrix-product screen of nearest_heads against the dense oracle
    where its expansion |h|^2 - 2 h.m + |m|^2 loses most of its digits."""

    BCAST = tx_energy(2500, 12.0, RADIO)

    @classmethod
    def _check(cls, xm, ym, xh, yh, radio=RADIO, bcast=None):
        bcast = cls.BCAST if bcast is None else bcast
        with np.errstate(all="ignore"):
            choice, d_est = _nearest_heads(xm, ym, xh, yh, radio, bcast)
            dense = eepca.estimated_distance_matrix(xm[:, None] - xh, ym[:, None] - yh,
                                                    radio, bcast)
        want = np.argmin(dense, axis=1)
        assert np.array_equal(choice, want)
        assert np.array_equal(d_est.view(np.int64),
                              dense[np.arange(xm.size), want].view(np.int64))

    @given(_offset_near_ties())
    # head 1 is one ulp (2**-23 m) nearer than head 0, 1e9 m from the origin:
    # with no rounding bound the screen sees head 0 alone as near
    @example((np.array([1e9]), np.array([1e9 - 29.0]),
              np.array([1e9 - 12.0, 1e9 + 12.0 - 2.0 ** -23]), np.array([1e9, 1e9])))
    @settings(max_examples=300, deadline=None)
    def test_offset_near_ties_equal_argmin(self, layout):
        self._check(*layout)

    def test_single_head(self):
        # one head is every member's nearest, also co-located or far away
        xm, ym = _pts((0, 0), (3, 4), (1e-200, 0), (1e150, 1e150), (7, 7))
        self._check(xm, ym, *_pts((3, 4)))
        self._check(xm, ym, *_pts((1e200, 0)))

    def test_infinite_head_norm(self):
        # |h|^2 overflows to inf for the far heads, or passes _SCREEN_MAX
        # (2**1020) and is read as inf: members with a near head and members
        # beside a far one both fall back to the argmin
        xm, ym = _pts((0, 0), (2, 1), (1e200, 1), (-1e200, 0), (2.0 ** 511, 1))
        xh, yh = _pts((1e200, 0), (1, 1), (3, 0), (-1e200, 5), (2.0 ** 511, 0))
        self._check(xm, ym, xh, yh)

    @given(_float32_near_ties())
    @settings(max_examples=300, deadline=None)
    def test_float32_near_ties_equal_argmin(self, layout):
        self._check(*layout)

    # the largest m_field ScenarioConfig accepts with the default radio
    LARGEST_FIELD = 1.13e47

    def test_largest_valid_field_equals_argmin(self):
        # squared norms of about 1e94 pass _SCREEN_MAX (2**125) and read as
        # inf, so every member ranges every head; nodes at the float32
        # screen's own limit stay finite and settle
        ScenarioConfig(m_field=self.LARGEST_FIELD)
        rng = np.random.default_rng(12)
        for side in (self.LARGEST_FIELD, 2.0 ** 62):
            x, y = rng.uniform(0, side, 60), rng.uniform(0, side, 60)
            self._check(x[:50], y[:50], x[50:], y[50:])
            self._check(x[:50], y[:50], x[50:], y[50:], bcast=1e-3)

    def test_largest_valid_field_operand_does_not_warn(self):
        rng = np.random.default_rng(13)
        x, y = (rng.uniform(0, self.LARGEST_FIELD, 30) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = eepca.screen_operand(x, y)
        assert op.dtype == np.float32
        assert np.isinf(op[0]).all() and np.isfinite(op[2:7]).all()

    @pytest.mark.parametrize("offset", [0.0, 400.0, 1e6, 2.0 ** 62])
    def test_colocated_member_and_head_equal_argmin(self, offset):
        # a member on a head estimates 0 to it; heads beside it, co-located
        # with each other, or a float32 ulp of the offset away
        ulp = float(np.spacing(np.float32(offset))) if offset else 1e-30
        xh, yh = _pts((0, 0), (0, 0), (3, 4), (ulp, 0), (0, -ulp))
        xm, ym = _pts((0, 0), (3, 4), (ulp, 0), (1.5, 2), (ulp / 2, 0), (0, 0))
        self._check(xm + offset, ym + offset, xh + offset, yh + offset)

    def test_field_operand_equals_argmin(self):
        # the engine's call: one operand over the whole field, its members and
        # heads interleaved in it, and the run's pick on a field past the
        # rank tables' gate
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0, 400, 500), rng.uniform(0, 400, 500)
        heads = np.sort(rng.choice(500, 30, replace=False))
        members = np.setdiff1d(np.arange(500), heads)
        choice, d_est = eepca.nearest_heads(x, y, eepca.screen_operand(x, y), members,
                                            heads, RADIO, self.BCAST)
        xm, ym, xh, yh = x[members], y[members], x[heads], y[heads]
        dense = eepca.estimated_distance_matrix(xm[:, None] - xh, ym[:, None] - yh,
                                                RADIO, self.BCAST)
        assert np.array_equal(choice, np.argmin(dense, axis=1))
        assert np.array_equal(d_est, dense.min(axis=1))
        assert x.size > eepca.RANK_MAX_NODES
        picked, cpb = eepca.head_picker(x, y, RADIO, self.BCAST)(members, heads)
        assert np.array_equal(picked, choice)
        assert np.array_equal(cpb.view(np.int64),
                              eepca.cost_per_bit_matrix(d_est, RADIO).view(np.int64))


@st.composite
def _ranked_layouts(draw):
    """A small field on an integer lattice (exact ties, co-located nodes) or
    at random points, scaled from 1 m to 300 m a step so that pairs fall on
    either side of d0, with heads drawn as a random mask, a single node, or
    every node but one; the path-loss exponent and RSS constant vary, so the
    ranging powers take numpy's general loop as well as its squares."""
    scale = draw(st.sampled_from([1.0, 7.5, 30.0, RADIO.d0 / 2, 300.0]))
    lattice = st.integers(-4, 4).map(float)
    point = st.tuples(lattice, lattice) | st.tuples(st.floats(-4, 4), st.floats(-4, 4))
    pts = draw(st.lists(point, min_size=2, max_size=30))
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))  # co-located nodes
    x, y = (np.array(c) * scale for c in zip(*pts))
    n = x.size
    kind = draw(st.sampled_from(["mask", "one", "all but one"]))
    if kind == "mask":
        heads = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        heads[draw(st.integers(0, n - 1))] = False
        heads[draw(st.integers(0, n - 1))] = True
    else:
        heads = np.full(n, kind == "all but one")
        heads[draw(st.integers(0, n - 1))] = kind == "one"
    radio = RadioParams(alpha_pathloss=draw(st.sampled_from([2.0, 1.0, 2.7, 3.5, 6.0])
                                            | st.floats(1.0, 6.0)),
                        k_rss=draw(st.sampled_from([3.7e-4, 1.0, 1e6])))
    bcast = tx_energy(2500, draw(st.sampled_from([12.0, 50.0, 200.0])), RADIO)
    return x, y, heads, radio, bcast


class TestRankedHeads:
    """The per-run rank and cost tables of a small field give each member the
    head, and the per-bit cost bits, of nearest_heads + cost_per_bit_matrix
    and of the argmin over every ranged member-head pair."""

    @staticmethod
    def _check(x, y, heads, radio, bcast):
        members, h_idx = (~heads).nonzero()[0], heads.nonzero()[0]
        choice, cpb = eepca.ranked_heads(*eepca.nearest_ranks(x, y, radio, bcast),
                                         members, h_idx)

        xm, ym, xh, yh = x[members], y[members], x[h_idx], y[h_idx]
        picked, d_est = _nearest_heads(xm, ym, xh, yh, radio, bcast)
        assert np.array_equal(choice, picked)
        assert np.array_equal(cpb.view(np.int64),
                              eepca.cost_per_bit_matrix(d_est, radio).view(np.int64))

        dense = eepca.estimated_distance_matrix(xm[:, None] - xh, ym[:, None] - yh,
                                                radio, bcast)
        want = np.argmin(dense, axis=1)
        assert np.array_equal(choice, want)
        d_want = dense[np.arange(members.size), want]
        assert np.array_equal(cpb.view(np.int64),
                              eepca.cost_per_bit_matrix(d_want, radio).view(np.int64))
        return cpb, d_want

    @given(_ranked_layouts())
    # one head at the far corner of a 9 x 9 lattice of 300 m steps: every
    # member's cost takes the multipath d**4 branch
    @example((*_pts(*((i * 300.0, j * 300.0) for i in range(-4, 5) for j in range(-4, 5))),
              np.arange(81) == 80, RadioParams(alpha_pathloss=3.5), 1e-5))
    @settings(max_examples=300, deadline=None)
    def test_equals_nearest_heads_and_argmin(self, layout):
        self._check(*layout)

    def test_lattice_ties_go_to_the_lowest_head_id(self):
        # the member at the origin is 1 from four heads and 0 from none
        x, y = _pts((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1))
        heads = np.array([False, True, True, True, True, False])
        choice, _ = eepca.ranked_heads(*eepca.nearest_ranks(x, y, RADIO, 1e-5),
                                       np.array([0, 5]), heads.nonzero()[0])
        assert choice.tolist() == [0, 0]
        self._check(x, y, heads, RADIO, 1e-5)

    def test_both_branches_of_the_radio_model(self):
        # members beside their head and members at or beyond d0 from any head
        d0 = RADIO.d0
        x, y = _pts((0, 0), (1, 0), (d0, 0), (-2 * d0, 0), (0, 5 * d0))
        cpb, d_est = self._check(x, y, np.arange(5) == 0, RADIO, 1e-5)
        assert (d_est < d0).any() and (d_est >= d0).any()
        assert (cpb > RADIO.e_elec).all()

    def test_rank_type_holds_every_place(self):
        for n, dtype in ((2, np.uint8), (256, np.uint8), (257, np.uint16)):
            x = np.arange(n, dtype=float)
            rank, cost = eepca.nearest_ranks(x, np.zeros(n), RADIO, 1e-5)
            assert rank.dtype == dtype and cost.shape == (n, n)
            assert (np.sort(rank, axis=1) == np.arange(n)).all()
