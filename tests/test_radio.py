import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsncluster.eepca import estimated_distance_matrix
from wsncluster.model import ContractViolation, RadioParams
from wsncluster.radio import rx_energy, tx_energy, tx_energy_per_bit

RADIO = RadioParams()


class TestTxEnergy:
    def test_golden_multipath(self):
        # 2000 * 5e-9 + 2000 * 1.3e-15 * 100^4 = 1e-5 + 2.6e-4
        assert tx_energy(2000, 100.0, RADIO) == pytest.approx(2.7e-4, rel=1e-12)

    def test_multipath_branch_at_exactly_d0(self):
        # d == d0 takes the d^4 branch, the float just below it the d^2 one
        d0 = RADIO.d0
        below = np.nextafter(d0, 0)
        assert tx_energy(1000, d0, RADIO) == \
            1000 * (RADIO.e_elec + RADIO.eps_mp * ((d0 * d0) * (d0 * d0)))
        assert tx_energy(1000, below, RADIO) == \
            1000 * (RADIO.e_elec + RADIO.eps_fs * below * below)

    def test_zero_bits_costs_nothing(self):
        assert tx_energy(0, 30.0, RADIO) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            tx_energy(-1, 10.0, RADIO)
        with pytest.raises(ContractViolation):
            tx_energy(100, -1.0, RADIO)

    @given(l=st.floats(0, 1e6), d=st.floats(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_length_and_linear(self, l, d):
        e1 = tx_energy(l, d, RADIO)
        e2 = tx_energy(2 * l, d, RADIO)
        assert e2 == pytest.approx(2 * e1, rel=1e-9, abs=1e-30)

    @given(d1=st.floats(0, 500), d2=st.floats(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert tx_energy(1000, lo, RADIO) <= tx_energy(1000, hi, RADIO)

    def test_array_distances_equal_scalar_bits(self):
        # the total is the length times the per-bit cost, to the bit, on both
        # branches and at d == d0, for arrays and scalars alike
        rng = np.random.default_rng(0)
        d = np.concatenate([rng.uniform(0.0, 600.0, 5000),
                            [0.0, RADIO.d0, np.nextafter(RADIO.d0, 0.0)]])
        want = 2500 * tx_energy_per_bit(d, RADIO)
        assert np.array_equal(tx_energy(2500, d, RADIO).view(np.int64), want.view(np.int64))
        assert all(tx_energy(2500, v, RADIO) == 2500 * tx_energy_per_bit(v, RADIO) == w
                   for v, w in zip(d.tolist(), want))


class TestRxEnergy:
    def test_value(self):
        assert rx_energy(4000, RADIO) == pytest.approx(2e-5, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ContractViolation):
            rx_energy(-5, RADIO)


def _ranged(d, e, radio):
    """Distance a node estimates to another d away from one broadcast of
    energy e."""
    return estimated_distance_matrix(np.array([d]), np.zeros(1), radio, e)[0]


class TestRanging:
    @given(d=st.floats(0.01, 500), e=st.floats(1e-9, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_inverts_path_loss(self, d, e):
        assert _ranged(d, e, RADIO) == pytest.approx(d, rel=1e-9)

    @given(d=st.floats(0.01, 500), e=st.floats(1e-9, 1.0),
           alpha=st.floats(1.0, 6.0), k=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_any_path_loss_law(self, d, e, alpha, k):
        radio = RadioParams(k_rss=k, alpha_pathloss=alpha)
        assert _ranged(d, e, radio) == pytest.approx(d, rel=1e-9)

    @given(pts=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                        min_size=1, max_size=12),
           alpha=st.floats(1.0, 6.0), k=st.floats(0.1, 10.0), e=st.floats(1e-9, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_in_place_chain_has_the_written_out_bits(self, pts, alpha, k, e):
        # every pair of the points, each point with itself at distance 0;
        # alpha 1 and 2 take numpy's ** fast paths (positive, square, sqrt)
        x, y = np.array(pts).T
        dx, dy = x[:, None] - x, y[:, None] - y
        for a in (1.0, 2.0, alpha):
            radio = RadioParams(k_rss=k, alpha_pathloss=a)
            k_e = radio.k_rss * e
            with np.errstate(divide="ignore"):
                want = (k_e / (k_e / np.hypot(dx, dy) ** a)) ** (1.0 / a)
            got = estimated_distance_matrix(dx, dy, radio, e)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _crossover_distances(draw):
    """(d0, distances), the distances drawn from 0, d0, the floats on either
    side of it, inf and the floats up to 1e100."""
    d0 = draw(st.sampled_from([RADIO.d0, 1e-3, 1e6]))
    edge = st.sampled_from([0.0, d0, np.nextafter(d0, -np.inf), np.nextafter(d0, np.inf),
                            np.inf])
    return d0, draw(st.lists(edge | st.floats(0.0, 1e100), max_size=40))


class TestVectorizedForms:
    def test_matches_scalar_model(self):
        ds = np.array([0.0, 10.0, 74.999, 75.0, 120.0])
        per_bit = tx_energy_per_bit(ds, RADIO)
        for d, pb in zip(ds, per_bit):
            assert pb * 1000 == pytest.approx(tx_energy(1000, d, RADIO), rel=1e-12)

    @given(case=_crossover_distances())
    @settings(max_examples=200, deadline=None)
    def test_near_only_form_equals_the_where_form(self, case):
        # the multipath term, evaluated only where d >= d0, has the bits of
        # np.where over both terms, for arrays and scalars alike, with d^4 as
        # (d*d)*(d*d) at and above d0
        d0, d = case
        radio = RadioParams(d0=d0)

        def where_form(d):
            d = np.asarray(d, dtype=float)
            with np.errstate(over="ignore"):
                return radio.e_elec + np.where(d < radio.d0, radio.eps_fs * d * d,
                                               radio.eps_mp * ((d * d) * (d * d)))

        d = np.array(d)
        with np.errstate(over="ignore"):
            got = tx_energy_per_bit(d, radio)
            scalars = [tx_energy_per_bit(v, radio) for v in d.tolist()]
        want = where_form(d)
        assert got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                          want.view(np.int64))
        assert [np.float64(v).view(np.int64) for v in scalars] == want.view(np.int64).tolist()

    def test_amplifier_term_only(self):
        amp = tx_energy_per_bit(np.array([50.0]), RADIO) - RADIO.e_elec
        assert amp[0] == pytest.approx(RADIO.eps_fs * 2500, rel=1e-12)
