import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsncluster.baselines import PolicyKind, sep_probabilities
from wsncluster.eepca import (clamp_probabilities, eepca_thresholds_all,
                              election_probabilities_all, rotation_epochs)
from wsncluster.model import ContractViolation


def leach_threshold(p_opt: float, r: int, in_g: bool) -> float:
    """Classic rotation threshold as the engine computes it for LEACH: the
    EEPCA threshold with unit weight and no unelected epochs."""
    p = np.array([p_opt])
    epoch = rotation_epochs(p)
    t = eepca_thresholds_all(p, np.zeros(1, dtype=np.int64), np.ones(1), np.array([in_g]),
                             epoch, r % epoch)
    return float(t[0])


def sep_probability(e_init_i: float, e_init_all, p_opt: float) -> float:
    """Scalar form of the SEP weighting for a single node."""
    arr = np.asarray(list(e_init_all), dtype=float)
    total = float(arr.sum())
    if total <= 0:
        raise ContractViolation("zero total initial energy")
    return min(max(p_opt * arr.size * e_init_i / total, 1e-12), 1.0 - 1e-12)


class TestPolicyKind:
    def test_parse_is_case_insensitive(self):
        assert PolicyKind.parse("LEACH") is PolicyKind.LEACH
        assert PolicyKind.parse("Sep") is PolicyKind.SEP
        assert PolicyKind.parse("eepca") is PolicyKind.EEPCA

    def test_unknown_name_rejected(self):
        with pytest.raises(ContractViolation):
            PolicyKind.parse("pegasis")


class TestLeachThreshold:
    def test_epoch_wraps(self):
        assert leach_threshold(0.1, 10, True) == pytest.approx(0.1, rel=1e-12)
        assert leach_threshold(0.1, 15, True) == pytest.approx(0.2, rel=1e-12)

    def test_last_round_of_epoch_forces_election(self):
        assert leach_threshold(0.5, 1, True) == 1.0

    def test_ineligible_node_never_elected(self):
        assert leach_threshold(0.1, 5, False) == 0.0

    def test_p_opt_contract(self):
        # LEACH's per-node probability is p_opt clamped into the open interval
        # (0, 1), so the rotation epoch ceil(1/p) stays finite
        for p_opt in (0.0, 1.0):
            p = election_probabilities_all(p_opt, np.ones(1))
            assert 0.0 < p[0] < 1.0
            assert 0.0 <= leach_threshold(float(p[0]), 0, True) <= 1.0

    @given(p=st.floats(0.01, 0.99), r=st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_at_least_p(self, p, r):
        t = leach_threshold(p, r, True)
        assert p - 1e-12 <= t <= 1.0


class TestSepProbabilities:
    def test_uniform_energy_degenerates_to_leach(self):
        p = sep_probabilities(np.full(10, 2.0), 0.2)
        assert p == pytest.approx(np.full(10, 0.2), rel=1e-12)

    def test_proportional_to_initial_energy(self):
        p = sep_probabilities(np.array([1.0, 3.0]), 0.1)
        assert p[1] == pytest.approx(3 * p[0], rel=1e-12)

    @given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=30),
           st.floats(0.01, 0.4))
    @settings(max_examples=60, deadline=None)
    def test_sum_preserves_expected_head_count(self, energies, p_opt):
        e = np.array(energies)
        raw = p_opt * e.size * e / e.sum()
        assume(raw.max() < 1.0)  # clipping breaks the identity by design
        p = sep_probabilities(e, p_opt)
        assert p.sum() == pytest.approx(p_opt * e.size, rel=1e-6)

    def test_zero_total_energy_rejected(self):
        with pytest.raises(ContractViolation):
            sep_probabilities(np.zeros(5), 0.2)

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20).filter(any),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_clamp_is_the_election_clamp(self, energies, p_opt):
        # SEP's probabilities are clamped exactly as EEPCA's are, bit for bit
        # the same as clipping into [1e-12, 1 - 1e-12]
        e = np.array(energies)
        raw = p_opt * e.size * e / e.sum()
        p = sep_probabilities(e, p_opt)
        assert np.array_equal(p, clamp_probabilities(raw))
        assert np.array_equal(p, np.clip(raw, 1e-12, 1 - 1e-12))

    def test_scalar_form_matches_vector(self):
        e = np.array([1.0, 2.5, 0.5, 2.0])
        vec = sep_probabilities(e, 0.15)
        for i, ei in enumerate(e):
            assert sep_probability(ei, e, 0.15) == pytest.approx(vec[i], rel=1e-12)
