"""Consumption prediction for regular-data-acquisition (RDA) nodes, and the
broadcast suppression it allows (eepca.broadcast_suppressed).

A node skips its setup broadcast when the residual energy its neighbors
compute for it (belief) is within tolerance of its actual residual (e).  The
relative prediction error is gamma = |1 - belief/e|.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsncluster.baselines import PolicyKind
from wsncluster.eepca import broadcast_suppressed, estimated_distance_matrix
from wsncluster.engine import _Sim
from wsncluster.model import ContractViolation
from wsncluster.radio import tx_energy


def _suppressed(belief, e, epsilon_tol):
    return bool(broadcast_suppressed(np.array([belief]), np.array([e]), epsilon_tol)[0])


class TestPrediction:
    def test_schedule_times_unit_cost(self, rda_config):
        # the belief ledger charges an RDA member's steady phase at its
        # message count times the cost of one scheduled message to its head
        sim = _Sim(rda_config, PolicyKind.EEPCA)
        steady = sim._steady
        seen = []

        def recorded(assignment, heads, noise, *draws):
            members = np.flatnonzero(sim.is_rda & (assignment >= 0))
            their_heads, belief = assignment[members], sim.belief[members]
            out = steady(assignment, heads, noise, *draws)
            seen.append((members, their_heads, belief - sim.belief[members]))
            return out

        sim._steady = recorded
        sim.play_round(0)
        [(members, heads, drop)] = seen
        assert members.size > 10
        d_est = estimated_distance_matrix(sim.x[members] - sim.x[heads],
                                          sim.y[members] - sim.y[heads],
                                          rda_config.radio, sim.bcast_cost)
        for i, d, spent in zip(members, d_est, drop):
            expect = sim.msg_count[i] * tx_energy(int(sim.msg_len[i]), d, rda_config.radio)
            assert spent == pytest.approx(expect, rel=1e-12)


class TestGamma:
    def test_exact_prediction_is_zero(self):
        # zero error passes even the zero-tolerance bound
        assert _suppressed(1.5, 1.5, 1.0)

    def test_relative_error(self):
        # gamma 0.1 for an under-prediction, 0.2 for an over-prediction,
        # whatever the energy scale
        for scale in (1.0, 2.0, 1e-3):
            assert _suppressed(0.9 * scale, scale, 0.89)
            assert not _suppressed(0.9 * scale, scale, 0.91)
            assert _suppressed(1.2 * scale, scale, 0.79)
            assert not _suppressed(1.2 * scale, scale, 0.81)

    def test_dead_node_rejected(self):
        with pytest.raises(ContractViolation):
            broadcast_suppressed(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.93)

    @given(pred=st.floats(0.0, 10.0), actual=st.floats(1e-6, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, pred, actual):
        # gamma >= 0, so at zero tolerance only an exact ratio is suppressed,
        # over-predictions included
        assert _suppressed(pred, actual, 1.0) == (pred / actual == 1.0)


class TestSuppression:
    def test_decision_rule_tolerance_is_complement(self):
        # epsilon 0.93 tolerates up to 7% relative error
        assert _suppressed(1.0, 1.0, 0.93)
        assert _suppressed(0.931, 1.0, 0.93)   # gamma 0.069
        assert not _suppressed(0.92, 1.0, 0.93)  # gamma 0.08

    def test_full_epsilon_still_accepts_exact_prediction(self):
        assert _suppressed(1.0, 1.0, 1.0)
        assert not _suppressed(1.0 - 1e-9, 1.0, 1.0)

    @given(g=st.floats(0.0, 2.0), eps=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_decision_rule_monotone_in_epsilon(self, g, eps):
        # anything suppressed at tolerance eps stays suppressed at lower eps
        if _suppressed(1.0 + g, 1.0, eps):
            assert _suppressed(1.0 + g, 1.0, eps * 0.5)

    def test_engine_applies_the_module_rule(self, rda_config, monkeypatch):
        # an ablation swaps the rule by patching eepca.broadcast_suppressed:
        # a rule that suppresses every candidate silences every alive RDA node
        import wsncluster.eepca as eepca
        monkeypatch.setattr(eepca, "broadcast_suppressed",
                            lambda belief, e, eps: np.ones(e.size, dtype=bool))
        sim = _Sim(rda_config, PolicyKind.EEPCA)
        sim.play_round(0)
        alive_rda = np.flatnonzero(sim.alive & sim.is_rda)
        sim.play_round(1)
        rec = sim.trace.records[1]
        assert alive_rda.size > 0
        assert sorted(rec.suppressed) == alive_rda.tolist()

    def test_mask_is_per_node(self):
        belief = np.array([1.0, 0.9, 1.0, 0.5])
        e = np.array([1.0, 1.0, 2.0, 1.0])
        assert broadcast_suppressed(belief, e, 0.93).tolist() == \
            [True, False, False, False]
