import pytest

from wsncluster.model import RadioParams, ScenarioConfig
from wsncluster.planner import (d_to_ch, expected_member_distances,
                                expected_message_length, ideal_avg_tx_energy,
                                ideal_member_counts, k_opt, make_plan, p_opt)

RADIO = RadioParams()


class TestClosedForms:
    def test_default_scenario_head_count(self):
        # frozen from an independent evaluation of the closed form
        assert k_opt(100, 100.0, RADIO) == pytest.approx(23.91528224301491, rel=1e-12)
        assert p_opt(100, 100.0, RADIO) == pytest.approx(0.2391528224301491, rel=1e-12)

    def test_member_distance_scales_with_head_count(self):
        assert d_to_ch(100.0, k_opt(100, 100.0, RADIO)) == \
            pytest.approx(8.157786038001763, rel=1e-12)
        # four times the heads halves the mean member distance
        assert d_to_ch(100.0, 4.0) == pytest.approx(d_to_ch(100.0, 16.0) * 2, rel=1e-12)

    def test_p_opt_clamped_with_warning(self):
        tiny = RadioParams(eps_mp=1e-18)
        with pytest.warns(UserWarning):
            assert p_opt(4, 100.0, tiny) == 1.0


class TestMemberSplit:
    def test_degenerate_when_cluster_fits_in_d0(self):
        m1, m2 = ideal_member_counts(100, 10.0, d_cluster=20.0, d0=75.0)
        assert m1 == pytest.approx(10.0)
        assert m2 == 0.0

    def test_split_conserves_members(self):
        m1, m2 = ideal_member_counts(100, 2.0, d_cluster=120.0, d0=75.0)
        assert m1 + m2 == pytest.approx(50.0, rel=1e-12)
        assert m1 > 0 and m2 > 0

    def test_split_ratio_is_lambda(self):
        # lambda = d0^2 / (d_cluster^2 - d0^2): near over far members
        m1, m2 = ideal_member_counts(100, 2.0, d_cluster=120.0, d0=75.0)
        assert m1 / m2 == pytest.approx(75.0 ** 2 / (120.0 ** 2 - 75.0 ** 2), rel=1e-12)

    def test_far_group_distance(self):
        e_d1, e_d2 = expected_member_distances(120.0, 75.0)
        assert e_d1 == pytest.approx(50.0)
        assert e_d2 == pytest.approx(75.0 + (2.0 / 3.0) * 45.0, rel=1e-12)

    def test_no_far_group_distance_when_degenerate(self):
        assert expected_member_distances(20.0, 75.0)[1] == 0.0


class TestIdealEnergy:
    def test_all_near_hand_value(self):
        # one cluster of 10 with every member 30 m out, 1000-bit messages:
        # 1000 * (5e-9 + 1e-11 * 900) = 1.4e-5 per member
        e = ideal_avg_tx_energy(1000, 10, 1.0, m1=10.0, m2=0.0,
                                e_d1=30.0, e_d2=0.0, radio=RADIO)
        assert e == pytest.approx(1.4e-5, rel=1e-12)

    def test_expected_length_blends_populations(self):
        cfg = ScenarioConfig(frac_rda=0.5)
        assert expected_message_length(cfg) == pytest.approx(4000.0)
        cfg = ScenarioConfig(frac_rda=1.0, msg_len_range_bits=(2000, 6000))
        assert expected_message_length(cfg) == pytest.approx(4000.0)
        cfg = ScenarioConfig(frac_rda=0.0, nonrda_len_range_bits=(3000, 3000))
        assert expected_message_length(cfg) == pytest.approx(3000.0)


class TestPlan:
    def test_default_plan_values(self):
        cfg = ScenarioConfig()
        plan = make_plan(cfg)
        assert plan.d_cluster == pytest.approx(11.53685165387997, rel=1e-12)
        e_d1, _ = expected_member_distances(plan.d_cluster, cfg.radio.d0)
        assert e_d1 == pytest.approx(7.691234435919979, rel=1e-12)
        _, m2 = ideal_member_counts(cfg.n_nodes, plan.k_opt, plan.d_cluster, cfg.radio.d0)
        assert m2 == 0.0
        assert plan.e_consume_avg == pytest.approx(2.2366203485931253e-05, rel=1e-12)

    def test_plan_with_far_members(self):
        # shrink d0 so the ideal cluster radius exceeds it
        cfg = ScenarioConfig(radio=RadioParams(d0=10.0))
        plan = make_plan(cfg)
        assert plan.d_cluster > 10.0
        m1, m2 = ideal_member_counts(cfg.n_nodes, plan.k_opt, plan.d_cluster, 10.0)
        assert m2 > 0.0
        # the plan's ideal energy weighs in the far group
        e_d1, e_d2 = expected_member_distances(plan.d_cluster, 10.0)
        assert plan.e_consume_avg == ideal_avg_tx_energy(
            expected_message_length(cfg), cfg.n_nodes, plan.k_opt, m1, m2, e_d1, e_d2,
            cfg.radio)

    def test_ideal_energy_is_looked_up_at_call_time(self, monkeypatch):
        # an ablation replaces the ideal-energy formula by patching the module
        import wsncluster.planner as planner
        monkeypatch.setattr(planner, "ideal_avg_tx_energy", lambda *a, **k: 1.25)
        assert make_plan(ScenarioConfig()).e_consume_avg == 1.25
