import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsncluster.baselines import PolicyKind
from wsncluster.engine import _Sim
from wsncluster.model import (MAX_FRAMES_PER_ROUND, MAX_NODES, ConfigError, RadioParams,
                              ScenarioConfig, deploy, load_scenario, scenario_from_dict,
                              table1_scenario)


class TestValidation:
    def test_default_config_is_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_nodes == 100
        assert cfg.m_field == 100.0

    @pytest.mark.parametrize("kwargs, field_name", [
        ({"m_field": 0.0}, "m_field"),
        ({"n_nodes": 0}, "n_nodes"),
        ({"e_min": 5.0, "e_max": 3.0}, "e_min"),
        ({"e_min": -1.0}, "e_min"),
        ({"frac_rda": 1.5}, "frac_rda"),
        ({"frac_malfunction": -0.1}, "frac_malfunction"),
        ({"epsilon_tol": 2.0}, "epsilon_tol"),
        ({"alpha": 0.7, "beta": 0.4}, "alpha"),
        ({"alpha": 1.5, "beta": -0.5}, "alpha"),
        ({"frames_per_round": 0}, "frames_per_round"),
        ({"rda_msgs_range": (7, 3)}, "rda_msgs_range"),
        ({"neighbor_radius": 0.0}, "neighbor_radius"),
        ({"broadcast_bits": -1}, "broadcast_bits"),
        ({"broadcast_bits": 0}, "broadcast_bits"),
        ({"e_min": 0.0, "e_max": 0.0, "homogeneous_energy": 0.0}, "e_max"),
        ({"frac_energy_heterogeneous": 0.0, "homogeneous_energy": 0.0},
         "homogeneous_energy"),
        ({"neighbor_radius": math.nan}, "neighbor_radius"),
        ({"neighbor_radius": math.inf}, "neighbor_radius"),
        ({"bs_pos": (math.nan, 0.0)}, "bs_pos"),
        ({"bs_pos": (0.0, -math.inf)}, "bs_pos"),
        ({"e_min": math.nan}, "e_min"),
        ({"e_max": math.inf}, "e_max"),
        ({"m_field": math.inf}, "m_field"),
        ({"malfunction_noise_range": (0.5, math.nan)}, "malfunction_noise_range"),
        ({"msg_len_range_bits": (2000, math.inf)}, "msg_len_range_bits"),
        ({"e_da_per_bit": math.nan}, "e_da_per_bit"),
        ({"homogeneous_energy": math.inf}, "homogeneous_energy"),
        ({"alpha": math.nan}, "alpha"),
        ({"epsilon_tol": math.nan}, "epsilon_tol"),
        ({"n_nodes": math.nan}, "n_nodes"),
        # a field of the wrong type is named before any other check reads it
        ({"n_nodes": "100"}, "n_nodes"),
        ({"n_nodes": 100.5}, "n_nodes"),
        ({"n_nodes": True}, "n_nodes"),
        ({"m_field": "100"}, "m_field"),
        ({"alpha": False, "beta": 1.0}, "alpha"),
        ({"rda_msgs_range": 5}, "rda_msgs_range"),
        ({"rda_msgs_range": (3.5, 7)}, "rda_msgs_range"),
        ({"rda_msgs_range": (3, 5, 7)}, "rda_msgs_range"),
        ({"malfunction_noise_range": ("0.5", 1.5)}, "malfunction_noise_range"),
        ({"bs_pos": (1.0,)}, "bs_pos"),
        ({"radio": None}, "radio"),
        # amplifier ratios whose ideal cluster plan leaves the float range:
        # a radius past 1e77 m overflows d^4, an infinite head count divides
        # by a zero cluster size
        ({"bs_pos": (150.0, 50.0), "radio": RadioParams(eps_mp=1e300, d0=150.0)},
         "eps_mp"),
        ({"radio": RadioParams(eps_fs=1e300, eps_mp=1e-300)}, "eps_mp"),
        # a field so large that the radius overflows with the default ratio
        # names the field, and an extreme ratio on it still names the ratio
        ({"m_field": 1e60}, "m_field"),
        ({"m_field": 1e60, "radio": RadioParams(eps_fs=1e300, eps_mp=1e-300)}, "eps_mp"),
        # message schedules and bit fields stay below 2**31: 2**62 messages
        # overflowed int64 in the steady phase's count times length, and the
        # network's energy rose; 2**70 and 2**1100 bits raised OverflowError
        # in run()
        ({"rda_msgs_range": (2**62, 2**62 + 3)}, "rda_msgs_range"),
        ({"rda_msgs_range": (3, 2**31)}, "rda_msgs_range"),
        ({"msg_len_range_bits": (2**70, 2**70)}, "msg_len_range_bits"),
        ({"nonrda_len_range_bits": (2**31, 2**31)}, "nonrda_len_range_bits"),
        ({"broadcast_bits": 2**1100}, "broadcast_bits"),
        ({"fused_len_bits": 2**31}, "fused_len_bits"),
        # numpy's seeding takes no negative seed
        ({"rng_seed": -1}, "rng_seed"),
        # 2**62 frames raised "array is too big", 2**31 a MemoryError and
        # 10**7 had not played two rounds in a minute, at 4 nodes
        ({"frames_per_round": MAX_FRAMES_PER_ROUND + 1}, "frames_per_round"),
        ({"frames_per_round": 10**7}, "frames_per_round"),
        ({"frames_per_round": 2**31}, "frames_per_round"),
        ({"frames_per_round": 2**62}, "frames_per_round"),
        ({"n_nodes": MAX_NODES + 1}, "n_nodes"),
        ({"n_nodes": 2**62}, "n_nodes"),
    ])
    def test_invalid_field_raises_with_field_name(self, kwargs, field_name):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.field_name == field_name

    def test_bounds_are_valid(self):
        cfg = ScenarioConfig(n_nodes=MAX_NODES, frames_per_round=MAX_FRAMES_PER_ROUND)
        assert (cfg.n_nodes, cfg.frames_per_round) == (4096, 1024)

    @pytest.mark.parametrize("kwargs, field_name", [
        ({"e_elec": 0.0}, "e_elec"),
        ({"d0": -1.0}, "d0"),
        ({"alpha_pathloss": 0.5}, "alpha_pathloss"),
        ({"alpha_pathloss": 7.0}, "alpha_pathloss"),
        ({"eps_fs": math.nan}, "eps_fs"),
        ({"eps_mp": math.inf}, "eps_mp"),
        ({"e_elec": -math.inf}, "e_elec"),
        ({"d0": math.nan}, "d0"),
        ({"k_rss": math.inf}, "k_rss"),
        ({"alpha_pathloss": math.nan}, "alpha_pathloss"),
        ({"d0": "75"}, "d0"),
        ({"e_elec": True}, "e_elec"),
    ])
    def test_invalid_radio_field(self, kwargs, field_name):
        with pytest.raises(ConfigError) as exc:
            RadioParams(**kwargs)
        assert exc.value.field_name == field_name

    def test_numbers_of_either_json_kind_load(self):
        cfg = scenario_from_dict({"m_field": 100, "bs_pos": [0, 10.5], "d0": 75})
        assert cfg.bs_xy == (0, 10.5)
        assert cfg.radio.d0 == 75

    def test_one_source_of_positive_energy_suffices(self):
        ScenarioConfig(frac_energy_heterogeneous=0.5, homogeneous_energy=0.0)
        ScenarioConfig(frac_energy_heterogeneous=0.5, e_min=0.0, e_max=0.0)

    def test_bs_defaults_to_field_centre(self):
        assert ScenarioConfig().bs_xy == (50.0, 50.0)
        assert ScenarioConfig(bs_pos=(0.0, 10.0)).bs_xy == (0.0, 10.0)


class TestSerialization:
    def test_flat_dict_round_trip(self, default_config):
        rebuilt = scenario_from_dict(default_config.to_flat_dict())
        assert rebuilt == default_config

    @pytest.mark.parametrize("key, value", [
        ("not_a_field", 1),
        # retired switches: each formula has one reading, and the reduction
        # to LEACH patches eepca's factor functions
        ("eq20_literal", False), ("gamma_rule_literal", False), ("cost_factor_cap", 5.0),
        ("force_unit_factors", True), ("disable_suppression", True)])
    def test_unknown_key_rejected(self, default_config, key, value):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({**default_config.to_flat_dict(), key: value})
        assert exc.value.field_name == key

    def test_load_scenario_file(self, tmp_path, default_config):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(default_config.to_flat_dict()))
        assert load_scenario(path) == default_config

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_config_hash_sensitive_to_fields(self, default_config):
        other = default_config.with_seed(default_config.rng_seed + 1)
        assert default_config.config_hash() != other.config_hash()
        assert default_config.config_hash() == table1_scenario().config_hash()

    def test_shipped_scenario_matches_defaults(self):
        # scenarios/table1.json must stay in sync with the code defaults
        from pathlib import Path
        path = Path(__file__).parent.parent / "scenarios" / "table1.json"
        assert load_scenario(path) == ScenarioConfig()


class TestDeploy:
    def test_determinism(self, default_config):
        cfg = dataclasses.replace(default_config, frac_rda=0.5, frac_malfunction=0.1)
        a = deploy(cfg)
        b = deploy(cfg)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_seed_changes_layout(self, default_config):
        a = deploy(default_config)
        b = deploy(default_config.with_seed(1))
        assert not np.array_equal(a.x, b.x)
        assert not np.array_equal(a.y, b.y)

    def test_positions_inside_field(self, default_config):
        dep = deploy(default_config)
        for coord in (dep.x, dep.y):
            assert coord.shape == (default_config.n_nodes,)
            assert ((0.0 <= coord) & (coord <= default_config.m_field)).all()

    def test_full_heterogeneity_energy_range(self, default_config):
        energies = deploy(default_config).e_init
        assert ((1.0 <= energies) & (energies <= 3.0)).all()
        assert np.std(energies) > 0.1

    def test_partial_heterogeneity_counts(self):
        cfg = ScenarioConfig(frac_energy_heterogeneous=0.3)
        at_base = int((deploy(cfg).e_init == cfg.homogeneous_energy).sum())
        assert at_base == 70

    @given(frac=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_rda_count_rounds_to_nearest(self, frac):
        cfg = ScenarioConfig(n_nodes=40, frac_rda=frac, frac_malfunction=frac)
        dep = deploy(cfg)
        expect = int(np.floor(frac * 40 + 0.5))
        assert dep.is_rda.sum() == expect
        assert dep.is_malf.sum() == expect

    def test_expected_neighbor_density(self, default_config):
        # mean degree for uniform deployment is close to N*pi*R^2 / M^2,
        # ignoring edge effects; average over seeds to tame the variance
        r = default_config.neighbor_radius
        expect = default_config.n_nodes * np.pi * r * r / default_config.m_field ** 2
        degrees = []
        for seed in range(30):
            dep = deploy(default_config.with_seed(seed))
            d = np.hypot(dep.x[:, None] - dep.x[None, :], dep.y[:, None] - dep.y[None, :])
            degrees.append(((d <= r).sum() - dep.x.size) / dep.x.size)
        assert abs(np.mean(degrees) - expect) < 0.5

    def test_schedule_regeneration_contract(self, rda_config):
        # every round redraws each RDA node's message count and length from
        # the configured ranges; other nodes, which send every frame at one
        # length here, hold that round's count and length throughout
        sim = _Sim(rda_config, PolicyKind.LEACH)
        rda = sim.is_rda
        lengths = set()
        for r in range(3):
            sim.play_round(r)
            assert ((3 <= sim.msg_count[rda]) & (sim.msg_count[rda] <= 7)).all()
            assert ((2000 <= sim.msg_len[rda]) & (sim.msg_len[rda] <= 6000)).all()
            assert (sim.msg_count[~rda] == rda_config.frames_per_round).all()
            assert (sim.msg_len[~rda] == 4000).all()
            lengths.add(sim.msg_len[rda].tobytes())
        assert len(lengths) == 3
