import csv
import json

import pytest

from wsncluster.cli import SweepSpec, apply_sweep_value, build_parser, main
from wsncluster.model import ConfigError, ScenarioConfig


@pytest.fixture
def scenario_file(tmp_path, small_config):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small_config.to_flat_dict()))
    return path


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestMain:
    def test_basic_run_writes_artifacts(self, tmp_path, scenario_file):
        out = tmp_path / "results"
        rc = main(["--scenario", str(scenario_file), "--policy", "leach,sep",
                   "--seeds", "2", "--max-rounds", "15", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "summary.csv")
        assert len(rows) == 4  # 2 policies x 2 seeds
        assert {r["policy"] for r in rows} == {"leach", "sep"}
        assert {r["seed"] for r in rows} == {"0", "1"}
        curves = _read_csv(out / "curves.csv")
        assert len(curves) == 4 * 15
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seeds"] == [0, 1]
        assert meta["config"]["n_nodes"] == 20

    def test_sweep_grid(self, tmp_path, scenario_file):
        out = tmp_path / "sweep"
        rc = main(["--scenario", str(scenario_file), "--policy", "eepca",
                   "--seeds", "1", "--max-rounds", "10", "--out", str(out),
                   "--sweep", "alpha=0.5,0.9"])
        assert rc == 0
        rows = _read_csv(out / "summary.csv")
        assert [r["sweep_value"] for r in rows] == ["0.5", "0.9"]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["sweep_var"] == "alpha"

    def test_missing_scenario_is_config_error(self, tmp_path):
        rc = main(["--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_policy_is_config_error(self, tmp_path, scenario_file):
        rc = main(["--scenario", str(scenario_file), "--policy", "bogus",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_no_positive_energy_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"e_min": 0.0, "e_max": 0.0,
                                    "homogeneous_energy": 0.0}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "positive energy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_number_is_config_error(self, tmp_path, capsys):
        # json.load accepts the non-standard NaN and Infinity literals
        path = tmp_path / "nan.json"
        path.write_text('{"neighbor_radius": NaN}')
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "neighbor_radius: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_plan_overflow_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"bs_pos": [150.0, 50.0], "eps_mp": 1e300,
                                    "d0": 150.0}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "eps_mp:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_sweep_var_is_config_error(self, tmp_path, scenario_file):
        rc = main(["--scenario", str(scenario_file), "--sweep", "d0=1,2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_no_rounds_is_config_error(self, tmp_path, scenario_file, rounds, capsys):
        # a run of no rounds has no trace to summarize
        out = tmp_path / "o"
        rc = main(["--scenario", str(scenario_file), "--max-rounds", rounds,
                   "--out", str(out)])
        assert rc == 2
        assert "max_rounds" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path, scenario_file):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["--scenario", str(scenario_file),
                   "--out", str(blocker / "sub")])
        assert rc == 3


class TestSweepSpec:
    def test_alpha_sweep_rebalances_beta(self, small_config):
        cfg = apply_sweep_value(small_config, "alpha", 0.9)
        assert cfg.alpha == 0.9
        assert cfg.beta == pytest.approx(0.1)

    def test_none_sweep_is_identity(self, small_config):
        assert apply_sweep_value(small_config, "none", 0.0) is small_config

    def test_invalid_spec_rejected(self, small_config):
        with pytest.raises(ConfigError):
            SweepSpec(base=small_config, policies=[], seeds=0)
        with pytest.raises(ConfigError):
            SweepSpec(base=small_config, policies=[], seeds=1, sweep_var="d0")
        with pytest.raises(ConfigError):
            SweepSpec(base=small_config, policies=[], seeds=1,
                      sweep_var="alpha", values=[])
        with pytest.raises(ConfigError, match="max_rounds"):
            SweepSpec(base=small_config, policies=[], seeds=1, max_rounds=0)


def test_parser_defaults():
    args = build_parser().parse_args(["--scenario", "s.json", "--out", "o"])
    assert args.policy == "eepca"
    assert args.seeds == 1
    assert args.max_rounds == 10000
    assert args.jobs == 1
