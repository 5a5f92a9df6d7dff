import csv
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import trace_digests
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

    @pytest.mark.parametrize("fields, error", [
        ({"n_nodes": "100"}, "n_nodes: must be an integer"),
        ({"rda_msgs_range": 5}, "rda_msgs_range: must be a pair of integers"),
        ({"n_nodes": 100.5}, "n_nodes: must be an integer"),
    ])
    def test_wrongly_typed_field_is_config_error(self, tmp_path, capsys, fields, error):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(fields))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, error", [
        ({"rng_seed": -1}, "rng_seed: must be non-negative"),
        ({"rda_msgs_range": [2**62, 2**62 + 3]}, "rda_msgs_range: must stay below 2**31"),
        ({"msg_len_range_bits": [2**70, 2**70]}, "msg_len_range_bits: must stay below 2**31"),
        ({"broadcast_bits": 2**31}, "broadcast_bits: must stay below 2**31"),
        ({"frames_per_round": 2**31}, "frames_per_round: must be at most 1024"),
        ({"n_nodes": 10**6}, "n_nodes: must be at most 4096"),
    ])
    def test_out_of_range_field_is_config_error(self, tmp_path, capsys, fields, error):
        path = tmp_path / "range.json"
        path.write_text(json.dumps(fields))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_plan_overflow_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"bs_pos": [150.0, 50.0], "eps_mp": 1e300,
                                    "d0": 150.0}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "eps_mp:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retired_key_is_config_error(self, tmp_path, small_config, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**small_config.to_flat_dict(), "eq20_literal": False}))
        out = tmp_path / "o"
        assert main(["--scenario", str(path), "--out", str(out)]) == 2
        assert "eq20_literal" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_var_is_config_error(self, tmp_path, scenario_file, capsys):
        rc = main(["--scenario", str(scenario_file), "--sweep", "d0=1,2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "('alpha', 'epsilon_tol', 'frac_energy_heterogeneous')" in err
        assert "none" not in err

    def test_sweep_values_without_a_variable_are_config_error(self, tmp_path,
                                                               scenario_file, capsys):
        out = tmp_path / "o"
        rc = main(["--scenario", str(scenario_file), "--sweep", "none=1,2",
                   "--out", str(out)])
        assert rc == 2
        assert "sweep: values need a variable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_no_rounds_is_config_error(self, tmp_path, scenario_file, rounds, capsys):
        # a run of no rounds has no trace to summarize
        out = tmp_path / "o"
        rc = main(["--scenario", str(scenario_file), "--max-rounds", rounds,
                   "--out", str(out)])
        assert rc == 2
        assert "max_rounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["--sweep", "epsilon_tol=0.9,2"], "epsilon_tol: must lie in [0, 1]"),
        (["--sweep", "alpha=0.5,1.5"], "alpha: must lie in [0, 1]"),
        (["--jobs", "0"], "jobs: must be at least 1"),
        # a repeated cell would run twice and write duplicate summary rows
        (["--sweep", "alpha=0.6,0.6"], "sweep: names one entry twice"),
        (["--policy", "leach,LEACH"], "policy: names one entry twice"),
    ])
    def test_bad_sweep_value_or_jobs_is_config_error(self, tmp_path, scenario_file,
                                                     args, field, capsys):
        # checked before any run, so nothing is written
        out = tmp_path / "o"
        rc = main(["--scenario", str(scenario_file), "--out", str(out), *args])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path, scenario_file):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["--scenario", str(scenario_file),
                   "--out", str(blocker / "sub")])
        assert rc == 3


def test_output_bytes_do_not_depend_on_workers(tmp_path):
    # the CLI grids of scripts/trace_digests.py, whose committed digests
    # test_trace_identity checks at one worker, give the same bytes at two
    digests = trace_digests.cli_digests(tmp_path, "--jobs", "2")
    committed = json.loads(trace_digests.COMMITTED.read_text())
    assert digests == {name: committed[name] for name in digests}


def test_cli_import_leaves_out_the_process_pool():
    # a one-process grid never loads concurrent.futures.process; run_grid
    # imports it only for --jobs above 1
    code = ("import sys, wsncluster.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(trace_digests.ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_grid_heap_does_not_grow_with_runs(tmp_path, small_config):
    """The peak heap of a grid is that of one run: a 16-run grid peaks
    within a small margin of the same grid at 4 runs."""
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps(small_config.to_flat_dict()))

    def peak(seeds):
        argv = ["--scenario", str(scenario), "--policy", "leach,eepca",
                "--seeds", str(seeds), "--max-rounds", "100",
                "--out", str(tmp_path / f"o{seeds}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up: imports and first-call caches
    assert peak(8) - peak(2) < 64 * 1024


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
        with pytest.raises(ConfigError, match="values need a variable"):
            SweepSpec(base=small_config, policies=[], seeds=1, values=[1.0])
        with pytest.raises(ConfigError, match="max_rounds"):
            SweepSpec(base=small_config, policies=[], seeds=1, max_rounds=0)


def test_parser_defaults():
    args = build_parser().parse_args(["--scenario", "s.json", "--out", "o"])
    assert args.policy == "eepca"
    assert args.seeds == 1
    assert args.max_rounds == 10000
    assert args.jobs == 1
