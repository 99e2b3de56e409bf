import ast
import re
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _desk_config
from vflsim import cli
from vflsim.config import (ConfigError, SimConfig, config_hash, iter_keys, parse_config,
                           serialize_config)
from vflsim.scheduler import bcd_solve, load_instance, scheme2_baseline
from vflsim.sim import run_experiment


class TestDefaults:
    def test_empty_input_gives_reference_values(self):
        cfg = parse_config(text="")
        assert cfg.physical.carrier_freq_hz == 5.9e9
        assert cfg.physical.bandwidth_hz == 1.0e7
        assert cfg.physical.n_blocks == 20
        assert cfg.physical.noise_density_dbm_hz == -174.0
        assert cfg.physical.feedback_delay_s == 5e-4
        assert cfg.physical.tx_power_dbm == 23.0
        assert cfg.physical.model_bits == 4.38e6
        assert cfg.geometry.road_length_m == 2000.0
        assert cfg.geometry.lane_count == 6
        assert cfg.geometry.lane_width_m == 4.0
        assert cfg.geometry.rsu_spacing_m == 100.0
        assert cfg.traffic.arrival_rate_per_lane == 0.2
        assert (cfg.traffic.speed_min_kmh, cfg.traffic.speed_max_kmh) == (60.0, 100.0)
        assert cfg.optimization.alpha == 0.4
        assert cfg.learning.local_epochs == 5
        assert cfg.learning.batch_size == 32
        assert cfg.learning.momentum == 0.9
        assert cfg.learning.prox_mu == 0.0025
        assert cfg.learning.lr_base == 0.1
        assert cfg.learning.lr_decay_rounds == 25

    def test_derived_linear_units(self):
        cfg = parse_config()
        assert cfg.tx_power_w == pytest.approx(0.199526, rel=1e-5)
        assert cfg.noise_density_w_hz == pytest.approx(3.981e-21, rel=1e-3)
        assert cfg.block_bandwidth_hz == 5e5
        assert cfg.speed_min_mps == pytest.approx(16.6667, rel=1e-4)
        assert cfg.speed_max_mps == pytest.approx(27.7778, rel=1e-4)

    def test_round_trip(self):
        cfg = parse_config(text="optimization.alpha = 0.25\nrun.seeds = 3,5,8\n"
                                "learning.partitioning = noniid")
        again = parse_config(text=serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(text="optimization.alpha = 1.5")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="physical.warp_factor"):
            parse_config(text="physical.warp_factor = 9")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="quantum"):
            parse_config(text="quantum.bits = 3")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="carrier_freq_hz"):
            parse_config(text="physical.carrier_freq_hz = fast")

    def test_invariant_message_names_constraint(self):
        with pytest.raises(ConfigError, match="u_min"):
            parse_config(text="optimization.u_min = 0")

    def test_scheduler_whitelist(self):
        with pytest.raises(ConfigError, match="scheduler"):
            parse_config(text="run.scheduler = magic")

    @pytest.mark.parametrize("key", [k for k, _, t in iter_keys() if t is float])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_named(self, key, value):
        # only parsed and validated: an infinite arrival rate would never end
        # the arrival process of a run
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("key, value", [("run.seeds", "inf"), ("run.seeds", "3,-inf"),
                                            ("run.compare_alphas", "1,inf")])
    def test_infinite_list_item_named(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("key, value", [("run.seed", "-1"), ("run.seeds", "3,-2"),
                                            ("run.compare_alphas", "0.4,1.5"),
                                            ("run.compare_alphas", "-0.1")])
    def test_out_of_range_run_value_named(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("value", ["1.5", "3,2.5", "1e-1"])
    def test_non_integral_seed_named(self, value):
        with pytest.raises(ConfigError, match=re.escape("run.seeds")):
            parse_config(overrides={"run.seeds": value})

    def test_non_integral_seed_runs_nothing(self, tmp_path, capsys):
        rc = cli.main(["run", "--rounds", "0", "--seeds", "1.5", "--out-dir", str(tmp_path)])
        assert rc == 2 and "run.seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_feedback_delay_rejected(self):
        # epsilon = J0(0) = 1 leaves no estimation error, and the success
        # probabilities of the outage model come out 0 or NaN; so does a delay
        # short enough that the slowest vehicle's epsilon rounds to 1
        for delay in ("0", "1e-12"):
            with pytest.raises(ConfigError, match="physical.feedback_delay_s"):
                parse_config(text=f"physical.feedback_delay_s = {delay}")
        cfg = parse_config(overrides={"physical.feedback_delay_s": "1e-11",
                                      "run.scheduler": "scheme1", "run.rounds": "3"})
        assert len(run_experiment(cfg, seed=1)) == 3


QUICK = ("--set traffic.arrival_rate_per_lane=0.03 "
         "--set learning.samples_per_class=5 "
         "--set learning.test_samples_per_class=20").split()


class TestCli:
    def test_run_zero_rounds_header_only(self, tmp_path):
        rc = cli.main(["run", "--rounds", "0", "--seed", "4",
                       "--out-dir", str(tmp_path)] + QUICK)
        assert rc == 0
        csv = (tmp_path / "rounds_vrvfl_seed4.csv").read_text()
        assert csv == ("t,time_start,T_t,time_cum,n_feasible,n_selected,"
                       "n_success,objective,proxy,accuracy,loss\n")
        manifest = (tmp_path / "manifest_vrvfl_seed4.txt").read_text().splitlines()
        platform, = [line for line in manifest if line.startswith("platform = ")]
        assert platform.startswith(f"platform = numpy {np.__version__}, ")

    def test_run_batch_seeds(self, tmp_path):
        rc = cli.main(["run", "--rounds", "2", "--seeds", "1,2",
                       "--scheduler", "scheme1", "--out-dir", str(tmp_path)] + QUICK)
        assert rc == 0
        assert (tmp_path / "rounds_scheme1_seed1.csv").exists()
        assert (tmp_path / "rounds_scheme1_seed2.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "optimization.alpha=2.0",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        assert cli.main(["run", "--set", "nope.nope=1", "--out-dir", str(tmp_path)]) == 2

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", "--rounds", "0", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "run.seed" in capsys.readouterr().err

    def test_compare_rejects_alpha_out_of_range_before_any_run(self, tmp_path, capsys):
        rc = cli.main(["compare", "--rounds", "1", "--seed", "1", "--out-dir", str(tmp_path),
                       "--set", "run.compare_alphas=0.4,1.5"] + QUICK)
        assert rc == 2
        assert "run.compare_alphas" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_retired_block_iters_key_rejected(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "optimization.block_iters=120", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "config error: unknown key 'optimization.block_iters'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["optimization.bcd_tol", "optimization.bcd_max_outer",
                                     "optimization.d_total_mode",
                                     "physical.speed_of_light_mps"])
    def test_retired_key_rejected(self, key, tmp_path, capsys):
        rc = cli.main(["run", "--set", f"{key}=1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"config error: unknown key '{key}'" in capsys.readouterr().err

    def test_compare_emits_per_run_and_merged(self, tmp_path):
        rc = cli.main(["compare", "--rounds", "2", "--seeds", "1,2",
                       "--out-dir", str(tmp_path)] + QUICK)
        assert rc == 0
        for label in ("vrvfl_a0.4", "scheme1", "scheme2"):
            for seed in (1, 2):
                assert (tmp_path / f"rounds_{label}_seed{seed}.csv").exists()
        merged = (tmp_path / "merged_accuracy_vs_time.csv").read_text().splitlines()
        assert merged[0] == "scheduler,seed,t,time_cum,accuracy"
        assert len(merged) == 1 + 3 * 2 * 2

    def test_compare_rerun_identical(self, tmp_path):
        args = ["compare", "--rounds", "2", "--seed", "3",
                "--out-dir", str(tmp_path / "x")] + QUICK
        cli.main(args)
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "x").glob("*.csv")}
        args[6] = str(tmp_path / "y")
        cli.main(args)
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "y").glob("*.csv")}
        assert first == second

    def test_dump_instance_loads_back(self, tmp_path):
        rc = cli.main(["dump-instance", "--seed", "8", "--out-dir", str(tmp_path)] + QUICK)
        assert rc == 0
        ctx = load_instance(tmp_path / "instance_seed8.txt")
        assert ctx.size > 0
        assert np.all(ctx.r_min < ctx.r_max)

    def test_dump_instance_states_the_alpha_scheme2_solves_at(self, tmp_path):
        for sched in ("vrvfl", "scheme2"):
            rc = cli.main(["dump-instance", "--seed", "8", "--scheduler", sched,
                           "--out-dir", str(tmp_path / sched)] + QUICK)
            assert rc == 0
        vrvfl = load_instance(tmp_path / "vrvfl" / "instance_seed8.txt")
        scheme2 = load_instance(tmp_path / "scheme2" / "instance_seed8.txt")
        assert (vrvfl.alpha, scheme2.alpha) == (0.4, 1.0)
        # solving the scheme2 dump solves the problem a scheme2 round solves
        assert (bcd_solve(scheme2)[0].objective_value
                == scheme2_baseline(vrvfl)[0].objective_value)

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUT_DIR", str(tmp_path / "env_out"))
        rc = cli.main(["run", "--rounds", "0", "--seed", "1"] + QUICK)
        assert rc == 0
        assert (tmp_path / "env_out" / "rounds_vrvfl_seed1.csv").exists()

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert "physical.carrier_freq_hz" in out
        assert "5900000000" in out
        assert "optimization.alpha" in out
        assert "run.scheduler" in out


def test_validate_passes_on_fresh_checkout(tmp_path):
    rc = cli.main(["validate", "--out-dir", str(tmp_path)])
    assert rc == 0


def _assigned_literal(path, name):
    """The literal that the module at `path` assigns to `name`, read without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    value, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return ast.literal_eval(value)


def test_desk_regime_is_one_config():
    """Acceptance 7's desk config, the seeded-CSV script's and the benchmark's agree
    on every key but the round count and the scheduler."""
    def text(cfg):
        return "".join(line for line in serialize_config(cfg).splitlines(keepends=True)
                       if not line.startswith(("run.rounds ", "run.scheduler ")))

    root = Path(__file__).resolve().parent.parent
    script = _assigned_literal(root / "scripts" / "seeded_csvs.py", "DESK")
    bench = _assigned_literal(root / "benchmarks" / "bench_workloads.py", "DESK_OVERRIDES")
    desk = text(_desk_config("vrvfl"))
    assert desk != text(parse_config())
    assert text(parse_config(overrides=dict(item.split("=", 1) for item in script))) == desk
    assert text(parse_config(overrides=bench)) == desk
