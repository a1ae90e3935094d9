import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qpolicy import cli
from qpolicy.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from qpolicy.emulator import AE_ORACLE, SHOT_SAMPLING
from qpolicy.engine import IterationRecord
from qpolicy.experiments import (
    MethodResult,
    ScalingPoint,
    StudyRun,
    SummaryStats,
    run_ablation,
    summarize,
)
from qpolicy.mdp import build_gridworld, load_mdp, mdp_to_dict

# floats whose 17-digit text is least like a plain decimal
SPECIAL = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2)


def _reference_csv(header, rows) -> bytes:
    """The bytes csv.writer writes for header and rows, each float written
    with format(v, ".17g"): a writer apart from cli's row formats."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue().encode()


@pytest.fixture()
def grid_env(tmp_path):
    path = tmp_path / "grid.json"
    assert main(["gen-env", "gridworld", "--width", "4", "--height", "4",
                 "--slip", "0.2", "--out", str(path)]) == EXIT_OK
    return str(path)


class TestGenEnv:
    def test_gridworld_file(self, grid_env):
        mdp = load_mdp(grid_env)
        assert mdp.num_states == 16
        assert mdp.num_actions == 4

    def test_frozenlake_file(self, tmp_path):
        path = tmp_path / "lake.json"
        assert main(["gen-env", "frozenlake", "--size", "8", "--slippery",
                     "--out", str(path)]) == EXIT_OK
        assert load_mdp(path).num_states == 64

    def test_out_in_a_new_directory(self, tmp_path):
        # the directory is made, and the file is the model's document as
        # sorted, two-space indented JSON with a final newline
        out = tmp_path / "newdir" / "env.json"
        assert main(["gen-env", "gridworld", "--width", "4", "--height", "4",
                     "--out", str(out)]) == EXIT_OK
        doc = mdp_to_dict(build_gridworld(4, 4, 0.2, (3, 3), 0.95))
        assert out.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def test_missing_size_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen-env", "frozenlake", "--out", str(out)]) == EXIT_CONFIG
        assert "frozenlake needs size" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_width_exits_2(self, tmp_path, capsys):
        code = main(["gen-env", "gridworld", "--width", "0", "--height", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.strip() != ""

    def test_goal_not_row_col_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["gen-env", "gridworld", "--width", "4", "--height", "4",
                     "--goal", "3,3,7", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "goal must be (row, col), got (3, 3, 7)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, unread", [
        (["frozenlake", "--size", "4", "--width", "9", "--goal", "1,1", "--slip", "0.7"],
         "--goal, --slip, --width"),
        (["gridworld", "--width", "4", "--height", "4", "--size", "8", "--no-slippery"],
         "--size, --slippery"),
    ], ids=["frozenlake", "gridworld"])
    def test_flag_of_the_other_builder_exits_2(self, tmp_path, capsys, flags, unread):
        out = tmp_path / "x.json"
        assert main(["gen-env", *flags, "--gamma", "0.9", "--out", str(out)]) == EXIT_CONFIG
        assert f"gen-env {flags[0]} does not read {unread}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, flags", [
        ({"builder": "gridworld", "width": 4, "height": 4}, ["gridworld", "--width", "4",
                                                            "--height", "4"]),
        ({"builder": "frozenlake", "size": 4}, ["frozenlake", "--size", "4"]),
    ], ids=["gridworld", "frozenlake"])
    def test_a_spec_takes_the_defaults_of_gen_env(self, tmp_path, spec, flags):
        # goal, slip, slippery and gamma left out: one default for each
        env, cfg = tmp_path / "env.json", tmp_path / "cfg.json"
        assert main(["gen-env", *flags, "--out", str(env)]) == EXIT_OK
        cfg.write_text(json.dumps({"environment": spec}))
        assert main(["run", "--config", str(cfg), "--iters", "2", "--out",
                     str(tmp_path / "spec")]) == EXIT_OK
        manifest = json.loads((tmp_path / "spec" / "manifest.json").read_text())
        assert manifest["environment"] == json.loads(env.read_text())


class TestRun:
    def test_row_count_and_header(self, grid_env, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--env", grid_env, "--epsilon", "0.01", "--shots", "512",
                     "--iters", "50", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "records.csv").read_bytes().decode()
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,bellman_error_max,bellman_error_mean,q_variance,queries_iteration,queries_cumulative,seed"
        assert len(lines) == 51
        assert (out / "manifest.json").exists()

    def test_rerun_byte_identical(self, grid_env, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--env", grid_env, "--epsilon", "0.01", "--shots", "256",
                "--iters", "20", "--seed", "3"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()

    def test_multi_seed_row_count(self, grid_env, tmp_path):
        out = tmp_path / "multi"
        code = main(["run", "--env", grid_env, "--iters", "100",
                     "--seeds", "1,2,3,4,5", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert len(lines) == 501  # header + iters * seeds

    def test_runtime_failure_exits_1(self, grid_env, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(["run", "--env", grid_env, "--iters", "2",
                     "--out", str(blocker / "sub")])
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("mode", ["shot_sampling", "ae_oracle"])
    def test_overflowing_run_exits_1(self, grid_env, tmp_path, subprocess_env, mode):
        # every positive reward at 1.7e308 overflows the second backup; run
        # as a user would, so that numpy warnings would reach stderr. Both
        # seeds run in one lockstep loop, and the error names the first.
        doc = json.loads(Path(grid_env).read_text(encoding="utf-8"))
        doc["rewards"] = [[1.7e308 if r > 0 else r for r in row] for row in doc["rewards"]]
        env = tmp_path / "huge.json"
        env.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli", "run", "--env", str(env), "--mode", mode,
             "--iters", "5", "--seeds", "4,9", "--out", str(tmp_path / "o")],
            env=subprocess_env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_RUNTIME
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "iteration 1: the backup targets of seed 4" in lines[0]

    def test_large_epsilon_oracle_stays_bounded(self, grid_env, tmp_path):
        # unclipped reads made this run grow past 1e34; clipped, every greedy
        # value stays in [0, 1 / (1 - gamma)] = [0, 20]
        out = tmp_path / "eps05"
        code = main(["run", "--env", grid_env, "--mode", "ae_oracle", "--epsilon", "0.5",
                     "--iters", "300", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "records.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        errors = [float(line.split(",")[header.index("bellman_error_max")])
                  for line in lines[1:]]
        assert len(errors) == 300
        assert max(errors) <= 20.0

    def test_missing_env_exits_2(self, tmp_path, capsys):
        code = main(["run", "--iters", "2", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_corrupt_env_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--env", str(bad), "--iters", "2",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("defect, message", [
        ("nan_probability", "probabilities must be finite"),
        ("terminal_out_of_range", "terminal states must be integers"),
        ("fractional_next_state", "next states must be integers"),
        ("state_past_end", "entry 0: (s, a) = (16, 0) is not a pair of integers"),
        ("negative_state", "entry 0: (s, a) = (-1, 0) is not a pair of integers"),
        ("fractional_action", "entry 0: (s, a) = (0, 1.5) is not a pair of integers"),
        ("repeated_pair", "entry 64: a second row for (s, a) = (0, 0)"),
        ("fractional_num_states", "num_states must be an integer, got 16.9"),
        ("fractional_num_actions", "num_actions must be an integer, got 4.5"),
        ("fractional_start", "start must be an integer, got 1.5"),
        ("bool_start", "start must be an integer, got True"),
        ("string_gamma", "gamma must be a number, got '0.5'"),
        ("string_reward", "rewards must be a list of lists of numbers, got '1'"),
        ("bool_reward", "rewards must be a list of lists of numbers, got True"),
        ("bool_probability", "number pairs, got True"),
        ("string_next_state", "number pairs, got '0'"),
        ("string_terminals", "terminals must be a list of numbers, got '15'"),
    ])
    def test_invalid_env_file_exits_2(self, grid_env, tmp_path, capsys, defect, message):
        doc = json.loads(Path(grid_env).read_text(encoding="utf-8"))
        first = doc["transitions"][0]
        if defect == "nan_probability":
            first["rows"] = [[1, float("nan")]]
        elif defect == "terminal_out_of_range":
            doc["terminals"] = [15, 40]
        elif defect == "fractional_next_state":
            first["rows"] = [[1.7, 1.0]]
        elif defect == "state_past_end":
            first["s"] = 16
        elif defect == "negative_state":
            first["s"] = -1
        elif defect == "fractional_action":
            first["a"] = 1.5
        elif defect == "fractional_num_states":
            doc["num_states"] = 16.9
        elif defect == "fractional_num_actions":
            doc["num_actions"] = 4.5
        elif defect == "fractional_start":
            doc["start"] = 1.5
        elif defect == "bool_start":
            doc["start"] = True
        elif defect == "string_gamma":
            doc["gamma"] = "0.5"
        elif defect in ("string_reward", "bool_reward"):
            doc["rewards"][0][0] = "1" if defect == "string_reward" else True
        elif defect == "bool_probability":
            first["rows"] = [[1, True]]
        elif defect == "string_next_state":
            first["rows"] = [["0", 1.0]]
        elif defect == "string_terminals":
            doc["terminals"] = "15"
        else:
            doc["transitions"].append(dict(first, rows=[[1, 1.0]]))
        env = tmp_path / "bad_env.json"
        env.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", "--env", str(env), "--iters", "2", "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_unknown_key_rejected(self, grid_env, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["run", "--env", grid_env, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_control_variate_key_rejected(self, grid_env, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.7}))
        code = main(["run", "--env", grid_env, "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "unknown config keys" in capsys.readouterr().err

    def test_control_variate_flag_rejected(self, grid_env, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--env", grid_env, "--beta", "0.7", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG

    def test_flag_overrides_file(self, grid_env, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.05, "iters": 7, "seed": 2}))
        out = tmp_path / "o"
        code = main(["run", "--env", grid_env, "--config", str(cfg),
                     "--epsilon", "0.02", "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["estimator"]["epsilon"] == 0.02  # flag wins
        assert manifest["seeds"] == [2]  # file value used
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 iterations

    def test_environment_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "environment": {"builder": "gridworld", "width": 4, "height": 4,
                            "slip": 0.2, "goal": [3, 3]},
            "iters": 3,
        }))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSettings:
    """Each command takes exactly the flags and config keys it reads."""

    @pytest.mark.parametrize("command, flag, value", [
        ("ablate", "--epsilon", "0.1"),  # each cell sets epsilon from --epsilons
        ("noise-study", "--noise-p", "0.1"),  # each arm sets p from --p-values
    ] + [("resources", flag, value) for flag, value in [
        ("--mode", "ae_oracle"), ("--shots", "5"), ("--noise-p", "0.1"), ("--iters", "3"),
        ("--tol", "1e-3"), ("--gamma", "0.5"), ("--seed", "1"), ("--seeds", "2"), ("--out", "x"),
        ("--kappa", "0.5"), ("--c-gate", "-5"), ("--c-overhead", "-1"),
    ]])
    def test_unread_flag_exits_2(self, grid_env, tmp_path, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--env", grid_env, flag, value])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("command, key, value", [
        ("run", "epsilons", [0.1]), ("run", "mc_budget", 10), ("run", "kappa", 2.0),
        ("ablate", "epsilon", 0.1), ("ablate", "shots", 64),
        ("noise-study", "noise_p", 0.1), ("compare-queries", "p_values", [0.0]),
        ("resources", "seed", 1), ("resources", "mode", "ae_oracle"),
        ("resources", "kappa", 2.0), ("resources", "c_gate", 12.5),
        ("resources", "c_overhead", 1.12),
    ])
    def test_unread_config_key_exits_2(self, grid_env, tmp_path, capsys, monkeypatch,
                                       command, key, value):
        monkeypatch.chdir(tmp_path)  # the default --out is "."
        cfg = _write_config(tmp_path, {key: value})
        assert main([command, "--env", grid_env, "--config", cfg]) == EXIT_CONFIG
        assert f"unknown config keys for {command}: ['{key}']" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "grid.json"]

    @pytest.mark.parametrize("command, doc, message", [
        ("run", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("run", {"seed": True}, "seed must be an integer, got True"),
        ("run", {"seed": None}, "seed must be an integer, got None"),
        ("run", {"shots": 2.9}, "shots must be an integer >= 1, got 2.9"),
        ("run", {"gamma": "0.5"}, "gamma must be a finite number, got '0.5'"),
        ("run", {"mode": "exact"}, "mode must be shot_sampling or ae_oracle"),
        ("ablate", {"epsilons": 0.1}, "epsilons must be a nonempty comma string or JSON list"),
        ("ablate", {"shot_counts": [128, 2.5]}, "shot_counts must be a nonempty comma string"),
        ("noise-study", {"p_values": 0.01}, "p_values must be a nonempty comma string"),
        ("noise-study", {"p_values": [0, 1.5]}, "each a number in [0, 1], got [0, 1.5]"),
        ("run", {"environment": 5}, "no environment given"),
        ("run", {"environment": {"builder": ["gridworld"]}}, "unknown environment builder"),
        ("run", {"environment": {"builder": "gridworld", "width": 4.5, "height": 4,
                                 "goal": [3, 3]}}, "width must be an integer >= 1, got 4.5"),
        ("run", {"environment": {"builder": "frozenlake", "size": 4, "slippery": "no"}},
         "slippery must be a boolean, got 'no'"),
        ("run", {"environment": {"builder": "gridworld", "width": 4, "height": 4,
                                 "goal": [3, 3, 7]}}, "goal must be (row, col), got (3, 3, 7)"),
        ("run", {"gamma": 1}, "gamma must lie in [0, 1), got 1.0"),
        ("run", {"environment": {"builder": "gridworld", "width": 4}}, "gridworld needs height"),
        ("run", {"environment": {"builder": "frozenlake"}}, "frozenlake needs size"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, doc, message):
        doc.setdefault("environment", {"builder": "gridworld", "width": 4, "height": 4,
                                       "goal": [3, 3]})
        out = tmp_path / "o"
        assert main([command, "--config", _write_config(tmp_path, doc), "--iters", "2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["compare-queries", "--iters", "0"], "iters must be an integer >= 1, got 0"),
        (["compare-queries", "--mc-budget", "0"], "mc_budget must be an integer >= 1, got 0"),
        (["ablate", "--epsilons", "abc"], "epsilons must be a nonempty comma string"),
        (["ablate", "--mode", "ae_oracle", "--epsilons", "0.01,1.5"], "ae_oracle requires"),
        (["run", "--mode", "ae_oracle", "--epsilon", "1e-320"], "finite readout cost"),
        (["run", "--gamma", "nan"], "gamma must be a finite number, got nan"),
        # resources reads out through ae_oracle, whose checks apply
        (["resources", "--epsilon", "1.5"], "ae_oracle requires 0 < epsilon < 1"),
        (["resources", "--c-ae", "0"], "c_ae must be positive"),
        (["resources", "--epsilon", "1e-320"], "finite readout cost"),
        (["resources", "--c-ae", "1e307", "--epsilon", "0.5"],
         "the gate count overflows the float range at c_ae 1e+307 and epsilon 0.5"),
        # shot mode reads no epsilon, and still rejects one that is not positive
        (["run", "--epsilon", "-0.1"], "epsilon must be positive"),
        (["run", "--noise-p", "1.5"], "noise_p must be a number in [0, 1], got 1.5"),
    ])
    def test_bad_setting_exits_2_before_any_run(self, grid_env, capsys, monkeypatch,
                                                 argv, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        for name in ("run_qpolicy_lockstep", "run_ablation", "run_query_complexity_study"):
            monkeypatch.setattr(f"qpolicy.cli.{name}", no_run)
        assert main(argv[:1] + ["--env", grid_env] + argv[1:]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ablate", "--mode", "ae_oracle", "--epsilons", "1.5"],
        ["noise-study", "--p-values", "0.1"],
    ])
    def test_config_error_in_a_command_leaves_no_output_directory(self, grid_env, tmp_path,
                                                                    argv):
        # both are found by the command itself, after the settings are read
        out = tmp_path / "late"
        assert main(argv[:1] + ["--env", grid_env] + argv[1:] + ["--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["ablate", "--mode", "ae_oracle", "--epsilons", "0.0010000001,0.001", "--shots", "16"],
         "epsilons 0.0010000001 and 0.001 would write one arm file"),
        (["noise-study", "--p-values", "0,0.0100000001,0.01"],
         "p_values 0.0100000001 and 0.01 would write one arm file"),
    ], ids=["ablate", "noise-study"])
    def test_values_sharing_an_arm_name_exit_2(self, grid_env, tmp_path, capsys, argv,
                                                message):
        # format(v, 'g') names the arm: both values would go to one file
        out = tmp_path / "o"
        assert main(argv[:1] + ["--env", grid_env] + argv[1:] +
                    ["--iters", "3", "--seeds", "2", "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_value_error_inside_a_run_exits_1(self, grid_env, tmp_path, capsys, monkeypatch):
        def failing_run(mdp, configs):
            raise ValueError("q table must be finite")
        monkeypatch.setattr("qpolicy.cli.run_qpolicy_lockstep", failing_run)
        code = main(["run", "--env", grid_env, "--iters", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: q table must be finite")

    def test_default_epsilon_flag_changes_nothing(self, grid_env, tmp_path):
        # --epsilon 0.01 is compare-queries' calibrated value: same bytes
        base = ["compare-queries", "--env", grid_env, "--iters", "5", "--mc-budget", "50",
                "--seeds", "2"]
        assert main(base + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(base + ["--epsilon", "0.01", "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("comparison.csv", "comparison_runs.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_engine_flags_apply_over_calibrated_defaults(self, grid_env, tmp_path):
        out = tmp_path / "o"
        assert main(["compare-queries", "--env", grid_env, "--iters", "2", "--mc-budget", "50",
                     "--mode", "shot_sampling", "--shots", "7", "--out", str(out)]) == EXIT_OK
        assert "qpolicy,420,840," in (out / "comparison.csv").read_text()  # 60 pairs x 7
        estimator = json.loads((out / "manifest.json").read_text())["config"]["estimator"]
        assert (estimator["mode"], estimator["shots"], estimator["c_ae"]) == (
            "shot_sampling", 7, 0.04)

    def test_list_settings_take_a_json_list_or_a_comma_string(self, grid_env, tmp_path):
        outs = []
        for epsilons in ([0.01, 0.05], "0.01,0.05"):
            outs.append(tmp_path / f"o{len(outs)}")
            cfg = _write_config(tmp_path, {"epsilons": epsilons, "shot_counts": [16],
                                           "seeds": [0, 1], "iters": 3})
            assert main(["ablate", "--env", grid_env, "--config", cfg,
                         "--out", str(outs[-1])]) == EXIT_OK
        assert [p.name for p in sorted(outs[0].iterdir())] == [
            "arm_eps0.01_shots16.csv", "arm_eps0.05_shots16.csv", "manifest.json", "summary.csv"]
        for p in outs[0].iterdir():
            assert p.read_bytes() == (outs[1] / p.name).read_bytes()


class TestStudies:
    def test_ablate_emits_arm_files(self, grid_env, tmp_path):
        out = tmp_path / "abl"
        code = main(["ablate", "--env", grid_env, "--epsilons", "0.01,0.05",
                     "--shot-counts", "128,256", "--iters", "5", "--seeds", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        arms = sorted(p.name for p in out.glob("arm_*.csv"))
        assert len(arms) == 4
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode", [SHOT_SAMPLING, AE_ORACLE])
    def test_arms_sharing_a_run_match_their_own_rows(self, grid_env, tmp_path, mode):
        """Cells that share a run (shot mode never reads epsilon, ae_oracle
        never shots) are written once; each arm file and summary.csv still
        hold the bytes _reference_csv writes from that arm's own rows."""
        epsilons, shot_counts, seeds = [0.01, 0.05], [128, 256], [0, 1]
        out = tmp_path / "abl"
        assert main(["ablate", "--env", grid_env, "--mode", mode, "--epsilons", "0.01,0.05",
                     "--shot-counts", "128,256", "--iters", "5", "--seeds", "0,1",
                     "--out", str(out)]) == EXIT_OK
        base = cli._engine_config(cli.DEFAULT_ENGINE, {"mode": mode, "iters": 5}, 0)
        cells = run_ablation(load_mdp(grid_env), epsilons, shot_counts, base, seeds)
        other = (0.05, 128) if mode == SHOT_SAMPLING else (0.01, 256)
        assert cells[other][0].records is cells[(0.01, 128)][0].records
        summary, expected = [], {}
        for (eps, shots), runs in sorted(cells.items()):
            arm = f"eps{eps:g}_shots{shots}"
            rows = [(r.iteration, r.bellman_error_max, r.bellman_error_mean, r.q_variance,
                     r.queries_iteration, r.queries_cumulative, run.seed)
                    for run in runs for r in run.records]
            expected[f"arm_{arm}.csv"] = _reference_csv(cli.RUN_COLUMNS, rows)
            series = [[r.bellman_error_max for r in run.records] for run in runs]
            summary += [(arm, i, st.mean, st.std, st.ci95_low, st.ci95_high, st.n)
                        for i, st in enumerate(summarize(cli._pad_series(series)))]
        expected["summary.csv"] = _reference_csv(cli.SUMMARY_COLUMNS, summary)
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(expected)
        for name, text in expected.items():
            assert (out / name).read_bytes() == text, name

    def test_compare_queries_table(self, grid_env, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare-queries", "--env", grid_env, "--iters", "50",
                     "--mc-budget", "1000", "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "comparison.csv").read_text()
        assert "monte_carlo,1000,50000" in text

    def test_overflowing_monte_carlo_arm_exits_1(self, grid_env, tmp_path, subprocess_env):
        # a reward of 1.5e308 on entering the goal makes the Monte Carlo sums
        # overflow in the first evaluation, which runs before the engine arm;
        # the error names the iteration and the first seed, as the engine's does
        doc = json.loads(Path(grid_env).read_text(encoding="utf-8"))
        doc["rewards"] = [[1.5e308 if r > 0 else r for r in row] for row in doc["rewards"]]
        env = tmp_path / "huge.json"
        env.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli", "compare-queries", "--env", str(env),
             "--iters", "5", "--mc-budget", "50", "--seeds", "4,9", "--out", str(tmp_path / "o")],
            env=subprocess_env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_RUNTIME
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "iteration 0: the Monte Carlo estimates of seed 4 are not finite" in lines[0]

    def test_noise_study_pairs(self, grid_env, tmp_path):
        out = tmp_path / "noise"
        code = main(["noise-study", "--env", grid_env, "--p-values", "0,0.01",
                     "--iters", "5", "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "arm_p0.csv").exists()
        assert (out / "arm_p0.01.csv").exists()

    def test_a_repeated_value_is_one_arm(self, grid_env, tmp_path):
        out = tmp_path / "noise"
        assert main(["noise-study", "--env", grid_env, "--p-values", "0,0.01,0.01",
                     "--iters", "3", "--seeds", "2", "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.glob("arm_*.csv")) == ["arm_p0.01.csv", "arm_p0.csv"]

    def test_noise_study_requires_zero(self, grid_env, tmp_path):
        code = main(["noise-study", "--env", grid_env, "--p-values", "0.01",
                     "--iters", "2", "--seeds", "1", "--out", str(tmp_path / "n")])
        assert code == EXIT_CONFIG

    def test_resources_json(self, grid_env, capsys):
        assert main(["resources", "--env", grid_env, "--epsilon", "0.01"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "qubits": 6, "sparsity_d": 4, "gates_per_bellman_update": 50,
            "gates_per_read": 5600, "queries_per_iteration": 6000,
            "gates_per_iteration": 336000, "seconds_per_iteration_at_1khz": 336.0}


class TestCsvBytes:
    """Every CSV table against _reference_csv, fed rows that hold each of
    SPECIAL: the row formats write what csv.writer and format(v, ".17g")
    write, whatever the float."""

    @staticmethod
    def _records():
        # the cumulative count passes 2**53, where %.17g would round an integer
        return [IterationRecord(k, v, SPECIAL[-1 - k], SPECIAL[k - 3], 240, 240 * 10 ** (3 * k))
                for k, v in enumerate(SPECIAL)]

    @staticmethod
    def _run_rows(records, seeds):
        return [(r.iteration, r.bellman_error_max, r.bellman_error_mean, r.q_variance,
                 r.queries_iteration, r.queries_cumulative, seed)
                for seed in seeds for r in records]

    def test_records(self, grid_env, tmp_path, monkeypatch):
        records = self._records()
        monkeypatch.setattr("qpolicy.cli.run_qpolicy_lockstep",
                            lambda mdp, configs: [(records, None) for _ in configs])
        out = tmp_path / "o"
        assert main(["run", "--env", grid_env, "--seeds=-9,4", "--out", str(out)]) == EXIT_OK
        assert (out / "records.csv").read_bytes() == _reference_csv(
            cli.RUN_COLUMNS, self._run_rows(records, [-9, 4]))

    def test_arms_and_summary(self, grid_env, tmp_path, monkeypatch):
        # two cells share one run, as shot mode makes them
        runs = [StudyRun(seed, self._records()) for seed in (0, 1)]
        cells = {(0.01, 16): runs, (0.05, 16): runs}
        stats = [SummaryStats(v, SPECIAL[-1 - i], SPECIAL[i - 3], SPECIAL[i - 5], 2)
                 for i, v in enumerate(SPECIAL)]
        monkeypatch.setattr("qpolicy.cli.run_ablation", lambda *args: cells)
        monkeypatch.setattr("qpolicy.cli.summarize", lambda series: stats)
        out = tmp_path / "o"
        assert main(["ablate", "--env", grid_env, "--epsilons", "0.01,0.05", "--shots", "16",
                     "--seeds", "0,1", "--out", str(out)]) == EXIT_OK
        arm_text = _reference_csv(cli.RUN_COLUMNS, self._run_rows(runs[0].records, [0]) +
                                  self._run_rows(runs[1].records, [1]))
        for arm in ("eps0.01_shots16", "eps0.05_shots16"):
            assert (out / f"arm_{arm}.csv").read_bytes() == arm_text
        assert (out / "summary.csv").read_bytes() == _reference_csv(
            cli.SUMMARY_COLUMNS,
            [(arm, i, st.mean, st.std, st.ci95_low, st.ci95_high, st.n)
             for arm in ("eps0.01_shots16", "eps0.05_shots16") for i, st in enumerate(stats)])

    def test_comparison_tables(self, grid_env, tmp_path, monkeypatch):
        results = [MethodResult(("qpolicy", "monte_carlo")[k % 2], k, 240, 240 * 50, v, [])
                   for k, v in enumerate(SPECIAL)]
        points = [ScalingPoint(v, 4, SPECIAL[-1 - k], 2 ** k, SPECIAL[k - 3])
                  for k, v in enumerate(SPECIAL)]
        # a mean over seeds would turn most of SPECIAL into nan or inf
        summary = {m: {"queries_per_iteration": 240.0, "total_queries": 12000.0,
                       "final_bellman_error": v, "n": 4}
                   for m, v in (("qpolicy", 0.1 + 0.2), ("monte_carlo", 5e-324))}
        monkeypatch.setattr("qpolicy.cli.run_query_complexity_study", lambda *args: results)
        monkeypatch.setattr("qpolicy.cli.query_summary", lambda rows: summary)
        monkeypatch.setattr("qpolicy.cli.matched_accuracy_scaling", lambda *args, **kw: points)
        out = tmp_path / "o"
        assert main(["compare-queries", "--env", grid_env, "--seeds", "7", "--scaling",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "comparison_runs.csv").read_bytes() == _reference_csv(
            ("method", "seed", "queries_per_iteration", "total_queries", "final_bellman_error"),
            [(r.method, r.seed, r.queries_per_iteration, r.total_queries, r.final_bellman_error)
             for r in results])
        assert (out / "comparison.csv").read_bytes() == _reference_csv(
            ("method", "queries_per_iteration", "total_queries", "final_bellman_error", "n"),
            [(m, round(v["queries_per_iteration"]), round(v["total_queries"]),
              v["final_bellman_error"], v["n"]) for m, v in sorted(summary.items())])
        assert (out / "scaling.csv").read_bytes() == _reference_csv(
            ("epsilon", "ae_queries", "ae_rmse", "mc_budget", "mc_rmse"),
            [(p.epsilon, p.ae_queries, p.ae_rmse, p.mc_budget, p.mc_rmse) for p in points])


class TestDiscount:
    """--gamma, or the config key gamma, sets the model's discount once: every
    run of a study, both compare-queries arms and the manifest see it."""

    STUDIES = {
        "run": ["run", "--iters", "5", "--seeds", "2"],
        "ablate": ["ablate", "--epsilons", "0.01,0.05", "--shot-counts", "64,128",
                   "--iters", "5", "--seeds", "2"],
        "compare-queries": ["compare-queries", "--iters", "5", "--mc-budget", "50",
                            "--seeds", "2", "--scaling"],
    }

    @staticmethod
    def _files(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    @pytest.mark.parametrize("study", STUDIES)
    def test_flag_equals_an_environment_at_that_discount(self, grid_env, tmp_path, study):
        env05 = tmp_path / "grid05.json"
        assert main(["gen-env", "gridworld", "--width", "4", "--height", "4", "--slip", "0.2",
                     "--gamma", "0.5", "--out", str(env05)]) == EXIT_OK
        argv = self.STUDIES[study]
        assert main([*argv, "--env", grid_env, "--gamma", "0.5",
                     "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert main([*argv, "--env", str(env05), "--out", str(tmp_path / "file")]) == EXIT_OK
        flag = self._files(tmp_path / "flag")
        assert "manifest.json" in flag and flag == self._files(tmp_path / "file")
        manifest = json.loads(flag["manifest.json"])
        assert manifest["environment"]["gamma"] == 0.5
        assert "gamma" not in manifest["config"]

    @pytest.mark.parametrize("command, gamma", [("run", "1.5"), ("compare-queries", "1")])
    def test_discount_flag_out_of_range_exits_2(self, grid_env, tmp_path, capsys, command,
                                                gamma):
        out = tmp_path / "o"
        assert main([command, "--env", grid_env, "--iters", "2", "--gamma", gamma,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "gamma must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestEmptySeeds:
    @pytest.mark.parametrize("command", ["run", "ablate", "compare-queries", "noise-study"])
    def test_zero_seed_count_exits_2(self, grid_env, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--env", grid_env, "--iters", "2", "--seeds", "0",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "no seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seed_list_in_config_exits_2(self, grid_env, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": []}))
        assert main(["ablate", "--env", grid_env, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("seeds", [3, [1.5, 2]], ids=["int", "fractional"])
    def test_seeds_not_a_list_of_integers_exits_2(self, grid_env, tmp_path, capsys, seeds):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": seeds}))
        out = tmp_path / "o"
        assert main(["run", "--env", grid_env, "--config", str(cfg), "--iters", "2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "seeds must be a list of integers" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedSeeds:
    @pytest.mark.parametrize("command", ["run", "ablate", "compare-queries", "noise-study"])
    def test_a_seed_given_twice_exits_2(self, grid_env, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--env", grid_env, "--iters", "2", "--seeds", "3,5,3",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seed 3 is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_a_seed_given_twice_in_config_exits_2(self, grid_env, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [4, 0, 4]}))
        out = tmp_path / "o"
        assert main(["noise-study", "--env", grid_env, "--config", str(cfg), "--iters", "2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "seed 4 is given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "noise-study"])
    @pytest.mark.parametrize("first, second", [(-5, 2**63 - 5), (0, 2**63)])
    def test_seeds_equal_modulo_the_stream_mask_exit_2(self, grid_env, tmp_path, capsys,
                                                       command, first, second):
        out = tmp_path / "o"
        code = main([command, "--env", grid_env, "--iters", "2",
                     f"--seeds={first},{second}", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"seeds {first} and {second} are one seed to the random streams" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_equal_modulo_the_stream_mask_in_config_exit_2(self, grid_env, tmp_path,
                                                                capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [3, 0, 2**63]}))
        out = tmp_path / "o"
        assert main(["run", "--env", grid_env, "--config", str(cfg), "--iters", "2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"seeds 0 and {2**63} are one seed" in capsys.readouterr().err
        assert not out.exists()

    def test_a_list_starting_with_a_negative_seed_is_given_with_equals(self, grid_env,
                                                                       tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--env", grid_env, "--iters", "2", "--seeds=-5,3",
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "records.csv").read_text().strip().splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in lines] == ["-5", "-5", "3", "3"]


class TestLockstepDeterminism:
    """A study's bytes are the same on a rerun, and whether its engine
    configs run as one lockstep batch or one config per call."""

    ABLATE = ["ablate", "--epsilons", "0.01,0.05", "--shot-counts", "128,256",
              "--iters", "6", "--seeds", "2"]
    NOISE = ["noise-study", "--p-values", "0,0.02", "--iters", "6", "--seeds", "2"]

    @staticmethod
    def _csv_bytes(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}

    def _run_in_subprocess(self, argv, grid_env, out_dir, env):
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli", *argv, "--env", grid_env,
             "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return self._csv_bytes(out_dir)

    def test_rerun_does_not_change_bytes(self, grid_env, tmp_path, subprocess_env):
        first = self._run_in_subprocess(self.ABLATE, grid_env, tmp_path / "a", subprocess_env)
        again = self._run_in_subprocess(self.ABLATE, grid_env, tmp_path / "b", subprocess_env)
        assert len(first) == 5 and first == again

    @pytest.mark.parametrize("argv", [ABLATE, NOISE], ids=["ablate", "noise-study"])
    def test_one_config_per_call_does_not_change_bytes(self, argv, grid_env, tmp_path,
                                                        subprocess_env, one_config_per_call):
        batch = self._run_in_subprocess(argv, grid_env, tmp_path / "batch", subprocess_env)
        assert main([*argv, "--env", grid_env, "--out", str(tmp_path / "solo")]) == EXIT_OK
        # 2 shot counts, or 2 noise arms, x 2 seeds: four distinct runs
        assert one_config_per_call == [4]
        assert self._csv_bytes(tmp_path / "solo") == batch


def _scipy_modules_after(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\n"
         "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_out(subprocess_env):
    # scipy.special alone more than doubles the CLI's import time; the
    # model's operator is plain numpy, and summaries read a committed table
    assert _scipy_modules_after("import qpolicy.cli", subprocess_env) == "[]"


def test_small_studies_leave_scipy_out(grid_env, tmp_path, subprocess_env):
    # both benchmark commands, in one interpreter: ablate's summary.csv over
    # 3 seeds takes its t-quantile from the table, so the import's cost does
    # not just move from start-up into the run
    env_path, out = grid_env, tmp_path / "o"
    code = (
        "from qpolicy.cli import main\n"
        f"assert main(['compare-queries', '--env', {env_path!r}, '--seeds', '3',\n"
        "             '--iters', '3', '--mc-budget', '20', '--scaling',\n"
        f"             '--out', {str(out / 'cq')!r}]) == 0\n"
        f"assert main(['ablate', '--env', {env_path!r}, '--seeds', '3', '--iters', '3',\n"
        "             '--epsilons', '0.01', '--shot-counts', '128',\n"
        f"             '--out', {str(out / 'ab')!r}]) == 0"
    )
    assert _scipy_modules_after(code, subprocess_env) == "[]"
    assert len((out / "ab" / "summary.csv").read_text().splitlines()) == 1 + 3
