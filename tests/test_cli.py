import json
import subprocess
import sys

import pytest

from qpolicy.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from qpolicy.mdp import load_mdp


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

    def test_invalid_width_exits_2(self, tmp_path, capsys):
        code = main(["gen-env", "gridworld", "--width", "0", "--height", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.strip() != ""


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
        # as a user would, so that numpy warnings would reach stderr
        doc = json.loads(open(grid_env, encoding="utf-8").read())
        doc["rewards"] = [[1.7e308 if r > 0 else r for r in row] for row in doc["rewards"]]
        env = tmp_path / "huge.json"
        env.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli", "run", "--env", str(env), "--mode", mode,
             "--iters", "5", "--out", str(tmp_path / "o")],
            env=subprocess_env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_RUNTIME
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "iteration 1:" in lines[0]

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
        assert manifest["config"]["epsilon"] == 0.02  # flag wins
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

    def test_compare_queries_table(self, grid_env, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare-queries", "--env", grid_env, "--iters", "50",
                     "--mc-budget", "1000", "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "comparison.csv").read_text()
        assert "monte_carlo,1000,50000" in text

    def test_noise_study_pairs(self, grid_env, tmp_path):
        out = tmp_path / "noise"
        code = main(["noise-study", "--env", grid_env, "--p-values", "0,0.01",
                     "--iters", "5", "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "arm_p0.csv").exists()
        assert (out / "arm_p0.01.csv").exists()

    def test_noise_study_requires_zero(self, grid_env, tmp_path):
        code = main(["noise-study", "--env", grid_env, "--p-values", "0.01",
                     "--iters", "2", "--seeds", "1", "--out", str(tmp_path / "n")])
        assert code == EXIT_CONFIG

    def test_resources_json(self, grid_env, capsys):
        assert main(["resources", "--env", grid_env, "--epsilon", "0.01"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["qubits"] == 6
        assert doc["gates_per_bellman_update"] == 50


class TestThreadDeterminism:
    def _run_ablate(self, grid_env, out_dir, env, threads):
        env = dict(env, QPOLICY_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli", "ablate", "--env", grid_env,
             "--epsilons", "0.01,0.05", "--shot-counts", "128,256",
             "--iters", "6", "--seeds", "2", "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}

    def test_thread_count_does_not_change_bytes(self, grid_env, tmp_path, subprocess_env):
        files_1 = self._run_ablate(grid_env, tmp_path / "t1", subprocess_env, threads=1)
        files_8 = self._run_ablate(grid_env, tmp_path / "t8", subprocess_env, threads=8)
        assert files_1.keys() == files_8.keys()
        for name in files_1:
            assert files_1[name] == files_8[name]


def _loaded_by_cli_import(module: str, env: dict) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qpolicy.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_stats_out(subprocess_env):
    # scipy.stats alone takes most of the CLI's start-up time
    assert not _loaded_by_cli_import("scipy.stats", subprocess_env)


def test_import_leaves_scipy_sparse_out(subprocess_env):
    # the model's operator is plain numpy; scipy.sparse.linalg would add
    # about 8 MiB and 0.1 s to every command's start-up
    assert not _loaded_by_cli_import("scipy.sparse", subprocess_env)
