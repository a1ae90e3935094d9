"""Each benchmark check rejects a deliberately corrupted artifact.

Small versions of the three workloads run in-process once; every test copies
their outputs, breaks one figure and expects the matching CheckError.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SEEDS = [11, 12, 13]
SMALL = {
    "ablate": (worker.run_ablate, checks.check_ablate,
               {"epsilons": (0.01, 0.05), "shot_counts": (64, 128), "iterations": 4}),
    "compare": (worker.run_compare, checks.check_compare,
                {"iterations": 3, "mc_budget": 20,
                 "scaling_epsilons": worker.COMPARE["scaling_epsilons"]}),
    "solve": (worker.run_solve, checks.check_solve,
              {"shots": 64, "iterations": 3, "vi_tol": 1e-8, "eval_tol": 1e-10}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Valid outputs of each small workload on the 3x3 grid."""
    from qpolicy.mdp import load_mdp
    base = tmp_path_factory.mktemp("outputs")
    env_path = base / "env.json"
    env_path.write_text(json.dumps(run.gridworld_doc(3)), encoding="utf-8")
    model = load_mdp(env_path)
    for name, (round_fn, _, params) in SMALL.items():
        out = base / name
        out.mkdir()
        results = round_fn(model, str(env_path), SEEDS, out, params)
        if results is not None:
            worker.save_solve(results, out)
    return base


def _check(outputs, name, tmp_path, corrupt=None):
    out = tmp_path / name
    shutil.copytree(outputs / name, out)
    if corrupt is not None:
        corrupt(out)
    _, check, params = SMALL[name]
    return check(out, checks.Env(outputs / "env.json"), SEEDS, params)


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = change(rows[row][col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _scale_npy(name: str, index, delta: float):
    def corrupt(out):
        table = np.load(out / name)
        table[index] += delta
        np.save(out / name, table)
    return corrupt


def test_gridworld_input_matches_library_builder():
    from qpolicy.mdp import build_gridworld, mdp_to_dict
    for side in (4, 45):
        built = mdp_to_dict(build_gridworld(side, side, 0.2, (side - 1, side - 1), 0.95))
        assert json.loads(json.dumps(run.gridworld_doc(side))) == \
            json.loads(json.dumps(built))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_valid_outputs_pass(outputs, name, tmp_path):
    assert _check(outputs, name, tmp_path) > 0


ARM = "arm_eps0.01_shots64.csv"
CORRUPTIONS = [
    ("ablate", lambda o: _edit_csv(o / ARM, 2, "queries_iteration", lambda v: str(int(v) + 1)),
     "queries_iteration"),
    ("ablate", lambda o: _edit_csv(o / ARM, 3, "queries_cumulative", lambda v: str(int(v) - 1)),
     "running sum"),
    ("ablate", lambda o: _drop_last_row(o / ARM), "rows"),
    ("ablate", lambda o: (o / "arm_eps0.05_shots128.csv").unlink(), "missing"),
    ("ablate", lambda o: _edit_csv(o / "summary.csv", 1, "mean",
                                   lambda v: repr(float(v) * (1 + 1e-6))), "mean"),
    ("ablate", lambda o: _edit_csv(o / "summary.csv", 2, "std",
                                   lambda v: repr(float(v) * (1 + 1e-6))), "std"),
    ("ablate", lambda o: _edit_csv(o / "summary.csv", 3, "ci95_high",
                                   lambda v: repr(float(v) + 1e-6)), "ci95_high"),
    ("compare", lambda o: _edit_csv(o / "comparison_runs.csv", 1, "queries_per_iteration",
                                    lambda v: str(int(v) * 2)), "queries_per_iteration"),
    ("compare", lambda o: _edit_csv(o / "comparison_runs.csv", 2, "total_queries",
                                    lambda v: str(int(v) + 20)), "total_queries"),
    ("compare", lambda o: _edit_csv(o / "comparison.csv", 1, "final_bellman_error",
                                    lambda v: repr(float(v) * 1.01)), "final_bellman_error"),
    ("compare", lambda o: _edit_csv(o / "scaling.csv", 1, "ae_queries",
                                    lambda v: str(int(v) + 1)), "ae_queries"),
    ("compare", lambda o: _edit_csv(o / "scaling.csv", 2, "mc_rmse", lambda v: "0.5"),
     "mc_rmse"),
    ("solve", lambda o: _edit_csv(o / "records.csv", 2, "queries_cumulative",
                                  lambda v: str(int(v) + 64)), "running sum"),
    ("solve", _scale_npy("q_pi.npy", (0, 0), 1e-6), "direct sparse solve"),
    ("solve", _scale_npy("q_star.npy", slice(None), -1.0), "exceeds V"),
    ("solve", _scale_npy("q_star.npy", (0, 1), 1e-6), "optimality"),
]


@pytest.mark.parametrize("name,corrupt,message", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}" for c in CORRUPTIONS])
def test_corrupted_output_rejected(outputs, name, corrupt, message, tmp_path):
    with pytest.raises(checks.CheckError, match=message):
        _check(outputs, name, tmp_path, corrupt)


def test_ae_readout_outside_epsilon_counted():
    from qpolicy.emulator import AE_ORACLE, EstimatorConfig
    config = EstimatorConfig(mode=AE_ORACLE, epsilon=0.01)
    values = np.array([0.2, 0.5, 0.9])
    note = tracing._readout_note(None)
    assert note((values, config, None), {}, values + 0.01) == (3, 3, 0)
    assert note((values, config, None), {}, values + np.array([0.0, 0.02, -0.011])) == (3, 3, 2)
    spans = [(0, None, "emulator.readout_batch", 0.0, 1.0, (3, 3, 2))]
    assert tracing.ae_readout_violations(spans) == (3, 2)
