"""One round of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload ablate-grid4 \
        --env env.json --seeds 3,14,15,92,65 --out round0 [--trace]

The worker imports ``qpolicy.cli`` and loads the environment file (the
set-up), prints ``ready``, runs the workload once (the timed part), then
writes ``report.json`` with its timings and peak resident memory, and the
artifacts the checks read, under ``--out``. With ``--trace`` the layer
wrappers are installed before the environment is loaded and the spans go to
``spans.csv``.

``WORKLOADS`` holds each workload's flags; run.py reads them from here so the
round and its checks share one definition.
"""
from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from pathlib import Path

ABLATE = {"epsilons": (0.001, 0.01, 0.05), "shot_counts": (128, 512, 1024, 2048, 4096),
          "iterations": 100}
COMPARE = {"iterations": 50, "mc_budget": 1000, "scaling_epsilons": (0.1, 0.05, 0.02, 0.01)}
SOLVE = {"shots": 512, "iterations": 50, "vi_tol": 1e-8, "eval_tol": 1e-10}


def _csv_floats(values) -> str:
    return ",".join(format(v, "g") for v in values)


def run_ablate(model, env_path: str, seeds: list[int], out: Path, params=ABLATE):
    """README flags: 3 epsilons x 5 shot counts x 5 seeds x 100 iterations."""
    import qpolicy.cli
    code = qpolicy.cli.main([
        "ablate", "--env", env_path,
        "--epsilons", _csv_floats(params["epsilons"]),
        "--shots", ",".join(map(str, params["shot_counts"])),
        "--iters", str(params["iterations"]),
        "--seeds", ",".join(map(str, seeds)), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"qpolicy ablate exited {code}")


def run_compare(model, env_path: str, seeds: list[int], out: Path, params=COMPARE):
    """README flags: 10 seeds x 50 iterations, MC budget 1000, --scaling."""
    import qpolicy.cli
    code = qpolicy.cli.main([
        "compare-queries", "--env", env_path,
        "--iters", str(params["iterations"]),
        "--mc-budget", str(params["mc_budget"]),
        "--seeds", ",".join(map(str, seeds)), "--scaling", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"qpolicy compare-queries exited {code}")


def run_solve(model, env_path: str, seeds: list[int], out: Path, params=SOLVE):
    """value_iteration, a shot-mode engine run, exact evaluation of its policy.

    Returns the results in memory; the worker saves them after the clock stops.
    """
    from qpolicy import emulator, engine, mdp
    seed = seeds[0]
    q_star, _ = mdp.value_iteration(model, tol=params["vi_tol"])
    config = engine.QPolicyConfig(
        epsilon=0.01,
        estimator=emulator.EstimatorConfig(mode=emulator.SHOT_SAMPLING,
                                           shots=params["shots"], seed=seed),
        max_iterations=params["iterations"], convergence_tol=1e-12, seed=seed)
    records, policy = engine.run_qpolicy(model, config)
    q_pi = mdp.exact_policy_evaluation(model, policy, tol=params["eval_tol"])
    return {"q_star": q_star, "q_pi": q_pi, "policy": policy.actions, "records": records}


def save_solve(results: dict, out: Path) -> None:
    import numpy as np
    for name in ("q_star", "q_pi", "policy"):
        np.save(out / f"{name}.npy", results[name])
    with open(out / "records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "bellman_error_max", "queries_iteration",
                         "queries_cumulative"])
        for rec in results["records"]:
            writer.writerow([rec.iteration, repr(rec.bellman_error_max),
                             rec.queries_iteration, rec.queries_cumulative])


# name -> (grid side, engine seeds per round, round, whether it goes through the CLI)
WORKLOADS = {
    "ablate-grid4": (4, 5, run_ablate, True),
    "compare-queries-grid4": (4, 10, run_compare, True),
    "solve-grid45": (45, 1, run_solve, False),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--env", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    _, _, run, via_cli = WORKLOADS[args.workload]
    round_dir = Path(args.out)
    artifacts = round_dir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    import qpolicy.cli
    import_s = time.perf_counter() - start
    source = Path("src").resolve()
    if source not in Path(qpolicy.cli.__file__).resolve().parents:
        print(f"qpolicy was imported from {qpolicy.cli.__file__}, not {source}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from qpolicy import mdp
    model = mdp.load_mdp(args.env)
    print("ready", flush=True)

    seeds = [int(s) for s in args.seeds.split(",")]
    error, results = None, None
    start = time.perf_counter()
    try:
        results = run(model, args.env, seeds, artifacts)
    except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is None and results is not None:
        save_solve(results, artifacts)

    report = {
        "error": error,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": sum(p.stat().st_size for p in artifacts.iterdir()) if via_cli else 0,
    }
    if tracer is not None:
        from tracing import ae_readout_violations, layer_metrics
        report["layers"] = layer_metrics(tracer.spans)
        report["ae_checked"], report["ae_violations"] = ae_readout_violations(tracer.spans)
        tracer.write(round_dir / "spans.csv")
    (round_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
