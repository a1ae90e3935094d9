"""Configuration-driven command line front end.

Subcommands build environments, run single experiments and studies, and
emit deterministic CSV/JSON artifacts. Numbers are written with 17
significant digits so reruns are byte-comparable; files are written to a
temp name and renamed, so partial runs never corrupt artifacts. Exit codes:
0 success, 2 configuration error, 1 runtime failure. QPOLICY_THREADS caps
worker parallelism for multi-run studies (0 or unset picks automatically).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .emulator import AE_ORACLE, SHOT_SAMPLING, EstimatorConfig, NoiseModel
from .engine import QPolicyConfig, run_qpolicy
from .experiments import (
    AblationGrid,
    calibrated_query_config,
    estimate_resources,
    matched_accuracy_scaling,
    query_summary,
    run_ablation,
    run_noise_comparison,
    run_query_complexity_study,
    summarize,
)
from .mdp import TabularMDP, build_frozenlake, build_gridworld, load_mdp, mdp_to_dict, save_mdp

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2

RUN_COLUMNS = ("iteration", "bellman_error_max", "bellman_error_mean",
               "q_variance", "queries_iteration", "queries_cumulative", "seed")
SUMMARY_COLUMNS = ("arm", "iteration", "mean", "std", "ci95_low", "ci95_high", "n")

# Keys accepted in a --config JSON file; anything else is rejected.
CONFIG_KEYS = {
    "environment", "mode", "epsilon", "shots", "c_ae", "noise_p",
    "iters", "tol", "gamma", "seed", "seeds", "out",
    "mc_budget", "epsilons", "shot_counts", "p_values", "kappa",
    "c_gate", "c_overhead",
}


class ConfigError(Exception):
    """Invalid flags, config file, or environment document."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _thread_count() -> int:
    raw = os.environ.get("QPOLICY_THREADS", "0")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"QPOLICY_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError("QPOLICY_THREADS must be >= 0")
    return n if n > 0 else min(8, os.cpu_count() or 1)


def _parse_seeds(text: str) -> list[int]:
    """'1,2,3' is an explicit list; a bare integer N means seeds 0..N-1."""
    if "," in text:
        return [int(tok) for tok in text.split(",") if tok != ""]
    return list(range(int(text)))


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


# ---------------------------------------------------------------------------
# Config assembly: flags override config-file values override defaults
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _setting(args, file_cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _load_environment(args, file_cfg: dict) -> TabularMDP:
    path = _setting(args, file_cfg, "env", None)
    if path is not None:
        try:
            return load_mdp(path)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot load environment {path}: {exc}") from exc
    env = file_cfg.get("environment")
    if env is None:
        raise ConfigError("no environment given: pass --env or a config environment")
    return _build_environment(dict(env))


def _build_environment(spec: dict) -> TabularMDP:
    spec = dict(spec)
    builder = spec.pop("builder", None)
    known = {"gridworld": {"width", "height", "slip", "goal", "gamma"},
             "frozenlake": {"size", "slippery", "gamma"}}.get(builder)
    if known is None:
        raise ConfigError(f"unknown environment builder {builder!r}")
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown environment keys: {sorted(unknown)}")
    try:
        if builder == "gridworld":
            return build_gridworld(
                width=int(spec["width"]),
                height=int(spec["height"]),
                slip_prob=float(spec.get("slip", 0.2)),
                goal=tuple(spec["goal"]),
                gamma=float(spec.get("gamma", 0.95)),
            )
        return build_frozenlake(
            size=int(spec["size"]),
            slippery=bool(spec.get("slippery", True)),
            gamma=float(spec.get("gamma", 0.95)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad environment parameters: {exc}") from exc


def _engine_config(args, file_cfg: dict, seed: int, iterations: int) -> QPolicyConfig:
    mode = _setting(args, file_cfg, "mode", SHOT_SAMPLING)
    epsilon = float(_setting(args, file_cfg, "epsilon", 0.01))
    try:
        estimator = EstimatorConfig(
            mode=mode,
            shots=int(_setting(args, file_cfg, "shots", 512)),
            epsilon=epsilon,
            c_ae=float(_setting(args, file_cfg, "c_ae", 1.0)),
            noise=NoiseModel(float(_setting(args, file_cfg, "noise_p", 0.0))),
            seed=seed,
        )
        return QPolicyConfig(
            epsilon=epsilon,
            estimator=estimator,
            max_iterations=iterations,
            convergence_tol=float(_setting(args, file_cfg, "tol", 1e-12)),
            gamma=_setting(args, file_cfg, "gamma", None),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seeds(args, file_cfg: dict) -> list[int]:
    seeds = _setting(args, file_cfg, "seeds", None)
    if seeds is not None:
        if isinstance(seeds, str):
            seeds = _parse_seeds(seeds)
        return [int(s) for s in seeds]
    return [int(_setting(args, file_cfg, "seed", 0))]


def _manifest(study: str, mdp: TabularMDP, config, seeds) -> dict:
    return {
        "study": study,
        "environment": mdp_to_dict(mdp),
        "config": asdict(config) if config is not None else None,
        "seeds": list(seeds),
        "version": f"qpolicy-{__version__}",
    }


def _records_rows(records, seed: int):
    for rec in records:
        yield (rec.iteration, rec.bellman_error_max, rec.bellman_error_mean,
               rec.q_variance, rec.queries_iteration, rec.queries_cumulative, seed)


def _summary_rows(arm: str, series):
    padded = _pad_series(series)
    for i, st in enumerate(summarize(padded)):
        yield (arm, i, st.mean, st.std, st.ci95_low, st.ci95_high, st.n)


def _pad_series(series: list[list[float]]) -> list[list[float]]:
    """Carry the last value forward so early-converged runs stay comparable."""
    width = max(len(s) for s in series)
    return [list(s) + [s[-1]] * (width - len(s)) for s in series]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_env(args) -> int:
    if args.builder == "gridworld":
        if args.width is None or args.height is None:
            raise ConfigError("gridworld needs --width and --height")
        goal = _parse_ints(args.goal) if args.goal else [args.height - 1, args.width - 1]
        spec = {"builder": "gridworld", "width": args.width, "height": args.height,
                "slip": args.slip, "goal": goal, "gamma": args.gamma}
    else:
        if args.size is None:
            raise ConfigError("frozenlake needs --size")
        spec = {"builder": "frozenlake", "size": args.size,
                "slippery": args.slippery, "gamma": args.gamma}
    mdp = _build_environment(spec)
    save_mdp(mdp, args.out)
    print(f"wrote {args.out}: {mdp.num_states} states, {mdp.num_actions} actions")
    return EXIT_OK


def _cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    mdp = _load_environment(args, file_cfg)
    seeds = _resolve_seeds(args, file_cfg)
    iterations = int(_setting(args, file_cfg, "iters", 50))
    out_dir = _setting(args, file_cfg, "out", ".")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    config = None
    for seed in seeds:
        config = _engine_config(args, file_cfg, seed, iterations)
        records, _ = run_qpolicy(mdp, config)
        rows.extend(_records_rows(records, seed))
    _write_csv(os.path.join(out_dir, "records.csv"), RUN_COLUMNS, rows)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("run", mdp, config, seeds))
    print(f"wrote {len(rows)} rows to {os.path.join(out_dir, 'records.csv')}")
    return EXIT_OK


def _arm_name(eps: float, shots: int) -> str:
    return f"eps{format(eps, 'g')}_shots{shots}"


def _cmd_ablate(args) -> int:
    file_cfg = _load_config_file(args.config)
    mdp = _load_environment(args, file_cfg)
    seeds = _resolve_seeds(args, file_cfg)
    iterations = int(_setting(args, file_cfg, "iters", 100))
    epsilons = _setting(args, file_cfg, "epsilons", [0.001, 0.01, 0.05])
    if isinstance(epsilons, str):
        epsilons = _parse_floats(epsilons)
    shot_counts = _setting(args, file_cfg, "shot_counts", [128, 512, 1024, 2048, 4096])
    if isinstance(shot_counts, str):
        shot_counts = _parse_ints(shot_counts)
    out_dir = _setting(args, file_cfg, "out", ".")
    os.makedirs(out_dir, exist_ok=True)
    base = _engine_config(args, file_cfg, seeds[0], iterations)
    try:
        grid = AblationGrid(epsilons=epsilons, shot_counts=shot_counts,
                            seeds=seeds, iterations=iterations)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cells = run_ablation(mdp, grid, base, max_workers=_thread_count())
    summary_rows = []
    for (eps, shots), runs in sorted(cells.items()):
        arm = _arm_name(eps, shots)
        rows = []
        for run in runs:
            rows.extend(_records_rows(run.records, run.seed))
        _write_csv(os.path.join(out_dir, f"arm_{arm}.csv"), RUN_COLUMNS, rows)
        if len(runs) >= 2:
            series = [[r.bellman_error_max for r in run.records] for run in runs]
            summary_rows.extend(_summary_rows(arm, series))
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, summary_rows)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("ablation", mdp, base, seeds))
    print(f"wrote {len(cells)} arm files to {out_dir}")
    return EXIT_OK


def _cmd_compare_queries(args) -> int:
    file_cfg = _load_config_file(args.config)
    mdp = _load_environment(args, file_cfg)
    seeds = _resolve_seeds(args, file_cfg)
    iterations = int(_setting(args, file_cfg, "iters", 50))
    mc_budget = int(_setting(args, file_cfg, "mc_budget", 1000))
    out_dir = _setting(args, file_cfg, "out", ".")
    os.makedirs(out_dir, exist_ok=True)
    qp_config = calibrated_query_config(iterations, seeds[0])
    if args.epsilon is not None or args.c_ae is not None:
        qp_config = _engine_config(args, file_cfg, seeds[0], iterations)
    results = run_query_complexity_study(mdp, qp_config, mc_budget, iterations, seeds)
    _write_csv(
        os.path.join(out_dir, "comparison_runs.csv"),
        ("method", "seed", "queries_per_iteration", "total_queries", "final_bellman_error"),
        [(r.method, r.seed, r.queries_per_iteration, r.total_queries,
          r.final_bellman_error) for r in results],
    )
    summary = query_summary(results)
    _write_csv(
        os.path.join(out_dir, "comparison.csv"),
        ("method", "queries_per_iteration", "total_queries", "final_bellman_error", "n"),
        [(m, int(round(v["queries_per_iteration"])), int(round(v["total_queries"])),
          v["final_bellman_error"], v["n"]) for m, v in sorted(summary.items())],
    )
    if args.scaling:
        points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], seed=seeds[0])
        _write_csv(
            os.path.join(out_dir, "scaling.csv"),
            ("epsilon", "ae_queries", "ae_rmse", "mc_budget", "mc_rmse"),
            [(p.epsilon, p.ae_queries, p.ae_rmse, p.mc_budget, p.mc_rmse) for p in points],
        )
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("query_complexity", mdp, qp_config, seeds))
    print(f"wrote comparison tables to {out_dir}")
    return EXIT_OK


def _cmd_noise_study(args) -> int:
    file_cfg = _load_config_file(args.config)
    mdp = _load_environment(args, file_cfg)
    seeds = _resolve_seeds(args, file_cfg)
    iterations = int(_setting(args, file_cfg, "iters", 50))
    p_values = _setting(args, file_cfg, "p_values", [0.0, 0.01])
    if isinstance(p_values, str):
        p_values = _parse_floats(p_values)
    out_dir = _setting(args, file_cfg, "out", ".")
    os.makedirs(out_dir, exist_ok=True)
    config = _engine_config(args, file_cfg, seeds[0], iterations)
    try:
        arms = run_noise_comparison(mdp, p_values, config, seeds,
                                    max_workers=_thread_count())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    summary_rows = []
    for p, runs in sorted(arms.items()):
        arm = f"p{format(p, 'g')}"
        rows = []
        for run in runs:
            rows.extend(_records_rows(run.records, run.seed))
        _write_csv(os.path.join(out_dir, f"arm_{arm}.csv"), RUN_COLUMNS, rows)
        if len(runs) >= 2:
            series = [[r.bellman_error_max for r in run.records] for run in runs]
            summary_rows.extend(_summary_rows(arm, series))
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, summary_rows)
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("noise_comparison", mdp, config, seeds))
    print(f"wrote {len(arms)} arm files to {out_dir}")
    return EXIT_OK


def _cmd_resources(args) -> int:
    file_cfg = _load_config_file(args.config)
    mdp = _load_environment(args, file_cfg)
    config = _engine_config(args, file_cfg, 0, 1)
    try:
        est = estimate_resources(
            mdp, config,
            kappa=float(_setting(args, file_cfg, "kappa", 1.0)),
            c_gate=float(_setting(args, file_cfg, "c_gate", 12.5)),
            c_overhead=float(_setting(args, file_cfg, "c_overhead", 1.12)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(asdict(est), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpolicy",
        description="Quantum-emulated policy iteration experiments on tabular MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-env", help="build an environment JSON file")
    gen.add_argument("builder", choices=["gridworld", "frozenlake"])
    gen.add_argument("--width", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--slip", type=float, default=0.2)
    gen.add_argument("--goal", type=str, default=None, help="row,col (default bottom-right)")
    gen.add_argument("--size", type=int, choices=[4, 8, 10])
    gen.add_argument("--slippery", action=argparse.BooleanOptionalAction, default=True)
    gen.add_argument("--gamma", type=float, default=0.95)
    gen.add_argument("--out", type=str, default="env.json")
    gen.set_defaults(func=_cmd_gen_env)

    def add_common(p, with_shots=True):
        p.add_argument("--env", type=str, help="path to an environment JSON file")
        p.add_argument("--config", type=str, help="JSON config file")
        p.add_argument("--mode", choices=[SHOT_SAMPLING, AE_ORACLE])
        p.add_argument("--epsilon", type=float)
        if with_shots:
            p.add_argument("--shots", type=int)
        p.add_argument("--c-ae", dest="c_ae", type=float)
        p.add_argument("--noise-p", dest="noise_p", type=float)
        p.add_argument("--iters", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--seeds", type=str, help="comma list, or a count N for 0..N-1")
        p.add_argument("--out", type=str)

    run_p = sub.add_parser("run", help="one engine run per seed, records CSV")
    add_common(run_p)
    run_p.set_defaults(func=_cmd_run)

    abl = sub.add_parser("ablate", help="epsilon x shots sweep")
    add_common(abl, with_shots=False)
    abl.add_argument("--epsilons", type=str)
    abl.add_argument("--shots", "--shot-counts", dest="shot_counts", type=str,
                     help="comma list of per-readout shot counts to sweep")
    abl.set_defaults(func=_cmd_ablate)

    cmp_p = sub.add_parser("compare-queries", help="engine vs Monte Carlo query budget")
    add_common(cmp_p)
    cmp_p.add_argument("--mc-budget", dest="mc_budget", type=int)
    cmp_p.add_argument("--scaling", action="store_true",
                       help="also emit the matched-accuracy scaling table")
    cmp_p.set_defaults(func=_cmd_compare_queries)

    noise = sub.add_parser("noise-study", help="paired runs across depolarizing strengths")
    add_common(noise)
    noise.add_argument("--p-values", dest="p_values", type=str)
    noise.set_defaults(func=_cmd_noise_study)

    res = sub.add_parser("resources", help="logical qubit and gate estimates")
    add_common(res)
    res.add_argument("--kappa", type=float)
    res.add_argument("--c-gate", dest="c_gate", type=float)
    res.add_argument("--c-overhead", dest="c_overhead", type=float)
    res.set_defaults(func=_cmd_resources)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
