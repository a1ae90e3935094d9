"""Configuration-driven command line front end.

`gen-env` writes an environment file. Each study command reads exactly the
settings COMMANDS lists for it, each one a flag (--name, `_` written `-`)
and a key of the JSON --config file, which also takes `environment`. Flags
override the file, the file overrides the command's default, and values are
converted strictly. Engine settings not given keep the base config's value:
DEFAULT_ENGINE, calibrated_query_config (compare-queries) or QPolicyConfig() (resources).

Numbers are written with 17 significant digits so reruns are
byte-comparable. Every CSV table goes through the one writer _write_csv,
its lines built by _lines from a row format that _row_format makes from
the column types. Files are written to a temp name and renamed, so
partial runs never corrupt artifacts. Exit codes: 0 success, 2
configuration error, 1 runtime failure. A multi-run command runs each
distinct effective config once (see experiments.run_ablation), all of them
in one lockstep engine loop (engine.run_qpolicy_lockstep) whose records
equal those of running each alone.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

from . import __version__
from .emulator import AE_ORACLE, SHOT_SAMPLING, EstimatorConfig
from .engine import QPolicyConfig, run_qpolicy_lockstep
from .experiments import (
    calibrated_query_config,
    estimate_resources,
    matched_accuracy_scaling,
    query_summary,
    run_ablation,
    run_noise_comparison,
    run_query_complexity_study,
    summarize,
)
from .mdp import TabularMDP, build_frozenlake, build_gridworld, load_mdp, mdp_to_dict
from .rng import SEED_MASK

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2


def _row_format(*types) -> str:
    """The CSV line format of columns of these types: an int as %d, a float
    with 17 significant digits, a name as %s; the line ends in \\r\\n."""
    return ",".join({int: "%d", float: "%.17g", str: "%s"}[t] for t in types) + "\r\n"


RUN_COLUMNS = ("iteration", "bellman_error_max", "bellman_error_mean",
               "q_variance", "queries_iteration", "queries_cumulative", "seed")
RUN_LINE = _row_format(int, float, float, float, int, int, int)
SUMMARY_COLUMNS = ("arm", "iteration", "mean", "std", "ci95_low", "ci95_high", "n")
SUMMARY_LINE = _row_format(str, int, float, float, float, float, int)


class ConfigError(Exception):
    """Invalid flags, config file, or environment document."""


def _temp_path(path: str) -> str:
    """path + ".tmp", after making path's directory: an output directory
    appears only once a command has results to write."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return f"{path}.tmp"


def _lines(line: str, rows) -> str:
    """line % row for each row, line being a _row_format. Names hold no
    comma, quote or line break, so these are the bytes csv.writer writes
    for the same values."""
    return "".join(line % row for row in rows)


def _write_csv(path: str, header, body: str) -> None:
    """The header line, then body: rows from _lines."""
    tmp = _temp_path(path)
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write(body)
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    tmp = _temp_path(path)
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class Kind(NamedTuple):
    """parse reads flag text; convert checks a value, raising ValueError or TypeError."""

    parse: Callable[[str], object]
    convert: Callable[[object], object]
    what: str


def _scalar(parse, ok, what: str) -> Kind:
    def convert(value):
        if not ok(value):
            raise ValueError(value)
        return parse(value)
    return Kind(parse, convert, what)


INTEGER = _scalar(int, lambda v: type(v) is int, "an integer")  # not isinstance: true is a bool
COUNT = _scalar(int, lambda v: type(v) is int and v >= 1, "an integer >= 1")
REAL = _scalar(float, lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
PROBABILITY = _scalar(float, lambda v: type(v) in (int, float) and 0 <= v <= 1,
                      "a number in [0, 1]")
BOOLEAN = _scalar(bool, lambda v: type(v) is bool, "a boolean")  # JSON only: bool("no") is True
TEXT = _scalar(str, lambda v: isinstance(v, str), "a string")
MODE = _scalar(str, lambda v: v in (SHOT_SAMPLING, AE_ORACLE), "shot_sampling or ae_oracle")


def _list_of(item: Kind) -> Kind:
    def convert(value):
        if isinstance(value, str):
            value = [item.parse(tok) for tok in value.split(",") if tok != ""]
        if not isinstance(value, list) or not value:
            raise ValueError(value)
        return [item.convert(v) for v in value]
    return Kind(str, convert, f"a nonempty comma string or JSON list, each {item.what}")


def _seeds(value):
    """Text without a comma is a count N, meaning seeds 0..N-1. A seed given
    twice, or two seeds the random streams read as one (equal under
    rng.SEED_MASK), would count one run as two samples: a ConfigError."""
    if isinstance(value, str) and "," not in value:
        value = list(range(int(value)))
    if value == []:
        raise ConfigError("no seeds given: --seeds needs a count >= 1 or a nonempty list")
    seeds = _list_of(INTEGER).convert(value)
    seen = {}  # seed as the random streams read it -> the seed given first
    for seed in seeds:
        key = seed & SEED_MASK
        if key in seen:
            same = (f"seed {seed} is given twice" if seen[key] == seed else
                    f"seeds {seen[key]} and {seed} are one seed to the random streams, "
                    f"which read both as {key}")
            raise ConfigError(f"{same}: each seed is one sample")
        seen[key] = seed
    return seeds


SEEDS = Kind(str, _seeds, "a list of integers, or a string holding a comma list or a count")

# Every setting a study command can read: name -> (kind, flag help)
SETTINGS = {
    "mode": (MODE, "readout: shot_sampling or ae_oracle"),
    "epsilon": (REAL, "ae_oracle readout precision"),
    "shots": (COUNT, "measurements per shot_sampling readout"),
    "c_ae": (REAL, "ae_oracle readout cost: ceil(c_ae / epsilon) queries"),
    "noise_p": (PROBABILITY, "depolarizing probability"),
    "tol": (REAL, "convergence tolerance"),
    "gamma": (REAL, "discount, overriding the environment's"),
    "iters": (COUNT, "policy-iteration steps per run"),
    "seed": (INTEGER, "the seed when --seeds is not given"),
    "seeds": (SEEDS, "comma list, or a count N for seeds 0..N-1; a list that starts with a "
                     "negative seed is written --seeds=-5,3"),
    "out": (TEXT, "output directory"),
    "epsilons": (_list_of(REAL), "comma list of epsilons to sweep"),
    "shot_counts": (_list_of(COUNT), "comma list of per-readout shot counts to sweep"),
    "mc_budget": (COUNT, "Monte Carlo trajectories per policy evaluation"),
    "p_values": (_list_of(PROBABILITY), "comma list of depolarizing probabilities, 0 included"),
}
# ablate's --shots names its shot-count list, as the README writes it
_FLAGS = {"shot_counts": ("--shots", "--shot-counts")}

# The engine base config of run, ablate and noise-study
DEFAULT_ENGINE = QPolicyConfig(estimator=EstimatorConfig(), convergence_tol=1e-12)


# ---------------------------------------------------------------------------
# Config assembly: flags override config-file values override defaults
# ---------------------------------------------------------------------------

def _convert(name: str, kind: Kind, value):
    try:
        return kind.convert(value)
    except (TypeError, ValueError, OverflowError):  # isfinite(10**400) overflows
        raise ConfigError(f"{name} must be {kind.what}, got {value!r}") from None


def _load_config_file(path: str | None, command: str, keys) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - set(keys) - {"environment"}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return doc


def _settings(args, defaults: dict) -> dict:
    """The config file's environment, and each setting in defaults from its
    flag, else the config file, else the default; seeds defaults to [seed]."""
    file_cfg = _load_config_file(args.config, args.command, defaults)
    s = {"environment": file_cfg.get("environment")}
    for name, default in defaults.items():
        flag = getattr(args, name)
        if flag is None and name not in file_cfg:
            s[name] = default
        else:
            s[name] = _convert(name, SETTINGS[name][0], file_cfg[name] if flag is None else flag)
    if "seeds" in s and s["seeds"] is None:
        s["seeds"] = [s["seed"]]
    return s


def _engine_config(base: QPolicyConfig, s: dict, seed: int) -> QPolicyConfig:
    """base at this seed, with each engine setting that s gives applied."""
    try:
        return base.with_settings(seed, **{k: s.get(k) for k in (*_ENGINE, "iters")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_environment(path: str | None, env, gamma: float | None) -> TabularMDP:
    """The environment file at path, else the config file's builder spec
    env, at the discount gamma when one is given: every run of a study, and
    its manifest, see that one discount."""
    if path is not None:
        try:
            mdp = load_mdp(path)
        except (OSError, json.JSONDecodeError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot load environment {path}: {exc}") from exc
    elif isinstance(env, dict):
        mdp = _build_environment(env)
    else:
        raise ConfigError("no environment given: pass --env or a config environment object")
    try:
        return mdp if gamma is None else mdp.with_gamma(gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Each environment builder's spec keys, which are also gen-env's flags
_BUILDER_KEYS = {"gridworld": ("width", "height", "slip", "goal", "gamma"),
                 "frozenlake": ("size", "slippery", "gamma")}


def _build_environment(spec: dict) -> TabularMDP:
    """A key left out takes its default: slip 0.2, goal the bottom-right
    cell, slippery true and the builder's own gamma."""
    spec = dict(spec)
    builder = spec.pop("builder", None)
    known = _BUILDER_KEYS.get(str(builder))
    if known is None:
        raise ConfigError(f"unknown environment builder {builder!r}")
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown environment keys: {sorted(unknown)}")
    try:
        gamma = {"gamma": _convert("gamma", REAL, spec["gamma"])} if "gamma" in spec else {}
        if builder == "gridworld":
            width, height = (_convert(k, COUNT, spec[k]) for k in ("width", "height"))
            return build_gridworld(
                width=width, height=height,
                slip_prob=_convert("slip", PROBABILITY, spec.get("slip", 0.2)),
                goal=tuple(_convert("goal", _list_of(INTEGER),
                                    spec.get("goal", [height - 1, width - 1]))),
                **gamma,
            )
        return build_frozenlake(
            size=_convert("size", COUNT, spec["size"]),
            slippery=_convert("slippery", BOOLEAN, spec.get("slippery", True)),
            **gamma,
        )
    except KeyError as exc:  # width and height, or size
        raise ConfigError(f"{builder} needs {exc.args[0]}") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad environment parameters: {exc}") from exc


def _manifest(study: str, mdp: TabularMDP, config, seeds) -> dict:
    return {
        "study": study,
        "environment": mdp_to_dict(mdp),
        # without its seed: the seeds list is that setting's one home
        "config": {k: v for k, v in asdict(config).items() if k != "seed"},
        "seeds": list(seeds),
        "version": f"qpolicy-{__version__}",
    }


def _records_rows(records, seed: int):
    for rec in records:
        yield (rec.iteration, rec.bellman_error_max, rec.bellman_error_mean,
               rec.q_variance, rec.queries_iteration, rec.queries_cumulative, seed)


def _write_arms(out_dir: str, arms) -> None:
    """arm_<name>.csv per (name, runs) pair; summary.csv over arms of >= 2
    seeds. Arms whose runs hold the same records lists at the same seeds
    (cells that share a run) get one body and one summary, made once."""
    made = {}  # (id of records, seed) per run -> (arm file body, summary rows)
    summary_rows = []
    for arm, runs in arms:
        key = tuple((id(run.records), run.seed) for run in runs)
        if key not in made:
            made[key] = (_lines(RUN_LINE, (row for run in runs
                                           for row in _records_rows(run.records, run.seed))),
                         _summary_rows(runs))
        body, stats = made[key]
        _write_csv(os.path.join(out_dir, f"arm_{arm}.csv"), RUN_COLUMNS, body)
        summary_rows.extend((arm, *row) for row in stats)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS,
               _lines(SUMMARY_LINE, summary_rows))


def _summary_rows(runs) -> list:
    """The summary columns past arm, per iteration; none for fewer than 2
    runs."""
    if len(runs) < 2:
        return []
    series = _pad_series([[r.bellman_error_max for r in run.records] for run in runs])
    return [(i, st.mean, st.std, st.ci95_low, st.ci95_high, st.n)
            for i, st in enumerate(summarize(series))]


def _pad_series(series: list[list[float]]) -> list[list[float]]:
    """Carry the last value forward so early-converged runs stay comparable."""
    width = max(len(s) for s in series)
    return [list(s) + [s[-1]] * (width - len(s)) for s in series]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_gen_env(args) -> None:
    # a flag of the other builder is refused, as a study command refuses a
    # flag it does not read
    given = {name for keys in _BUILDER_KEYS.values() for name in keys
             if getattr(args, name) is not None}
    unread = sorted(given - set(_BUILDER_KEYS[args.builder]))
    if unread:
        raise ConfigError(f"gen-env {args.builder} does not read "
                          + ", ".join(f"--{name}" for name in unread))
    # only the flags given: _build_environment applies the defaults
    spec = {name: getattr(args, name) for name in _BUILDER_KEYS[args.builder]
            if getattr(args, name) is not None}
    mdp = _build_environment({"builder": args.builder, **spec})
    _write_json(args.out, mdp_to_dict(mdp))
    print(f"wrote {args.out}: {mdp.num_states} states, {mdp.num_actions} actions")


def _cmd_run(args, s: dict, mdp: TabularMDP) -> None:
    configs = [_engine_config(DEFAULT_ENGINE, s, seed) for seed in s["seeds"]]
    runs = run_qpolicy_lockstep(mdp, configs)
    rows = [row for seed, (records, _) in zip(s["seeds"], runs)
            for row in _records_rows(records, seed)]
    path = os.path.join(s["out"], "records.csv")
    _write_csv(path, RUN_COLUMNS, _lines(RUN_LINE, rows))
    _write_json(os.path.join(s["out"], "manifest.json"),
                _manifest("run", mdp, configs[-1], s["seeds"]))
    print(f"wrote {len(rows)} rows to {path}")


def _arm_labels(setting: str, values) -> dict:
    """value -> format(value, 'g'), its part of an arm's name. Two distinct
    values with one label would write one arm file: a ConfigError."""
    labels, first = {}, {}
    for v in values:
        labels[v] = format(v, "g")
        if first.setdefault(labels[v], v) != v:
            raise ConfigError(f"{setting} {first[labels[v]]!r} and {v!r} would write one arm "
                              f"file: both are {labels[v]} to 6 significant digits")
    return labels


def _cmd_ablate(args, s: dict, mdp: TabularMDP) -> None:
    seeds = s["seeds"]
    base = _engine_config(DEFAULT_ENGINE, s, seeds[0])
    labels = _arm_labels("epsilons", s["epsilons"])
    for eps in s["epsilons"]:  # each cell's config must be valid before the sweep
        _engine_config(base, {"epsilon": eps}, seeds[0])
    cells = run_ablation(mdp, s["epsilons"], s["shot_counts"], base, seeds)
    _write_arms(s["out"], [(f"eps{labels[eps]}_shots{shots}", runs)
                           for (eps, shots), runs in sorted(cells.items())])
    _write_json(os.path.join(s["out"], "manifest.json"),
                _manifest("ablation", mdp, base, seeds))
    print(f"wrote {len(cells)} arm files to {s['out']}")


def _cmd_compare_queries(args, s: dict, mdp: TabularMDP) -> None:
    seeds, out_dir = s["seeds"], s["out"]
    qp_config = _engine_config(calibrated_query_config(), s, seeds[0])
    results = run_query_complexity_study(mdp, qp_config, s["mc_budget"], seeds)
    _write_csv(
        os.path.join(out_dir, "comparison_runs.csv"),
        ("method", "seed", "queries_per_iteration", "total_queries", "final_bellman_error"),
        _lines(_row_format(str, int, int, int, float),
               ((r.method, r.seed, r.queries_per_iteration, r.total_queries,
                 r.final_bellman_error) for r in results)),
    )
    summary = query_summary(results)
    _write_csv(
        os.path.join(out_dir, "comparison.csv"),
        ("method", "queries_per_iteration", "total_queries", "final_bellman_error", "n"),
        _lines(_row_format(str, int, int, float, int),
               ((m, int(round(v["queries_per_iteration"])), int(round(v["total_queries"])),
                 v["final_bellman_error"], v["n"]) for m, v in sorted(summary.items()))),
    )
    if args.scaling:
        points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], seed=seeds[0])
        _write_csv(
            os.path.join(out_dir, "scaling.csv"),
            ("epsilon", "ae_queries", "ae_rmse", "mc_budget", "mc_rmse"),
            _lines(_row_format(float, int, float, int, float),
                   ((p.epsilon, p.ae_queries, p.ae_rmse, p.mc_budget, p.mc_rmse)
                    for p in points)),
        )
    _write_json(os.path.join(out_dir, "manifest.json"),
                _manifest("query_complexity", mdp, qp_config, seeds))
    print(f"wrote comparison tables to {out_dir}")


def _cmd_noise_study(args, s: dict, mdp: TabularMDP) -> None:
    seeds = s["seeds"]
    config = _engine_config(DEFAULT_ENGINE, s, seeds[0])
    if 0.0 not in s["p_values"]:  # here, as a ValueError from the study exits 1
        raise ConfigError("p_values must include 0 as the reference arm")
    labels = _arm_labels("p_values", s["p_values"])
    arms = run_noise_comparison(mdp, s["p_values"], config, seeds)
    _write_arms(s["out"], [(f"p{labels[p]}", runs) for p, runs in sorted(arms.items())])
    _write_json(os.path.join(s["out"], "manifest.json"),
                _manifest("noise_comparison", mdp, config, seeds))
    print(f"wrote {len(arms)} arm files to {s['out']}")


def _cmd_resources(args, s: dict, mdp: TabularMDP) -> None:
    config = _engine_config(QPolicyConfig(), s, 0)  # ae_oracle: shot mode ignores --epsilon
    try:
        est = estimate_resources(mdp, config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(asdict(est), indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Engine settings: with iters, the names QPolicyConfig.with_settings takes
_ENGINE = ("mode", "epsilon", "shots", "c_ae", "noise_p", "tol")
_RUNS = {"seed": 0, "seeds": None, "out": "."}

# Each study command: (function, help, {setting it reads: its default}). A
# default of None leaves the engine base config's value, or no override.
COMMANDS = {
    "run": (_cmd_run, "one engine run per seed, records CSV", {
        **dict.fromkeys(_ENGINE), "gamma": None, "iters": 50, **_RUNS}),
    "ablate": (_cmd_ablate, "epsilon x shots sweep", {
        **dict.fromkeys(("mode", "c_ae", "noise_p", "tol", "gamma")),
        "iters": 100, **_RUNS, "epsilons": [0.001, 0.01, 0.05],
        "shot_counts": [128, 512, 1024, 2048, 4096]}),
    "compare-queries": (_cmd_compare_queries, "engine vs Monte Carlo query budget", {
        **dict.fromkeys(_ENGINE), "gamma": None, "iters": 50, **_RUNS, "mc_budget": 1000}),
    "noise-study": (_cmd_noise_study, "paired runs across depolarizing strengths", {
        **dict.fromkeys(("mode", "epsilon", "shots", "c_ae", "tol", "gamma")),
        "iters": 50, **_RUNS, "p_values": [0.0, 0.01]}),
    "resources": (_cmd_resources, "qubits and gates of one iteration with non-constant targets",
                  dict.fromkeys(("epsilon", "c_ae"))),
}


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
    gen.add_argument("--slip", type=float, help="slip probability (default 0.2)")
    gen.add_argument("--goal", type=str, help="row,col (default bottom-right)")
    gen.add_argument("--size", type=int, choices=[4, 8, 10])
    gen.add_argument("--slippery", action=argparse.BooleanOptionalAction, help="default on")
    gen.add_argument("--gamma", type=float, help="discount (default 0.95)")
    gen.add_argument("--out", type=str, default="env.json")

    for command, (_, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--env", type=str, help="path to an environment JSON file")
        p.add_argument("--config", type=str, help="JSON config file")
        for name in defaults:
            kind, flag_help = SETTINGS[name]
            flags = _FLAGS.get(name, (f"--{name.replace('_', '-')}",))
            p.add_argument(*flags, dest=name, type=kind.parse, help=flag_help)
        if command == "compare-queries":
            p.add_argument("--scaling", action="store_true",
                           help="also emit the matched-accuracy scaling table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-env":
            _cmd_gen_env(args)
        else:
            func, _, defaults = COMMANDS[args.command]
            s = _settings(args, defaults)
            func(args, s, _load_environment(args.env, s["environment"], s.get("gamma")))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
