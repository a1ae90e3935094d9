"""Benchmark of qpolicy's study commands, engine and model core.

    python3 perfbench/run.py --workload ablate-grid4 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. Each round of a workload is a fresh interpreter
(perfbench/worker.py) that imports ``qpolicy.cli`` from ``src/``, loads the
environment file and runs the workload once; rounds repeat while another
whole round still fits in ``--seconds``. The outputs of every round are then checked
(perfbench/checks.py). With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` rounds alternate
untraced and traced, and it carries the per-layer metrics of the traced
rounds and the tracing overhead. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 120
GRID_SLIP, GRID_GAMMA = 0.2, 0.95


class SetupError(Exception):
    """Nothing can be measured: a worker could not get ready, or no round succeeded."""


def gridworld_doc(side: int) -> dict:
    """Environment file of the side x side gridworld, in qpolicy's JSON format.

    The same model as ``qpolicy gen-env gridworld --slip 0.2``: the intended
    move with probability 1 - slip, else one of the four moves uniformly;
    off-grid moves stay put; entering the bottom-right goal pays 1 and the
    goal absorbs.
    """
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
    goal = side * side - 1
    rewards, transitions = [], []
    for s in range(side * side):
        r, c = divmod(s, side)
        row_rewards = []
        for a in range(4):
            if s == goal:
                outcome = {s: 1.0}
            else:
                outcome = {}
                for move, (dr, dc) in enumerate(moves):
                    p = GRID_SLIP / 4.0 + (1.0 - GRID_SLIP) * (move == a)
                    nr, nc = r + dr, c + dc
                    nxt = nr * side + nc if 0 <= nr < side and 0 <= nc < side else s
                    outcome[nxt] = outcome.get(nxt, 0.0) + p
            row_rewards.append(0.0 if s == goal else outcome.get(goal, 0.0))
            transitions.append({"s": s, "a": a,
                                "rows": [[n, p] for n, p in sorted(outcome.items())]})
        rewards.append(row_rewards)
    return {"num_states": side * side, "num_actions": 4, "gamma": GRID_GAMMA,
            "start": 0, "terminals": [goal], "rewards": rewards, "transitions": transitions}


def engine_seeds(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(range(1, 1_000_000), count)


def run_round(name: str, env_path: Path, seeds: list[int], round_dir: Path,
              traced: bool) -> dict:
    """One worker process; returns its report plus the set-up time seen from here."""
    round_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--env", str(env_path), "--seeds", ",".join(map(str, seeds)),
           "--out", str(round_dir)] + (["--trace"] if traced else [])
    env = {k: v for k, v in os.environ.items() if k not in ("QPOLICY_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(round_dir / "stderr.txt", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.communicate(timeout=ROUND_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first != "ready\n":
        tail = (round_dir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
        raise SetupError(f"{name} worker exited {proc.returncode} before it was ready:\n{tail}")
    report_path = round_dir / "report.json"
    if proc.returncode != 0 or not report_path.is_file():
        return {"error": f"worker exited {proc.returncode}", "traced": traced}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report.update(setup_s=setup_s, traced=traced)
    return report


# Independent checks of a round's outputs, each returning its record count.
CHECKS = {
    "ablate-grid4": (checks.check_ablate, worker.ABLATE),
    "compare-queries-grid4": (checks.check_compare, worker.COMPARE),
    "solve-grid45": (checks.check_solve, worker.SOLVE),
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    side, seed_count, _, _ = worker.WORKLOADS[name]
    bench_dir = OUT / name
    shutil.rmtree(bench_dir, ignore_errors=True)
    bench_dir.mkdir(parents=True)
    env_path = bench_dir / "env.json"
    env_path.write_text(json.dumps(gridworld_doc(side)), encoding="utf-8")
    env = checks.Env(env_path)
    seeds = engine_seeds(seed, seed_count)

    # Whole rounds, as many as fit in the window: another starts only if a round
    # as long as the longest so far still ends within `seconds`.
    rounds, longest = [], 0.0
    start = time.perf_counter()
    while len(rounds) < (2 if trace else 1) or \
            time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        rounds.append(run_round(name, env_path, seeds, bench_dir / f"round{len(rounds)}",
                                traced=trace and len(rounds) % 2 == 1))
        longest = max(longest, time.perf_counter() - began)

    correct, failed = True, 0
    for k, r in enumerate(rounds):
        if r["error"] is not None:
            failed += 1
            print(f"round {k} failed: {r['error']}", file=sys.stderr)
            continue
        check, params = CHECKS[name]
        try:
            r["records"] = check(bench_dir / f"round{k}" / "artifacts", env, seeds, params)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            correct = False
            print(f"round {k} output check failed: {exc}", file=sys.stderr)
        if r.get("ae_violations"):
            correct = False
            print(f"round {k}: {r['ae_violations']} ae_oracle readouts further than "
                  "epsilon from their input", file=sys.stderr)
    done = [r for r in rounds if r["error"] is None]
    if not done:
        raise SetupError(f"{name}: every round failed")
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]

    if trace:
        if not plain or not traced:
            raise SetupError(f"{name}: need a traced and an untraced round that succeed")
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["cli.import_s"] = statistics.median(r["import_s"] for r in done)
        layers["cli.artifact_bytes"] = statistics.median(r["artifact_bytes"] for r in traced)
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0) * 100.0
        layers["trace.overhead_pct"] = overhead
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        metrics = {key: _metric(layers[key], unit) for key, unit in units.items()}
    else:
        rates = [r["records"] / r["wall_s"] for r in plain if "records" in r]
        metrics = {
            "setup_s": _metric(statistics.median(r["setup_s"] for r in plain), "s"),
            "wall_s": _metric(statistics.median(r["wall_s"] for r in plain), "s"),
            "iterations_per_s": _metric(statistics.median(rates) if rates else 0.0, "1/s"),
            "peak_rss_mib": _metric(statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
        }
    return {"correct": correct, "attempted": len(rounds), "failed": failed, "metrics": metrics}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *worker.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qpolicy" / "__init__.py").is_file():
        print(f"no qpolicy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: seed {args.seed}, {result['attempted']} rounds, "
              f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
        for key, m in result["metrics"].items():
            print(f"  {key:<45} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
