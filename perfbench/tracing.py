"""In-memory spans around calls into qpolicy's layers.

The wrappers are installed from the benchmark's side: each replaces a name
where the consuming module binds it (``qpolicy.engine.readout_batch`` is the
function the engine loop calls, ``qpolicy.experiments.run_qpolicy`` the one
the sweeps call), so no library source changes. A span is
(id, parent id, name, start, end, note); the parent is the innermost open
span of the same thread, and the note is a per-call figure such as the
number of entries read out. Spans stay in memory until ``write`` is called.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

# Calls whose spans are subtracted from their parent to get its self time.
ENGINE_CHILDREN = ("mdp.bellman_backup", "emulator.readout_batch",
                   "engine.encode_qtable", "engine.policy_improve")
SWEEPS = ("experiments.run_ablation", "experiments.run_query_complexity_study")
# Slack for the last bit of rounding in value + noise - value.
AE_SLACK = 1e-12


def _mc_steps(fn):
    signature = inspect.signature(fn)

    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["num_trajectories"] * bound.arguments["horizon"]
    return note


def _readout_note(fn):
    """(entries, ae_oracle entries checked, entries further than epsilon from
    their noise-free input)."""
    def note(args, kwargs, result):
        values, config = args[0], args[1]
        size = int(result.size)
        if config.mode != "ae_oracle" or size == 0:
            return (size, 0, 0)
        worst = abs(result - values) > config.epsilon + AE_SLACK
        return (size, size, int(worst.sum()))
    return note


def _nbytes(fn):
    return lambda args, kwargs, result: int(result.nbytes)


def _iterations(fn):
    return lambda args, kwargs, result: len(result[0])


# (module, attribute path, span name or names from outermost in, note factory
# for the innermost span)
HOOKS = [
    ("qpolicy.cli", "main", "cli.main", None),
    ("qpolicy.cli", "load_mdp", "mdp.load_mdp", None),
    ("qpolicy.cli", "calibrated_query_config", "experiments.calibrated_query_config", None),
    ("qpolicy.cli", "matched_accuracy_scaling", "experiments.matched_accuracy_scaling", None),
    ("qpolicy.cli", "query_summary", "experiments.query_summary", None),
    ("qpolicy.cli", "run_ablation", "experiments.run_ablation", None),
    ("qpolicy.cli", "run_query_complexity_study",
     "experiments.run_query_complexity_study", None),
    ("qpolicy.cli", "summarize", "experiments.summarize", None),
    ("qpolicy.experiments", "run_qpolicy", ("experiments.job", "engine.run_qpolicy"),
     _iterations),
    ("qpolicy.experiments", "run_mc_policy_iteration", "experiments.job", None),
    ("qpolicy.experiments", "mc_policy_evaluation", "mdp.mc_policy_evaluation", _mc_steps),
    ("qpolicy.experiments", "stream", "rng.stream", None),
    ("qpolicy.engine", "run_qpolicy", "engine.run_qpolicy", _iterations),
    ("qpolicy.engine", "bellman_backup", "mdp.bellman_backup", None),
    ("qpolicy.engine", "readout_batch", "emulator.readout_batch", _readout_note),
    ("qpolicy.engine", "encode_qtable", "engine.encode_qtable", None),
    ("qpolicy.engine", "policy_improve", "engine.policy_improve", None),
    ("qpolicy.engine", "stream", "rng.stream", None),
    ("qpolicy.mdp", "bellman_backup", "mdp.bellman_backup", None),
    ("qpolicy.mdp", "value_iteration", "mdp.value_iteration", None),
    ("qpolicy.mdp", "exact_policy_evaluation", "mdp.exact_policy_evaluation", None),
    ("qpolicy.mdp", "load_mdp", "mdp.load_mdp", None),
    ("qpolicy.mdp", "stream", "rng.stream", None),
    ("qpolicy.mdp", "TabularMDP.transition_matrix", "mdp.transition_matrix", _nbytes),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records a span per call into the hooked names while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, path, name, note in HOOKS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            names = (name,) if isinstance(name, str) else name
            wrapped = self._wrap(original, names[-1], note(original) if note else None)
            for outer in reversed(names[:-1]):
                wrapped = self._wrap(wrapped, outer, None)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, note):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, None))
                raise
            end = clock()
            stack.pop()
            spans.append((span_id, parent, name, start, end,
                          note(args, kwargs, result) if note else None))
            return result
        return wrapper

    def write(self, path) -> None:
        """Spans as CSV: id, parent, name, start_s (from the first span), dur_us,
        note (tuple members joined by ';')."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,dur_us,note\n")
            for span_id, parent, name, start, end, note in sorted(self.spans):
                if isinstance(note, tuple):
                    note = ";".join(map(str, note))
                fh.write(f"{span_id},{'' if parent is None else parent},{name},"
                         f"{start - origin:.9f},{(end - start) * 1e6:.3f},"
                         f"{'' if note is None else note}\n")


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced workload, named as in BENCHMARK.json.

    A layer the workload does not call reads 0.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)  # (parent id, child name) -> seconds
    for span_id, parent, name, start, end, note in spans:
        by_name[name].append((span_id, end - start, note))
        if parent is not None:
            child_time[(parent, name)] += end - start

    def total(name):
        return sum(d for _, d, _ in by_name[name])

    def notes(name):  # a call that raised has no note
        return [n for _, _, n in by_name[name] if n is not None]

    def self_time(name, children):
        return sum(d - sum(child_time[(i, c)] for c in children) for i, d, _ in by_name[name])

    iterations = sum(notes("engine.run_qpolicy"))
    readouts = by_name["emulator.readout_batch"]
    backups = [d for _, d, _ in by_name["mdp.bellman_backup"]]
    loads = [d for _, d, _ in by_name["mdp.load_mdp"]]
    mc_time = total("mdp.mc_policy_evaluation")
    mc_steps = sum(notes("mdp.mc_policy_evaluation"))
    sweep_wall = sum(total(name) for name in SWEEPS)
    job_busy = total("experiments.job")
    cli_children = [n for n in by_name if n.startswith(("experiments.", "engine."))]
    return {
        "mdp.bellman_backup.calls": len(backups),
        "mdp.bellman_backup.us": statistics.median(backups) * 1e6 if backups else 0.0,
        "mdp.value_iteration.s": total("mdp.value_iteration"),
        "mdp.exact_policy_evaluation.s": total("mdp.exact_policy_evaluation"),
        "mdp.mc_policy_evaluation.steps_per_s": mc_steps / mc_time if mc_time else 0.0,
        "mdp.transition_matrix.mib": max(notes("mdp.transition_matrix"), default=0) / 2**20,
        "mdp.load_mdp.s": statistics.median(loads) if loads else 0.0,
        "emulator.readout_batch.calls": len(readouts),
        "emulator.readout_batch.calls_per_iteration":
            len(readouts) / iterations if iterations else 0.0,
        "emulator.readout_batch.entries": sum(n[0] for n in notes("emulator.readout_batch")),
        "emulator.readout_batch.s": total("emulator.readout_batch"),
        "engine.iteration.ms": total("engine.run_qpolicy") / iterations * 1e3
        if iterations else 0.0,
        "engine.self.s": self_time("engine.run_qpolicy", ENGINE_CHILDREN),
        "engine.encode_qtable.s": total("engine.encode_qtable"),
        "engine.policy_improve.s": total("engine.policy_improve"),
        "rng.stream.calls": len(by_name["rng.stream"]),
        "rng.stream.s": total("rng.stream"),
        "experiments.jobs": len(by_name["experiments.job"]),
        "experiments.job_busy_s": job_busy,
        "experiments.sweep_wall_s": sweep_wall,
        "experiments.parallel_efficiency": job_busy / sweep_wall if sweep_wall else 0.0,
        "experiments.summarize.s": total("experiments.summarize"),
        "cli.self_s": self_time("cli.main", cli_children),
    }


def ae_readout_violations(spans) -> tuple[int, int]:
    """(ae_oracle entries checked, entries further than epsilon from input)."""
    checked = bad = 0
    for _, _, name, _, _, note in spans:
        if name == "emulator.readout_batch" and note is not None:
            checked += note[1]
            bad += note[2]
    return checked, bad
