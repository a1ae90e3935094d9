"""The names the benchmark's tracer patches exist in the library.

perfbench/tracing.py wraps each HOOKS target where the consuming module
binds it, so deleting or renaming one of those bindings breaks a traced
benchmark run. This loads the tracer from its file, unchanged, and resolves
every target the way Tracer.install does.
"""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in tracing.HOOKS],
                         ids=[f"{m}:{p}" for m, p, _, _ in tracing.HOOKS])
def test_hook_target_is_bound(module_name, path):
    owner, attr = tracing._resolve(module_name, path)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{path} is not bound"
