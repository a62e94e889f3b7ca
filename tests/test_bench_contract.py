"""The traced benchmark wraps module attributes of alpha_limit by name
(`TARGETS` in bench/tracing.py) and takes medians of the spans it records.
A refactor that renames one of those attributes, or stops calling it
through the module's globals, breaks `bench/run.py --trace 1`; these
tests catch that without importing the benchmark.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

from alpha_limit import shearer

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_traced_targets_resolve_to_callables():
    targets = _targets()
    assert targets
    for module_name, attrs in targets.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_convergence_report_calls_through_shearer_globals(monkeypatch):
    calls = {"make_caterpillar": 0, "a_alpha_weights": 0, "spectral_radius": 0}

    def counting(name):
        fn = getattr(shearer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(shearer, name, counting(name))
    shearer.convergence_report(0.1, 2.44, [8])
    assert calls == {"make_caterpillar": 1, "a_alpha_weights": 1, "spectral_radius": 1}
