"""Every name the benchmark's layer tracer wraps still exists.

``bench/tracing.py`` wraps package functions by module and dotted name; a
name that no longer resolves is skipped at run time and its per-layer
metric silently reads 0.  This test loads the tracer's target list
read-only and resolves each entry, so a refactor that renames or removes a
traced function fails here instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = []
    for module, dotted, span in tracing.TARGETS:
        assert span in tracing.SPANS
        try:
            owner, attr = tracing._resolve(module, dotted)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{dotted}")
            continue
        assert callable(target), f"{module}.{dotted}"
    assert missing == []
