"""The benchmark's tracer wraps fibernorm functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"fibernorm.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fibernorm.{module_name}.{name}"
