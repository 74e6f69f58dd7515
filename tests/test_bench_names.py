"""The benchmark calls and wraps fibernorm functions by name; they must exist."""

import importlib
import importlib.util
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKER = BENCH / "worker.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"fibernorm.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fibernorm.{module_name}.{name}"


def test_every_worker_call_resolves():
    calls = re.findall(
        r"\b(cli|dimgroup|norm|numberfield)\.([A-Za-z_]\w*)", WORKER.read_text()
    )
    assert calls
    for module_name, name in calls:
        module = importlib.import_module(f"fibernorm.{module_name}")
        assert callable(getattr(module, name, None)), f"fibernorm.{module_name}.{name}"
