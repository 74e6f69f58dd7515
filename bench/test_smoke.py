"""Smoke test of the benchmark itself: tiny corpora, one pass, no timing bounds.

Run with: python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        first = corpus.generate(workload, 7)
        assert corpus.digest(first) == corpus.digest(corpus.generate(workload, 7))
        assert corpus.digest(first) != corpus.digest(corpus.generate(workload, 8))
        assert len({op["id"] for op in first}) == len(first)
        assert all(op["why"] for op in first)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_with_verification(trace):
    pytest.importorskip("sympy")
    pytest.importorskip("mpmath")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert len(results) == len(corpus.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names
    # Every failure is one of the seed's known defects.
    failures = [line for line in lines if line.lstrip().startswith("FAIL ")]
    assert not [line for line in failures if "[UNLISTED]" in line]


def test_tracing_restores_every_binding():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import fibernorm
    from fibernorm import bundle, cli, dimgroup, exact, norm, numberfield, perron, roots

    import tracing

    modules = {"bundle": bundle, "cli": cli, "dimgroup": dimgroup, "exact": exact, "norm": norm,
               "numberfield": numberfield, "perron": perron, "roots": roots}
    before = {(name, attr): value for name, module in [("fibernorm", fibernorm), *modules.items()]
              for attr, value in vars(module).items() if callable(value)}
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, fibernorm, modules)
    assert numberfield.char_poly is exact.char_poly is fibernorm.char_poly
    assert exact.char_poly.__wrapped__ is before[("exact", "char_poly")]
    numberfield.build_order(exact.IntMatrix([[1, 1], [1, 0]]))
    uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"numberfield.build_order", "exact.char_poly", "exact.matrix_min_poly",
            "exact.irreducibility_certificate", "exact.factor_mod_p", "roots.complex_roots"} <= names
    after = {(name, attr): value for name, module in [("fibernorm", fibernorm), *modules.items()]
             for attr, value in vars(module).items() if callable(value)}
    assert after == before


def test_a_timed_out_op_counts_at_the_limit():
    import run

    result = {"peak_rss_kb": 1024, "ops": [
        {"plain": [0.2, 0.1], "outcomes": [[{"exit": 0}, 2]]},
        {"plain": [], "outcomes": [[{"timeout": True}, 2]]},
    ]}
    metrics, n = run.end_to_end(result, 0.1, attempted=4, failed=2)
    assert metrics["ops_per_s"] == pytest.approx(4 / (0.3 + 2 * run.OP_LIMIT_S))
    assert metrics["latency_p50_ms"] == pytest.approx((0.15 + run.OP_LIMIT_S) / 2 * 1000)
    assert metrics["ok_ratio"] == 0.5
    assert n == 4


def test_run_length_comes_from_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "field", "--seconds", str(spec["run_seconds"] + 1)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "run_seconds" in done.stderr
    assert not done.stdout


def test_oracle_rejects_a_wrong_answer(tmp_path):
    pytest.importorskip("sympy")
    import oracle

    op = next(op for op in corpus.generate("field", 0, smoke=True) if op["id"] == "fixture/trace")
    expected = oracle.expectations([op], tmp_path)[op["id"]]
    text = expected["text"].replace("trace = ", "trace = 1")
    cause, _ = oracle.check(op, expected, {"exit": 0, "stdout": text, "sha": "x"})
    assert cause == "wrong_value"


def test_scaling_cancels_the_host_speed():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(0.5, ref, ref) == pytest.approx(0.5)
    # A host twice as slow doubles both the op and the reference samples.
    assert hostspeed.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert hostspeed.scaled(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert hostspeed.sample() > 0
