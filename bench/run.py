"""fibernorm benchmark: seeded workloads, oracle-checked results, per-layer traces.

Usage (from the root of a checkout):

    python3 bench/run.py --workload field|spectral|all --seed N
                         [--seconds S] [--trace 0|1] [--smoke]

For each workload this process builds the seeded corpus, computes (or
loads from .bench_cache/) the oracle's expectations, times the set-up a
CLI call pays, and starts one worker process that runs the operations in
a closed loop for BENCHMARK.json's run_seconds (--seconds, if given, must
equal it).  It then checks every result against the oracle and prints
the metrics named in BENCHMARK.json: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.  The last line of output is one JSON
object.  --smoke runs a tiny corpus once, for the benchmark's own test.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import hostspeed
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = ROOT / ".bench_cache"

OP_LIMIT_S = 10  # about 3x the slowest op at the seed; longer is a timeout
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100  # so that at least 10 samples lie beyond p90
MIN_PASSES = 3  # each op's median needs a few samples
SETUP_REPEATS = (11, 10)  # fresh interpreters before and after the worker

SETUP_CODE = """\
import sys
import fibernorm
from fibernorm.cli import parse_input
with open(sys.argv[1], encoding="utf-8") as handle:
    for doc in handle.read().split("\\0"):
        parse_input(doc)
"""

# The defects the seed is known to have, keyed by failure cause.  A failure
# that matches none of them is printed as UNLISTED.
KNOWN_DEFECTS = (
    ("undecided", "IrreducibilityUnverified", "certificate Undecided: no witness prime in the budget"),
    ("nonfinite", "", "complex_roots overflow: NaN roots, gap = nan (k >= 32, big coefficients)"),
    ("no_convergence", "", "perron_data's absolute Rayleigh tolerance on a huge Perron root"),
    ("timeout", "", "divisor enumeration linear in the constant term (big companion, k <= 8)"),
    ("exception", "trace_via_embeddings", "trace_via_embeddings fails on big-coefficient companions"),
    ("numeric_mismatch", "trace_via_embeddings", "trace_via_embeddings fails on big-coefficient companions"),
)


def _known_defect(cause, detail):
    for known_cause, marker, text in KNOWN_DEFECTS:
        if cause == known_cause and marker in detail:
            return text
    return "UNLISTED"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(docs, repeats):
    """Times of fresh interpreters importing fibernorm and parsing the docs,
    each scaled to the reference host speed (hostspeed.py)."""
    times = []
    before = hostspeed.sample()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(docs)], env=_env(), cwd=ROOT, check=True)
        seconds = time.perf_counter() - start
        after = hostspeed.sample()
        times.append(hostspeed.scaled(seconds, before, after))
        before = after
    return times


def run_worker(ops, workdir, seconds, trace, smoke, spans_path):
    spec = {
        "root": str(ROOT), "workdir": str(workdir), "ops": ops, "seconds": seconds, "trace": trace,
        "op_limit_s": OP_LIMIT_S, "spans_path": str(spans_path),
        "min_passes": 2 if trace else (1 if smoke else MIN_PASSES),
        "min_samples": 0 if smoke or trace else MIN_SAMPLES,
        "max_seconds": seconds + 60,
    }
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                   env=_env(), cwd=ROOT, check=True, timeout=seconds + 150)
    return json.loads(result_path.read_text())


def verify(ops, expected, result):
    """Check every outcome; returns (attempted, failed, wrong, failure rows)."""
    attempted = failed = 0
    wrong = False
    rows = []
    for op, record in zip(ops, result["ops"]):
        for outcome, count in record["outcomes"]:
            attempted += count
            cause, detail = oracle.check(op, expected[op["id"]], outcome)
            if cause is not None:
                failed += count
                wrong |= cause in oracle.WRONG
                rows.append((op["id"], cause, detail, count))
    return attempted, failed, wrong, rows


def end_to_end(result, setup_s, attempted, failed):
    """Timings cover every attempt, right or wrong; a timed-out one counts as OP_LIMIT_S.

    Every time is an op's wall time scaled to the reference host speed
    (hostspeed.py); a timed-out attempt counts at the limit, unscaled.

    Throughput is attempts over the time they took.  The latencies
    use each op's median: p50 is the median over the ops, every op
    weighing the same; the tail is the p90 over the attempts, each at its
    op's median.  The ops are deterministic, so what moves between their
    attempts is the shared host, whose fast moments come and go for
    minutes; a best time follows them, a median far less.  A hang counts
    at the limit, so it lowers throughput and raises both latencies.
    """
    medians, attempts, wall = [], [], 0.0
    for record in result["ops"]:
        timeouts = sum(count for outcome, count in record["outcomes"] if outcome.get("timeout"))
        times = record["plain"] + [OP_LIMIT_S] * timeouts
        medians.append(statistics.median(times))
        attempts += [medians[-1]] * len(times)
        wall += sum(times)
    tail = statistics.quantiles(attempts, n=100)[TAIL_PERCENTILE - 1] if len(attempts) >= 2 else attempts[0]
    return {
        "ops_per_s": len(attempts) / wall,
        "latency_p50_ms": statistics.median(medians) * 1000,
        "latency_tail_ms": tail * 1000,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }, len(attempts)


def per_layer(result, spans):
    metrics = tracing.layer_metrics(spans, result["traced_passes"])
    both = [r for r in result["ops"] if r["plain"] and r["traced"]]
    plain = sum(statistics.median(r["plain"]) for r in both)
    traced = sum(statistics.median(r["traced"]) for r in both)
    metrics["trace.overhead_ratio"] = traced / plain - 1
    return metrics


def run_workload(workload, seed, seconds, trace, smoke, spec):
    ops = corpus.generate(workload, seed, smoke)
    digest = corpus.digest(ops)
    expected = oracle.expectations(ops, CACHE / "oracle")
    workdir = CACHE / "runs" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up is timed on both sides of the worker, a whole run apart, so that
        # a slow spell of the machine shifts only part of the samples.
        docs = workdir / "docs.txt"
        docs.write_text("\0".join(op["doc"] for op in ops), encoding="utf-8")
        setup_times = [] if trace else measure_setup(docs, SETUP_REPEATS[0])
        spans_path = CACHE / f"spans-{workload}.json"  # the last traced run
        result = run_worker(ops, workdir, seconds, trace, smoke, spans_path)
        setup_times += [] if trace else measure_setup(docs, SETUP_REPEATS[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, wrong, failures = verify(ops, expected, result)

    print(f"workload {workload}  seed {seed}  corpus {len(ops)} ops  sha256 {digest}")
    print(f"  closed loop, 1 client: {result['passes']} passes in {result['wall_s']:.1f} s"
          + (f" ({len(result['traced_passes'])} traced)" if trace else ""))
    print(f"  host speed: the reference took {result['reference_s'] * 1e6:.0f} us (median), "
          f"times are scaled to {hostspeed.REFERENCE_S * 1e6:.0f} us")
    if trace:
        metrics = per_layer(result, json.loads(spans_path.read_text()))
        wanted = spec["per_layer"]
    else:
        metrics, n = end_to_end(result, statistics.median(setup_times), attempted, failed)
        wanted = spec["end_to_end"]
        beyond = n - int(TAIL_PERCENTILE / 100 * (n + 1))
        print(f"  latency_tail_ms is p{TAIL_PERCENTILE} over n={n} attempts, each at its op's median ({beyond} beyond)")
    for metric in wanted:
        print(f"  {metric['name']:<52} {metrics[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}"
          f"  (ok_ratio is 1 - fail_ratio; the oracle's verdicts: {'no wrong answer' if not wrong else 'WRONG ANSWERS'})")
    for op_id, cause, detail, count in failures:
        print(f"  FAIL {op_id:<32} {cause:<17} x{count:<3} {detail[:70]!r:<74} [{_known_defect(cause, detail)}]")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, one pass, no timing claims")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fibernorm" / "__init__.py").is_file():
        print(f"error: no fibernorm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The run length is part of the benchmark's definition, the same on
    # every commit: --seconds may only restate it.
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds} differs from run_seconds {spec['run_seconds']} in BENCHMARK.json")
    seconds = 0 if args.smoke else spec["run_seconds"]
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = [run_workload(w, args.seed, seconds, bool(args.trace), args.smoke, spec) for w in workloads]
    for output in outputs:
        print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
