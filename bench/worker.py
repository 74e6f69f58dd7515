"""The timed process: one client running a workload's operations in a closed loop.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the checkout, the operations and the run length.  Each
operation starts after the previous one returns.  The loop runs whole
passes over the corpus (an op with "repeat": n runs n times a pass) until
the run length is reached and the pass count and sample minimums are met.  With tracing on, passes alternate untraced
and traced, so the two see the same machine.  Only the program and the
standard library are imported here: the oracle never runs in this process.

Each operation's time is scaled to the reference host speed with the
reference computation timed on either side of it (hostspeed.py); the
loop's own length is wall time.

Every operation has a time limit (SIGALRM).  An operation that exceeds it
is recorded as a timeout, is not run again in later passes (each of which
still counts it as a failed attempt) and gives no latency sample.
"""

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import tracing


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran past its limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def _prepare(op, fb, doc_path):
    """A zero-argument callable that performs the op once."""
    cli, dimgroup, norm, numberfield = fb["cli"], fb["dimgroup"], fb["norm"], fb["numberfield"]
    kind = op["kind"]
    if kind == "cli":
        argv = [*op["argv"], "--input", str(doc_path)]

        def run():
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(argv, out=out, err=err)
            return {"exit": code, "stdout": out.getvalue()}

        return run
    matrix = cli.parse_input(op["doc"]).matrix
    if kind == "trace3":
        element = tuple(op["element"])

        def run():
            order = numberfield.build_order(matrix)
            out = {}
            for way in ("mult", "newton", "embeddings"):
                try:
                    out[way] = getattr(numberfield, f"trace_via_{way}")(order, element)
                except Exception as exc:  # a bare exception is a result here
                    out[way] = {"error": type(exc).__name__}
            return out

        return run
    if kind == "telescope":
        element = dimgroup.DimGroupElement(tuple(op["vector"]), 0)

        def run():
            group = dimgroup.make_dim_group(matrix)
            return {"vector": list(dimgroup.telescope(group, element, op["stage"]).v)}

        return run
    if kind == "axioms":

        def run():
            cone = norm.ConeDescription(numberfield.trace_functional(numberfield.build_order(matrix)))
            found = norm.cone_axiom_check(cone, op["box"], op["scale_max"])
            return {"counterexample": None if found is None else repr(found)}

        return run
    raise ValueError(f"unknown op kind {kind!r}")


def _once(run, limit, errors):
    """Run one op under the time limit; returns (seconds, result)."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        result = {"timeout": True}
    except errors.FibernormError as exc:
        result = {"error": type(exc).__name__}
    except Exception as exc:
        result = {"exception": f"{type(exc).__name__}: {str(exc)[:120]}"}
    return time.perf_counter() - start, result


def _settle(result):
    """Shrink a result for the report: large outputs travel as a digest."""
    if "stdout" in result:
        text = result["stdout"]
        result = dict(result, sha=hashlib.sha256(text.encode()).hexdigest(),
                      stdout=text if len(text) <= 65536 else text[:4096])
    return result, hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def _peak_rss_kb():
    """High-water resident set of this process image.

    ru_maxrss would do, except that Linux carries it across exec from the
    parent's pages at fork time, and the parent holds the oracle.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import fibernorm
    from fibernorm import bundle, cli, dimgroup, errors, exact, norm, numberfield, perron, roots

    if not Path(fibernorm.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"fibernorm imported from {fibernorm.__file__}, not from the checkout")
    fb = {"bundle": bundle, "cli": cli, "dimgroup": dimgroup, "exact": exact, "norm": norm,
          "numberfield": numberfield, "perron": perron, "roots": roots}

    workdir = Path(spec["workdir"])
    ops = spec["ops"]
    runs = []
    for i, op in enumerate(ops):
        doc_path = workdir / f"doc-{i}.txt"
        doc_path.write_text(op["doc"])
        runs.append(_prepare(op, fb, doc_path))

    # A pass runs every op once, then again each op whose "repeat" asks for
    # more samples: the ops near p50 need enough of them for a steady median.
    repeats = [op.get("repeat", 1) for op in ops]
    schedule = [i for r in range(max(repeats)) for i in range(len(ops)) if repeats[i] > r]

    signal.signal(signal.SIGALRM, _alarm)
    tracer = tracing.Tracer()
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    outcomes = [{} for _ in ops]
    traced_passes = []
    hung = {}
    reference = [hostspeed.sample()]  # host speed between consecutive ops
    start = time.perf_counter()
    passes = 0
    while True:
        tracing_on = spec["trace"] and passes % 2 == 1
        uninstall = tracing.install(tracer, fibernorm, fb) if tracing_on else None
        for i in schedule:
            run = runs[i]
            tracer.op = (passes, i)
            if i in hung:  # it would only hang again: count the attempt, skip the wait
                outcomes[i][hung[i]][1] += 1
                continue
            seconds, result = _once(run, spec["op_limit_s"], errors)
            reference.append(hostspeed.sample())
            seconds = hostspeed.scaled(seconds, reference[-2], reference[-1])
            result, key = _settle(result)
            outcomes[i].setdefault(key, [result, 0])[1] += 1
            if result.get("timeout"):
                hung[i] = key
            else:
                (traced if tracing_on else plain)[i].append(seconds)
        if uninstall is not None:
            uninstall()
            traced_passes.append(passes)
        passes += 1
        elapsed = time.perf_counter() - start
        done = (elapsed >= spec["seconds"] and passes >= spec["min_passes"]
                and sum(map(len, plain)) >= spec["min_samples"])
        if done or elapsed >= spec["max_seconds"]:
            break
    wall = time.perf_counter() - start

    leaked = sorted(m for m in ("sympy", "mpmath") if m in sys.modules)
    if leaked:
        raise SystemExit(f"oracle modules imported into the timed process: {leaked}")
    if spec["trace"]:
        Path(spec["spans_path"]).write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps({
        "passes": passes,
        "traced_passes": traced_passes,
        "wall_s": wall,
        "reference_s": statistics.median(reference),
        "peak_rss_kb": _peak_rss_kb(),
        "ops": [{"id": op["id"], "plain": plain[i], "traced": traced[i],
                 "outcomes": list(outcomes[i].values())} for i, op in enumerate(ops)],
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
