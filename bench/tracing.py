"""Spans around the program's public functions, recorded from outside.

``install`` replaces each traced function in every fibernorm module
namespace that binds it (``numberfield.char_poly`` and ``perron.char_poly``
are the same function reached through two names) with a wrapper that
records a span: [name, start, end, parent, op, error, attrs].  Spans stay
in memory until the run ends.  ``layer_metrics`` turns them into per-pass
counts and self times; a span's self time is its duration minus that of
its direct children (calls are nested, never concurrent).
"""

import functools
import math
import statistics
import time

# Traced functions, by defining module.
TRACED = {
    "exact": ("char_poly", "matrix_min_poly", "irreducibility_certificate", "factor_mod_p"),
    "roots": ("complex_roots",),
    "perron": ("perron_data", "primitivity_check", "eventual_positivity"),
    "numberfield": ("build_order", "trace_via_mult", "trace_via_newton", "trace_via_embeddings"),
    "norm": ("fiber_class_report", "enumerate_cone_points", "cone_axiom_check"),
    "dimgroup": ("bratteli_dot", "telescope"),
    "cli": ("parse_input", "write_report"),
    "bundle": ("build_bundle",),
}


def _finite(values):
    return all(math.isfinite(abs(v)) for v in values)


# Extra per-call facts, taken from the arguments and the result.
_ATTRS = {
    "exact.char_poly": lambda args, r: {
        "m": hash(args[0]), "p": hash(r), "bits": max(abs(c).bit_length() for c in r.coeffs)},
    "exact.matrix_min_poly": lambda args, r: {"m": hash(args[0])},
    "exact.irreducibility_certificate": lambda args, r: {"p": hash(args[0]), "status": r.status.value},
    "roots.complex_roots": lambda args, r: {"nonfinite": not _finite(r)},
    "perron.perron_data": lambda args, r: {
        "nonfinite": not _finite((r.eigenvalue, r.gap, *r.right, *r.left))},
    "perron.eventual_positivity": lambda args, r: {"undecided": r.sign.value == "Undecided"},
    "norm.enumerate_cone_points": lambda args, r: {"points": len(r)},
    "dimgroup.bratteli_dot": lambda args, r: {"bytes": len(r)},
    "cli.write_report": lambda args, r: {"bytes": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[6] = attrs(args, result)
            return result

        return traced


def install(tracer, package, modules):
    """Wrap every traced function wherever a fibernorm namespace binds it.

    ``modules`` maps short names ("exact", ...) to imported modules.
    Returns a function that puts the original functions back.
    """
    namespaces = [package, *modules.values()]
    undo = []
    for short, names in TRACED.items():
        for fn_name in names:
            original = getattr(modules[short], fn_name)
            wrapper = tracer.wrap(f"{short}.{fn_name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        undo.append((namespace, attr, original))

    def uninstall():
        for namespace, attr, original in undo:
            setattr(namespace, attr, original)

    return uninstall


def layer_metrics(spans, passes):
    """Per-pass aggregates keyed '<module>.<function>.<stat>'.

    ``passes`` lists the pass numbers that were traced.  Counts are means
    per traced pass, self times medians per traced pass.
    """
    n = len(passes)
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    names = sorted({f"{m}.{f}" for m, fs in TRACED.items() for f in fs})
    self_by = {name: {p: 0.0 for p in passes} for name in names}
    count = {}

    def add(key, value=1):
        count[key] = count.get(key, 0) + value

    by_op = {}
    for i, span in enumerate(spans):
        name, start, end, _, op, error, attrs = span
        self_by[name][op[0]] += (end - start) - child[i]
        add(f"{name}.calls")
        by_op.setdefault(tuple(op), []).append(span)
        attrs = attrs or {}
        if error is not None or attrs.get("nonfinite"):
            add(f"{name}.failed")
        for key in ("nonfinite", "undecided"):
            if attrs.get(key):
                add(f"{name}.{key}")
        for key in ("points", "bytes"):
            if key in attrs:
                add(f"{name}.{key}", attrs[key])
        if name == "exact.irreducibility_certificate" and attrs.get("status") not in (None, "Undecided"):
            add("exact.irreducibility_certificate.decided")
        if name == "exact.char_poly" and "bits" in attrs:
            count["exact.char_poly.coeff_bits_max"] = max(count.get("exact.char_poly.coeff_bits_max", 0), attrs["bits"])

    # A minimal polynomial is wasted work when the same op certified the
    # matrix's characteristic polynomial irreducible (then the two are equal).
    for op_spans in by_op.values():
        cp_of = {s[6]["m"]: s[6]["p"] for s in op_spans if s[0] == "exact.char_poly" and s[6]}
        certified = {s[6]["p"] for s in op_spans
                     if s[0] == "exact.irreducibility_certificate" and s[6] and s[6]["status"] == "Irreducible"}
        for s in op_spans:
            if s[0] == "exact.matrix_min_poly" and s[6] and cp_of.get(s[6]["m"]) in certified:
                add("exact.matrix_min_poly.redundant")

    out = {}
    for name in names:
        out[f"{name}.self_s"] = statistics.median(self_by[name].values()) if n else 0.0
        for stat in ("calls", "failed", "nonfinite", "undecided", "points", "bytes"):
            out[f"{name}.{stat}"] = count.get(f"{name}.{stat}", 0) / n if n else 0.0
    calls = count.get("exact.matrix_min_poly.calls", 0)
    out["exact.matrix_min_poly.redundant_ratio"] = count.get("exact.matrix_min_poly.redundant", 0) / calls if calls else 0.0
    calls = count.get("exact.irreducibility_certificate.calls", 0)
    out["exact.irreducibility_certificate.decided_ratio"] = (
        count.get("exact.irreducibility_certificate.decided", 0) / calls if calls else 0.0)
    out["exact.char_poly.coeff_bits_max"] = count.get("exact.char_poly.coeff_bits_max", 0)
    return out
