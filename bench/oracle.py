"""Independent oracle for the benchmark's operations.

Built on sympy and mpmath and on the documented output format, never on
fibernorm: characteristic polynomials and matrix powers come from sympy's
DomainMatrix, irreducibility from sympy's factorization, Perron roots,
gaps and eigenvectors from mpmath at high precision.  It runs only in the
benchmark's parent process, never in the timed one, and caches each
expectation on disk under a key made of the operation's inputs.

Exact outputs (every integer, polynomial, verdict and list of points) must
match byte for byte.  Floats (perron's lambda, vectors and gap) must match
within FLOAT_RTOL relative to the largest oracle value they are compared
with.
"""

import hashlib
import json
import re
from itertools import product
from pathlib import Path

import mpmath
from sympy import ZZ, Poly, symbols
from sympy.polys.matrices import DM

from corpus import primitivity_exponent

ORACLE_VERSION = 1
FLOAT_RTOL = 1e-6
# Positivity is settled by exact iteration; this is far past the program's
# own bound of 64, so a vector the oracle cannot settle is a boundary vector.
POSITIVITY_BOUND = 4096

_X = symbols("x")
_NONFINITE = re.compile(r"\b(nan|inf)\b")


# --- input and output formats ------------------------------------------------

def parse_doc(text):
    """(rows, genus, prongs) from a generated document."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if line)
    rows = json.loads(fields["matrix"])
    genus = int(fields["genus"]) if "genus" in fields else None
    prongs = [int(n) for n in fields["singularities"].split(",")] if genus is not None else None
    return rows, genus, prongs


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return str(value)


def _report(pairs):
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _exact(text, exit_code=0):
    return {"exit": exit_code, "sha": _sha(text), "text": text if len(text) <= 4096 else None}


def _error(name, exit_code=1):
    return _exact(f"error = {name}\n", exit_code)


def parse_report(text):
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


# --- mathematics -------------------------------------------------------------

class _Matrix:
    """Facts about one integer matrix, computed lazily with sympy/mpmath."""

    def __init__(self, rows):
        self.rows = rows
        self.k = len(rows)
        self._dm = DM(rows, ZZ)
        self._cp = None
        self._verdict = None
        self._traces = None

    @property
    def charpoly(self):
        """Ascending integer coefficients of det(xI - A)."""
        if self._cp is None:
            self._cp = [int(c) for c in reversed(self._dm.charpoly())]
        return self._cp

    @property
    def traces(self):
        """tr(A^j) for j = 0..k-1, from explicit matrix powers."""
        if self._traces is None:
            power = DM([[int(i == j) for j in range(self.k)] for i in range(self.k)], ZZ)
            out = []
            for _ in range(self.k):
                entries = power.to_list()
                out.append(int(sum(entries[i][i] for i in range(self.k))))
                power = power * self._dm
            self._traces = out
        return self._traces

    @property
    def verdict(self):
        """'field', 'NotAField' or 'DegenerateMonodromy', as build_order must decide."""
        if self._verdict is None:
            cp = Poly(list(reversed(self.charpoly)), _X, domain=ZZ)
            if cp.degree() >= 2 and cp.is_irreducible:
                self._verdict = "field"
            else:
                # Minimal = characteristic polynomial iff I, A, ..., A^(k-1) are
                # linearly independent.
                power = DM([[int(i == j) for j in range(self.k)] for i in range(self.k)], ZZ)
                columns = []
                for _ in range(self.k):
                    columns.append([x for row in power.to_list() for x in row])
                    power = power * self._dm
                krylov = DM([list(r) for r in zip(*columns)], ZZ)
                derogatory = krylov.rank() < self.k or cp.degree() < 2
                self._verdict = "DegenerateMonodromy" if derogatory else "NotAField"
        return self._verdict

    def power_times(self, vector, n):
        column = DM([[v] for v in vector], ZZ)
        return [int(r[0]) for r in ((self._dm ** n) * column).to_list()]

    def perron(self):
        """(lambda, right, left, gap) at high precision, as Python floats."""
        cp = self.charpoly
        bits = max(abs(c).bit_length() for c in cp)
        with mpmath.workdps(30 + int(bits * 0.31) + self.k):
            roots = mpmath.polyroots(list(reversed(cp)), maxsteps=400, extraprec=2 * bits + 100)
            moduli = sorted((abs(r) for r in roots), reverse=True)
            lam = max(roots, key=abs).real
            right = self._null_vector(self.rows, lam)
            left = self._null_vector([list(c) for c in zip(*self.rows)], lam)
            gap = moduli[1] / moduli[0] if len(moduli) > 1 else mpmath.mpf(0)
            return float(lam), right, left, float(gap)

    def _null_vector(self, rows, lam):
        # Fix the last coordinate to 1 and solve the first k-1 equations of
        # (A - lam I) v = 0; the Perron vector has no zero entry.
        k = self.k
        if k == 1:
            return [1.0]
        m = mpmath.matrix([[rows[i][j] - (lam if i == j else 0) for j in range(k - 1)] for i in range(k - 1)])
        rhs = mpmath.matrix([-rows[i][k - 1] for i in range(k - 1)])
        v = list(mpmath.lu_solve(m, rhs)) + [mpmath.mpf(1)]
        total = sum(v)
        return [float(x / total) for x in v]

    def positivity(self, vector):
        """('Positive', witness) | ('Negative', None) | ('Zero', None) | ('Undecided', None)."""
        u = list(vector)
        for step in range(POSITIVITY_BOUND + 1):
            if all(x == 0 for x in u):
                return "Zero", None
            if all(x >= 1 for x in u):
                return "Positive", step
            if all(x <= -1 for x in u):
                return "Negative", None
            u = [sum(a * b for a, b in zip(row, u)) for row in self.rows]
        return "Undecided", None


def _cone_points(t, box):
    span = range(-box, box + 1)
    return [z for z in product(span, repeat=len(t)) if sum(a * b for a, b in zip(z, t)) >= 0]


def _dot(rows, levels):
    k = len(rows)
    lines = ["digraph bratteli {"]
    lines += [f"  v{floor}_{index};" for floor in range(levels) for index in range(k)]
    for floor in range(levels - 1):
        for i in range(k):
            for j in range(k):
                lines += [f"  v{floor}_{j} -> v{floor + 1}_{i};"] * rows[i][j]
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- expectations -------------------------------------------------------------

def _expect_cli(op, m, genus, prongs):
    argv = op["argv"]
    command = argv[0]
    flags = dict(zip(argv[1::2], argv[2::2]))
    if command == "charpoly":
        return _exact(_report([("charpoly", m.charpoly)]))
    if command == "perron":
        lam, right, left, gap = m.perron()
        return {"exit": 0, "floats": {"lambda": lam, "right_vec": right, "left_vec": left, "gap": gap},
                "witness": primitivity_exponent(m.rows)}
    if command == "dimgroup":
        vector = json.loads(flags["--vector"])
        sign, witness = m.positivity(vector)
        if sign == "Undecided":
            return _error("PositivityUndecided", 3)
        pairs = [("vector", vector), ("stage", int(flags["--stage"])), ("positivity", sign)]
        if witness is not None:
            pairs.append(("witness", witness))
        return _exact(_report(pairs))
    if command == "bratteli":
        return _exact(_dot(m.rows, int(flags["--levels"])))
    if m.verdict != "field":
        return _error(m.verdict)
    t = m.traces
    if command == "trace":
        element = json.loads(flags["--element"])
        return _exact(_report([("trace_functional", t), ("element", element),
                               ("trace", sum(a * b for a, b in zip(element, t)))]))
    if command == "norm":
        klass = json.loads(flags["--class"])
        return _exact(_report([("trace_functional", t), ("class", klass),
                               ("norm", sum(a * b for a, b in zip(klass, t)))]))
    if command == "cone":
        return _exact(_report([("trace_functional", t), ("cone_points", _cone_points(t, int(flags["--box"])))]))
    if command == "report":
        z = json.loads(flags["--fiber-class"])
        n = sum(a * b for a, b in zip(z, t))
        target = 2 * genus - 2
        pairs = [("genus", genus), ("singularities", sorted(prongs)), ("rank", m.k), ("charpoly", m.charpoly),
                 ("trace_functional", t), ("class", z), ("norm_at_fiber", n), ("thurston_fiber_target", target),
                 ("discrepancy", n - target)]
        if n >= 0:
            pairs.append(("gromov_value", 2 * n))
        pairs.append(("dual_euler_value", target))
        if n < 0:
            pairs.append(("negative_fiber_norm", True))
        return _exact(_report(pairs))
    raise ValueError(f"no oracle for command {command!r}")


def _compute(op):
    rows, genus, prongs = parse_doc(op["doc"])
    m = _Matrix(rows)
    kind = op["kind"]
    if kind == "cli":
        return _expect_cli(op, m, genus, prongs)
    if kind == "trace3":
        if m.verdict != "field":
            return {"verdict": m.verdict}
        return {"verdict": "field", "trace": sum(a * b for a, b in zip(op["element"], m.traces))}
    if kind == "telescope":
        return {"vector": m.power_times(op["vector"], op["stage"])}
    if kind == "axioms":
        return {"counterexample": None}
    raise ValueError(f"no oracle for kind {kind!r}")


def expectations(ops, cache_dir):
    """Expectation per op id, computed once per distinct input and cached."""
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    out = {}
    for op in ops:
        inputs = {key: value for key, value in op.items() if key not in ("id", "why")}
        key = hashlib.sha256(json.dumps([ORACLE_VERSION, inputs], sort_keys=True).encode()).hexdigest()
        path = cache / f"{key}.json"
        if path.exists():
            out[op["id"]] = json.loads(path.read_text())
            continue
        expected = _compute(op)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(expected))
        tmp.replace(path)
        out[op["id"]] = expected
    return out


# --- checking ------------------------------------------------------------------

# Causes of failure.  Only WRONG ones are wrong answers from the exact
# pipeline; the rest are non-answers or numeric cross-checks that missed.
WRONG = {"wrong_verdict", "wrong_value"}


def _close(actual, expected):
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return False
        scale = max(abs(x) for x in expected)
        return all(abs(a - e) <= FLOAT_RTOL * scale for a, e in zip(actual, expected))
    return abs(actual - expected) <= FLOAT_RTOL * abs(expected)


def _check_perron(expected, text):
    values = parse_report(text)
    try:
        floats = {key: json.loads(values[key]) if values[key].startswith("[") else float(values[key])
                  for key in expected["floats"]}
        witness = int(values["primitivity_witness"])
    except (KeyError, ValueError):
        return "wrong_value", "unparsable perron report"
    if witness != expected["witness"]:
        return "wrong_value", f"primitivity_witness {witness} != {expected['witness']}"
    for key, want in expected["floats"].items():
        if not _close(floats[key], want):
            return "numeric_mismatch", f"{key} {values[key][:60]} vs {want if not isinstance(want, list) else '[...]'}"
    return None, None


def _check_cli(expected, result):
    text = result["stdout"]  # the whole output, or its head when large
    code = result["exit"]
    if code == 3:
        return "undecided", text.strip()
    if "error = NoConvergence" in text:
        return "no_convergence", "error = NoConvergence"
    nonfinite = _NONFINITE.search(text)
    if nonfinite:
        return "nonfinite", text[max(0, nonfinite.start() - 40):nonfinite.end()].split("\n")[-1]
    if "floats" in expected:
        if code != 0:
            return "wrong_verdict", text.strip()[:80]
        return _check_perron(expected, text)
    if result["sha"] == expected["sha"] and code == expected["exit"]:
        return None, None
    if code != expected["exit"] or text.startswith("error ="):
        return "wrong_verdict", f"exit {code}: {text.strip()[:80]}"
    return "wrong_value", "output differs from the oracle"


def _check_trace3(expected, result):
    if expected["verdict"] != "field":
        return "wrong_verdict", f"an order instead of {expected['verdict']}"
    for way in ("mult", "newton", "embeddings"):
        value = result[way]
        if isinstance(value, dict):
            return "exception", f"trace_via_{way}: {value['error']}"
        if value != expected["trace"]:
            cause = "numeric_mismatch" if way == "embeddings" else "wrong_value"
            return cause, f"trace_via_{way} = {value}, expected {expected['trace']}"
    return None, None


def check(op, expected, result):
    """(cause, detail) for a failed op, (None, None) for a correct one."""
    if result.get("timeout"):
        return "timeout", "per-op time limit"
    if "exception" in result:
        return "exception", result["exception"]
    kind = op["kind"]
    if "error" in result:  # a FibernormError out of a library call
        name = result["error"]
        if name == "IrreducibilityUnverified":
            return "undecided", name
        if name == "NoConvergence":
            return "no_convergence", name
        if expected.get("verdict") == name:
            return None, None
        return "wrong_verdict", name
    if kind == "cli":
        return _check_cli(expected, result)
    if kind == "trace3":
        return _check_trace3(expected, result)
    if kind == "telescope":
        if result["vector"] != expected["vector"]:
            return "wrong_value", "telescoped vector differs"
        return None, None
    if kind == "axioms":
        if result["counterexample"] is not None:
            return "wrong_value", f"counterexample {result['counterexample']}"
        return None, None
    raise ValueError(f"unknown op kind {kind!r}")
