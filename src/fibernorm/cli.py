"""Command line interface: parse one input document, run one subcommand.

Input documents are a three-key text format (``#`` comments and blank
lines ignored, keys in any order, each at most once):

    genus = 2
    singularities = 3,3,3,3
    matrix = [[0,1],[1,1]]

``genus`` and ``singularities`` travel together and turn the document
into a bundle; a bare ``matrix`` is enough for the algebra-level
subcommands.  Reports are ``key = value`` lines in the order each
handler emits them (nothing re-sorts), integers exact, floats with 12
significant digits, so identical inputs produce byte-identical output.

An integer list (a matrix row, ``singularities``, a list flag) is read
by one ``map(int)`` over its comma-separated parts when its text is
ASCII without ``_``: there ``int()`` accepts a subset of what the
per-part parser does, with equal values.  Text that ``int()`` refuses
(an empty part, a blank such as ``\x1f``, too many digits) goes to the
per-part parser, the only source of ``ParseError`` messages and lines.

Flags come from one table, ``_FLAGS``: flag -> (option name, converter,
expected form, default); the options are built from it alone.  Integer
and list flags use the document's own parsers, so ``--box 1_0`` fails as
``genus = 1_0`` does, and range checks run before the input is read.
Handlers return only their report.  Every failure is a FibernormError;
its class name is the ``error = <Name>`` line on stdout and its
``exit_code`` the exit code (1 domain error or non-finite float, 2 parse
or usage error, 3 undecided within budget).  Diagnostics go to stderr.

At module level this file imports only what parsing, flags and dispatch
need (``errors`` and ``matrix``).  Each handler imports its own layer
when it runs, so a process loads the layers of its one subcommand and
no others.

``cone --box r`` renders its points with ``norm.cone_points_text``,
whose docstring gives the cost.  Its budget (``_OUTPUT_BUDGET``) counts
the whole (2r+1)^k box.
"""

import collections
import math
import re
import sys
from types import SimpleNamespace

from .errors import FibernormError, NoConvergence, ParseError, PositivityUndecided, UsageError
from .matrix import IntMatrix

USAGE = """\
usage: fibernorm <subcommand> --input <path> [flags]

subcommands:
  charpoly   characteristic polynomial of the matrix
  perron     dominant eigenvalue, eigenvectors, spectral gap
  trace      trace of a field element      (needs --element)
  norm       norm of a homology class      (needs --class)
  cone       cone membership / enumeration (needs --class and/or --box)
  validate   check genus and singularity data of a bundle
  dimgroup   positivity of a dimension group element (--vector, --stage)
  bratteli   stationary diagram            (--levels, --format text|dot)
  report     fiber class norm report       (needs --fiber-class)

flags:
  --input <path>        input document (required)
  --element [a0,...]    field element coordinates
  --class [z1,...]      homology class
  --fiber-class [z1,...] claimed fiber class
  --box <int>           lattice box radius
  --levels <int>        diagram floors               (default 3)
  --stage <int>         element stage                (default 0)
  --vector [v1,...]     dimension group vector       (default all ones)
  --format text|dot     bratteli output format       (default text)
"""

# Most items a --box scan or a DOT diagram may enumerate.  For --box r
# over k coordinates the count is the whole (2r+1)^k box, not the cone
# points: it bounds both the prefix walk ((2r+1)^(k-2) prefixes) and the
# output (at most (2r+1)^k points), and it is known before any work.
# For a DOT diagram it is the vertex and edge lines written.
_OUTPUT_BUDGET = 10**6


def _check_budget(count, what):
    if count > _OUTPUT_BUDGET:
        raise UsageError(f"{what} enumerates more than {_OUTPUT_BUDGET} items")


# A parsed input document: the matrix, and the bundle data or None.
InputDocument = collections.namedtuple(
    "InputDocument", "matrix genus singularities", defaults=(None, None)
)


# --- input document parsing --------------------------------------------------

def _parse_int(text, line=None):
    text = text.strip()
    digits = text[1:] if text[:1] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"expected an integer, got {text!r}", line)
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise ParseError(f"integer of {len(digits)} digits is too long", line) from None


def _parse_bare_int_list(text, line):
    parts = text.split(",")
    if text.isascii() and "_" not in text:  # int() accepts a subset of _parse_int
        try:
            return tuple(map(int, parts))
        except ValueError:
            pass  # the loop reports it, or reads what int() refuses
    if any(not p.strip() for p in parts):
        raise ParseError(f"malformed integer list {text!r}", line)
    return tuple(_parse_int(p, line) for p in parts)


def _parse_bracket_int_list(text, line=None):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected [..] list, got {text!r}", line)
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError("empty list", line)
    return _parse_bare_int_list(inner, line)


# Between two matrix rows: "]", exactly one comma (blanks or tabs around it), "[".
_ROW_BREAK = re.compile(r"\][ \t]*,[ \t]*\[")


def _parse_matrix(text, line):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError(f"expected [[..],[..]] matrix, got {text!r}", line)
    # A stray bracket or separator stays inside a row and fails as an integer.
    rows = _ROW_BREAK.split(text[2:-2])
    entries = [_parse_bare_int_list(row, line) for row in rows]
    try:
        return IntMatrix(entries)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def parse_input(text):
    """Parse an input document; raises ParseError with a line number."""
    genus = None
    singularities = None
    matrix = None
    seen = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line_number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line_number)
        seen.add(key)
        if key == "genus":
            genus = _parse_int(value, line_number)
        elif key == "singularities":
            singularities = _parse_bare_int_list(value, line_number)
        elif key == "matrix":
            matrix = _parse_matrix(value, line_number)
        else:
            raise ParseError(f"unknown key {key!r}", line_number)
    if matrix is None:
        raise ParseError("missing required key 'matrix'")
    if (genus is None) != (singularities is None):
        raise ParseError("'genus' and 'singularities' must appear together")
    return InputDocument(matrix=matrix, genus=genus, singularities=singularities)


# --- report formatting -------------------------------------------------------

def _format_value(value):
    if type(value) is int:
        try:
            return str(value)
        except ValueError:  # past the interpreter's digit limit; Decimal has none
            import decimal  # only this branch needs it; other runs skip the import

            return str(decimal.Decimal(value))
    if isinstance(value, (tuple, list)):
        return "[" + ",".join([_format_value(v) for v in value]) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NoConvergence(f"non-finite value {value} in the report")
        return f"{value or 0.0:.12g}"  # -0.0 prints as 0
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format report value of type {type(value).__name__}")


def write_report(pairs):
    """Render (key, value) pairs one per line, in the order given.

    Each handler emits its keys in its subcommand's fixed order.  Raises
    NoConvergence rather than print a non-finite float.
    """
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in pairs)


# --- subcommand handlers -----------------------------------------------------

def _require(option, flag):
    if option is None:
        raise UsageError(f"this subcommand requires {flag}")
    return option


def _require_bundle(doc):
    if doc.genus is None:
        raise UsageError("this subcommand needs 'genus' and 'singularities' in the input")


def _cmd_charpoly(doc, opts):
    from .exact import char_poly

    return [("charpoly", char_poly(doc.matrix).coeffs)]


def _cmd_perron(doc, opts):
    from .perron import perron_data

    data = perron_data(doc.matrix)
    return [
        ("lambda", data.eigenvalue),
        ("right_vec", data.right),
        ("left_vec", data.left),
        ("gap", data.gap),
        ("primitivity_witness", data.witness),
    ]


def _order_and_functional(doc):
    from .numberfield import build_order, trace_functional

    order = build_order(doc.matrix)
    return order, trace_functional(order)


def _cmd_trace(doc, opts):
    from .numberfield import trace_via_mult

    element = _require(opts.element, "--element")
    order, functional = _order_and_functional(doc)
    return [
        ("trace_functional", functional.t),
        ("element", element),
        ("trace", trace_via_mult(order, element)),
    ]


def _cmd_norm(doc, opts):
    from .numberfield import norm_value

    klass = _require(opts.klass, "--class")
    _, functional = _order_and_functional(doc)
    return [
        ("trace_functional", functional.t),
        ("class", klass),
        ("norm", norm_value(functional, klass)),
    ]


def _cmd_cone(doc, opts):
    from .norm import ConeDescription, cone_membership, cone_points_text

    if opts.klass is None and opts.box is None:
        raise UsageError("cone needs --class and/or --box")
    _, functional = _order_and_functional(doc)
    cone = ConeDescription(functional)
    pairs = [("trace_functional", functional.t)]
    if opts.klass is not None:
        pairs.append(("class", opts.klass))
        pairs.append(("membership", cone_membership(cone, opts.klass).value))
    if opts.box is not None:
        _check_budget((2 * opts.box + 1) ** len(functional.t), f"--box {opts.box}")
        pairs.append(("cone_points", cone_points_text(cone, opts.box)))
    return pairs


def _cmd_validate(doc, opts):
    from .bundle import SingularityData, validate_singularity_data

    _require_bundle(doc)
    sing = SingularityData(doc.singularities)
    rank = validate_singularity_data(doc.genus, sing)
    return [
        ("genus", doc.genus),
        ("singularities", sing.prongs),
        ("rank", rank),
        ("valid", "ok"),
    ]


def _cmd_dimgroup(doc, opts):
    from .perron import Sign, eventual_positivity

    # Telescoping does not change the sign, so the stage is only echoed.
    vector = opts.vector if opts.vector is not None else (1,) * doc.matrix.k
    sign = eventual_positivity(doc.matrix, vector)
    if sign.sign is Sign.UNDECIDED:
        raise PositivityUndecided(f"still mixed-sign after {sign.bound} iterations")
    pairs = [
        ("vector", vector),
        ("stage", opts.stage),
        ("positivity", sign.sign.value),
    ]
    if sign.witness is not None:
        pairs.append(("witness", sign.witness))
    return pairs


def _cmd_bratteli(doc, opts):
    from .dimgroup import bratteli_dot, check_levels, make_dim_group

    group = make_dim_group(doc.matrix)
    check_levels(opts.levels)
    vertex_count = opts.levels * doc.matrix.k
    edge_count = (opts.levels - 1) * sum(sum(row) for row in doc.matrix.rows)
    if opts.format == "dot":
        _check_budget(vertex_count + edge_count, f"--levels {opts.levels} --format dot")
        return bratteli_dot(group, opts.levels)
    return [
        ("levels", opts.levels),
        ("vertex_count", vertex_count),
        ("edge_count", edge_count),
    ]


def _cmd_report(doc, opts):
    from .bundle import SingularityData, build_bundle
    from .norm import fiber_class_report

    _require_bundle(doc)
    fiber = _require(opts.fiber_class, "--fiber-class")
    sing = SingularityData(doc.singularities)
    bundle = build_bundle(doc.genus, sing, doc.matrix)
    report = fiber_class_report(bundle, fiber)
    pairs = [
        ("genus", report.genus),
        ("singularities", report.singularities),
        ("rank", report.rank),
        ("charpoly", report.charpoly.coeffs),
        ("trace_functional", report.functional.t),
        ("class", report.fiber_class),
        ("norm_at_fiber", report.norm_at_fiber),
        ("thurston_fiber_target", report.thurston_fiber_target),
        ("discrepancy", report.discrepancy),
    ]
    if report.gromov_value is not None:
        pairs.append(("gromov_value", report.gromov_value))
    pairs.append(("dual_euler_value", report.dual_euler_value))
    if report.negative_fiber_norm:
        pairs.append(("negative_fiber_norm", True))
    return pairs


_HANDLERS = {
    "charpoly": _cmd_charpoly,
    "perron": _cmd_perron,
    "trace": _cmd_trace,
    "norm": _cmd_norm,
    "cone": _cmd_cone,
    "validate": _cmd_validate,
    "dimgroup": _cmd_dimgroup,
    "bratteli": _cmd_bratteli,
    "report": _cmd_report,
}


# --- flag parsing ------------------------------------------------------------

def _checked(convert, accept):
    def checked(text):
        value = convert(text)
        if not accept(value):
            raise ValueError(text)
        return value

    return checked


# flag -> (option name, converter, expected form, default).  A converter
# rejects a value by raising ValueError or ParseError.
_FLAGS = {
    "--input": ("input", str, "a path", None),
    "--element": ("element", _parse_bracket_int_list, "[i,j,...]", None),
    "--class": ("klass", _parse_bracket_int_list, "[i,j,...]", None),
    "--fiber-class": ("fiber_class", _parse_bracket_int_list, "[i,j,...]", None),
    "--box": ("box", _checked(_parse_int, lambda n: n >= 0), "an integer >= 0", None),
    "--levels": ("levels", _parse_int, "an integer", 3),
    "--stage": ("stage", _checked(_parse_int, lambda n: n >= 0), "an integer >= 0", 0),
    "--vector": ("vector", _parse_bracket_int_list, "[i,j,...]", None),
    "--format": ("format", _checked(str, lambda f: f in ("text", "dot")), "text or dot", "text"),
}


def _parse_argv(argv):
    if not argv or argv[0] not in _HANDLERS:
        raise UsageError(f"missing or unknown subcommand {argv[:1]}")
    opts = SimpleNamespace(**{name: default for name, _, _, default in _FLAGS.values()})
    for i in range(1, len(argv), 2):
        flag = argv[i]
        if flag not in _FLAGS:
            raise UsageError(f"unknown flag or stray argument {flag!r}")
        if i + 1 == len(argv):
            raise UsageError(f"flag {flag} needs a value")
        name, convert, form, _ = _FLAGS[flag]
        try:
            setattr(opts, name, convert(argv[i + 1]))
        except (ValueError, ParseError):
            raise UsageError(f"{flag} expects {form}, got {argv[i + 1]!r}") from None
    if opts.input is None:
        raise UsageError("--input is required")
    return argv[0], opts


def _read_input(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read input: {exc}") from exc


def main(argv, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        name, opts = _parse_argv(argv)
        report = _HANDLERS[name](parse_input(_read_input(opts.input)), opts)
        if not isinstance(report, str):  # bratteli --format dot returns its text
            report = write_report(report)
    except FibernormError as exc:
        if isinstance(exc, UsageError):
            err.write(USAGE)
        err.write(f"error: {exc}\n")
        out.write(f"error = {type(exc).__name__}\n")
        return exc.exit_code
    out.write(report)
    return 0


def console_entry():
    sys.exit(main(sys.argv[1:]))
