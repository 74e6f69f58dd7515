"""Input grammar, subcommand dispatch, report rendering, exit codes."""

import copy
import io
import os
import pickle
import random
import re
import subprocess
import sys
from itertools import product

import pytest

from fibernorm import cli, perron
from fibernorm.cli import (
    _FLAGS,
    USAGE,
    InputDocument,
    main,
    parse_input,
    write_report,
)
from fibernorm.errors import NoConvergence, ParseError
from fibernorm.exact import IntMatrix
from fibernorm.norm import ConeDescription, enumerate_cone_points
from fibernorm.numberfield import TraceFunctional, build_order, trace_functional

QUAD_DOC = "matrix = [[2,1],[1,1]]\n"
FOURNACCI_DOC = (
    "genus = 2\n"
    "singularities = 6\n"
    "matrix = [[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]\n"
)


def document_text(doc):
    """The canonical text of an input document, which parse_input reads back."""
    lines = []
    if doc.genus is not None:
        lines.append(f"genus = {doc.genus}")
        lines.append("singularities = " + ",".join(map(str, doc.singularities)))
    matrix = ",".join("[" + ",".join(map(str, row)) + "]" for row in doc.matrix.rows)
    lines.append(f"matrix = [{matrix}]")
    return "\n".join(lines) + "\n"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(args), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- parsing -------------------------------------------------------------------


def test_parse_matrix_only():
    doc = parse_input(QUAD_DOC)
    assert doc.matrix == IntMatrix([[2, 1], [1, 1]])
    assert doc.genus is None
    assert doc.singularities is None
    # blanks and tabs may surround the one comma between rows
    assert parse_input("matrix = [[2,1] ,\t [1,1]]\n") == doc


def test_parse_bundle_with_comments_and_blank_lines():
    text = "# a bundle\n\ngenus = 2\nsingularities = 3,3,3,3\n\nmatrix = [[1,1],[1,0]]\n"
    doc = parse_input(text)
    assert doc.genus == 2
    assert doc.singularities == (3, 3, 3, 3)


def test_parse_companion_bundle():
    doc = parse_input(FOURNACCI_DOC)
    assert doc.genus == 2
    assert doc.singularities == (6,)
    assert doc.matrix.k == 4


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_input("matrix = [[1,1],[1,0]]\nmatrix = [[1]]\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_input("color = blue\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_input("matrix = [[1,1],[1]]\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_input("matrix = [[1,1],[1,0]\n")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_input("genus = 2\nmatrix = [[1]]\n")  # bundle intent, no singularities
    with pytest.raises(ParseError):
        parse_input("genus = 2\nsingularities = 6\n")  # no matrix at all


def test_parse_rejects_non_square_matrix():
    with pytest.raises(ParseError):
        parse_input("matrix = [[1,1,0],[1,0,1]]\n")


# Every part of up to four characters over these: digits, signs, the
# blanks str.strip and int() treat alike and those they do not, and
# characters neither reads as an integer.
_PART_ALPHABET = "0123456789+- \t\x0b\x0c\x1c\x1f_a."


def test_int_reads_a_subset_of_parse_int_on_parts_without_underscores():
    for n in range(1, 5):
        for chars in product(_PART_ALPHABET, repeat=n):
            part = "".join(chars)
            try:
                value = int(part)
            except ValueError:
                continue
            if "_" in part:  # int() reads "1_0" as 10, so the map(int) path skips "_"
                with pytest.raises(ParseError):
                    cli._parse_int(part)
            else:
                assert cli._parse_int(part) == value, repr(part)


def _reference_bare_int_list(text, line):
    """An integer list read part by part, with no map(int) path: the
    reference that parse_input must match on every document."""
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise ParseError(f"malformed integer list {text!r}", line)
    return tuple(cli._parse_int(p, line) for p in parts)


# "\x0b" and "\x1c" are left out: str.splitlines breaks a line at them.
_LIST_DOCUMENTS = {
    "blanks-and-tabs": "matrix = [[ 2 ,\t1 ],[ 1,1\t]]\n",
    "plus": "matrix = [[+1,2],[3,4]]\n",
    "leading-zero": "matrix = [[01,2],[3,4]]\n",
    "minus-zero": "matrix = [[-0,1],[1,1]]\n",
    "x1f-blank": "matrix = [[2,1],[1,\x1f1]]\n",
    "nbsp-blank": "matrix = [[2,1],[1,\xa01]]\n",
    "underscore": "matrix = [[1_0,1],[1,1]]\n",
    "arabic-indic-digit": "matrix = [[\u0663,1],[1,1]]\n",
    "4301-digits": "matrix = [[" + "9" * 4301 + ",1],[1,1]]\n",
    "empty-row": "matrix = [[1,2],[]]\n",
    "empty-part": "matrix = [[1,,2],[3,4]]\n",
    "float": "matrix = [[1.0,2],[3,4]]\n",
    "singularities": "genus = 2\nsingularities = +3, 03,\t3,\x1f3\nmatrix = [[2,1],[1,1]]\n",
    "bad-singularities": "genus = 2\nsingularities = 3,,3\nmatrix = [[2,1],[1,1]]\n",
    "bad-row-on-line-3": "# a comment\n\nmatrix = [[2,1],[1,x]]\n",
}


@pytest.mark.parametrize("text", _LIST_DOCUMENTS.values(), ids=_LIST_DOCUMENTS)
def test_parse_input_matches_the_per_part_reference(text, monkeypatch):
    def outcome():
        try:
            return parse_input(text)
        except ParseError as exc:
            return str(exc), exc.line

    fast = outcome()
    monkeypatch.setattr(cli, "_parse_bare_int_list", _reference_bare_int_list)
    assert outcome() == fast


def test_round_trip_through_serialize():
    for text in (QUAD_DOC, FOURNACCI_DOC):
        doc = parse_input(text)
        assert parse_input(document_text(doc)) == doc
    doc = InputDocument(
        matrix=IntMatrix([[0, 1], [1, 1]]), genus=2, singularities=(3, 3, 3, 3)
    )
    assert parse_input(document_text(doc)) == doc


def test_input_document_contract():
    matrix = IntMatrix([[0, 1], [1, 1]])
    # keyword and positional construction; the bundle data default to None
    doc = InputDocument(matrix=matrix, genus=2, singularities=(3, 3, 3, 3))
    assert doc == InputDocument(matrix, 2, (3, 3, 3, 3))
    assert (doc.matrix, doc.genus, doc.singularities) == (matrix, 2, (3, 3, 3, 3))
    bare = InputDocument(matrix)
    assert (bare.genus, bare.singularities) == (None, None)
    assert bare == InputDocument(matrix=matrix) == parse_input("matrix = [[0,1],[1,1]]\n")
    # equal documents are equal and hash alike; a changed field is not equal
    again = InputDocument(IntMatrix([[0, 1], [1, 1]]), 2, (3, 3, 3, 3))
    assert doc == again and hash(doc) == hash(again)
    assert len({doc, again, bare}) == 2
    assert doc != InputDocument(matrix, 3, (3, 3, 3, 3)) and doc != bare
    assert repr(doc) == (
        "InputDocument(matrix=IntMatrix([[0, 1], [1, 1]]), genus=2, singularities=(3, 3, 3, 3))"
    )
    assert repr(bare) == (
        "InputDocument(matrix=IntMatrix([[0, 1], [1, 1]]), genus=None, singularities=None)"
    )
    # immutable: no field can be assigned or deleted, and none added
    for name in ("matrix", "genus", "singularities", "extra"):
        with pytest.raises(AttributeError):
            setattr(doc, name, None)
    for name in ("matrix", "genus", "singularities"):
        with pytest.raises(AttributeError):
            delattr(doc, name)
    assert doc == again
    # copies and pickles are equal documents
    for copied in (copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        assert type(copied) is InputDocument
        assert copied == doc and hash(copied) == hash(doc)
    # the text form round-trips both kinds of document
    for document in (doc, bare):
        assert parse_input(document_text(document)) == document


def test_write_report_orders_keys_and_formats_values():
    # keys come out in the order given: each handler fixes its own order
    text = write_report([("trace", 5), ("genus", 2), ("gap", 0.25), ("class", (1, -2))])
    assert text == "trace = 5\ngenus = 2\ngap = 0.25\nclass = [1,-2]\n"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NoConvergence):
            write_report([("lambda", 2.5), ("gap", bad)])


# --- subcommands ----------------------------------------------------------------


def test_charpoly_subcommand(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["charpoly", "--input", path])
    assert code == 0
    assert out == "charpoly = [1,-3,1]\n"


def test_perron_subcommand_fixture_line(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["perron", "--input", path])
    assert code == 0
    assert out.splitlines()[0] == "lambda = 2.61803398875"
    assert "primitivity_witness = 1" in out


def test_trace_subcommand(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["trace", "--input", path, "--element", "[1,1]"])
    assert code == 0
    assert out == "trace_functional = [2,3]\nelement = [1,1]\ntrace = 5\n"


def test_trace_is_decided_when_the_root_test_closes_the_open_degrees(tmp_path):
    # x^2 - 5x - 2 is x(x + 1) mod 2, which would leave degree 1 open; the
    # exact root test, which found no integer root, closed it before that
    # prime, so the certificate reads that one prime only
    path = write_doc(tmp_path, "m.txt", "matrix = [[1,2],[3,4]]\n")
    code, out, _ = run_cli(["trace", "--input", path, "--element", "[1,0]"])
    assert (code, out) == (0, "trace_functional = [2,5]\nelement = [1,0]\ntrace = 2\n")
    certificate = build_order(IntMatrix([[1, 2], [3, 4]])).certificate
    assert certificate.patterns == ((2, (1, 1)),)
    assert len(certificate.patterns) == 1


def test_trace_is_decided_when_the_certificate_needs_eleven_primes(tmp_path):
    # the 173rd primitive matrix drawn from random.Random(7008) with
    # rng.choice((0, 1, 2)) per entry, row by row: its char poly
    # x^8 - 7x^7 - 9x^6 + 7x^5 + 37x^4 + 75x^3 - 139x^2 + 93x - 12 is
    # proved irreducible at the 11th prime (IrreducibilityUnverified, exit 3,
    # when certificates read ten)
    rows = (
        "[[0,1,1,2,1,2,0,1],[0,2,0,1,0,1,1,0],[0,1,2,2,1,1,2,2],[2,2,0,0,0,1,2,1],"
        "[2,2,1,1,0,2,0,1],[1,1,2,1,0,2,0,2],[2,2,2,0,0,0,1,0],[1,2,0,1,2,1,2,0]]"
    )
    path = write_doc(tmp_path, "k8.txt", f"matrix = {rows}\n")
    code, out, _ = run_cli(["trace", "--input", path, "--element", "[0,1,0,0,0,0,0,0]"])
    assert (code, out) == (
        0,
        "trace_functional = [8,7,67,511,3983,31377,249739,1979075]\n"
        "element = [0,1,0,0,0,0,0,0]\n"
        "trace = 7\n",
    )


def test_norm_subcommand(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["norm", "--input", path, "--class", "[-1,1]"])
    assert code == 0
    assert out == "trace_functional = [2,3]\nclass = [-1,1]\nnorm = 1\n"


def test_cone_subcommand(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["cone", "--input", path, "--class", "[-2,1]", "--box", "1"])
    assert code == 0
    assert out == (
        "trace_functional = [2,3]\n"
        "class = [-2,1]\n"
        "membership = Outside\n"
        "cone_points = [[-1,1],[0,0],[0,1],[1,0],[1,1]]\n"
    )


def test_cone_box_report_renders_the_point_list(tmp_path):
    rng = random.Random(2002)
    for k in range(2, 7):
        matrix = IntMatrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
        path = write_doc(tmp_path, f"k{k}.txt", document_text(InputDocument(matrix)))
        box = 3 if k <= 4 else 2
        code, out, _ = run_cli(["cone", "--input", path, "--box", str(box)])
        assert code == 0, (k, out)
        functional = trace_functional(build_order(matrix))
        points = enumerate_cone_points(ConeDescription(functional), box)
        assert out == write_report([("trace_functional", functional.t), ("cone_points", points)])


def test_cone_box_budget_counts_the_whole_box(tmp_path):
    quad = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["cone", "--input", quad, "--box", "499"])  # 999^2 = 998,001 points
    assert code == 0
    points = enumerate_cone_points(ConeDescription(TraceFunctional((2, 3))), 499)
    # For lists of int pairs the repr is the report text up to blanks and brackets.
    text = str(points).replace(" ", "").replace("(", "[").replace(")", "]")
    assert out == f"trace_functional = [2,3]\ncone_points = {text}\n"
    code, out, err = run_cli(["cone", "--input", quad, "--box", "500"])  # 1001^2 = 1,002,001
    assert (code, out) == (2, "error = UsageError\n")
    assert "more than 1000000 items" in err


def test_validate_subcommand_ok_and_error(tmp_path):
    good = write_doc(
        tmp_path, "good.txt", "genus = 2\nsingularities = 3,3,3,3\nmatrix = [[1,1],[1,0]]\n"
    )
    code, out, _ = run_cli(["validate", "--input", good])
    assert code == 0
    assert out == "genus = 2\nsingularities = [3,3,3,3]\nrank = 7\nvalid = ok\n"

    bad = write_doc(
        tmp_path, "bad.txt", "genus = 2\nsingularities = 3,4\nmatrix = [[1,1],[1,0]]\n"
    )
    code, out, _ = run_cli(["validate", "--input", bad])
    assert code == 1
    assert out == "error = IndexSumMismatch\n"


def test_dimgroup_subcommand(tmp_path):
    path = write_doc(tmp_path, "fib.txt", "matrix = [[1,1],[1,0]]\n")
    code, out, _ = run_cli(["dimgroup", "--input", path, "--vector", "[1,-1]"])
    assert code == 0
    assert out == "vector = [1,-1]\nstage = 0\npositivity = Positive\nwitness = 3\n"
    code, out, _ = run_cli(["dimgroup", "--input", path])
    assert code == 0
    assert "positivity = Positive" in out

    undecided = write_doc(tmp_path, "osc.txt", "matrix = [[1,2],[1,0]]\n")
    code, out, _ = run_cli(["dimgroup", "--input", undecided, "--vector", "[1,-1]"])
    assert code == 3
    assert out == "error = PositivityUndecided\n"


def test_dimgroup_decides_primitivity_once(tmp_path, monkeypatch):
    original = perron.primitivity_check
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    # wrap it in every fibernorm namespace that binds it (perron, dimgroup, bundle, ...)
    namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "fibernorm"]
    for module in namespaces:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    path = write_doc(tmp_path, "fib.txt", "matrix = [[1,1],[1,0]]\n")
    code, out, _ = run_cli(["dimgroup", "--input", path, "--vector", "[1,-1]", "--stage", "2"])
    assert (code, out) == (0, "vector = [1,-1]\nstage = 2\npositivity = Positive\nwitness = 3\n")
    assert len(calls) == 1


def test_negative_stage_is_a_usage_error_before_the_input_is_read(tmp_path):
    # the range check runs with the flags, ahead of parsing and of primitivity
    ident = write_doc(tmp_path, "ident.txt", "matrix = [[1,0],[0,1]]\n")
    broken = write_doc(tmp_path, "broken.txt", "matrix = [[1,\n")
    for path in (ident, broken):
        code, out, err = run_cli(["dimgroup", "--input", path, "--stage", "-1"])
        assert (code, out) == (2, "error = UsageError\n")
        assert "--stage expects an integer >= 0" in err


def test_bratteli_subcommand_text_and_dot(tmp_path):
    path = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    code, out, _ = run_cli(["bratteli", "--input", path, "--levels", "3"])
    assert code == 0
    assert out == "levels = 3\nvertex_count = 6\nedge_count = 10\n"
    code, out, _ = run_cli(["bratteli", "--input", path, "--levels", "2", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph bratteli {")
    assert out.count("->") == 5
    code, out, _ = run_cli(["bratteli", "--input", path, "--levels", "1"])
    assert code == 1
    assert out == "error = TooFewLevels\n"


def test_report_subcommand(tmp_path):
    path = write_doc(tmp_path, "bundle.txt", FOURNACCI_DOC)
    code, out, _ = run_cli(["report", "--input", path, "--fiber-class", "[0,2,0,0]"])
    assert code == 0
    assert out == (
        "genus = 2\n"
        "singularities = [6]\n"
        "rank = 4\n"
        "charpoly = [-1,-1,-1,-1,1]\n"
        "trace_functional = [4,1,3,7]\n"
        "class = [0,2,0,0]\n"
        "norm_at_fiber = 2\n"
        "thurston_fiber_target = 2\n"
        "discrepancy = 0\n"
        "gromov_value = 4\n"
        "dual_euler_value = 2\n"
    )


def test_report_negative_fiber_norm(tmp_path):
    path = write_doc(tmp_path, "bundle.txt", FOURNACCI_DOC)
    code, out, _ = run_cli(["report", "--input", path, "--fiber-class", "[-1,0,0,0]"])
    assert code == 0
    assert "negative_fiber_norm = true" in out
    assert "gromov_value" not in out


# --- exit code contract -----------------------------------------------------------


def test_exit_codes_and_error_lines(tmp_path):
    quad = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    broken = write_doc(tmp_path, "broken.txt", "matrix = [[1,\n")
    undecidable = write_doc(
        tmp_path, "x41.txt", "matrix = [[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]\n"
    )
    scalar = write_doc(tmp_path, "scalar.txt", "matrix = [[2,0],[0,2]]\n")
    oscillating = write_doc(tmp_path, "osc.txt", "matrix = [[1,2],[1,0]]\n")
    # x^2 - 10^12 = (x - 10^6)(x + 10^6): the factor comes from the roots
    huge = write_doc(tmp_path, "huge.txt", "matrix = [[0,1000000000000],[1,0]]\n")
    # an entry of 2^1100 does not fit in a float
    too_big = write_doc(tmp_path, "big.txt", f"matrix = [[{2**1100},1],[1,1]]\n")
    # k=10 companion with 160-bit coefficients: the spectral gap overflows
    rows = [[int(j == i - 1) for j in range(9)] + [2**160] for i in range(10)]
    overflow = write_doc(tmp_path, "c10.txt", f"matrix = {rows}\n".replace(" ", ""))
    # diag(1, companion of x^9 - x - 1): degree 10 is past the float factor
    # search, and the exact integer root 1 splits off x - 1
    rows = [[1] + [0] * 9] + [
        [0] + [int(j == i - 1) for j in range(8)] + [int(i < 2)] for i in range(9)
    ]
    root_one = write_doc(tmp_path, "d10.txt", f"matrix = {rows}\n".replace(" ", ""))
    # "²" and "٣" pass str.isdigit(); only ASCII digits are integers here
    superscript = write_doc(tmp_path, "sup.txt", "matrix = [[1,1],[1,\u00b2]]\n")
    arabic_indic = write_doc(tmp_path, "ar.txt", "matrix = [[1,1],[1,\u0663]]\n")
    genus_sup = write_doc(tmp_path, "g.txt", "genus = \u00b2\nsingularities = 6\n" + QUAD_DOC)
    # matrix rows are separated by exactly one comma, inside one pair of brackets
    no_comma = write_doc(tmp_path, "nc.txt", "matrix = [[1,1] [1,0]]\n")
    two_commas = write_doc(tmp_path, "cc.txt", "matrix = [[1,1],,[1,0]]\n")
    two_matrices = write_doc(tmp_path, "mm.txt", "matrix = [[1,1]],[[1,0]]\n")

    cases = [
        (["charpoly", "--input", quad], 0, None),
        (["trace", "--input", scalar, "--element", "[1,0]"], 1, "DegenerateMonodromy"),
        (["perron", "--input", overflow], 1, "NoConvergence"),
        (["perron", "--input", too_big], 1, "NoConvergence"),
        (["trace", "--input", too_big, "--element", "[1,1]"], 1, "NoConvergence"),
        (["nonsense", "--input", quad], 2, "UsageError"),
        (["charpoly", "--input", quad, "--bogus", "1"], 2, "UsageError"),
        (["charpoly", "--input", broken], 2, "ParseError"),
        (["charpoly"], 2, "UsageError"),
        (["trace", "--input", quad], 2, "UsageError"),  # missing --element
        (["charpoly", "--input", str(tmp_path / "missing.txt")], 2, "UsageError"),
        (["charpoly", "--input", quad, "--format", "xml"], 2, "UsageError"),
        # the certificate reads a fixed number of primes: no flag sets it
        (["charpoly", "--input", quad, "--prime-budget", "5"], 2, "UsageError"),
        (["trace", "--input", quad, "--element", "[1,1]", "--prime-budget", "5"], 2,
         "UsageError"),
        (["charpoly", "--input", quad, "--box", "-1"], 2, "UsageError"),
        # perron takes no tolerance or iteration limit: both are unknown flags
        (["perron", "--input", quad, "--tol", "1e-12"], 2, "UsageError"),
        (["perron", "--input", quad, "--max-iter", "3"], 2, "UsageError"),
        (["charpoly", "--input", quad, "--element", "1,2"], 2, "UsageError"),
        (["charpoly", "--input", quad, "--levels"], 2, "UsageError"),  # no value
        (["charpoly", "--input", quad, "stray"], 2, "UsageError"),
        (["dimgroup", "--input", quad, "--stage", "-1"], 2, "UsageError"),
        (["trace", "--input", undecidable, "--element", "[1,0,0,0]"], 3,
         "IrreducibilityUnverified"),
        (["trace", "--input", huge, "--element", "[1,1]"], 1, "NotAField"),
        (["trace", "--input", root_one, "--element", "[1,0,0,0,0,0,0,0,0,0]"], 1, "NotAField"),
        (["dimgroup", "--input", oscillating, "--vector", "[1,-1]"], 3, "PositivityUndecided"),
        (["validate", "--input", quad], 2, "UsageError"),  # matrix-only doc, bundle subcommand
        (["charpoly", "--input", superscript], 2, "ParseError"),
        (["charpoly", "--input", arabic_indic], 2, "ParseError"),
        (["validate", "--input", genus_sup], 2, "ParseError"),
        (["charpoly", "--input", no_comma], 2, "ParseError"),
        (["charpoly", "--input", two_commas], 2, "ParseError"),
        (["charpoly", "--input", two_matrices], 2, "ParseError"),
        # integer flags follow the document's integer rule
        (["cone", "--input", quad, "--box", "\u0663"], 2, "UsageError"),
        (["cone", "--input", quad, "--box", "1_0"], 2, "UsageError"),
        (["bratteli", "--input", quad, "--levels", "\u0663"], 2, "UsageError"),
        (["dimgroup", "--input", quad, "--stage", "1_0"], 2, "UsageError"),
        (["cone", "--input", quad, "--box", "1000"], 2, "UsageError"),  # 2001^2 points
        (["bratteli", "--input", quad, "--levels", "1000000", "--format", "dot"], 2,
         "UsageError"),
    ]
    limit = _int_digit_limit()
    if limit:  # an entry 100 digits past the interpreter's int() limit
        entry = "9" * (limit + 100)
        long_entry = write_doc(tmp_path, "long.txt", f"matrix = [[1,{entry}],[1,0]]\n")
        cases.append((["charpoly", "--input", long_entry], 2, "ParseError"))
    for args, expected, token in cases:
        code, out, err = run_cli(args)
        assert code == expected, (args, code, out)
        if token is None:
            assert not any(line.startswith("error = ") for line in out.splitlines()), (args, out)
        else:
            assert out == f"error = {token}\n", (args, out)
            assert err.startswith("usage:") == (token == "UsageError"), (args, err)


def test_usage_lists_the_flags_and_defaults_of_the_flag_table():
    listed = re.findall(r"^  (--[a-z-]+) ", USAGE, re.MULTILINE)
    assert listed == list(_FLAGS)
    stated = dict(re.findall(r"^  (--[a-z-]+) .*\(default (.+)\)$", USAGE, re.MULTILINE))
    # all ones depends on the matrix size, so the table holds None for it
    assert stated.pop("--vector") == "all ones" and _FLAGS["--vector"][3] is None
    defaults = {flag: default for flag, (_, _, _, default) in _FLAGS.items()}
    assert stated == {flag: str(d) for flag, d in defaults.items() if d is not None}


def _int_digit_limit():
    """The interpreter's int/str conversion limit in digits; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_charpoly_prints_integers_past_the_digit_limit(tmp_path):
    nines = 10**2500 - 1
    eights = 8 * nines // 9
    wide = write_doc(tmp_path, "wide.txt", f"matrix = [[1,{nines}],[{eights},0]]\n")
    code, out, _ = run_cli(["charpoly", "--input", wide])
    assert code == 0
    assert out.startswith("charpoly = [") and out.endswith("]\n")
    limit = _int_digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        coeffs = [int(c) for c in out[len("charpoly = ["):-2].split(",")]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert coeffs == [-nines * eights, -1, 1]


def test_domain_error_names_are_stable(tmp_path):
    ident = write_doc(tmp_path, "ident.txt", "matrix = [[1,0],[0,1]]\n")
    code, out, _ = run_cli(["dimgroup", "--input", ident])
    assert code == 1
    assert out == "error = NotPrimitive\n"
    negative = write_doc(tmp_path, "neg.txt", "matrix = [[1,-1],[1,1]]\n")
    code, out, _ = run_cli(["perron", "--input", negative])
    assert code == 1
    assert out == "error = NotNonnegative\n"


def test_identical_runs_are_byte_identical(tmp_path):
    quad = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    bundle = write_doc(tmp_path, "bundle.txt", FOURNACCI_DOC)
    invocations = [
        ["charpoly", "--input", quad],
        ["perron", "--input", quad],
        ["cone", "--input", quad, "--box", "2"],
        ["bratteli", "--input", quad, "--levels", "4", "--format", "dot"],
        ["report", "--input", bundle, "--fiber-class", "[0,2,0,0]"],
    ]
    for args in invocations:
        first = run_cli(args)
        second = run_cli(args)
        assert first == second


def test_module_entry_point_runs_in_subprocess(tmp_path):
    quad = write_doc(tmp_path, "quad.txt", QUAD_DOC)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fibernorm", "charpoly", "--input", quad],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "charpoly = [1,-3,1]\n"
