"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 1-4 and 6 share a corpus of 100 random nonnegative primitive
matrices (k <= 5, entries <= 3) whose characteristic polynomial carries a
definite irreducibility certificate; generation is seeded and cached so
the whole suite is reproducible.
"""

import io
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement, product

from fibernorm.bundle import SingularityData, build_bundle, validate_singularity_data
from fibernorm.cli import main
from fibernorm.dimgroup import DimGroupElement, make_dim_group, telescope
from fibernorm.errors import FibernormError
from fibernorm.exact import IntMatrix, char_poly, newton_power_sums
from fibernorm.norm import ConeDescription, cone_axiom_check, fiber_class_report
from fibernorm.numberfield import (
    TraceFunctional,
    build_order,
    mult_matrix,
    trace_via_embeddings,
    trace_via_mult,
    trace_via_newton,
)
from fibernorm.perron import Sign, eventual_positivity, perron_data, primitivity_check
from fibernorm.roots import complex_roots

QUAD = IntMatrix([[2, 1], [1, 1]])
FIB = IntMatrix([[1, 1], [1, 0]])
FOURNACCI = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])

CORPUS_SIZE = 100
_corpus_cache = []


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {description}: PASS")


def certified_corpus():
    """100 seeded random primitive matrices with certified irreducible char poly."""
    if not _corpus_cache:
        rng = random.Random(982451653)
        while len(_corpus_cache) < CORPUS_SIZE:
            k = rng.randint(2, 5)
            matrix = IntMatrix([[rng.randint(0, 3) for _ in range(k)] for _ in range(k)])
            try:
                primitivity_check(matrix)
                order = build_order(matrix)
            except FibernormError:
                continue
            _corpus_cache.append((matrix, order))
    return _corpus_cache


def test_criterion_01_three_way_trace_agreement():
    with criterion(1, "three-way trace agreement on 100 certified matrices"):
        started = time.monotonic()
        rng = random.Random(11)
        for _, order in certified_corpus():
            for _ in range(20):
                a = tuple(rng.randint(-10, 10) for _ in range(order.degree))
                exact = trace_via_mult(order, a)
                assert trace_via_newton(order, a) == exact
                assert trace_via_embeddings(order, a) == exact
        assert time.monotonic() - started < 10.0


def test_criterion_02_newton_sums_equal_power_traces():
    with criterion(2, "newton power sums equal tr(A^j) for j <= 10"):
        for matrix, _ in certified_corpus():
            sums = newton_power_sums(char_poly(matrix), 10)
            power = IntMatrix.identity(matrix.k)
            for j in range(11):
                assert sums[j] == power.trace()
                power = power * matrix


def test_criterion_03_trace_linearity_exhaustive_scalars():
    with criterion(3, "trace linearity for all p,q in [-5,5]"):
        rng = random.Random(22)
        for _, order in certified_corpus():
            k = order.degree
            for _ in range(10):
                a = tuple(rng.randint(-10, 10) for _ in range(k))
                b = tuple(rng.randint(-10, 10) for _ in range(k))
                ta = trace_via_mult(order, a)
                tb = trace_via_mult(order, b)
                for p in range(-5, 6):
                    for q in range(-5, 6):
                        combo = tuple(p * x + q * y for x, y in zip(a, b))
                        assert trace_via_newton(order, combo) == p * ta + q * tb


def test_criterion_04_unimodular_similarity_invariance():
    with criterion(4, "trace invariant under 50 unimodular conjugations"):
        rng = random.Random(33)
        corpus = certified_corpus()
        for _ in range(50):
            _, order = corpus[rng.randrange(len(corpus))]
            k = order.degree
            a = tuple(rng.randint(-5, 5) for _ in range(k))
            m = mult_matrix(order, a)
            u = IntMatrix.identity(k)
            uinv = IntMatrix.identity(k)
            for _ in range(8):
                i, j = rng.sample(range(k), 2)
                c = rng.choice((-2, -1, 1, 2))
                e = [[1 if r == s else 0 for s in range(k)] for r in range(k)]
                einv = [[1 if r == s else 0 for s in range(k)] for r in range(k)]
                e[i][j] = c
                einv[i][j] = -c
                u = IntMatrix(e) * u
                uinv = uinv * IntMatrix(einv)
            assert u * uinv == IntMatrix.identity(k)
            assert (u * m * uinv).trace() == m.trace()


def test_criterion_05_cone_axioms_exhaustive():
    with criterion(5, "cone axioms on three functionals, radius 3, scale 4"):
        for t in ((2, 3), (3, 1, 3), (4, 1, 3, 7)):
            cone = ConeDescription(TraceFunctional(t))
            assert cone_axiom_check(cone, box_radius=3, scale_max=4) is None


def test_criterion_06_perron_fixture_and_spectral_dominance():
    with criterion(6, "perron eigenvalue fixture and spectral dominance"):
        data = perron_data(QUAD)
        assert abs(data.eigenvalue - 2.618033988750) < 1e-9
        for matrix, _ in certified_corpus():
            lam = perron_data(matrix).eigenvalue
            roots = complex_roots(char_poly(matrix))
            dominant = max(roots, key=lambda z: z.real)
            rest = list(roots)
            rest.remove(dominant)
            for rho in rest:
                assert abs(rho) < lam


def test_criterion_07_singularity_validator_vs_partition_enumerator():
    with criterion(7, "singularity data accepted iff shifted parts partition 4g-4"):
        def accepted(genus, prongs):
            try:
                validate_singularity_data(genus, SingularityData(prongs))
                return True
            except FibernormError:
                return False

        for genus in (2, 3):
            target = 4 * genus - 4
            for m in range(1, 4 * genus - 2):
                for prongs in combinations_with_replacement(range(3, 4 * genus + 1), m):
                    is_partition = sum(n - 2 for n in prongs) == target and m <= target
                    assert accepted(genus, prongs) == is_partition
            assert accepted(genus, (4 * genus - 2,))  # unique minimum
            assert accepted(genus, (3,) * (4 * genus - 4))  # maximum


def test_criterion_08_rank_formula():
    with criterion(8, "rank formula 2g+m-1 for g in [2,10]"):
        from fibernorm.bundle import h2_rank

        for genus in range(2, 11):
            for m in range(1, 4 * genus - 3):
                assert h2_rank(genus, m) == 2 * genus + m - 1


def test_criterion_09_dimension_group_coherence():
    with criterion(9, "positivity invariant under telescoping; unit positive"):
        for matrix in (FIB, QUAD):
            group = make_dim_group(matrix)
            assert eventual_positivity(group.matrix, (1,) * group.k).sign is Sign.POSITIVE
            for v in product(range(-3, 4), repeat=2):
                base = eventual_positivity(group.matrix, v).sign
                for stage in range(1, 5):
                    moved = telescope(group, DimGroupElement(v, 0), stage)
                    assert eventual_positivity(group.matrix, moved.v).sign == base


def test_criterion_10_desk_scale_fiber_instance():
    with criterion(10, "fiber class of the 4-step recurrence bundle"):
        started = time.monotonic()
        bundle = build_bundle(2, SingularityData((6,)), FOURNACCI)
        report = fiber_class_report(bundle, (0, 2, 0, 0))
        assert report.norm_at_fiber == 2
        assert report.norm_at_fiber == 2 * bundle.genus - 2
        assert report.discrepancy == 0
        assert report.gromov_value == 4
        assert report.dual_euler_value == 2
        assert time.monotonic() - started < 1.0


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    with criterion(11, "CLI reruns byte-identical with the 0/1/2/3 contract"):
        quad = tmp_path / "quad.txt"
        quad.write_text("matrix = [[2,1],[1,1]]\n", encoding="utf-8")
        fib = tmp_path / "fib.txt"
        fib.write_text("matrix = [[1,1],[1,0]]\n", encoding="utf-8")
        bundle = tmp_path / "bundle.txt"
        bundle.write_text(
            "genus = 2\nsingularities = 6\n"
            "matrix = [[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]\n",
            encoding="utf-8",
        )
        bad_sing = tmp_path / "badsing.txt"
        bad_sing.write_text(
            "genus = 2\nsingularities = 3,4\nmatrix = [[1,1],[1,0]]\n", encoding="utf-8"
        )
        broken = tmp_path / "broken.txt"
        broken.write_text("matrix = [[1,\n", encoding="utf-8")
        oscillator = tmp_path / "osc.txt"
        oscillator.write_text("matrix = [[1,2],[1,0]]\n", encoding="utf-8")
        undecidable = tmp_path / "x41.txt"
        undecidable.write_text(
            "matrix = [[0,0,0,-1],[1,0,0,0],[0,1,0,0],[0,0,1,0]]\n", encoding="utf-8"
        )

        suite = [
            (["charpoly", "--input", str(quad)], 0),
            (["perron", "--input", str(quad)], 0),
            (["trace", "--input", str(quad), "--element", "[1,1]"], 0),
            (["norm", "--input", str(quad), "--class", "[-1,1]"], 0),
            (["cone", "--input", str(quad), "--box", "2", "--class", "[1,0]"], 0),
            (["validate", "--input", str(bundle)], 0),
            (["dimgroup", "--input", str(fib), "--vector", "[1,-1]"], 0),
            (["bratteli", "--input", str(fib), "--levels", "4", "--format", "dot"], 0),
            (["bratteli", "--input", str(quad), "--levels", "3"], 0),
            (["report", "--input", str(bundle), "--fiber-class", "[0,2,0,0]"], 0),
            (["validate", "--input", str(bad_sing)], 1),
            (["dimgroup", "--input", str(quad), "--vector", "[1,2,3]"], 1),
            (["charpoly", "--input", str(broken)], 2),
            (["wrong", "--input", str(quad)], 2),
            (["trace", "--input", str(quad)], 2),
            (["dimgroup", "--input", str(oscillator), "--vector", "[1,-1]"], 3),
            (["trace", "--input", str(undecidable), "--element", "[1,0,0,0]"], 3),
        ]

        def run_suite():
            transcript = []
            for args, expected in suite:
                out, err = io.StringIO(), io.StringIO()
                code = main(list(args), out=out, err=err)
                assert code == expected, (args, code, out.getvalue())
                has_error = any(
                    line.startswith("error = ") for line in out.getvalue().splitlines()
                )
                assert has_error == (code != 0), (args, out.getvalue())
                transcript.append((tuple(args), code, out.getvalue(), err.getvalue()))
            return transcript

        assert run_suite() == run_suite()
