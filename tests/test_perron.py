"""Primitivity, dominant eigendata, and exact sign decisions."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from fibernorm.errors import DimensionMismatch, NoConvergence, NotNonnegative, NotPrimitive
from fibernorm import perron
from fibernorm.exact import IntMatrix, char_poly
from fibernorm.perron import (
    ITERATION_BOUND,
    Sign,
    _inverse_iterate,
    _lu,
    _transposed,
    eventual_positivity,
    perron_data,
    primitivity_check,
)
from fibernorm.roots import complex_roots

QUAD = IntMatrix([[2, 1], [1, 1]])
FIB = IntMatrix([[1, 1], [1, 0]])
TRIB = IntMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])


def _largest_real_root(p, steps=120):
    """Exact bisection on the integer polynomial at rational points.

    Walks down from the Cauchy bound to the first integer sign change and
    bisects with Fraction arithmetic, so every sign is exact.  Valid when
    the bracket contains a single real root, which holds for the
    dominant-root fixtures used here.
    """
    hi = Fraction(1 + max(abs(c) for c in p.coeffs[:-1]))
    assert p(hi) > 0
    lo = hi - 1
    while p(lo) > 0:
        lo -= 1
    for _ in range(steps):
        mid = (lo + hi) / 2
        if p(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _brackets_root(p, lam, rel=Fraction(1, 10**12)):
    """Whether p changes sign on [lam (1 - rel), lam (1 + rel)], exactly."""
    lam = Fraction(lam)
    return p(lam * (1 - rel)) * p(lam * (1 + rel)) <= 0


def _companion(coeffs):
    """Companion matrix of x^k - sum_i coeffs[i] x^i."""
    k = len(coeffs)
    return IntMatrix([[int(j == i - 1) for j in range(k - 1)] + [c] for i, c in enumerate(coeffs)])


def _random_primitive(rng, max_k=5):
    while True:
        k = rng.randint(2, max_k)
        matrix = IntMatrix([[rng.randint(0, 3) for _ in range(k)] for _ in range(k)])
        try:
            primitivity_check(matrix)
        except NotPrimitive:
            continue
        return matrix


def _cycle(k):
    return [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]


def _cycle_with_loop(k):
    rows = _cycle(k)
    rows[0][0] = 1
    return IntMatrix(rows)


def test_primitivity_examples():
    assert primitivity_check(QUAD) == 1
    assert primitivity_check(FIB) == 2
    with pytest.raises(NotPrimitive):
        primitivity_check(IntMatrix.identity(2))
    with pytest.raises(NotNonnegative):
        primitivity_check(IntMatrix([[1, -1], [1, 1]]))
    # Wielandt's extremal matrix, the k-cycle plus the edge k-1 -> 1, needs
    # the full bound; a pure cycle never becomes positive.
    for k in [*range(3, 9), 16, 24]:
        rows = _cycle(k)
        rows[k - 1][1] = 1
        assert primitivity_check(IntMatrix(rows)) == (k - 1) ** 2 + 1
    for k in (6, 24):
        with pytest.raises(NotPrimitive):
            primitivity_check(IntMatrix(_cycle(k)))
    # k = 1: the bound is 1, so only A itself is looked at
    assert primitivity_check(IntMatrix([[2]])) == 1
    with pytest.raises(NotPrimitive):
        primitivity_check(IntMatrix([[0]]))
    # the sign check comes first, even where the pattern alone is primitive
    with pytest.raises(NotNonnegative):
        primitivity_check(IntMatrix([[1, 1, 1], [1, 1, 1], [1, 1, -1]]))


def _pattern_oracle(matrix):
    """Smallest m with a positive Boolean power, by sets of reached
    columns per row, or None when none comes within the Wielandt bound."""
    k = matrix.k
    step = [{j for j, x in enumerate(row) if x} for row in matrix.rows]
    power = step
    for m in range(1, (k - 1) ** 2 + 2):
        if all(len(row) == k for row in power):
            return m
        power = [set().union(*(step[t] for t in row)) for row in power]
    return None


def test_primitivity_check_matches_a_boolean_power_oracle():
    rng = random.Random(4242)
    answers = set()
    for k in range(1, 13):
        for density in (0.1, 0.2, 0.35, 0.5, 0.8):
            for _ in range(6):
                matrix = IntMatrix([[rng.randint(1, 5) if rng.random() < density else 0
                                     for _ in range(k)] for _ in range(k)])
                expected = _pattern_oracle(matrix)
                answers.add(expected)
                if expected is None:
                    with pytest.raises(NotPrimitive):
                        primitivity_check(matrix)
                else:
                    assert primitivity_check(matrix) == expected
    # the draws reach both answers, and witnesses past the first power
    assert None in answers and len(answers - {None, 1}) >= 3


def test_primitivity_check_reads_only_the_pattern_of_huge_entries():
    rng = random.Random(70)
    for k in range(1, 9):
        for _ in range(6):
            pattern = [[int(rng.random() < 0.4) for _ in range(k)] for _ in range(k)]
            huge = IntMatrix([[x * 2**70 for x in row] for row in pattern])
            expected = _pattern_oracle(IntMatrix(pattern))
            if expected is None:
                with pytest.raises(NotPrimitive):
                    primitivity_check(huge)
            else:
                assert primitivity_check(huge) == expected


def test_primitivity_witness_is_smallest():
    rng = random.Random(314)
    for _ in range(20):
        matrix = _random_primitive(rng, max_k=4)
        m = primitivity_check(matrix)
        power = matrix**m
        assert all(x > 0 for row in power.rows for x in row)
        if m > 1:
            previous = matrix ** (m - 1)
            assert any(x == 0 for row in previous.rows for x in row)


def test_perron_eigenvalue_fixtures():
    data = perron_data(QUAD)
    assert abs(data.eigenvalue - 2.618033988750) < 1e-9
    data = perron_data(TRIB)
    assert abs(data.eigenvalue - 1.839286755214) < 1e-9
    data = perron_data(FIB)
    assert abs(data.right[0] - 0.618034) < 1e-5
    assert abs(data.right[1] - 0.381966) < 1e-5


def test_perron_matches_exact_bisection():
    for matrix in (QUAD, FIB, TRIB):
        data = perron_data(matrix)
        root = _largest_real_root(char_poly(matrix))
        assert abs(data.eigenvalue - float(root)) < 10 * 1e-12


def test_perron_vectors_positive_and_normalized():
    rng = random.Random(62)
    for _ in range(10):
        matrix = _random_primitive(rng)
        data = perron_data(matrix)
        for vec in (data.right, data.left):
            assert all(x > 0 for x in vec)
            assert abs(sum(vec) - 1.0) < 1e-9
        assert 0.0 <= data.gap < 1.0
        assert data.witness == primitivity_check(matrix)


def test_spectral_dominance_on_random_matrices():
    rng = random.Random(98)
    for _ in range(20):
        matrix = _random_primitive(rng)
        data = perron_data(matrix)
        roots = complex_roots(char_poly(matrix))
        dominant = max(roots, key=lambda z: z.real)
        others = list(roots)
        others.remove(dominant)
        for rho in others:
            assert abs(rho) < data.eigenvalue + 1e-12


def test_gap_stays_finite_on_a_large_random_matrix():
    # The char poly of this k=32 matrix has 51-bit coefficients: its top
    # root must come out finite, not overflow.
    rng = random.Random(0)
    matrix = IntMatrix([[rng.randint(0, 2) for _ in range(32)] for _ in range(32)])
    data = perron_data(matrix)
    top = max(abs(z) for z in complex_roots(char_poly(matrix)))
    assert abs(top - data.eigenvalue) < 1e-9 * data.eigenvalue
    assert 0.0 < data.gap < 1.0


def test_perron_root_is_relatively_exact_on_a_cycle_with_a_loop():
    # A 16-cycle plus one self-loop has gap 0.94, so the root needs a
    # relative stopping test.
    matrix = _cycle_with_loop(16)
    data = perron_data(matrix)
    assert _brackets_root(char_poly(matrix), data.eigenvalue)


def test_perron_settles_on_a_root_near_2_to_the_40():
    # Successive iterates are compared in relative (L1-normalized) terms,
    # so a Perron root near 9e11 settles like any other.
    matrix = _companion([783527408893, 753130058915, 769707099532, 909504909443])
    data = perron_data(matrix)
    values = (data.eigenvalue, data.gap, *data.right, *data.left)
    assert all(math.isfinite(x) for x in values)
    assert _brackets_root(char_poly(matrix), data.eigenvalue)


def test_perron_raises_when_roots_are_not_finite():
    # k=10 companion with 160-bit coefficients: the root finder overflows.
    with pytest.raises(NoConvergence):
        perron_data(_companion([2**160] * 10))


def _perron_factors(matrix):
    """The packed factors of lambda I - A at the Perron root, as perron_data builds them."""
    return _lu(matrix, perron_data(matrix).eigenvalue)


def test_no_convergence_when_budget_exhausted(monkeypatch):
    monkeypatch.setattr(perron, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="within 1 solves"):
        _inverse_iterate(_perron_factors(QUAD))


def test_three_solves_settle_the_16_cycle_with_a_loop(monkeypatch):
    # gap 0.94, so an iteration that converges at the rate of the gap needs
    # hundreds of steps; at the Perron root each vector settles in two solves.
    matrix = _cycle_with_loop(16)
    rows = _perron_factors(matrix)
    data = perron_data(matrix)
    monkeypatch.setattr(perron, "_MAX_ITER", 3)
    assert _inverse_iterate(rows) == data.right
    assert _inverse_iterate(_transposed(rows)) == data.left
    assert all(x > 0 for x in data.right + data.left)


def test_no_convergence_at_the_rounding_floor_is_raised_at_once(monkeypatch):
    # After two solves the change sits at the rounding floor, 2.4e-16 here:
    # once it stops shrinking the loop gives up, not after _MAX_ITER solves.
    rows = _perron_factors(_cycle_with_loop(16))
    monkeypatch.setattr(perron, "_TOL", 1e-20)
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="stalled"):
        _inverse_iterate(rows)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("k", range(12, 25))
def test_a_tolerance_below_the_rounding_floor_never_spends_the_budget(k, monkeypatch):
    # Some of these iterates reach an exact fixed point (change 0.0) and
    # meet the tolerance; the others stall and raise at once.
    rows = _perron_factors(_cycle_with_loop(k))
    monkeypatch.setattr(perron, "_TOL", 1e-20)
    for factors in (rows, _transposed(rows)):
        start = time.perf_counter()
        try:
            _inverse_iterate(factors)
        except NoConvergence:
            pass
        assert time.perf_counter() - start < 0.1


def test_an_iteration_limit_below_one_is_rejected_before_any_work():
    # [[0,1],[1,0]] is not primitive and [[-1]] not nonnegative: the limit
    # is refused before either is found out. perron_data takes no limit.
    for matrix in (QUAD, IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1]])):
        for limit in (0, -3):
            with pytest.raises(TypeError, match="unexpected keyword argument 'max_iter'"):
                perron_data(matrix, max_iter=limit)


def test_eventual_positivity_examples():
    sign = eventual_positivity(FIB, (1, -1))
    assert sign.sign is Sign.POSITIVE and sign.witness == 3
    assert eventual_positivity(FIB, (-1, 1)).sign is Sign.NEGATIVE
    assert eventual_positivity(QUAD, (0, 0)).sign is Sign.ZERO


def test_eventual_positivity_witness_is_exact_and_smallest():
    for v in product(range(-3, 4), repeat=2):
        sign = eventual_positivity(FIB, v)
        if sign.sign is Sign.POSITIVE:
            m = sign.witness
            image = v
            for _ in range(m):
                image = FIB.apply(image)
            assert all(x >= 1 for x in image)
            if m > 0:
                previous = v
                for _ in range(m - 1):
                    previous = FIB.apply(previous)
                assert not all(x >= 1 for x in previous)


def test_positivity_stable_under_matrix_application():
    for matrix in (FIB, QUAD, TRIB):
        k = matrix.k
        for v in product(range(-3, 4), repeat=k):
            before = eventual_positivity(matrix, v).sign is Sign.POSITIVE
            after = eventual_positivity(matrix, matrix.apply(v)).sign is Sign.POSITIVE
            assert before == after


def test_boundary_vector_is_undecided():
    # eigenvalues 2 and -1; (1,-1) oscillates with period 2, never signed
    matrix = IntMatrix([[1, 2], [1, 0]])
    sign = eventual_positivity(matrix, (1, -1))
    assert sign.sign is Sign.UNDECIDED
    assert sign.bound == ITERATION_BOUND


def test_eventual_positivity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eventual_positivity(FIB, (1, 2, 3))
