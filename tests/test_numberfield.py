"""Orders, multiplication matrices, and the three trace routes."""

import random

import pytest

from fibernorm import exact, numberfield
from fibernorm.errors import (
    DegenerateMonodromy,
    DimensionMismatch,
    FibernormError,
    IrreducibilityUnverified,
    NotAField,
    NotPrimitive,
)
from fibernorm.exact import CertificateStatus, IntMatrix, IntPolynomial, irreducibility_certificate
from fibernorm.numberfield import (
    EmbeddingMismatch,
    NumberFieldOrder,
    build_order,
    mult_matrix,
    norm_value,
    trace_functional,
    trace_via_embeddings,
    trace_via_mult,
    trace_via_newton,
)
from fibernorm.perron import primitivity_check

QUAD = IntMatrix([[2, 1], [1, 1]])
TRIB = IntMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])
FOURNACCI = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])  # README's report


def _random_certified_matrix(rng, max_k=4):
    while True:
        k = rng.randint(2, max_k)
        matrix = IntMatrix([[rng.randint(0, 3) for _ in range(k)] for _ in range(k)])
        try:
            primitivity_check(matrix)
            return matrix, build_order(matrix)
        except Exception:
            continue


def _random_unimodular_pair(rng, k, ops=8):
    """A unimodular integer matrix and its exact inverse.

    Built as a product of elementary row operations, applying the inverse
    operations on the other side, so U * Uinv == I by construction.
    """
    u = IntMatrix.identity(k)
    uinv = IntMatrix.identity(k)
    for _ in range(ops):
        i, j = rng.sample(range(k), 2)
        kind = rng.choice(("add", "swap"))
        if kind == "add":
            c = rng.choice((-2, -1, 1, 2))
            e = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
            e[i][j] = c
            einv = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
            einv[i][j] = -c
        else:
            e = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
            e[i][i] = e[j][j] = 0
            e[i][j] = e[j][i] = 1
            einv = e
        u = IntMatrix(e) * u
        uinv = uinv * IntMatrix(einv)
    assert u * uinv == IntMatrix.identity(k)
    return u, uinv


def test_build_order_examples():
    order = build_order(QUAD)
    assert order.min_poly == IntPolynomial([1, -3, 1])
    assert order.degree == 2
    order = build_order(TRIB)
    assert order.min_poly == IntPolynomial([-1, -1, -1, 1])
    assert order.degree == 3
    with pytest.raises(DegenerateMonodromy):
        build_order(IntMatrix([[2, 0], [0, 2]]))


def test_build_order_refuses_reducible_and_undecided():
    with pytest.raises(NotAField):
        build_order(IntMatrix([[0, 1], [1, 0]]))
    companion_x4_plus_1 = IntMatrix(
        [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    with pytest.raises(IrreducibilityUnverified):
        build_order(companion_x4_plus_1)
    # diag(1, companion of x^9 - x - 1): degree 10 is past the float factor
    # search, and the exact integer root 1 still splits off x - 1
    one_plus_companion = IntMatrix([[1] + [0] * 9] + [
        [0] + [int(j == i - 1) for j in range(8)] + [int(i < 2)] for i in range(9)
    ])
    assert exact.char_poly(one_plus_companion) == IntPolynomial([-1, 1]) * IntPolynomial(
        [-1, -1] + [0] * 7 + [1]
    )
    with pytest.raises(NotAField, match=r"degrees \(1, 9\)"):
        build_order(one_plus_companion)


def test_build_order_never_runs_the_elimination_on_squarefree_char_polys(monkeypatch):
    def refuse(A):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(exact, "_min_poly_by_elimination", refuse)
    rng = random.Random(32)
    big = IntMatrix([[rng.randint(0, 2) for _ in range(32)] for _ in range(32)])
    for matrix in (QUAD, TRIB, FOURNACCI, big):
        assert build_order(matrix).degree == matrix.k


def test_build_order_computes_the_char_poly_once(monkeypatch):
    calls = []
    original = exact.char_poly

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(exact, "char_poly", counted)
    monkeypatch.setattr(numberfield, "char_poly", counted)
    build_order(TRIB)
    assert calls == [TRIB]


def test_build_order_runs_the_squarefree_gcds_once(monkeypatch):
    # x^2 - 7 has a repeated root mod 2 and is squarefree mod 3; the
    # certificate's integer-root test reuses the prime matrix_min_poly found
    calls = []
    original = exact._fp_gcd

    def counted(a, b, q):
        calls.append((list(a), list(b), q))
        return original(a, b, q)

    monkeypatch.setattr(exact, "_fp_gcd", counted)
    order = build_order(IntMatrix([[0, 7], [1, 0]]))
    assert order.min_poly == IntPolynomial([-7, 0, 1])
    squarefree_gcds = [([1, 0, 1], [], 2), ([2, 0, 1], [0, 2], 3)]
    assert [call for call in calls if call in squarefree_gcds] == squarefree_gcds
    assert exact._squarefree_prime(order.min_poly) == 3
    assert exact._squarefree_prime(IntPolynomial([-7, 0, 1])) == 3  # a new object works again
    assert len([call for call in calls if call in squarefree_gcds]) == 4


def test_build_order_error_precedence(monkeypatch):
    # constant row sum 2: the eigenvector (1, 1, 1, 1) splits off x - 2
    with pytest.raises(NotAField):
        build_order(IntMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]))

    # a degenerate matrix is refused before the certificate reads a prime
    def no_certificate(p):
        raise AssertionError(f"certificate built for {p}")

    monkeypatch.setattr(numberfield, "irreducibility_certificate", no_certificate)
    with pytest.raises(DegenerateMonodromy):
        build_order(IntMatrix([[2, 0], [0, 2]]))
    with pytest.raises(DegenerateMonodromy):
        build_order(IntMatrix([[5]]))


def test_order_constructor_enforces_certificate():
    p = IntPolynomial([1, -3, 1])
    with pytest.raises(ValueError):
        NumberFieldOrder(p, irreducibility_certificate(IntPolynomial([-1, 0, 1])))
    with pytest.raises(ValueError):
        NumberFieldOrder(IntPolynomial([1, 2]), irreducibility_certificate(p))


def test_mult_matrix_examples():
    order = build_order(QUAD)
    assert mult_matrix(order, (0, 1)) == IntMatrix([[0, 1], [-1, 3]])
    assert mult_matrix(order, (1, 0)) == IntMatrix.identity(2)
    assert mult_matrix(order, (1, 1)) == IntMatrix([[1, 1], [-1, 4]])
    with pytest.raises(DimensionMismatch):
        mult_matrix(order, (1, 0, 0))


def test_mult_matrix_is_the_polynomial_in_the_generator_matrix():
    # a = sum a_j lambda^j, so multiplication by a is sum a_j M^j, where M
    # multiplies by lambda; pins every row of every size, not just 2x2.
    rng = random.Random(2718)
    for _ in range(15):
        _, order = _random_certified_matrix(rng, max_k=6)
        k = order.degree
        generator = mult_matrix(order, (0, 1) + (0,) * (k - 2))
        for _ in range(3):
            a = tuple(rng.randint(-9, 9) for _ in range(k))
            expected = IntMatrix([[0] * k for _ in range(k)])
            for j, c in enumerate(a):
                expected = expected + c * generator**j
            assert mult_matrix(order, a) == expected


def test_trace_examples():
    order = build_order(QUAD)
    assert trace_via_mult(order, (0, 1)) == 3
    assert trace_via_mult(order, (1, 0)) == 2
    assert trace_via_mult(order, (1, 1)) == 5
    assert trace_via_newton(order, (0, 1)) == 3
    assert trace_via_newton(order, (0, 0)) == 0
    assert trace_via_embeddings(order, (0, 1)) == 3
    # lambda^2 = 3*lambda - 1 has trace 7
    assert trace_via_mult(order, (-1, 3)) == 7
    assert trace_via_embeddings(order, (-1, 3)) == 7
    trib_order = build_order(TRIB)
    assert trace_via_newton(trib_order, (0, 0, 1)) == 3
    assert trace_via_embeddings(trib_order, (1, 0, 0)) == 3


def test_trace_functional_examples():
    assert trace_functional(build_order(QUAD)).t == (2, 3)
    assert trace_functional(build_order(TRIB)).t == (3, 1, 3)
    assert trace_functional(build_order(FOURNACCI)).t == (4, 1, 3, 7)


def test_norm_value_examples():
    f = trace_functional(build_order(QUAD))
    assert norm_value(f, (1, 1)) == 5
    assert norm_value(f, (0, 0)) == 0
    assert norm_value(f, (-1, 1)) == 1
    with pytest.raises(DimensionMismatch):
        norm_value(f, (1, 1, 1))


def test_three_way_trace_agreement():
    rng = random.Random(1618)
    for _ in range(30):
        _, order = _random_certified_matrix(rng)
        for _ in range(10):
            a = tuple(rng.randint(-10, 10) for _ in range(order.degree))
            exact = trace_via_mult(order, a)
            assert trace_via_newton(order, a) == exact
            assert trace_via_embeddings(order, a) == exact


def test_trace_linearity_exhaustive_scalars():
    rng = random.Random(271)
    _, order = _random_certified_matrix(rng)
    k = order.degree
    for _ in range(5):
        a = tuple(rng.randint(-10, 10) for _ in range(k))
        b = tuple(rng.randint(-10, 10) for _ in range(k))
        ta, tb = trace_via_mult(order, a), trace_via_mult(order, b)
        for p in range(-5, 6):
            for q in range(-5, 6):
                combo = tuple(p * x + q * y for x, y in zip(a, b))
                assert trace_via_mult(order, combo) == p * ta + q * tb


def test_trace_invariant_under_unimodular_conjugation():
    rng = random.Random(846)
    for _ in range(10):
        _, order = _random_certified_matrix(rng)
        a = tuple(rng.randint(-5, 5) for _ in range(order.degree))
        m = mult_matrix(order, a)
        u, uinv = _random_unimodular_pair(rng, order.degree)
        assert (u * m * uinv).trace() == m.trace()


def test_functional_starts_with_degree_and_follows_traces():
    rng = random.Random(919)
    for _ in range(10):
        matrix, order = _random_certified_matrix(rng)
        t = trace_functional(order).t
        assert t[0] == order.degree
        for j in range(order.degree):
            assert t[j] == (matrix**j).trace()


def test_embeddings_guard_trips_on_absurd_tolerance(monkeypatch):
    # deterministic: this sum lands a few ulps away from the integer 8
    order = build_order(TRIB)
    assert trace_via_embeddings(order, (7, -13, 0)) == 8
    monkeypatch.setattr(numberfield, "_EMBEDDING_TOL", 1e-18)
    with pytest.raises(EmbeddingMismatch):
        trace_via_embeddings(order, (7, -13, 0))


def test_embeddings_guard_trips_on_non_finite_sum():
    order = build_order(TRIB)
    order._roots = (complex("nan"),) + order._roots[1:]
    with pytest.raises(EmbeddingMismatch) as info:
        trace_via_embeddings(order, (1, 0, 0))
    assert isinstance(info.value, FibernormError)


def test_embeddings_refuse_sums_too_large_to_check():
    # Above 2^52 every float is an integer, so the tol test would pass any
    # sum: the float says 2^60 where the exact trace is 2^60 + 1.
    order = build_order(IntMatrix([[0, 1], [1, 2**60 + 1]]))
    assert trace_via_newton(order, (0, 1)) == 2**60 + 1
    with pytest.raises(EmbeddingMismatch):
        trace_via_embeddings(order, (0, 1))
