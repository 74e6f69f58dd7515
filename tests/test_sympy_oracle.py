"""Differential checks of the exact layers and the root finder against sympy.

sympy and hypothesis are test-only dependencies; the module is skipped
when either is missing.  The minimal-polynomial oracle is built from
sympy's factorization of the characteristic polynomial: each irreducible
factor's exponent is lowered while the product still annihilates the
matrix, which shares no code path with the elimination under test.
"""

import math
import random

import pytest

from fibernorm import exact
from fibernorm.exact import (
    CertificateStatus,
    IntMatrix,
    IntPolynomial,
    char_poly,
    factor_mod_p,
    irreducibility_certificate,
    matrix_min_poly,
)
from fibernorm.roots import complex_roots

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

X = sympy.Symbol("x")
FEW = hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _square(k, low=-3, high=3):
    row = st.lists(st.integers(low, high), min_size=k, max_size=k)
    return st.lists(row, min_size=k, max_size=k)


def _block_repeat(block, copies):
    k = len(block)
    n = k * copies
    return [
        [block[i % k][j % k] if i // k == j // k else 0 for j in range(n)] for i in range(n)
    ]


def _relabelled_nilpotent(data):
    n, entries, perm = data
    upper = [[entries[i * n + j] if j > i else 0 for j in range(n)] for i in range(n)]
    return [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


square_matrices = st.integers(1, 6).flatmap(_square)
block_repeats = st.builds(
    _block_repeat, st.integers(1, 3).flatmap(lambda k: _square(k, -2, 2)), st.integers(2, 3)
).filter(lambda rows: len(rows) <= 6)
nilpotents = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n),
        st.permutations(range(n)),
    )
).map(_relabelled_nilpotent)


def _coeffs(poly):
    """Ascending integer coefficients of a sympy polynomial in X."""
    return [int(c) for c in reversed(sympy.Poly(poly, X).all_coeffs())]


def _annihilates(poly, m):
    result = sympy.zeros(*m.shape)
    for c in reversed(_coeffs(poly)):
        result = result * m + c * sympy.eye(m.shape[0])
    return result.is_zero_matrix


def _sympy_min_poly(m):
    _, factors = sympy.factor_list(m.charpoly(X).as_expr(), X)
    exponents = [e for _, e in factors]

    def product(exps):
        return sympy.Mul(*(f**e for (f, _), e in zip(factors, exps)))

    for i in range(len(factors)):
        while exponents[i] > 1:
            lower = exponents[:i] + [exponents[i] - 1] + exponents[i + 1:]
            if not _annihilates(product(lower), m):
                break
            exponents = lower
    return _coeffs(product(exponents))


@FEW
@hypothesis.given(st.one_of(square_matrices, block_repeats, nilpotents))
# squarefree over Q but not mod any prime the shortcut tries: the elimination path
@hypothesis.example([[0, 0], [0, math.prod(exact._CERTIFICATE_PRIMES)]])
def test_char_and_min_poly_match_sympy(rows):
    matrix, m = IntMatrix(rows), sympy.Matrix(rows)
    assert list(char_poly(matrix).coeffs) == _coeffs(m.charpoly(X).as_expr())
    assert list(matrix_min_poly(matrix).coeffs) == _sympy_min_poly(m)


WIDE = 2**100


def _companion(coeffs):
    k = len(coeffs)
    return [[int(j == i - 1) for j in range(k - 1)] + [c] for i, c in enumerate(coeffs)]


wide_matrices = st.integers(1, 12).flatmap(lambda k: _square(k, -WIDE, WIDE))
wide_companions = st.lists(st.integers(-WIDE, WIDE), min_size=1, max_size=12).map(_companion)
strictly_triangular = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-WIDE, WIDE), min_size=n * n, max_size=n * n),
        st.sampled_from((range(n), range(n - 1, -1, -1))),  # upper or lower
    )
).map(_relabelled_nilpotent)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(wide_matrices, wide_companions, strictly_triangular))
@hypothesis.example([[pow(3, 12 * i + j, WIDE) - WIDE // 2 for j in range(12)] for i in range(12)])
# past exact._BERKOWITZ_MAX_K: the Krylov solve on a dense, a sparse and a
# wide input, then a derogatory one that falls back to Berkowitz
@hypothesis.example([[pow(3, 13 * i + j, 1009) % 5 - 2 for j in range(13)] for i in range(13)])
@hypothesis.example([[int(j == (i - 1) % 14 or i == j == 0) for j in range(14)] for i in range(14)])
@hypothesis.example(_companion([pow(7, 60 + i, WIDE) - WIDE // 2 for i in range(15)]))
@hypothesis.example([[2 * (i == j) for j in range(16)] for i in range(16)])
# past exact._LANE_MIN_K: the lane solve with two primes and the CRT
@hypothesis.example([[pow(7, 16 * i + j, 10007) % 3 for j in range(16)] for i in range(16)])
def test_char_poly_matches_bareiss_determinants(rows):
    """det(nI - A) by sympy's fraction-free elimination, at the k + 1 points
    n = 0..k that fix a monic polynomial of degree k.  (sympy's charpoly is
    itself Berkowitz's recursion, so it is no independent check.)"""
    k = len(rows)
    p = char_poly(IntMatrix(rows))
    assert p.is_monic and p.degree == k
    m = sympy.Matrix(rows)
    for n in range(k + 1):
        assert p(n) == (n * sympy.eye(k) - m).det(method="bareiss"), (rows, n)


def test_is_prime_matches_sympy_near_ten_to_the_7():
    window = range(10**7 - 2000, 10**7 + 2000)
    assert [n for n in window if exact.is_prime(n)] == [n for n in window if sympy.isprime(n)]


def test_the_krylov_modulus_is_the_least_power_of_the_mersenne_prime_above_twice_the_bound(
    monkeypatch,
):
    M = exact._MERSENNE
    assert sympy.isprime(M)
    moduli = set()  # of the inverses the solve takes
    monkeypatch.setattr(exact, "pow", lambda b, e, m: moduli.add(m) or pow(b, e, m), raising=False)
    rng = random.Random(61)
    for k, bits in ((12, 1), (12, 100), (20, 200), (30, 400)):
        matrix = IntMatrix(_companion([rng.randint(-2**bits, 2**bits) for _ in range(k)]))
        moduli.clear()
        bound = exact._coefficient_bound(matrix)
        assert exact._char_poly_mersenne(matrix, bound) is not None
        e, _ = sympy.integer_log(2 * bound, M)  # M^e <= 2B < M^(e+1)
        assert moduli == {M ** (e + 1)}


def test_lane_primes_are_the_32_largest_primes_below_two_to_the_27():
    primes = [2**27]
    while len(primes) <= 32:
        primes.append(sympy.prevprime(primes[-1]))
    assert exact._LANE_PRIMES == tuple(primes[1:])


def _monic(coeffs):
    return IntPolynomial([*coeffs, 1])


small_monics = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d)
).map(_monic)
products = st.builds(
    lambda f, g: f * g,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(_monic),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(_monic),
)
matrix_char_polys = square_matrices.map(lambda rows: char_poly(IntMatrix(rows)))


@FEW
@hypothesis.given(st.one_of(small_monics, products, matrix_char_polys))
def test_decided_certificates_agree_with_sympy(p):
    cert = irreducibility_certificate(p)
    irreducible = sympy.Poly(list(reversed(p.coeffs)), X).is_irreducible
    if cert.status is CertificateStatus.IRREDUCIBLE:
        assert irreducible
    elif cert.status is CertificateStatus.REDUCIBLE:
        assert not irreducible


def test_certificates_closed_by_the_root_test_are_irreducible():
    # Irreducible though the patterns leave degrees open: the root test
    # closed 1 and k - 1 before the first prime, and nothing else may be left
    rng = random.Random(2261)
    closed = 0
    for _ in range(600):
        p = _monic([rng.randint(-20, 20) for _ in range(rng.randint(2, 10))])
        cert = irreducibility_certificate(p)
        open_degrees = set(range(1, p.degree))
        for _, degrees in cert.patterns:
            open_degrees &= exact._proper_subset_sums(degrees, p.degree)
        if cert.status is CertificateStatus.IRREDUCIBLE and open_degrees:
            closed += 1
            assert open_degrees <= {1, p.degree - 1} and cert.witness_prime is None
            assert exact._least_integer_root(p) is None
            assert sympy.Poly(list(reversed(p.coeffs)), X).is_irreducible, p
    assert closed > 50


with_linear_factors = st.builds(
    lambda f, roots: f * math.prod((IntPolynomial([-r, 1]) for r in roots), start=IntPolynomial([1])),
    st.lists(st.integers(-20, 20), max_size=4).map(_monic),
    st.lists(st.integers(-(2**70), 2**70) | st.integers(-50, 50), max_size=3),
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_monics, with_linear_factors))
@hypothesis.example(IntPolynomial([-(2**1100), 1]) * IntPolynomial([1, 1]))
@hypothesis.example(IntPolynomial([0, 3, 1]) * IntPolynomial([-2, 1]))
def test_least_integer_root_matches_sympy_ground_roots(p):
    found = exact._least_integer_root(p)
    if exact._squarefree_prime(p) is None:
        assert found is None  # nothing is claimed without a squarefree prime
    else:
        roots = sympy.Poly(list(reversed(p.coeffs)), X).ground_roots()
        assert found == min(map(int, roots), default=None)


monic_factors = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(_monic)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(monic_factors, monic_factors)
def test_products_of_two_factors_are_reducible_with_a_dividing_factor(f, g):
    p = f * g
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.REDUCIBLE
    assert 0 < cert.factor.degree < p.degree
    assert p.div_rem(cert.factor)[1].is_zero
    assert not sympy.Poly(list(reversed(p.coeffs)), X).is_irreducible


squarefree_polys = st.integers(1, 8).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(-6, 6), min_size=d, max_size=d),
        st.integers(-3, 3).filter(bool),
    )
).map(lambda cl: IntPolynomial([*cl[0], cl[1]])).filter(
    lambda p: sympy.Poly(list(reversed(p.coeffs)), X).is_sqf
)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(squarefree_polys)
def test_complex_roots_match_sympy_nroots(p):
    ours = list(complex_roots(p))
    theirs = sympy.Poly(list(reversed(p.coeffs)), X).nroots(n=15, maxsteps=200)
    assert len(ours) == len(theirs) == p.degree
    for root in map(complex, theirs):
        nearest = min(ours, key=lambda z: abs(z - root))
        assert abs(nearest - root) <= 1e-9 * max(1.0, abs(root)), (p, root, nearest)
        ours.remove(nearest)


def _power_product(q, pairs, qth):
    """q and the product of f^e over the pairs, times g^q for each listed g."""
    p = IntPolynomial([1])
    for f, e in pairs:
        for _ in range(e):
            p = p * f
    for g in qth:
        for _ in range(q):
            p = p * g
    return q, p


small_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(_monic)
repeated_factor_products = st.builds(
    _power_product,
    st.sampled_from((2, 3, 5, 7, 11)),
    st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.lists(small_factors, max_size=1),
).filter(lambda qp: qp[1].degree > 4)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(repeated_factor_products)
def test_mod_q_degrees_with_multiplicity_match_sympy(qp):
    q, p = qp
    _, factors = sympy.Poly(list(reversed(p.coeffs)), X, modulus=q).factor_list()
    expected = sorted(f.degree() for f, e in factors for _ in range(e))
    assert list(factor_mod_p(p, q)) == expected
