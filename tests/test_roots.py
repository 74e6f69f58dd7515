"""The numeric root finder: Aberth-Ehrlich iteration from Newton-polygon starts."""

import cmath
import math
import random

import pytest

from fibernorm import roots
from fibernorm.errors import NoConvergence
from fibernorm.exact import CertificateStatus, IntMatrix, IntPolynomial, char_poly, irreducibility_certificate
from fibernorm.perron import perron_data
from fibernorm.roots import complex_roots


def _companion_poly(k, bits):
    """x^k - sum c_i x^i with k random bits-bit c_i, top bit set."""
    rng = random.Random(f"{k}-{bits}")
    c = [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(k)]
    return c, IntPolynomial([-x for x in c] + [1])


def _companion(c):
    """Companion matrix of x^k - sum_i c[i] x^i."""
    k = len(c)
    return IntMatrix([[int(j == i - 1) for j in range(k - 1)] + [c[i]] for i in range(k)])


def _finite(values):
    return all(cmath.isfinite(z) for z in values)


def test_collinear_newton_polygon_vertices_give_the_roots_and_a_factor():
    # x^4 + 3x^3 - 6x^2 + 27x - 5: the hull vertices (1, log 27), (3, log 3)
    # and (4, 0) are collinear, and must be merged into one edge so that no
    # two start points coincide.
    p = IntPolynomial([-1, 5, 1]) * IntPolynomial([5, -2, 1])
    found = complex_roots(p)
    assert len(found) == 4
    for exact in ((-5 - math.sqrt(29)) / 2, (-5 + math.sqrt(29)) / 2, 1 - 2j, 1 + 2j):
        assert min(abs(ours - exact) for ours in found) < 1e-12
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor == IntPolynomial([-1, 5, 1])


def test_zero_roots_are_exact():
    assert complex_roots(IntPolynomial([0, 0, 0, 0, 0, 1])) == [0j] * 5
    zero, zero_again, one = complex_roots(IntPolynomial([0, 0, -1, 1]))
    assert zero == zero_again == 0j
    assert abs(one - 1) < 1e-13


def _power(f, e):
    p = IntPolynomial([1])
    for _ in range(e):
        p = p * f
    return p


@pytest.mark.parametrize(
    "factors, tol",
    [
        ([(1, 3), (2, 1), (-3, 1)], 1e-4),
        ([(1, 5)], 1e-2),
        ([(2, 4), (-1, 1)], 1e-2),
    ],
)
def test_repeated_roots_stop_well_before_the_sweep_cap(monkeypatch, factors, tol):
    # An m-fold root is found only to about eps^(1/m), where |p| meets the
    # rounding error of Horner's rule and the Newton correction no longer
    # shrinks; the rounding-floor test freezes the iterates there.
    p = IntPolynomial([1])
    for root, mult in factors:
        p = p * _power(IntPolynomial([-root, 1]), mult)
    found = complex_roots(p)
    exact = [root for root, mult in factors for _ in range(mult)]
    assert len(found) == len(exact)
    for ours in found:
        assert min(abs(ours - x) for x in exact) < tol
    monkeypatch.setattr(roots, "_MAX_SWEEPS", 30)
    assert complex_roots(p) == found


def test_a_cubed_characteristic_polynomial_stops_well_before_the_sweep_cap(monkeypatch):
    rng = random.Random(8)
    B = IntMatrix([[rng.randint(0, 2) for _ in range(8)] for _ in range(8)])
    p = _power(char_poly(B), 3)
    found = complex_roots(p)
    assert len(found) == 24 and _finite(found)
    monkeypatch.setattr(roots, "_MAX_SWEEPS", 60)
    assert complex_roots(p) == found


@pytest.mark.parametrize("k", [10, 16])
def test_complete_graph_gap_is_found_to_the_rounding_floor(k):
    # J - I has the simple eigenvalue k - 1 and -1 of multiplicity k - 1,
    # so the gap is 1 / (k - 1).  The -1 cluster can only be resolved to
    # the radius rho where |p| = |z - k + 1| |z + 1|^(k-1) meets Horner's
    # rounding error 2^-53 * 2^(k-1) * k near z = -1, rho = 2^(1 - 53/(k-1)):
    # 0.034 at k = 10, 0.173 at k = 16.
    A = IntMatrix([[int(i != j) for j in range(k)] for i in range(k)])
    data = perron_data(A)
    assert abs(data.eigenvalue - (k - 1)) < 1e-9
    assert 1.0 <= data.gap * (k - 1) <= 1.0 + 2.0 ** (1 - 53 / (k - 1))


def test_a_120_bit_companion_settles_in_a_few_sweeps(monkeypatch):
    # The Newton polygon puts one start point at |c_7|, about the size of
    # the Perron root, and seven near 1.
    _, p = _companion_poly(8, 120)
    found = complex_roots(p)
    assert _finite(found)
    monkeypatch.setattr(roots, "_MAX_SWEEPS", 10)
    assert complex_roots(p) == found


@pytest.mark.parametrize("k, bits", [(4, 40), (5, 60), (6, 80), (7, 100), (8, 120)])
def test_big_companion_moduli_match_sympy_nroots(k, bits):
    sympy = pytest.importorskip("sympy")
    _, p = _companion_poly(k, bits)
    ours = sorted(abs(z) for z in complex_roots(p))
    x = sympy.Symbol("x")
    theirs = sorted(abs(complex(r)) for r in sympy.Poly(list(reversed(p.coeffs)), x).nroots(n=15, maxsteps=200))
    assert len(ours) == len(theirs) == k
    for a, b in zip(ours, theirs):
        assert abs(a - b) <= 1e-9 * theirs[-1]
        # every modulus to relative accuracy, which the gap needs: the
        # second largest is about 2^-bits times the largest
        assert abs(a - b) <= 1e-9 * b


@pytest.mark.parametrize("k, bits", [(10, 160), (12, 200)])
def test_roots_past_the_float_range_stay_not_finite(k, bits):
    # The largest root is about 2^bits, and its k-th power overflows in
    # Horner's rule: the iteration returns at the first iterate that is
    # not finite, and perron_data refuses it.
    c, p = _companion_poly(k, bits)
    assert not _finite(complex_roots(p))
    with pytest.raises(NoConvergence):
        perron_data(_companion(c))


def test_an_overflowing_horner_value_is_not_frozen():
    # x^2 - 2^600 x: the start point near 2^600 squares past the float
    # range.  |p| is then infinite, and so is tol (1 + |z|) |p'|: a freeze
    # test on |p| <= tol (1 + |z|) |p'| alone would return that start point
    # as a root.
    assert not _finite(complex_roots(IntPolynomial([0, -(2**600), 1])))


def test_a_start_value_past_the_float_range_does_not_raise():
    # x^2 - a x with a = 97 * 10^152, the characteristic polynomial of
    # [[1, 1], [a - 1, a - 1]]: at the start point of modulus a, p has
    # finite parts but a modulus past the float range, so abs() of it
    # would raise OverflowError.  The finder either finds a or returns a
    # root that is not finite, and perron_data either finds a or raises
    # NoConvergence.
    a = 97 * 10**152
    found = complex_roots(IntPolynomial([0, -a, 1]))
    assert 0j in found
    if _finite(found):
        assert abs(max(found, key=abs) - a) <= 1e-12 * a
    try:
        data = perron_data(IntMatrix([[1, 1], [a - 1, a - 1]]))
    except NoConvergence:
        return
    assert abs(data.eigenvalue - a) <= 1e-12 * a
