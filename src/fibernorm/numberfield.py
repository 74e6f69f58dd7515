"""The number field generated by the dominant eigenvalue, on its power basis.

The lattice carrying everything is Z[lambda] with basis 1, lambda, ...,
lambda^{k-1}; elements are plain integer coordinate vectors in that
basis.  Because the minimal polynomial is monic, reducing products of
basis powers keeps all coordinates integral, and the trace of an element
can be computed three independent ways:

  * trace of its multiplication matrix (exact),
  * the linear functional built from Newton power sums (exact),
  * summing the element over all complex embeddings (numeric check).
"""

import cmath
import math
from collections import namedtuple
from operator import mul

from .errors import (
    DegenerateMonodromy,
    EmbeddingMismatch,
    IrreducibilityUnverified,
    NotAField,
)
from .exact import (
    CertificateStatus,
    IntMatrix,
    # not used here: bench/test_smoke.py::test_tracing_restores_every_binding
    # asserts numberfield.char_poly is exact.char_poly, and
    # tests/test_numberfield.py::test_build_order_computes_the_char_poly_once
    # monkeypatches it
    char_poly,  # noqa: F401
    int_vector,
    irreducibility_certificate,
    matrix_min_poly,
    newton_power_sums,
)
from .roots import complex_roots

# How far trace_via_embeddings' float sum may lie from an integer.
_EMBEDDING_TOL = 1e-8


class TraceFunctional(namedtuple("TraceFunctional", "t")):
    """Integer vector t with t[j] = trace(lambda^j); the norm is z . t."""

    __slots__ = ()


class NumberFieldOrder:
    """A degree-k field presented on the power-basis lattice Z[lambda].

    Construction requires a monic minimal polynomial of degree >= 2 whose
    irreducibility certificate is a definite yes; build_order produces
    one from a matrix and refuses anything degenerate.
    """

    __slots__ = ("min_poly", "degree", "certificate", "_traces", "_roots")

    def __init__(self, min_poly, certificate):
        if not min_poly.is_monic or min_poly.degree < 2:
            raise ValueError("order needs a monic minimal polynomial of degree >= 2")
        if certificate.status is not CertificateStatus.IRREDUCIBLE:
            raise ValueError("order needs an Irreducible certificate")
        self.min_poly = min_poly
        self.degree = min_poly.degree
        self.certificate = certificate
        self._traces = tuple(newton_power_sums(min_poly, self.degree - 1))
        self._roots = tuple(complex_roots(min_poly))

    def _times_generator(self, coords):
        # Multiply by lambda: shift, then fold lambda^k = -(lower terms).
        top = coords[-1]
        shifted = (0,) + coords[:-1]
        if not top:
            return shifted
        return tuple(s - top * self.min_poly.coeffs[i] for i, s in enumerate(shifted))

    def element(self, coords):
        return int_vector(coords, self.degree, "element")

    def __repr__(self):
        return f"NumberFieldOrder(min_poly={list(self.min_poly.coeffs)!r})"


def build_order(A):
    """The field of the matrix: order with the characteristic polynomial.

    Requires the characteristic polynomial to be the minimal polynomial
    and certifiably irreducible, so that the field really has degree k.
    The minimal polynomial is monic and divides the characteristic
    polynomial, so the two are equal exactly when it has degree k; it
    comes from matrix_min_poly, which computes the characteristic
    polynomial once and returns it when it is squarefree mod a small
    prime.  Then an order costs one char_poly and one certificate.
    DegenerateMonodromy is raised before the certificate reads a prime.
    """
    min_poly = matrix_min_poly(A)
    if min_poly.degree != A.k or A.k < 2:
        raise DegenerateMonodromy(
            "characteristic and minimal polynomial differ (or degree < 2)"
        )
    certificate = irreducibility_certificate(min_poly)
    if certificate.status is CertificateStatus.REDUCIBLE:
        raise NotAField(f"characteristic polynomial splits: degrees {certificate.factor_degrees}")
    if certificate.status is CertificateStatus.UNDECIDED:
        raise IrreducibilityUnverified(
            f"irreducibility undecided within the first {len(certificate.patterns)} primes"
        )
    return NumberFieldOrder(min_poly, certificate)


def mult_matrix(order, a):
    """Matrix of multiplication by a in the power basis; exact integers.

    Row i holds the coordinates of a * lambda^i: row 0 is a itself, and
    each row is the one before times the generator.
    """
    rows = [order.element(a)]
    for _ in range(order.degree - 1):
        rows.append(order._times_generator(rows[-1]))
    return IntMatrix(rows)


def trace_via_mult(order, a):
    """Trace as the trace of the multiplication matrix."""
    return mult_matrix(order, a).trace()


def trace_via_newton(order, a):
    """Trace as the linear functional of Newton power sums."""
    coords = order.element(a)
    return sum(c * t for c, t in zip(coords, order._traces))


def trace_via_embeddings(order, a):
    """Trace by summing the element over all complex embeddings.

    Purely a numeric cross-check: the sum must be finite and land within
    _EMBEDDING_TOL of an integer, or EmbeddingMismatch is raised to flag
    a root-finding or logic bug.  So does a sum whose float spacing
    exceeds _EMBEDDING_TOL, since at that size every float passes the
    integer test.
    """
    coords = order.element(a)
    total = 0j
    for root in order._roots:  # the generator under each complex embedding
        value = 0j
        for c in reversed(coords):
            value = value * root + c
        total += value
    if not cmath.isfinite(total) or math.ulp(total.real) > _EMBEDDING_TOL:
        raise EmbeddingMismatch(f"embedding sum {total} cannot be checked within {_EMBEDDING_TOL}")
    nearest = round(total.real)
    if abs(total.imag) > _EMBEDDING_TOL or abs(total.real - nearest) > _EMBEDDING_TOL:
        raise EmbeddingMismatch(f"embedding sum {total} is not integral within {_EMBEDDING_TOL}")
    return nearest


def trace_functional(order):
    """The trace vector (trace(1), trace(lambda), ..., trace(lambda^{k-1}))."""
    return TraceFunctional(order._traces)


def norm_value(functional, z):
    """Value of the trace norm on an integer vector: the exact dot product."""
    return sum(map(mul, int_vector(z, len(functional.t), "class"), functional.t))
