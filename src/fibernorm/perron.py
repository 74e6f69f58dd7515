"""Perron-Frobenius data for primitive nonnegative integer matrices.

Primitivity is decided exactly on the positivity pattern, packed into
one int with row i in bits i*k .. i*k + k - 1: each Boolean power costs
k bigint operations on k^2-bit ints, and Wielandt's bound caps the
powers at (k-1)^2 + 1.  The dominant eigendata is numeric (the
roots give the Perron root and gap, inverse iteration with one
pivot-free factorization of lambda I - A the eigenvectors), but sign
questions about lattice vectors are settled by exact integer iteration:
the floating eigenvector is never the authority.
"""

import math
from collections import namedtuple
from enum import Enum
from itertools import compress
from operator import mul, sub

from .errors import NoConvergence, NotNonnegative, NotPrimitive
from .exact import char_poly, int_vector
from .roots import complex_roots

# Exact-iteration budget for sign decisions; vectors undecided after this
# many applications of the matrix are reported as such, never guessed.
ITERATION_BOUND = 64

_TOL = 1e-12
_MAX_ITER = 100_000


class Sign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    UNDECIDED = "Undecided"


class PositivitySign(namedtuple("PositivitySign", "sign witness bound", defaults=(None, None))):
    """Decided sign of a lattice vector under eventual positivity.

    Positive carries the smallest witness m with A^m v entrywise >= 1;
    Undecided carries the iteration bound that was exhausted.
    """

    __slots__ = ()


class PerronData(namedtuple("PerronData", "eigenvalue right left gap witness")):
    """Dominant eigendata of a primitive matrix.

    eigenvalue: the Perron root, the largest root modulus.
    right/left: entrywise positive eigenvectors, L1 normalized.
    gap: |second largest root| / eigenvalue, always < 1.
    witness: smallest m with A^m entrywise positive.
    """

    __slots__ = ()


def primitivity_check(A):
    """Smallest m with A^m entrywise positive, or raise NotPrimitive.

    Works on the positivity pattern, so entries never grow.  The whole
    k x k pattern is one int, row i in bits i*k .. i*k + k - 1; the mask
    of a row is the sum of the column bits 1 << j that ``compress``
    picks by its nonzero entries, which the sign check has made the
    positive ones.  Row i of the next power is the union of the rows of
    A that row i of the current power reaches, so for each column t the
    rows with bit t set, picked out by one shift and mask as a 1 at the
    low bit of each row, times row t of A put row t into all of them at
    once (rows are k bits apart, so nothing carries).  A power costs k
    bigint operations on k^2-bit ints; "all positive" is one comparison
    with the full pattern.  The Wielandt bound (k-1)^2 + 1 caps the
    powers and makes the loop a complete decision procedure.
    """
    k = A.k
    if min(map(min, A.rows)) < 0:
        raise NotNonnegative("matrix has a negative entry")
    bits = [1 << j for j in range(k)]
    masks = [sum(compress(bits, row)) for row in A.rows]  # nonzero is positive here
    full = (1 << k * k) - 1
    ones = full // ((1 << k) - 1)  # the low bit of every row
    bound = (k - 1) ** 2 + 1
    current = sum(mask << i * k for i, mask in enumerate(masks))
    for m in range(1, bound + 1):
        if current == full:
            return m
        reached = 0
        for t, mask in enumerate(masks):
            reached |= (current >> t & ones) * mask
        current = reached
    raise NotPrimitive(f"no positive power within the Wielandt bound {bound}")


def _lu(A, mu):
    """LU of mu I - A in floats, without pivoting, packed in its rows.

    Row i holds the multipliers of L left of the diagonal and U from it
    on.  At the Perron root of a primitive A, mu I - A is a singular
    irreducible M-matrix, which Gaussian elimination factors stably with
    no row exchange, every pivot but the last positive (Funderlic and
    Plemmons 1981; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 9.6).  A pivot below the rounding level
    of mu is raised to that level, keeping its sign, so the factors of
    the (numerically) singular matrix still solve.
    """
    try:
        rows = [[-float(a) for a in row] for row in A.rows]
    except OverflowError:
        raise NoConvergence("matrix entries do not fit in a float") from None
    for i, row in enumerate(rows):
        row[i] += mu
    floor = math.ulp(mu)
    for c, top in enumerate(rows):
        if abs(top[c]) < floor:
            top[c] = math.copysign(floor, top[c])
        pivot, tail = top[c], top[c + 1 :]
        for row in rows[c + 1 :]:
            if row[c]:
                f = row[c] = row[c] / pivot
                row[c + 1 :] = [a - f * b for a, b in zip(row[c + 1 :], tail)]
    return rows


def _transposed(rows):
    """The packed factors of the transpose, from those of _lu.

    With U = D V, D its diagonal and V unit upper triangular, the
    transpose of L D V is V^T times D L^T: a unit lower and an upper
    factor, packed as _lu packs its own.
    """
    d = [row[i] for i, row in enumerate(rows)]
    return [
        [u / p for u, p in zip(col[:i], d)] + [d[i]] + [d[i] * m for m in col[i + 1 :]]
        for i, col in enumerate(zip(*rows))
    ]


def _solve(rows, v):
    """x with L U x = v, from packed factors: L, then U."""
    x = list(v)
    for i, row in enumerate(rows):
        x[i] -= sum(map(mul, x[:i], row))
    for i in reversed(range(len(rows))):
        row = rows[i]
        x[i] = (x[i] - sum(map(mul, x[i + 1 :], row[i + 1 :]))) / row[i]
    return x


def _inverse_iterate(rows):
    """L1-normalized fixed point of v -> _solve(rows, v), started at 1/k.

    Stops once successive iterates differ by less than _TOL in L1 norm,
    after at most _MAX_ITER solves.  At a shift this close to the
    eigenvalue that takes two or three solves, after which the change
    sits at the rounding floor; so a change that stops shrinking while
    still at or above _TOL raises NoConvergence at once, as does an
    iterate that is not finite.
    """
    k = len(rows)
    v = [1.0 / k] * k
    last = math.inf
    for _ in range(_MAX_ITER):
        x = _solve(rows, v)
        total = sum(x)
        if not (math.isfinite(total) and total):
            raise NoConvergence("inverse iteration produced a vector that is not finite")
        w = [t / total for t in x]
        change = sum(map(abs, map(sub, w, v)))
        if change < _TOL:
            return tuple(w)
        if not change < last:
            raise NoConvergence(f"inverse iteration stalled at L1 change {change:.3g} >= {_TOL}")
        last, v = change, w
    raise NoConvergence(f"inverse iteration did not settle within {_MAX_ITER} solves")


def perron_data(A):
    """Dominant eigenvalue, spectral gap and positive eigenvectors.

    The Perron root is the largest modulus among the numeric roots of the
    characteristic polynomial, and the gap is the second largest over it;
    roots that are not finite raise NoConvergence.  Inverse iteration at
    the Perron root gives only the eigenvectors: lambda I - A is factored
    once without pivoting (_lu), and the same numbers, rescaled, factor
    its transpose, so the right and the left vector come from one solver.
    Each vector stops once successive L1-normalized iterates differ by
    less than 1e-12 in L1 norm, which takes two or three solves; a change
    that stops shrinking above that, an iterate that is not finite, or
    100,000 solves raise NoConvergence.
    """
    witness = primitivity_check(A)
    moduli = sorted((abs(r) for r in complex_roots(char_poly(A))), reverse=True)
    if not all(math.isfinite(m) for m in moduli):
        raise NoConvergence("characteristic polynomial roots are not finite")
    rows = _lu(A, moduli[0])
    right = _inverse_iterate(rows)
    left = _inverse_iterate(_transposed(rows))
    gap = moduli[1] / moduli[0] if len(moduli) > 1 else 0.0
    return PerronData(eigenvalue=moduli[0], right=right, left=left, gap=gap, witness=witness)


def eventual_positivity(A, v):
    """Sign of an integer vector in the eventual-positivity order.

    Applies A exactly up to the iteration bound.  Once an iterate is
    entrywise >= 1 it stays so (primitive matrices have no zero row), so
    the first decided step is the smallest witness; the all <= -1 and
    all-zero cases are likewise stable.  Vectors still mixed-sign at the
    bound are Undecided.
    """
    primitivity_check(A)
    u = int_vector(v, A.k)
    for step in range(ITERATION_BOUND + 1):
        if not any(u):
            return PositivitySign(Sign.ZERO)
        if min(u) >= 1:
            return PositivitySign(Sign.POSITIVE, witness=step)
        if max(u) <= -1:
            return PositivitySign(Sign.NEGATIVE)
        u = A.apply(u)
    return PositivitySign(Sign.UNDECIDED, bound=ITERATION_BOUND)
