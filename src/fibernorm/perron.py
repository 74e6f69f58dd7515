"""Perron-Frobenius data for primitive nonnegative integer matrices.

Primitivity is decided exactly on the positivity pattern (Wielandt's
bound caps the power to test).  The dominant eigendata is numeric (the
roots give the Perron root and gap, power iteration the eigenvectors),
but sign questions about lattice vectors are settled by exact integer
iteration: the floating eigenvector is never the authority.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoConvergence, NotNonnegative, NotPrimitive
from .exact import char_poly, int_vector
from .roots import complex_roots

# Exact-iteration budget for sign decisions; vectors undecided after this
# many applications of the matrix are reported as such, never guessed.
ITERATION_BOUND = 64

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


class Sign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class PositivitySign:
    """Decided sign of a lattice vector under eventual positivity.

    Positive carries the smallest witness m with A^m v entrywise >= 1;
    Undecided carries the iteration bound that was exhausted.
    """

    sign: Sign
    witness: int | None = None
    bound: int | None = None


@dataclass(frozen=True)
class PerronData:
    """Dominant eigendata of a primitive matrix.

    eigenvalue: the Perron root, the largest root modulus.
    right/left: entrywise positive eigenvectors, L1 normalized.
    gap: |second largest root| / eigenvalue, always < 1.
    witness: smallest m with A^m entrywise positive.
    """

    eigenvalue: float
    right: tuple[float, ...]
    left: tuple[float, ...]
    gap: float
    witness: int


def primitivity_check(A):
    """Smallest m with A^m entrywise positive, or raise NotPrimitive.

    Works on the positivity pattern, one int bitmask per row, so entries
    never grow: row i of the next power is the union of the masks of the
    rows that row i of the current power reaches.  The Wielandt bound
    (k-1)^2 + 1 makes the loop a complete decision procedure.
    """
    k = A.k
    if any(x < 0 for row in A.rows for x in row):
        raise NotNonnegative("matrix has a negative entry")
    masks = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in A.rows]
    full = (1 << k) - 1
    bound = (k - 1) ** 2 + 1
    current = masks
    for m in range(1, bound + 1):
        if all(row == full for row in current):
            return m
        current = [_reach(row, masks) for row in current]
    raise NotPrimitive(f"no positive power within the Wielandt bound {bound}")


def _reach(row, masks):
    """Union of the masks whose index is a set bit of row."""
    out = 0
    for t, mask in enumerate(masks):
        if row >> t & 1:
            out |= mask
    return out


def _power_iterate(A, tol, max_iter):
    try:
        # Nonzero entries only: skipping zero terms leaves every sum unchanged.
        rows = [[(j, float(a)) for j, a in enumerate(row) if a] for row in A.rows]
    except OverflowError:
        raise NoConvergence("matrix entries do not fit in a float") from None
    v = [1.0 / A.k] * A.k
    for _ in range(max_iter):
        w = [sum(a * v[j] for j, a in row) for row in rows]
        total = sum(w)
        w = [x / total for x in w]
        if sum(abs(x - y) for x, y in zip(w, v)) < tol:
            return tuple(w)
        v = w
    raise NoConvergence(f"power iteration did not settle within {max_iter} iterations")


def perron_data(A, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Dominant eigenvalue, spectral gap and positive eigenvectors.

    The Perron root is the largest modulus among the numeric roots of the
    characteristic polynomial, and the gap is the second largest over it;
    roots that are not finite raise NoConvergence.  Power iteration on A
    and on its transpose gives only the eigenvectors, each stopped once
    successive L1-normalized iterates differ by less than tol in L1 norm,
    which must be finite and positive.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    (max_iter,) = int_vector((max_iter,), what="iteration limit")
    witness = primitivity_check(A)
    moduli = sorted((abs(r) for r in complex_roots(char_poly(A))), reverse=True)
    if not all(math.isfinite(m) for m in moduli):
        raise NoConvergence("characteristic polynomial roots are not finite")
    right = _power_iterate(A, tol, max_iter)
    left = _power_iterate(A.transpose(), tol, max_iter)
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
        if all(x == 0 for x in u):
            return PositivitySign(Sign.ZERO)
        if all(x >= 1 for x in u):
            return PositivitySign(Sign.POSITIVE, witness=step)
        if all(x <= -1 for x in u):
            return PositivitySign(Sign.NEGATIVE)
        u = A.apply(u)
    return PositivitySign(Sign.UNDECIDED, bound=ITERATION_BOUND)
