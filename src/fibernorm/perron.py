"""Perron-Frobenius data for primitive nonnegative integer matrices.

Primitivity is decided exactly on the positivity pattern (Wielandt's
bound caps the power to test).  The dominant eigendata is numeric, but
sign questions about lattice vectors are settled by exact integer
iteration: the floating eigenvector is never the authority.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionMismatch, NoConvergence, NotNonnegative, NotPrimitive
from .exact import char_poly
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

    eigenvalue: the Perron root, strictly dominant in modulus.
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
    k = A.k
    try:
        rows = [[float(a) for a in row] for row in A.rows]
    except OverflowError:
        raise NoConvergence("matrix entries do not fit in a float") from None
    v = [1.0 / k] * k
    rq_prev = None
    for _ in range(max_iter):
        w = [sum(a * x for a, x in zip(row, v)) for row in rows]
        rq = sum(x * y for x, y in zip(v, w)) / sum(x * x for x in v)
        total = sum(w)
        w = [x / total for x in w]
        if rq_prev is not None and abs(rq - rq_prev) < tol:
            return tuple(w), rq
        rq_prev = rq
        v = w
    raise NoConvergence(f"power iteration did not settle within {max_iter} iterations")


def perron_data(A, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Dominant eigenvalue and positive eigenvectors by power iteration.

    Iterates on A and on its transpose until successive Rayleigh
    quotients differ by less than tol.  The spectral gap is estimated
    from the full numeric root set of the characteristic polynomial.
    """
    witness = primitivity_check(A)
    right, eigenvalue = _power_iterate(A, tol, max_iter)
    left, _ = _power_iterate(A.transpose(), tol, max_iter)
    moduli = sorted((abs(r) for r in complex_roots(char_poly(A))), reverse=True)
    gap = moduli[1] / moduli[0] if len(moduli) > 1 else 0.0
    return PerronData(eigenvalue=eigenvalue, right=right, left=left, gap=gap, witness=witness)


def eventual_positivity(A, v):
    """Sign of an integer vector in the eventual-positivity order.

    Applies A exactly up to the iteration bound.  Once an iterate is
    entrywise >= 1 it stays so (primitive matrices have no zero row), so
    the first decided step is the smallest witness; the all <= -1 and
    all-zero cases are likewise stable.  Vectors still mixed-sign at the
    bound are Undecided.
    """
    primitivity_check(A)
    u = tuple(int(x) for x in v)
    if len(u) != A.k:
        raise DimensionMismatch(f"vector has length {len(u)}, matrix has size {A.k}")
    for step in range(ITERATION_BOUND + 1):
        if all(x == 0 for x in u):
            return PositivitySign(Sign.ZERO)
        if all(x >= 1 for x in u):
            return PositivitySign(Sign.POSITIVE, witness=step)
        if all(x <= -1 for x in u):
            return PositivitySign(Sign.NEGATIVE)
        u = A.apply(u)
    return PositivitySign(Sign.UNDECIDED, bound=ITERATION_BOUND)
