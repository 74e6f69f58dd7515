"""Integer vectors and square integer matrices.

``int_vector`` is the one rule for integer vectors across the package:
matrix rows, polynomial coefficients, classes, field elements,
dimension-group vectors and prong counts all pass through it, so a
float or a string is a TypeError everywhere, never truncated or parsed
into a wrong answer.

Of the package this module imports only ``errors``, so the command line
parses its input document without loading the exact kernels (``exact``
re-exports ``int_vector`` and ``IntMatrix``).
"""

from operator import mul

from .errors import DimensionMismatch


def int_vector(values, length=None, what="vector"):
    """The entries of values as a tuple, every one an int (bool included).

    Raises DimensionMismatch when a required length is not met and
    TypeError for any entry that is not an int: nothing is converted.

    >>> int_vector([3, -1])
    (3, -1)
    """
    out = tuple(values)
    if length is not None and len(out) != length:
        raise DimensionMismatch(f"{what} has length {len(out)}, expected {length}")
    for x in out:
        if not isinstance(x, int):
            raise TypeError(f"{what} entries must be integers, got {type(x).__name__}")
    return out


class IntMatrix:
    """Square matrix of arbitrary-precision integers.  Immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        tupled = tuple(int_vector(row, what="matrix row") for row in rows)
        if not tupled:
            raise ValueError("matrix must have at least one row")
        k = len(tupled)
        if any(len(row) != k for row in tupled):
            raise ValueError("matrix must be square")
        self.rows = tupled

    @classmethod
    def identity(cls, k):
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @property
    def k(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __reduce__(self):
        return type(self), (self.rows,)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._check_same_size(other)
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[other * x for x in row] for row in self.rows])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        self._check_same_size(other)
        cols = other.transpose().rows
        return IntMatrix(
            [[sum(map(mul, row, col)) for col in cols] for row in self.rows]
        )

    __rmul__ = __mul__  # int scalars commute; anything else is a TypeError

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix powers need a nonnegative integer exponent")
        result = IntMatrix.identity(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def apply(self, vector):
        """Matrix times column vector, as a tuple of ints."""
        v = int_vector(vector, self.k)
        return tuple(sum(map(mul, row, v)) for row in self.rows)

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.k))

    def transpose(self):
        return IntMatrix(list(zip(*self.rows)))

    def _check_same_size(self, other):
        if self.k != other.k:
            raise ValueError("matrix sizes differ")
