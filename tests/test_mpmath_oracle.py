"""Differential checks of the Perron eigenvectors against mpmath.

mpmath is a test-only dependency; the module is skipped when it is
missing.  The oracle refines the Perron root by Newton's method on the
exact characteristic polynomial at 60 digits, then takes each null
vector of A - lambda I by fixing its last coordinate to 1 and solving the
other k - 1 equations with mpmath's LU.  It shares no code path with the
float inverse iteration under test.
"""

import random

import pytest

from fibernorm.exact import IntMatrix, char_poly
from fibernorm.perron import perron_data, primitivity_check

mpmath = pytest.importorskip("mpmath")

DIGITS = 60


def _cycle_with_loop(k):
    rows = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    rows[0][0] = 1
    return rows


def _random_primitive(seed, k):
    rng = random.Random(seed)
    rows = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
    primitivity_check(IntMatrix(rows))
    return rows


def _perron_root(rows, start):
    coeffs = list(reversed(char_poly(IntMatrix(rows)).coeffs))
    lam = mpmath.mpf(start)
    for _ in range(10):
        value, slope = mpmath.polyval(coeffs, lam, derivative=True)
        lam -= value / slope
    return lam


def _null_vector(rows, lam):
    """The L1-normalized v with (rows - lam I) v = 0."""
    k = len(rows)
    m = mpmath.matrix([[rows[i][j] - (lam if i == j else 0) for j in range(k - 1)] for i in range(k - 1)])
    rhs = mpmath.matrix([-rows[i][k - 1] for i in range(k - 1)])
    v = [*mpmath.lu_solve(m, rhs), mpmath.mpf(1)]
    total = sum(v)
    return [x / total for x in v]


def _relative_error(vector, reference):
    scale = max(abs(x) for x in reference)
    return float(max(abs(x - y) for x, y in zip(vector, reference)) / scale)


@pytest.mark.parametrize(
    "rows",
    [
        *(_cycle_with_loop(k) for k in (16, 20, 24)),
        _random_primitive(24, 24),
        _random_primitive(48, 48),
    ],
    ids=["cycle-k16", "cycle-k20", "cycle-k24", "random-k24", "random-k48"],
)
def test_eigenvectors_match_mpmath_null_vectors(rows):
    data = perron_data(IntMatrix(rows))
    with mpmath.workdps(DIGITS):
        lam = _perron_root(rows, data.eigenvalue)
        right = _null_vector(rows, lam)
        left = _null_vector([list(column) for column in zip(*rows)], lam)
        assert _relative_error(data.right, right) < 1e-13
        assert _relative_error(data.left, left) < 1e-13
