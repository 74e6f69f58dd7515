"""Differential checks of the Perron eigenvectors against mpmath.

mpmath is a test-only dependency; the module is skipped when it is
missing.  The oracle refines the Perron root by Newton's method on the
exact characteristic polynomial at 60 digits, then takes each null
vector of A - lambda I by fixing one coordinate p to 1 and solving the
other k - 1 equations with mpmath's LU.  It shares no code path with the
float inverse iteration under test.
"""

import random
import sys

import pytest

from fibernorm import perron
from fibernorm.errors import NotPrimitive
from fibernorm.exact import IntMatrix, char_poly
from fibernorm.perron import _inverse_iterate, _lu, _transposed, perron_data, primitivity_check

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


def _seeded_primitive(seed):
    """A primitive matrix of size 1-24 with entries up to 9, dense or sparse."""
    rng = random.Random(seed)
    k = 1 + seed % 24
    density = rng.choice((0.15, 0.4, 1.0))
    while True:
        rows = [[rng.randint(1, 9) if rng.random() < density else 0 for _ in range(k)] for _ in range(k)]
        try:
            primitivity_check(IntMatrix(rows))
        except NotPrimitive:
            continue
        return rows


def _blocks_joined(seed, k):
    """Two random primitive blocks joined by a single 1 each way."""
    a, b = _random_primitive(seed, k), _random_primitive(seed + 1, k)
    rows = [row + [0] * k for row in a] + [[0] * k + row for row in b]
    rows[k - 1][k] = rows[2 * k - 1][0] = 1
    return rows


def _cycle_with_chords(seed, k, chords):
    """A k-cycle with a few random chords, primitive."""
    rng = random.Random(seed)
    while True:
        rows = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
        for _ in range(chords):
            rows[rng.randrange(k)][rng.randrange(k)] = 1
        try:
            primitivity_check(IntMatrix(rows))
        except NotPrimitive:
            continue
        return rows


def _companion_with_pendant(seed, bits, k=6):
    """The companion of random bits-bit coefficients, plus a last vertex
    joined both ways to index 0 only, whose Perron entries are tiny."""
    rng = random.Random(seed)
    c = [rng.getrandbits(bits) | 1 for _ in range(k)]
    rows = [[int(j == i - 1) for j in range(k - 1)] + [c[i], int(i == 0)] for i in range(k)]
    return rows + [[int(j == 0) for j in range(k + 1)]]


def _perron_root(rows, start):
    coeffs = list(reversed(char_poly(IntMatrix(rows)).coeffs))
    lam = mpmath.mpf(start)
    for _ in range(10):
        value, slope = mpmath.polyval(coeffs, lam, derivative=True)
        lam -= value / slope
    return lam


def _fixed_coordinate(data):
    """The p where right[p] * left[p] is largest.

    The (p, p) cofactor of lambda I - A is a positive multiple of
    right[p] * left[p], so that principal submatrix is the farthest from
    singular.  Fixing the last coordinate, or the largest entry of one
    vector, can leave a submatrix so close to singular that 60 digits do
    not solve it (a companion with a pendant vertex).
    """
    return max(range(len(data.right)), key=lambda i: data.right[i] * data.left[i])


def _null_vector(rows, lam, p):
    """The L1-normalized v with (rows - lam I) v = 0, from v[p] = 1."""
    rest = [i for i in range(len(rows)) if i != p]
    m = mpmath.matrix([[rows[i][j] - (lam if i == j else 0) for j in rest] for i in rest])
    solved = list(mpmath.lu_solve(m, mpmath.matrix([-rows[i][p] for i in rest])))
    v = [*solved[:p], mpmath.mpf(1), *solved[p:]]
    total = sum(v)
    return [x / total for x in v]


def _oracle(rows, data):
    """The right and left null vectors at the refined Perron root."""
    lam = _perron_root(rows, data.eigenvalue)
    p = _fixed_coordinate(data)
    return lam, _null_vector(rows, lam, p), _null_vector([list(column) for column in zip(*rows)], lam, p)


def _relative_error(vector, reference):
    scale = max(abs(x) for x in reference)
    return float(max(abs(x - y) for x, y in zip(vector, reference)) / scale)


@pytest.mark.parametrize(
    "rows",
    [
        *(_cycle_with_loop(k) for k in (16, 20, 24)),
        _random_primitive(24, 24),
        _random_primitive(48, 48),
        _blocks_joined(3, 8),
        _blocks_joined(5, 12),
        _cycle_with_chords(1, 20, 3),
        _cycle_with_chords(2, 30, 2),
        *(_companion_with_pendant(seed, bits) for bits in (20, 30, 40) for seed in range(3)),
    ],
    ids=[
        "cycle-k16",
        "cycle-k20",
        "cycle-k24",
        "random-k24",
        "random-k48",
        "blocks-k16",
        "blocks-k24",
        "chords-k20",
        "chords-k30",
        *(f"pendant-b{bits}-{seed}" for bits in (20, 30, 40) for seed in range(3)),
    ],
)
def test_eigenvectors_match_mpmath_null_vectors(rows):
    data = perron_data(IntMatrix(rows))
    with mpmath.workdps(DIGITS):
        _, right, left = _oracle(rows, data)
        assert all(x > 0 for x in right + left)
        assert _relative_error(data.right, right) < 1e-13
        assert _relative_error(data.left, left) < 1e-13


def test_the_left_vector_is_the_right_vector_of_the_transpose():
    # The left vector is solved with factors rearranged from those of
    # lambda I - A; the right vector of A^T with the factors of
    # lambda I - A^T.  A slip in the rearrangement shows here.
    for seed in range(60):
        matrix = IntMatrix(_seeded_primitive(seed))
        left = perron_data(matrix).left
        assert _relative_error(left, perron_data(matrix.transpose()).right) < 1e-14


@pytest.mark.parametrize(
    "rows",
    [_cycle_with_loop(16), _random_primitive(24, 24), _blocks_joined(3, 8), _companion_with_pendant(0, 40)],
    ids=["cycle-k16", "random-k24", "blocks-k16", "pendant-b40-0"],
)
def test_a_shift_a_few_ulps_either_side_of_the_root_gives_the_same_vectors(rows, monkeypatch):
    # Below the root, mu I - A is no longer an M-matrix: the last pivot
    # may take either sign, and the floor keeps it.
    data = perron_data(IntMatrix(rows))
    with mpmath.workdps(DIGITS):
        lam, right, left = _oracle(rows, data)
    monkeypatch.setattr(perron, "_MAX_ITER", 10)
    for mu in (float(lam) * (1 - 4 * sys.float_info.epsilon), float(lam) * (1 + 4 * sys.float_info.epsilon)):
        factors = _lu(IntMatrix(rows), mu)
        assert _relative_error(_inverse_iterate(factors), right) < 1e-14
        assert _relative_error(_inverse_iterate(_transposed(factors)), left) < 1e-14
