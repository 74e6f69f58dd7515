"""Stationary dimension groups: telescoping, order, diagram output."""

import random
from itertools import product, zip_longest

import pytest

from fibernorm.dimgroup import (
    DimGroupElement,
    bratteli_dot,
    make_dim_group,
    telescope,
)
from fibernorm.errors import (
    BackwardTelescope,
    DimensionMismatch,
    NotPrimitive,
    TooFewLevels,
)
from fibernorm.exact import IntMatrix
from fibernorm.perron import Sign, eventual_positivity

FIB = IntMatrix([[1, 1], [1, 0]])
QUAD = IntMatrix([[2, 1], [1, 1]])
# Primitive, with zero entries and entries >= 2, from k = 1 to k = 5.
DOT_MATRICES = (
    IntMatrix([[3]]),
    FIB,
    QUAD,
    IntMatrix([[0, 2, 1], [1, 0, 0], [0, 3, 0]]),
    IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]),
    IntMatrix([[1, 2, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 2], [1, 0, 0, 0, 1]]),
)

FIB_DOT_2 = """\
digraph bratteli {
  v0_0;
  v0_1;
  v1_0;
  v1_1;
  v0_0 -> v1_0;
  v0_1 -> v1_0;
  v0_0 -> v1_1;
}
"""


def test_make_dim_group_examples():
    assert make_dim_group(FIB).witness == 2
    assert make_dim_group(QUAD).witness == 1
    with pytest.raises(NotPrimitive):
        make_dim_group(IntMatrix.identity(2))


def test_telescope_examples():
    group = make_dim_group(FIB)
    assert telescope(group, DimGroupElement((1, 2), 0), 1) == DimGroupElement((3, 1), 1)
    assert telescope(group, DimGroupElement((1, 0), 0), 2) == DimGroupElement((2, 1), 2)
    element = DimGroupElement((4, -5), 3)
    assert telescope(group, element, 3) == element
    with pytest.raises(BackwardTelescope):
        telescope(group, DimGroupElement((1, 0), 2), 1)
    with pytest.raises(BackwardTelescope):
        telescope(group, DimGroupElement((1, 0), 1000), 999)
    with pytest.raises(DimensionMismatch):
        telescope(group, DimGroupElement((1, 0, 0), 0), 1)
    with pytest.raises(DimensionMismatch):
        telescope(group, DimGroupElement((1, 0, 0), 0), 1000)


def _random_primitive(rng, k):
    while True:
        try:
            return make_dim_group(
                IntMatrix([[rng.randint(0, 3) for _ in range(k)] for _ in range(k)])
            )
        except NotPrimitive:
            pass


def _telescope_cost(steps, k):
    """Squarings and matrix-vector products for steps at size k.

    Binary powering runs while more than 2k steps remain; each squaring
    is one matrix product, each odd step count one matrix-vector
    product, and the rest are plain.
    """
    squarings = products = 0
    while steps > 2 * k:
        products += steps & 1
        squarings += 1
        steps >>= 1
    return squarings, products + steps


def test_telescope_matches_step_by_step(monkeypatch):
    # telescope only squares powers of A and applies them to the vector:
    # count both against the cost of binary powering.
    applied, squared = [], []
    apply, multiply = IntMatrix.apply, IntMatrix.__mul__

    def recorded_apply(self, vector):
        applied.append(self)
        return apply(self, vector)

    def recorded_mul(self, other):
        squared.append(self is other)
        return multiply(self, other)

    monkeypatch.setattr(IntMatrix, "apply", recorded_apply)
    monkeypatch.setattr(IntMatrix, "__mul__", recorded_mul)
    rng = random.Random(20)
    for k in range(1, 8):
        for _ in range(4):
            group = _random_primitive(rng, k)
            limit = 20 * k
            steps = {0, 1, 2 * k, 2 * k + 1, 4 * k + 1, 4 * k + 2, limit}
            steps.update(rng.randint(0, limit) for _ in range(6))
            for m in sorted(steps):
                v = tuple(rng.randint(-9, 9) for _ in range(k))
                start = rng.randint(0, 5)
                expected = v
                for _ in range(m):
                    expected = apply(group.matrix, expected)
                applied.clear()
                squared.clear()
                moved = telescope(group, DimGroupElement(v, start), start + m)
                assert moved == DimGroupElement(expected, start + m), (group.matrix, v, m)
                squarings, products = _telescope_cost(m, k)
                assert squared == [True] * squarings, (k, m)
                assert len(applied) == products, (k, m)
                if m <= 2 * k:
                    assert all(matrix is group.matrix for matrix in applied)


def test_is_positive_examples():
    group = make_dim_group(FIB)
    sign = eventual_positivity(group.matrix, (1, -1))
    assert sign.sign is Sign.POSITIVE and sign.witness == 3
    assert eventual_positivity(group.matrix, (-1, 1)).sign is Sign.NEGATIVE
    assert eventual_positivity(group.matrix, (0, 0)).sign is Sign.ZERO


def test_order_unit_convention_and_positivity():
    # The order unit is the all-ones vector at stage zero.
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        sign = eventual_positivity(group.matrix, (1,) * group.k)
        assert sign.sign is Sign.POSITIVE
        assert sign.witness <= group.witness


def test_positivity_invariant_under_telescoping():
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        for v in product(range(-3, 4), repeat=2):
            base = eventual_positivity(group.matrix, v).sign
            for stage in range(1, 5):
                moved = telescope(group, DimGroupElement(v, 0), stage)
                assert eventual_positivity(group.matrix, moved.v).sign == base


def test_positive_plus_positive_is_positive():
    group = make_dim_group(FIB)
    positives = [
        v
        for v in product(range(-3, 4), repeat=2)
        if eventual_positivity(group.matrix, v).sign is Sign.POSITIVE
    ]
    for v1 in positives:
        for v2 in positives:
            total = tuple(a + b for a, b in zip(v1, v2))
            assert eventual_positivity(group.matrix, total).sign is Sign.POSITIVE


def test_order_unit_dominates_decided_positives():
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        unit = (1,) * group.k
        for v in product(range(-2, 3), repeat=2):
            if eventual_positivity(group.matrix, v).sign is not Sign.POSITIVE:
                continue
            dominated = False
            for c in range(1, 51):
                diff = tuple(c * u - x for u, x in zip(unit, v))
                if eventual_positivity(group.matrix, diff).sign is Sign.POSITIVE:
                    dominated = True
                    break
            assert dominated, f"no multiple of the unit dominates {v}"


def test_bratteli_dot_snapshot():
    group = make_dim_group(FIB)
    assert bratteli_dot(group, 2) == FIB_DOT_2


def _reference_dot(matrix, levels):
    """One line per vertex and one per parallel edge."""
    lines = ["digraph bratteli {"]
    for floor in range(levels):
        for index in range(matrix.k):
            lines.append(f"  v{floor}_{index};")
    for floor in range(levels - 1):
        for i in range(matrix.k):
            for j in range(matrix.k):
                for _ in range(matrix[i][j]):
                    lines.append(f"  v{floor}_{j} -> v{floor + 1}_{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _assert_dot_matches(matrix, levels):
    # The first differing line, not the whole text: pytest's diff of two
    # texts of megabytes would take minutes.
    dot = bratteli_dot(make_dim_group(matrix), levels)
    assert not {"\0", "\1", "\2", "\3"} & set(dot)
    lines = zip_longest(dot.split("\n"), _reference_dot(matrix, levels).split("\n"))
    assert next((pair for pair in lines if pair[0] != pair[1]), None) is None


# Floor numbers cross from one digit to two, three and four, and to five
# on the k = 4 matrix; the counts end inside, at and just past blocks of
# ten floors.  Ids are k<size>, _0 and _1 telling the 2x2 apart.
DOT_CASES = [
    pytest.param(matrix, levels, id=f"{name}-{levels}")
    for matrix, name in zip(DOT_MATRICES, ("k1", "k2_0", "k2_1", "k3", "k4", "k5"))
    for levels in (2, 3, 9, 10, 11, 19, 20, 21, 50, 100, 101, 109, 110, 111, 1001)
    + ((10_000,) if name == "k4" else ())
]


@pytest.mark.parametrize("matrix, levels", DOT_CASES)
def test_bratteli_dot_matches_line_by_line(matrix, levels):
    _assert_dot_matches(matrix, levels)


def test_bratteli_dot_matches_on_random_primitive_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k
        )
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices, st.integers(2, 1200))
    def check(rows, levels):
        matrix = IntMatrix(rows)
        try:
            make_dim_group(matrix)
        except NotPrimitive:
            hypothesis.assume(False)
        _assert_dot_matches(matrix, levels)

    check()


def test_bratteli_dot_counts():
    group = make_dim_group(QUAD)
    dot = bratteli_dot(group, 3)
    edge_lines = [line for line in dot.splitlines() if "->" in line]
    assert len(edge_lines) == 2 * (2 + 1 + 1 + 1)
    group = make_dim_group(FIB)
    dot = bratteli_dot(group, 2)
    node_lines = [line for line in dot.splitlines() if line.endswith(";") and "->" not in line]
    assert len(node_lines) == 2 * group.k


def test_bratteli_dot_deterministic_and_stationary():
    group = make_dim_group(QUAD)
    assert bratteli_dot(group, 4) == bratteli_dot(group, 4)
    with pytest.raises(TooFewLevels):
        bratteli_dot(group, 1)


def test_element_rejects_negative_stage():
    with pytest.raises(ValueError):
        DimGroupElement((1, 0), -1)
