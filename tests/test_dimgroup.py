"""Stationary dimension groups: telescoping, order, diagram output."""

from itertools import product

import pytest

from fibernorm.dimgroup import (
    DimGroupElement,
    bratteli_dot,
    elements_equal,
    is_positive,
    make_dim_group,
    order_unit,
    telescope,
)
from fibernorm.errors import (
    BackwardTelescope,
    DimensionMismatch,
    NotPrimitive,
    TooFewLevels,
)
from fibernorm.exact import IntMatrix
from fibernorm.perron import Sign

FIB = IntMatrix([[1, 1], [1, 0]])
QUAD = IntMatrix([[2, 1], [1, 1]])

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
    with pytest.raises(DimensionMismatch):
        telescope(group, DimGroupElement((1, 0, 0), 0), 1)


def test_element_equality_via_telescoping():
    group = make_dim_group(FIB)
    e = DimGroupElement((1, 2), 0)
    assert elements_equal(group, e, telescope(group, e, 3))
    assert not elements_equal(group, e, DimGroupElement((1, 3), 0))


def test_is_positive_examples():
    group = make_dim_group(FIB)
    sign = is_positive(group, DimGroupElement((1, -1), 0))
    assert sign.sign is Sign.POSITIVE and sign.witness == 3
    assert is_positive(group, DimGroupElement((-1, 1), 0)).sign is Sign.NEGATIVE
    assert is_positive(group, DimGroupElement((0, 0), 7)).sign is Sign.ZERO


def test_order_unit_convention_and_positivity():
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        unit = order_unit(group)
        assert unit == DimGroupElement((1,) * group.k, 0)
        sign = is_positive(group, unit)
        assert sign.sign is Sign.POSITIVE
        assert sign.witness <= group.witness


def test_positivity_invariant_under_telescoping():
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        for v in product(range(-3, 4), repeat=2):
            base = is_positive(group, DimGroupElement(v, 0)).sign
            for stage in range(1, 5):
                moved = telescope(group, DimGroupElement(v, 0), stage)
                assert is_positive(group, moved).sign == base


def test_positive_plus_positive_is_positive():
    group = make_dim_group(FIB)
    positives = [
        v
        for v in product(range(-3, 4), repeat=2)
        if is_positive(group, DimGroupElement(v, 0)).sign is Sign.POSITIVE
    ]
    for v1 in positives:
        for v2 in positives:
            total = tuple(a + b for a, b in zip(v1, v2))
            assert is_positive(group, DimGroupElement(total, 0)).sign is Sign.POSITIVE


def test_order_unit_dominates_decided_positives():
    for matrix in (FIB, QUAD):
        group = make_dim_group(matrix)
        unit = order_unit(group).v
        for v in product(range(-2, 3), repeat=2):
            if is_positive(group, DimGroupElement(v, 0)).sign is not Sign.POSITIVE:
                continue
            dominated = False
            for c in range(1, 51):
                diff = tuple(c * u - x for u, x in zip(unit, v))
                if is_positive(group, DimGroupElement(diff, 0)).sign is Sign.POSITIVE:
                    dominated = True
                    break
            assert dominated, f"no multiple of the unit dominates {v}"


def test_bratteli_dot_snapshot():
    group = make_dim_group(FIB)
    assert bratteli_dot(group, 2) == FIB_DOT_2


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
