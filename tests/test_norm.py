"""The induced norm, its cone, and the fiber class report."""

import random
from collections import namedtuple
from itertools import combinations_with_replacement, product

import pytest

from fibernorm.bundle import SingularityData, build_bundle
from fibernorm.cli import _format_value
from fibernorm.errors import DimensionMismatch
from fibernorm.exact import IntMatrix
from fibernorm.norm import (
    ConeCounterexample,
    ConeDescription,
    ConeRegion,
    cone_axiom_check,
    cone_membership,
    cone_points_text,
    enumerate_cone_points,
    fiber_class_report,
)
from fibernorm.numberfield import TraceFunctional, build_order, trace_functional

FOURNACCI = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
QUAD = IntMatrix([[2, 1], [1, 1]])
TRIB = IntMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])


def _fournacci_bundle():
    return build_bundle(2, SingularityData((6,)), FOURNACCI)


def _cone(t):
    return ConeDescription(TraceFunctional(tuple(t)))


def test_norm_on_h2_fixtures():
    assert trace_functional(build_order(_fournacci_bundle().action)).t == (4, 1, 3, 7)
    # algebra-level fixtures, no bundle attached
    assert trace_functional(build_order(QUAD)).t == (2, 3)
    assert trace_functional(build_order(TRIB)).t == (3, 1, 3)


def test_cone_membership_examples():
    cone = _cone((2, 3))
    assert cone_membership(cone, (1, 0)) is ConeRegion.INTERIOR
    assert cone_membership(cone, (0, 0)) is ConeRegion.BOUNDARY
    assert cone_membership(cone, (-2, 1)) is ConeRegion.OUTSIDE
    with pytest.raises(DimensionMismatch):
        cone_membership(cone, (1, 0, 0))


def test_norm_is_linear_on_boxes():
    for t in ((2, 3), (3, 1, 3)):
        cone = _cone(t)
        k = len(t)
        box = list(product(range(-2, 3), repeat=k))
        for z1 in box:
            for z2 in box:
                total = tuple(a + b for a, b in zip(z1, z2))
                assert cone.value(total) == cone.value(z1) + cone.value(z2)
        for z in box:
            for c in range(-3, 4):
                scaled = tuple(c * x for x in z)
                assert cone.value(scaled) == c * cone.value(z)


def test_cone_axiom_check_examples():
    assert cone_axiom_check(_cone((2, 3)), 3, 4) is None
    assert cone_axiom_check(_cone((4, 1, 3, 7)), 2, 3) is None
    assert cone_axiom_check(_cone((1,)), 5, 5) is None
    with pytest.raises(ValueError):
        cone_axiom_check(_cone((2, 3)), 0, 4)
    with pytest.raises(ValueError):
        cone_axiom_check(_cone((2, 3)), 3, 1)


def _pairwise_axiom_scan(cone, r, scale_max):
    """Reference axiom check: one membership test per scaling and per pair."""
    box = product(range(-r, r + 1), repeat=len(cone.functional.t))
    interior = [z for z in box if cone_membership(cone, z) is ConeRegion.INTERIOR]
    for z in interior:
        for c in range(1, scale_max + 1):
            scaled = tuple(c * x for x in z)
            if cone_membership(cone, scaled) is not ConeRegion.INTERIOR:
                return ConeCounterexample("scaling", z, None, c, cone.value(scaled))
    for z1, z2 in combinations_with_replacement(interior, 2):
        total = tuple(a + b for a, b in zip(z1, z2))
        if cone_membership(cone, total) is not ConeRegion.INTERIOR:
            return ConeCounterexample("addition", z1, z2, None, cone.value(total))
    return None


class _TruncatedCone(namedtuple("_TruncatedCone", "functional radius", defaults=(2,))):
    """Not a cone: classes with a coordinate past radius are outside."""

    __slots__ = ()

    def value(self, z):
        return -1 if max(map(abs, z)) > self.radius else ConeDescription.value(self, z)


class _PuncturedSpace(namedtuple("_PuncturedSpace", "functional hole", defaults=((),))):
    """Not a cone: every class is interior except one."""

    __slots__ = ()

    def value(self, z):
        return -1 if z == self.hole else 1


def test_cone_axiom_check_returns_the_first_counterexample():
    t = TraceFunctional((2, 3))
    found = cone_axiom_check(_TruncatedCone(t, 2), 2, 3)
    assert found == ConeCounterexample("scaling", (-2, 2), None, 2, -1)
    assert found == _pairwise_axiom_scan(_TruncatedCone(t, 2), 2, 3)
    # The sum (0, 2) = (-1, 1) + (1, 1) comes before the hole (1, -2) =
    # (0, -1) + (1, -1); numbered in base 4r instead of 4r + 1, they collide.
    found = cone_axiom_check(_PuncturedSpace(t, (1, -2)), 1, 2)
    assert found == ConeCounterexample("addition", (0, -1), (1, -1), None, -1)
    assert found == _pairwise_axiom_scan(_PuncturedSpace(t, (1, -2)), 1, 2)
    rng = random.Random(2002)
    kinds = set()
    for _ in range(60):
        k = rng.randint(1, 3)
        r = rng.randint(1, 2)
        scale_max = rng.randint(2, 3)
        t = TraceFunctional(tuple(rng.randint(-9, 9) for _ in range(k)))
        hole = tuple(rng.randint(-2 * r, 2 * r) for _ in range(k))
        for cone in (ConeDescription(t), _TruncatedCone(t, r), _PuncturedSpace(t, hole)):
            found = cone_axiom_check(cone, r, scale_max)
            assert found == _pairwise_axiom_scan(cone, r, scale_max), (cone, r, scale_max)
            kinds.add(found and found.kind)
    assert kinds == {None, "scaling", "addition"}


def test_enumerate_cone_points_examples():
    assert enumerate_cone_points(_cone((2, 3)), 1) == [
        (-1, 1),
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert enumerate_cone_points(_cone((2, 3)), 0) == [(0, 0)]
    assert enumerate_cone_points(_cone((1, -1)), 1) == [
        (-1, -1),
        (0, -1),
        (0, 0),
        (1, -1),
        (1, 0),
        (1, 1),
    ]
    assert cone_points_text(_cone((1, -1)), 1) == "[[-1,-1],[0,-1],[0,0],[1,-1],[1,0],[1,1]]"
    assert cone_points_text(_cone((-1,)), 2) == "[[-2],[-1],[0]]"
    assert cone_points_text(_cone((-1, -1)), 0) == "[[0,0]]"
    for enumerate_box in (enumerate_cone_points, cone_points_text):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_box(_cone((2, 3)), -1)


def test_enumerate_cone_points_matches_box_scan():
    # enumerate_cone_points is the box scan, one norm value per box point;
    # the walk of cone_points_text must render exactly its points.
    big = 2**200
    functionals = [
        (3, 0),  # t_k = 0: prefix sums -3 (no point) and 0, 3 (whole range)
        (1, -2, 0),
        (2, -1),  # negative t_k
        (-7, -3, -5),
        (5,),  # k = 1: the empty prefix
        (-5,),
        (0,),
        (big + 1, -big),  # 200-bit entries of both signs
        (-big, 3, big - 1),
        (big, 0),
    ]
    rng = random.Random(2002)
    for _ in range(200):
        bits = rng.choice((2, 8, 200))
        k = rng.randint(1, 4)
        functionals.append(tuple(rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(k)))
    cases = [(t, r) for t in functionals for r in range(4 if len(t) < 4 else 3)]  # r = 0 included
    # Prefixes of the first k-2 coordinates with equal dot products share
    # one block of last two coordinates.
    cases += [
        ((1, 1, 1, 1, 1), 2),  # heavy reuse: few distinct prefix sums
        ((1, 1, 1, 1, 1, 1), 1),
        ((6, 2, 12, 44, 168, 597), 2),  # the field corpus' k = 6 cone
        ((1, 5, 25, 125, -625), 2),  # no reuse: t_i = (2r+1)^i, every sum distinct
        ((1, 7, -49), 3),
        ((1, 2, 0, 3), 2),  # t_{k-1} = 0
        ((2, 0, 5), 2),
        ((1, -1, 2, 0), 2),  # t_k = 0, prefix sums of both signs
        ((-3, 3, 1, 0), 2),
        ((-100, 50, 1, -1), 2),  # prefix sums far below zero: empty runs, slice end < 0
        ((100, -50, 1, -1), 2),
        ((0, 0, 3, -2), 10),  # every prefix shares s = 0; "[1," and "[10," both occur
        ((2, -2, 3, 1), 10),
        ((3, 3, -7), 11),
        ((-1, 2, 0, 0), 10),
    ]
    for k in (1, 2, 3):  # k = 1 and 2 have a single (k-2)-prefix
        cases += [(t, r) for t in product((-2, 0, 3), repeat=k) for r in (0, 1, 12)]
    for t, r in cases:
        cone = _cone(t)
        points = enumerate_cone_points(cone, r)
        assert cone_points_text(cone, r) == _format_value(points), (t, r)


def test_enumerate_cone_points_sorted_and_closed_in_box():
    cone = _cone((3, 1, 3))
    points = enumerate_cone_points(cone, 2)
    assert points == sorted(points)
    inside = set(points)
    for z1 in points:
        for z2 in points:
            total = tuple(a + b for a, b in zip(z1, z2))
            if all(abs(x) <= 2 for x in total):
                assert total in inside


def test_fiber_class_report_examples():
    bundle = _fournacci_bundle()
    report = fiber_class_report(bundle, (0, 2, 0, 0))
    assert report.norm_at_fiber == 2
    assert report.thurston_fiber_target == 2
    assert report.discrepancy == 0
    assert report.gromov_value == 4
    assert report.dual_euler_value == 2
    assert not report.negative_fiber_norm

    report = fiber_class_report(bundle, (1, 0, 0, 0))
    assert report.norm_at_fiber == 4
    assert report.discrepancy == 2

    report = fiber_class_report(bundle, (0, 0, 0, 0))
    assert report.norm_at_fiber == 0
    assert report.discrepancy == -2
    assert report.gromov_value == 0


def test_fiber_class_report_negative_norm_is_flagged_not_fatal():
    report = fiber_class_report(_fournacci_bundle(), (-1, 0, 0, 0))
    assert report.norm_at_fiber == -4
    assert report.negative_fiber_norm
    assert report.gromov_value is None


def test_fiber_class_report_is_deterministic():
    first = fiber_class_report(_fournacci_bundle(), (0, 2, 0, 0))
    second = fiber_class_report(_fournacci_bundle(), (0, 2, 0, 0))
    assert first == second


def test_fiber_class_report_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fiber_class_report(_fournacci_bundle(), (1, 0))
