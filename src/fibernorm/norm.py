"""The induced norm on the second homology lattice and its positivity cone.

The norm of a class z in Z^k is the exact dot product with the trace
functional of the field built from the monodromy action.  Its
nonnegativity locus is a lattice half-space, hence a cone: closed under
addition and positive scaling.  For the fiber class of a genus-g fibration
the expected value is 2g-2, twice that for the simplicial (Gromov) norm;
reports state the measured values and the signed discrepancy, they never
assert the coincidence.

enumerate_cone_points lists the cone's lattice points in a box, one norm
value per box point; cone_points_text renders the same points as report
text by a walk, whose cost its docstring gives.
"""

from collections import namedtuple
from enum import Enum
from itertools import combinations_with_replacement, product
from operator import add, mul

from .bundle import euler_pairing_fiber
from .exact import int_vector
from .numberfield import build_order, norm_value, trace_functional


class ConeRegion(Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


class ConeDescription(namedtuple("ConeDescription", "functional")):
    """The half-space cone cut out by one integer functional."""

    __slots__ = ()

    def value(self, z):
        return norm_value(self.functional, z)


class ConeCounterexample(namedtuple("ConeCounterexample", "kind z other scale value")):
    """A witness that a cone axiom failed (never produced by a half-space).

    kind is "scaling" (z times scale) or "addition" (z plus other); value
    is the functional at the result.
    """

    __slots__ = ()


class NormReport(
    namedtuple(
        "NormReport",
        "genus singularities rank charpoly functional fiber_class norm_at_fiber"
        " thurston_fiber_target discrepancy gromov_value dual_euler_value negative_fiber_norm",
    )
):
    """Measured norm data for one homology class of one bundle.

    gromov_value is twice the norm when the norm is nonnegative and None
    otherwise (the simplicial norm comparison only makes sense inside the
    cone); negative_fiber_norm flags that situation.  discrepancy =
    norm_at_fiber - (2g - 2), reported signed.
    """

    __slots__ = ()


def cone_membership(cone, z):
    value = cone.value(z)
    if value > 0:
        return ConeRegion.INTERIOR
    if value == 0:
        return ConeRegion.BOUNDARY
    return ConeRegion.OUTSIDE


def cone_axiom_check(cone, box_radius, scale_max):
    """Exhaustively verify the cone axioms on a lattice box.

    Every interior class must stay interior under scaling by 2..scale_max
    (scaling by 1 is the class itself, just found interior) and under
    addition with every other interior class in the box.  A
    half-space can never fail; running the check guards the membership
    code itself, so every vector the check reasons about goes through
    cone_membership.  Returns None, or the first counterexample in scan
    order: interior points lexicographically, scalings before additions,
    pairs in combinations_with_replacement order.

    Cost: one membership call per box point, n * (scale_max - 1) for
    the n interior points, and one per distinct sum of two of them; the
    n(n+1)/2 pairs themselves cost one integer addition and one set
    lookup each.  Sums have coordinates in [-2r, 2r], so numbering the
    points by balanced digits in base 4r + 1 gives each pair's sum the
    number n1 + n2, equal exactly when the sums are.
    """
    box_radius, scale_max = int_vector((box_radius, scale_max), what="box radius and scale bound")
    if box_radius < 1:
        raise ValueError("box radius must be at least 1")
    if scale_max < 2:
        raise ValueError("scale bound must be at least 2")
    k = len(cone.functional.t)
    span = range(-box_radius, box_radius + 1)
    interior = [z for z in product(span, repeat=k) if cone_membership(cone, z) is ConeRegion.INTERIOR]
    for z in interior:
        for c in range(2, scale_max + 1):
            scaled = tuple(c * x for x in z)
            if cone_membership(cone, scaled) is not ConeRegion.INTERIOR:
                return ConeCounterexample(
                    kind="scaling", z=z, other=None, scale=c, value=cone.value(scaled)
                )
    place_values = [(4 * box_radius + 1) ** i for i in reversed(range(k))]
    numbered = [(z, sum(map(mul, z, place_values))) for z in interior]
    interior_sums = set()  # numbers of the sums already found interior
    for (z1, n1), (z2, n2) in combinations_with_replacement(numbered, 2):
        n = n1 + n2
        if n in interior_sums:
            continue
        total = tuple(map(add, z1, z2))
        if cone_membership(cone, total) is not ConeRegion.INTERIOR:
            return ConeCounterexample(
                kind="addition", z=z1, other=z2, scale=None, value=cone.value(total)
            )
        interior_sums.add(n)
    return None


def _box_span(box_radius):
    """The coordinates -r..r of the lattice box of radius r >= 0."""
    (box_radius,) = int_vector((box_radius,), what="box radius")
    if box_radius < 0:
        raise ValueError("box radius must be nonnegative")
    return range(-box_radius, box_radius + 1)


def enumerate_cone_points(cone, box_radius):
    """Lattice points z of the box with z . t >= 0, lexicographic order.

    The box scan, one norm value per box point: the definition that
    cone_points_text is checked against, and slower than it on purpose.
    """
    span = _box_span(box_radius)
    return [z for z in product(span, repeat=len(cone.functional.t)) if cone.value(z) >= 0]


def cone_points_text(cone, box_radius):
    """The cone points of the box as report text, without building them.

    Equal to the report rendering (cli._format_value) of
    enumerate_cone_points(cone, box_radius), "[[z1,...,zk],...]".  One
    walk builds the text of every prefix of the first k-2 coordinates,
    "[x1,...,x_{k-2},", in lexicographic order, each carried with its dot
    product s with t[:-2].  A prefix's points depend on it only through
    s: for each x_{k-1} the admissible x_k form one interval, read off
    s + t_{k-1} x_{k-1} and the sign of t_k.  The first prefix with a
    given s renders its block of points with one str.join per x_{k-1},
    over the precomputed texts of the last coordinates.  Every later
    prefix with the same s copies that block with one join and one
    str.replace of the first prefix's text by its own: "[" opens every
    point and nothing else, so a prefix text matches only at the start
    of a point.  Cost: the (2r+1)^(k-2) prefixes, one block per distinct
    s, one replace per other prefix, and the output text; no point tuple
    and no per-integer formatting.  So it falls when the leading entries
    of t are small next to 2r+1 and many prefixes share s; with every s
    distinct it is one join per (k-1)-prefix.

    >>> from fibernorm.numberfield import TraceFunctional
    >>> cone_points_text(ConeDescription(TraceFunctional((2, 3))), 1)
    '[[-1,1],[0,0],[0,1],[1,0],[1,1]]'
    """
    span = _box_span(box_radius)
    r, n = span[-1], len(span)
    lasts = [str(x) for x in span]
    cells = [x + "," for x in lasts]
    *head, last = cone.functional.t
    if head:
        *head, before_last = head
        penultimate = [(cell, x * before_last) for cell, x in zip(cells, span)]
    else:  # k = 1: the one prefix "[" and an empty x_{k-1}
        penultimate = [("", 0)]
    prefixes = [("[", 0)]
    for coefficient in head:
        steps = [(cell, x * coefficient) for cell, x in zip(cells, span)]
        prefixes = [(p + cell, s + d) for p, s in prefixes for cell, d in steps]
    out = []
    blocks = {}  # s -> the first prefix with sum s and the range of its rows in out
    for prefix, s in prefixes:
        if s in blocks:
            first, a, b = blocks[s]
            if a < b:
                out.append(",".join(out[a:b]).replace(first, prefix))
            continue
        a = len(out)
        for cell, d in penultimate:
            total = s + d
            if last > 0:  # total + x * last >= 0  <=>  x >= -(total // last)
                lo, hi = max(0, r - total // last), n
            elif last < 0:  # x <= total // -last
                lo, hi = 0, min(n, r + 1 + total // -last)
            else:
                lo, hi = 0, n if total >= 0 else 0
            if lo < hi:
                row = prefix + cell
                out.append(row + ("]," + row).join(lasts[lo:hi]) + "]")
        blocks[s] = prefix, a, len(out)
    return "[" + ",".join(out) + "]"


def fiber_class_report(bundle, z_fiber):
    """Measure the norm on a claimed fiber class and report, never assert.

    The caller reads the discrepancy against the genus target 2g-2; the
    report also carries the doubled (simplicial) value and the Euler
    pairing of the fiber.
    """
    order = build_order(bundle.action)
    functional = trace_functional(order)
    z = int_vector(z_fiber, bundle.rank, "class")
    n = norm_value(functional, z)
    target = euler_pairing_fiber(bundle.genus)
    return NormReport(
        genus=bundle.genus,
        singularities=bundle.sing.prongs,
        rank=bundle.rank,
        charpoly=order.min_poly,
        functional=functional,
        fiber_class=z,
        norm_at_fiber=n,
        thurston_fiber_target=target,
        discrepancy=n - target,
        gromov_value=2 * n if n >= 0 else None,
        dual_euler_value=target,
        negative_fiber_norm=n < 0,
    )
