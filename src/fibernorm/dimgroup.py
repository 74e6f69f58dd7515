"""Stationary dimension groups: Z^k -> Z^k -> ... along one primitive matrix.

Elements are pairs (vector, stage) identified under telescoping,
(v, n) ~ (A v, n+1).  Nothing is normalized automatically; telescope
moves an element to a later stage on demand, which keeps vectors small
and every operation exact.  An element's sign in the order is
perron.eventual_positivity of its vector at any stage, since
telescoping does not change it; the order unit is the all-ones vector.
"""

from collections import namedtuple

from .errors import BackwardTelescope, TooFewLevels
from .exact import int_vector
from .perron import primitivity_check


class StationaryDimGroup(namedtuple("StationaryDimGroup", "matrix witness")):
    """Handle for the inductive system repeating one primitive matrix."""

    __slots__ = ()

    @property
    def k(self):
        return self.matrix.k


class DimGroupElement(namedtuple("DimGroupElement", "v stage")):
    __slots__ = ()

    def __new__(cls, v, stage=0):
        v = int_vector(v)
        (stage,) = int_vector((stage,), what="stage")
        if stage < 0:
            raise ValueError("stage must be nonnegative")
        return super().__new__(cls, v, stage)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)


def make_dim_group(A):
    """Wrap a nonnegative primitive matrix as a dimension group handle."""
    return StationaryDimGroup(matrix=A, witness=primitivity_check(A))


def telescope(group, element, new_stage):
    """Move an element to a later stage: (v, n) -> (A^{n'-n} v, n').

    A^m v is computed by right-to-left binary powering while more than 2k
    steps remain, since one squaring, power * power, costs about what k
    matrix-vector products do: at most floor(log2 m) squarings, then at
    most 2k plain steps with the current power.  For m <= 2k that is m
    plain steps with A.
    """
    v = int_vector(element.v, group.k, "element vector")
    (new_stage,) = int_vector((new_stage,), what="stage")
    if new_stage < element.stage:
        raise BackwardTelescope(
            f"cannot telescope from stage {element.stage} back to {new_stage}"
        )
    power, steps = group.matrix, new_stage - element.stage
    while steps > 2 * group.k:
        if steps & 1:
            v = power.apply(v)
        power, steps = power * power, steps >> 1
    for _ in range(steps):
        v = power.apply(v)
    return DimGroupElement(v, new_stage)


def check_levels(levels):
    """A diagram of the stationary system needs at least two floors."""
    (levels,) = int_vector((levels,), what="levels")
    if levels < 2:
        raise TooFewLevels("a diagram needs at least 2 floors")


def _floors(templates, count):
    """Text of floors 0 .. count-1 from the templates of floors 0 .. 9
    (of all floors, when there are fewer).

    Floor 10a + d is written head(a) + str(d), head(0) = "" and head(a) =
    str(a) otherwise; a template holds "\\2" for head(a) and "\\3" for
    str(a + 1).  Every floor's template has the same length, so a last
    block of fewer than ten floors is a prefix of the joined templates.
    """
    block, size = "".join(templates), len(templates[0])
    return [
        block[: (count - t) * size]
        .replace("\2", str(t // 10) if t else "")
        .replace("\3", str(t // 10 + 1))
        for t in range(0, count, 10)
    ]


def bratteli_dot(group, levels):
    """Render the diagram as DOT text, byte-identical for equal inputs.

    Vertices are named v{floor}_{index}; incidence entry A[i][j] draws
    that many parallel edges from vertex j on floor t to vertex i on
    floor t+1.  Floors are emitted top to bottom, vertices by index,
    edges by (floor, target row, source column).  Every floor has the
    same vertex lines and every pair of adjacent floors the same edge
    lines, so both are built once as one-floor templates, "\\0" standing
    for floor t and "\\1" for floor t+1.  Ten floors in a row differ only
    in the leading digits of their numbers, so those give templates of
    up to ten floors (_floors), "\\2" and "\\3" standing for the leading
    digits (no line holds another control character): one str.replace
    per placeholder per ten floors, then one join of the output.  A
    template covers at most the floors drawn.
    """
    check_levels(levels)
    vertex = "".join(f"  v\0_{i};\n" for i in range(group.k))
    edge = "".join(
        f"  v\0_{j} -> v\1_{i};\n" * count
        for i, row in enumerate(group.matrix.rows)
        for j, count in enumerate(row)
    )
    # Floor d of a block of ten, then the first floor of the next block.
    names = [f"\2{d}" for d in range(10)] + ["\3" + "0"]
    vertices = [vertex.replace("\0", names[d]) for d in range(min(levels, 10))]
    edges = [
        edge.replace("\0", names[d]).replace("\1", names[d + 1])
        for d in range(min(levels - 1, 10))
    ]
    return "".join(
        [
            "digraph bratteli {\n",
            *_floors(vertices, levels),
            *_floors(edges, levels - 1),
            "}\n",
        ]
    )
