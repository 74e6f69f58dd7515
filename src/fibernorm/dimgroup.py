"""Stationary dimension groups: Z^k -> Z^k -> ... along one primitive matrix.

Elements are pairs (vector, stage) identified under telescoping,
(v, n) ~ (A v, n+1).  Nothing is normalized automatically; equality and
order questions telescope on demand, which keeps vectors small and every
operation exact.
"""

from dataclasses import dataclass

from .errors import BackwardTelescope, TooFewLevels
from .exact import IntMatrix, int_vector
from .perron import eventual_positivity, primitivity_check


@dataclass(frozen=True)
class StationaryDimGroup:
    """Handle for the inductive system repeating one primitive matrix."""

    matrix: IntMatrix
    witness: int

    @property
    def k(self):
        return self.matrix.k


@dataclass(frozen=True)
class DimGroupElement:
    v: tuple[int, ...]
    stage: int = 0

    def __post_init__(self):
        object.__setattr__(self, "v", int_vector(self.v))
        (stage,) = int_vector((self.stage,), what="stage")
        if stage < 0:
            raise ValueError("stage must be nonnegative")


def make_dim_group(A):
    """Wrap a nonnegative primitive matrix as a dimension group handle."""
    return StationaryDimGroup(matrix=A, witness=primitivity_check(A))


def telescope(group, element, new_stage):
    """Move an element to a later stage: (v, n) -> (A^{n'-n} v, n')."""
    v = int_vector(element.v, group.k, "element vector")
    (new_stage,) = int_vector((new_stage,), what="stage")
    if new_stage < element.stage:
        raise BackwardTelescope(
            f"cannot telescope from stage {element.stage} back to {new_stage}"
        )
    for _ in range(new_stage - element.stage):
        v = group.matrix.apply(v)
    return DimGroupElement(v, new_stage)


def elements_equal(group, e1, e2):
    """Equality in the inductive limit: telescope both to a common stage."""
    stage = max(e1.stage, e2.stage)
    return telescope(group, e1, stage).v == telescope(group, e2, stage).v


def is_positive(group, element):
    """Sign of the element in the dimension group order.

    Telescoping does not change the answer, so only the vector matters.
    """
    return eventual_positivity(group.matrix, element.v)


def order_unit(group):
    """The distinguished order unit: the all-ones vector at stage zero."""
    return DimGroupElement((1,) * group.k, 0)


def check_levels(levels):
    """A diagram of the stationary system needs at least two floors."""
    (levels,) = int_vector((levels,), what="levels")
    if levels < 2:
        raise TooFewLevels("a diagram needs at least 2 floors")


def bratteli_dot(group, levels):
    """Render the diagram as DOT text, byte-identical for equal inputs.

    Vertices are named v{floor}_{index}; incidence entry A[i][j] draws
    that many parallel edges from vertex j on floor t to vertex i on
    floor t+1.  Floors are emitted top to bottom, vertices by index,
    edges by (floor, target row, source column).
    """
    check_levels(levels)
    k = group.k
    lines = ["digraph bratteli {"]
    for floor in range(levels):
        for index in range(k):
            lines.append(f"  v{floor}_{index};")
    for floor in range(levels - 1):
        for i in range(k):
            for j in range(k):
                for _ in range(group.matrix[i][j]):
                    lines.append(f"  v{floor}_{j} -> v{floor + 1}_{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
