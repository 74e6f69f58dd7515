"""Surface bundle input data: genus, saddle prong counts, action matrix.

A pseudo-Anosov map on a closed genus-g surface leaves a pair of measured
foliations invariant whose common saddles have n >= 3 prongs; an n-prong
saddle has index -(n-2)/2, so the prong counts must satisfy

    sum (n_i - 2) = 4g - 4,   1 <= m <= 4g - 4.

The monodromy acts on the rank 2g+m-1 relative homology lattice of the
surface modulo the saddle set, and that rank is also the rank of the
second homology of the mapping torus.  The action matrix is supplied by
the caller (finding invariant train tracks is a separate problem); it
must be nonnegative and primitive.
"""

from collections import namedtuple

from .errors import (
    ActionDimensionMismatch,
    CardinalityOutOfRange,
    GenusTooSmall,
    IndexSumMismatch,
    ProngTooSmall,
)
from .exact import int_vector
from .perron import primitivity_check


class SingularityData(namedtuple("SingularityData", "prongs")):
    """Multiset of saddle prong counts, kept sorted."""

    __slots__ = ()

    def __new__(cls, prongs):
        prongs = tuple(sorted(int_vector(prongs, what="prongs")))
        if not prongs:
            raise CardinalityOutOfRange("at least one singular point is required")
        if prongs[0] < 3:
            raise ProngTooSmall(f"saddle with {prongs[0]} prongs; at least 3 required")
        return super().__new__(cls, prongs)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    @property
    def count(self):
        return len(self.prongs)


class PseudoAnosovBundle(namedtuple("PseudoAnosovBundle", "genus sing action")):
    """A fibered 3-manifold given by fiber genus, saddle data and monodromy action."""

    __slots__ = ()

    @property
    def rank(self):
        return self.action.k


def validate_singularity_data(genus, sing):
    """Check the index identity and the cardinality bounds; return the rank 2g+m-1."""
    rank = h2_rank(genus, sing.count)
    total = sum(n - 2 for n in sing.prongs)
    if total != 4 * genus - 4:
        raise IndexSumMismatch(f"sum of (prongs - 2) is {total}, expected {4 * genus - 4}")
    return rank


def h2_rank(genus, m):
    """Rank of the second homology of the mapping torus: 2g + m - 1."""
    genus, m = int_vector((genus, m), what="genus and singularity count")
    if genus < 2:
        raise GenusTooSmall(f"genus {genus} < 2")
    if not 1 <= m <= 4 * genus - 4:
        raise CardinalityOutOfRange(f"{m} singular points, allowed range 1..{4 * genus - 4}")
    return 2 * genus + m - 1


def euler_pairing_fiber(genus):
    """|Euler class paired with the fiber class| = |2 - 2g| = 2g - 2."""
    (genus,) = int_vector((genus,), what="genus")
    if genus < 2:
        raise GenusTooSmall(f"genus {genus} < 2")
    return 2 * genus - 2


def build_bundle(genus, sing, action):
    """Assemble and validate a bundle; the action must be primitive of rank 2g+m-1."""
    expected = validate_singularity_data(genus, sing)
    if action.k != expected:
        raise ActionDimensionMismatch(
            f"action matrix is {action.k}x{action.k}, expected {expected}x{expected}"
        )
    primitivity_check(action)
    return PseudoAnosovBundle(genus=genus, sing=sing, action=action)
