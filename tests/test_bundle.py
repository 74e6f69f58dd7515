"""Genus/singularity validation, rank formula, Euler pairing."""

from itertools import combinations_with_replacement

import pytest

from fibernorm.bundle import (
    SingularityData,
    build_bundle,
    euler_pairing_fiber,
    h2_rank,
    validate_singularity_data,
)
from fibernorm.errors import (
    ActionDimensionMismatch,
    CardinalityOutOfRange,
    GenusTooSmall,
    IndexSumMismatch,
    NotPrimitive,
    ProngTooSmall,
)
from fibernorm.exact import IntMatrix

FOURNACCI = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])


def _validates(genus, prongs):
    try:
        validate_singularity_data(genus, SingularityData(prongs))
        return True
    except (GenusTooSmall, ProngTooSmall, CardinalityOutOfRange, IndexSumMismatch):
        return False


def test_singularity_data_normalizes_and_guards():
    assert SingularityData((4, 3, 3, 4)).prongs == (3, 3, 4, 4)
    with pytest.raises(ProngTooSmall):
        SingularityData((3, 2))
    with pytest.raises(CardinalityOutOfRange):
        SingularityData(())


def test_validate_examples():
    # the validator returns the rank 2g + m - 1 its bounds check computes
    assert validate_singularity_data(2, SingularityData((3, 3, 3, 3))) == 7
    assert validate_singularity_data(2, SingularityData((6,))) == 4
    assert validate_singularity_data(3, SingularityData((3,) * 8)) == 2 * 3 + 8 - 1
    with pytest.raises(IndexSumMismatch):
        validate_singularity_data(2, SingularityData((3, 4)))
    with pytest.raises(GenusTooSmall):
        validate_singularity_data(1, SingularityData((3, 3, 3, 3)))
    with pytest.raises(CardinalityOutOfRange):
        validate_singularity_data(2, SingularityData((3,) * 5))


def test_validator_agrees_with_partition_enumeration():
    # a prong multiset is valid exactly when the shifted parts n-2 >= 1
    # form a partition of 4g-4
    for genus in (2, 3):
        target = 4 * genus - 4
        for m in range(1, 4 * genus - 2):
            for prongs in combinations_with_replacement(range(3, 4 * genus + 1), m):
                expected = sum(n - 2 for n in prongs) == target and m <= target
                assert _validates(genus, prongs) == expected


def test_extreme_singularity_data_both_accepted():
    for genus in (2, 3, 4):
        validate_singularity_data(genus, SingularityData((4 * genus - 2,)))
        validate_singularity_data(genus, SingularityData((3,) * (4 * genus - 4)))


def test_h2_rank_examples_and_formula():
    assert h2_rank(2, 4) == 7
    assert h2_rank(2, 1) == 4
    assert h2_rank(3, 1) == 6
    for genus in range(2, 11):
        for m in range(1, 4 * genus - 3):
            assert h2_rank(genus, m) == 2 * genus + m - 1
            # relation used by the report: rank exceeds the fiber norm by m+1
            assert h2_rank(genus, m) - (2 * genus - 2) == m + 1
    with pytest.raises(GenusTooSmall):
        h2_rank(1, 1)
    with pytest.raises(CardinalityOutOfRange):
        h2_rank(2, 0)
    with pytest.raises(CardinalityOutOfRange):
        h2_rank(2, 5)


def test_euler_pairing_examples():
    assert euler_pairing_fiber(2) == 2
    assert euler_pairing_fiber(3) == 4
    assert euler_pairing_fiber(5) == 8
    with pytest.raises(GenusTooSmall):
        euler_pairing_fiber(1)


def test_euler_pairing_is_half_the_index_sum():
    for genus in (2, 3):
        for prongs in (((4 * genus - 2),), (3,) * (4 * genus - 4)):
            sing = SingularityData(prongs)
            validate_singularity_data(genus, sing)
            assert euler_pairing_fiber(genus) == sum(n - 2 for n in sing.prongs) // 2


def test_build_bundle_examples():
    bundle = build_bundle(2, SingularityData((6,)), FOURNACCI)
    assert bundle.rank == 4
    seven = IntMatrix([[1 if abs(i - j) <= 1 else 0 for j in range(7)] for i in range(7)])
    bundle = build_bundle(2, SingularityData((3, 3, 3, 3)), seven)
    assert bundle.rank == 7
    with pytest.raises(ActionDimensionMismatch):
        build_bundle(2, SingularityData((6,)), IntMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]]))


def test_build_bundle_requires_primitive_action():
    with pytest.raises(NotPrimitive):
        build_bundle(2, SingularityData((6,)), IntMatrix.identity(4))
