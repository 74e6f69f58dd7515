"""The result records: named, immutable fields with value semantics.

Each of the eleven records the layers pass around builds by keyword or
by position, fills its defaults, prints as ``Name(field=value, ...)``,
hashes equal when equal, refuses assignment and deletion, and survives
pickle, ``copy`` and ``deepcopy``.  ``SingularityData`` and
``DimGroupElement`` check their input on every path that makes one:
construction, ``_make`` and ``_replace``.
"""

import copy
import pickle

import pytest

from fibernorm import (
    CertificateStatus,
    ConeDescription,
    DimGroupElement,
    IntMatrix,
    IntPolynomial,
    IrreducibilityCertificate,
    NormReport,
    PerronData,
    PositivitySign,
    PseudoAnosovBundle,
    Sign,
    SingularityData,
    StationaryDimGroup,
    TraceFunctional,
)
from fibernorm.errors import CardinalityOutOfRange, ProngTooSmall
from fibernorm.norm import ConeCounterexample

# README's report fixture
ROWS = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
ROWS_REPR = "IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])"

# (record, field names, field values, defaults of the trailing fields, repr)
RECORDS = [
    (
        IrreducibilityCertificate,
        "status witness_prime factor_degrees patterns factor",
        (CertificateStatus.IRREDUCIBLE, 2, (4,), ((2, (4,)),), None),
        {"witness_prime": None, "factor_degrees": None, "patterns": (), "factor": None},
        "IrreducibilityCertificate(status=<CertificateStatus.IRREDUCIBLE: 'Irreducible'>,"
        " witness_prime=2, factor_degrees=(4,), patterns=((2, (4,)),), factor=None)",
    ),
    (
        TraceFunctional,
        "t",
        ((4, 1, 3, 7),),
        {},
        "TraceFunctional(t=(4, 1, 3, 7))",
    ),
    (
        PositivitySign,
        "sign witness bound",
        (Sign.POSITIVE, 3, None),
        {"witness": None, "bound": None},
        "PositivitySign(sign=<Sign.POSITIVE: 'Positive'>, witness=3, bound=None)",
    ),
    (
        PerronData,
        "eigenvalue right left gap witness",
        (1.5, (0.25, 0.75), (0.5, 0.5), 0.125, 4),
        {},
        "PerronData(eigenvalue=1.5, right=(0.25, 0.75), left=(0.5, 0.5), gap=0.125, witness=4)",
    ),
    (
        ConeDescription,
        "functional",
        (TraceFunctional((4, 1, 3, 7)),),
        {},
        "ConeDescription(functional=TraceFunctional(t=(4, 1, 3, 7)))",
    ),
    (
        ConeCounterexample,
        "kind z other scale value",
        ("addition", (0, -1), (1, -1), None, -1),
        {},
        "ConeCounterexample(kind='addition', z=(0, -1), other=(1, -1), scale=None, value=-1)",
    ),
    (
        NormReport,
        "genus singularities rank charpoly functional fiber_class norm_at_fiber"
        " thurston_fiber_target discrepancy gromov_value dual_euler_value negative_fiber_norm",
        (2, (6,), 4, IntPolynomial([-1, -1, -1, -1, 1]), TraceFunctional((4, 1, 3, 7)),
         (0, 2, 0, 0), 2, 2, 0, 4, 2, False),
        {},
        "NormReport(genus=2, singularities=(6,), rank=4,"
        " charpoly=IntPolynomial([-1, -1, -1, -1, 1]), functional=TraceFunctional(t=(4, 1, 3, 7)),"
        " fiber_class=(0, 2, 0, 0), norm_at_fiber=2, thurston_fiber_target=2, discrepancy=0,"
        " gromov_value=4, dual_euler_value=2, negative_fiber_norm=False)",
    ),
    (
        SingularityData,
        "prongs",
        ((3, 5),),
        {},
        "SingularityData(prongs=(3, 5))",
    ),
    (
        PseudoAnosovBundle,
        "genus sing action",
        (2, SingularityData((6,)), IntMatrix(ROWS)),
        {},
        f"PseudoAnosovBundle(genus=2, sing=SingularityData(prongs=(6,)), action={ROWS_REPR})",
    ),
    (
        StationaryDimGroup,
        "matrix witness",
        (IntMatrix(ROWS), 4),
        {},
        f"StationaryDimGroup(matrix={ROWS_REPR}, witness=4)",
    ),
    (
        DimGroupElement,
        "v stage",
        ((1, -1, 0, 0), 2),
        {"stage": 0},
        "DimGroupElement(v=(1, -1, 0, 0), stage=2)",
    ),
]

CASES = pytest.mark.parametrize(
    "cls, names, values, defaults, text", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)


@CASES
def test_keyword_and_positional_construction(cls, names, values, defaults, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names.split(), values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in names.split()) == values


@CASES
def test_defaults_fill_the_trailing_fields(cls, names, values, defaults, text):
    names = names.split()
    required = dict(zip(names[: len(names) - len(defaults)], values))
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults
    assert record == cls(*required.values(), *defaults.values())


@CASES
def test_repr_text(cls, names, values, defaults, text):
    assert repr(cls(*values)) == text


@CASES
def test_equal_records_have_equal_hashes(cls, names, values, defaults, text):
    first, second = cls(*values), cls(*copy.deepcopy(values))
    assert first == second
    assert hash(first) == hash(second)


@CASES
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, defaults, text):
    record = cls(*values)
    for name in [*names.split(), "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@CASES
def test_pickle_copy_and_deepcopy_round_trip(cls, names, values, defaults, text):
    record = cls(*values)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is cls
        assert other == record
        assert repr(other) == text


def test_properties():
    assert SingularityData((6, 3, 3)).count == 3
    assert PseudoAnosovBundle(2, SingularityData((6,)), IntMatrix(ROWS)).rank == 4
    assert StationaryDimGroup(IntMatrix(ROWS), 4).k == 4
    assert ConeDescription(TraceFunctional((4, 1, 3, 7))).value((0, 2, 0, 0)) == 2


# --- the two records that check their input -----------------------------------
# Each case runs through construction, _make and _replace (from a valid record).

def _construct(cls, valid, args):
    return cls(*args)


def _make(cls, valid, args):
    return cls._make(args)


def _replace(cls, valid, args):
    return cls(*valid)._replace(**dict(zip(cls._fields, args)))


PATHS = pytest.mark.parametrize("path", [_construct, _make, _replace],
                                 ids=["construct", "make", "replace"])

SING_VALID = ((6,),)
ELEMENT_VALID = ((1, -1), 0)


@PATHS
def test_singularity_data_sorts_its_prongs(path):
    assert path(SingularityData, SING_VALID, ([5, 3, 4],)).prongs == (3, 4, 5)


@PATHS
@pytest.mark.parametrize("prongs, error", [
    ((), CardinalityOutOfRange),
    ((6, 2), ProngTooSmall),
    ((2,), ProngTooSmall),
    ((6.0,), TypeError),
    ((2.0,), TypeError),  # the type check comes before the prong check
])
def test_singularity_data_checks_its_prongs(path, prongs, error):
    with pytest.raises(error):
        path(SingularityData, SING_VALID, (prongs,))


@PATHS
def test_dim_group_element_normalizes_its_vector(path):
    element = path(DimGroupElement, ELEMENT_VALID, ([3, True], 1))
    assert element.v == (3, True) and type(element.v) is tuple
    assert element.stage == 1


@PATHS
@pytest.mark.parametrize("v, stage, error", [
    ((1.0, 2), 0, TypeError),
    (("1", 2), 0, TypeError),
    ((1, 2), -1, ValueError),
    ((1, 2), 1.0, TypeError),
    ((1.0, 2), -1, TypeError),  # v is checked before stage
])
def test_dim_group_element_checks_its_input(path, v, stage, error):
    with pytest.raises(error):
        path(DimGroupElement, ELEMENT_VALID, (v, stage))
