"""One integer-vector rule for every public entry point that takes a vector.

A float or a string entry is a TypeError and a wrong length is a
DimensionMismatch; nothing is truncated or parsed into a wrong answer.
Scalar integer arguments (stages, radii, levels and genus) follow the
same rule.
"""

import math

import pytest

from fibernorm import perron
from fibernorm.bundle import SingularityData, build_bundle, euler_pairing_fiber, h2_rank
from fibernorm.dimgroup import (
    DimGroupElement,
    bratteli_dot,
    make_dim_group,
    telescope,
)
from fibernorm.errors import DimensionMismatch
from fibernorm.exact import IntMatrix, char_poly, irreducibility_certificate, int_vector
from fibernorm.norm import (
    ConeDescription,
    cone_axiom_check,
    cone_membership,
    cone_points_text,
    enumerate_cone_points,
    fiber_class_report,
)
from fibernorm.numberfield import (
    TraceFunctional,
    build_order,
    mult_matrix,
    norm_value,
    trace_via_embeddings,
    trace_via_mult,
    trace_via_newton,
)
from fibernorm.perron import eventual_positivity, perron_data

FIB = IntMatrix([[1, 1], [1, 0]])
FOURNACCI = IntMatrix([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
FIB_ORDER = build_order(FIB)
FIB_GROUP = make_dim_group(FIB)
T21 = TraceFunctional((2, 1))
CONE = ConeDescription(T21)
BUNDLE = build_bundle(2, SingularityData((6,)), FOURNACCI)

# name -> (call on one vector, required length or None when the entry
# point has nothing to measure the length against)
ENTRY_POINTS = {
    "norm_value": (lambda v: norm_value(T21, v), 2),
    "cone_membership": (lambda v: cone_membership(CONE, v), 2),
    "ConeDescription.value": (CONE.value, 2),
    "trace_via_mult": (lambda v: trace_via_mult(FIB_ORDER, v), 2),
    "trace_via_newton": (lambda v: trace_via_newton(FIB_ORDER, v), 2),
    "trace_via_embeddings": (lambda v: trace_via_embeddings(FIB_ORDER, v), 2),
    "mult_matrix": (lambda v: mult_matrix(FIB_ORDER, v), 2),
    "eventual_positivity": (lambda v: eventual_positivity(FIB, v), 2),
    "DimGroupElement": (DimGroupElement, None),
    "telescope": (lambda v: telescope(FIB_GROUP, DimGroupElement(v), 1), 2),
    "fiber_class_report": (lambda v: fiber_class_report(BUNDLE, v), 4),
    "IntMatrix.apply": (FIB.apply, 2),
    "SingularityData": (SingularityData, None),
}


def _cases():
    for name, (call, length) in ENTRY_POINTS.items():
        k = length or 1
        yield pytest.param(call, (1.5,) + (1,) * (k - 1), TypeError, id=f"{name}-float")
        yield pytest.param(call, ("3",) + (0,) * (k - 1), TypeError, id=f"{name}-str")
        if length is not None:
            yield pytest.param(call, (1,) * (k + 1), DimensionMismatch, id=f"{name}-length")
    # Answers that truncating int() once gave silently: Zero, 1 and 6.
    positivity, _ = ENTRY_POINTS["eventual_positivity"]
    yield pytest.param(positivity, (0.9, 0.9), TypeError, id="eventual_positivity-0.9")
    trace, _ = ENTRY_POINTS["trace_via_mult"]
    yield pytest.param(trace, (0.5, 1.7), TypeError, id="trace_via_mult-0.5-1.7")
    norm, _ = ENTRY_POINTS["norm_value"]
    yield pytest.param(norm, ("3", 0), TypeError, id="norm_value-str-3")


@pytest.mark.parametrize("call, vector, error", _cases())
def test_vector_arguments_are_strict(call, vector, error):
    with pytest.raises(error):
        call(vector)


def test_int_vector_accepts_ints_and_bools():
    assert int_vector([True, 0, -(2**100)], 3) == (True, 0, -(2**100))
    assert norm_value(T21, (True, 0)) == 2


# One call per scalar argument: a float once gave a wrong answer
# (a positive element at stage 0.5, rank 5.0, Euler pairing 3.0) or the
# ValueError of islice() or the TypeError of range().
SCALAR_CALLS = {
    "DimGroupElement-stage": lambda: DimGroupElement((1, 0), 0.5),
    "h2_rank-genus": lambda: h2_rank(2.5, 1),
    "h2_rank-count": lambda: h2_rank(2, 1.0),
    "enumerate_cone_points": lambda: enumerate_cone_points(CONE, 1.5),
    "cone_points_text": lambda: cone_points_text(CONE, 1.5),
    "cone_axiom_check": lambda: cone_axiom_check(CONE, 1.5, 2.5),
    "cone_axiom_check-scale": lambda: cone_axiom_check(CONE, 1, 2.0),
    "telescope": lambda: telescope(FIB_GROUP, DimGroupElement((1, 0)), 1.5),
    "bratteli_dot": lambda: bratteli_dot(FIB_GROUP, 2.5),
    "euler_pairing_fiber": lambda: euler_pairing_fiber(2.5),
}


def _scalar_cases():
    for name, call in SCALAR_CALLS.items():
        yield pytest.param(call, "must be integers", id=name)
    # perron_data takes no iteration limit, so a float one is refused as an
    # unknown argument before it could reach the iteration.
    yield pytest.param(
        lambda: perron_data(FIB, max_iter=2.5),
        "unexpected keyword argument 'max_iter'",
        id="perron_data-max_iter",
    )
    # Nor does a certificate or an order take a prime budget.
    yield pytest.param(
        lambda: build_order(FIB, 2.5), "takes 1 positional argument", id="build_order-prime_budget"
    )
    yield pytest.param(
        lambda: irreducibility_certificate(char_poly(FIB), 2.5),
        "takes 1 positional argument",
        id="irreducibility_certificate",
    )


@pytest.mark.parametrize("call, message", _scalar_cases())
def test_scalar_arguments_are_strict(call, message):
    with pytest.raises(TypeError, match=message):
        call()


# A tolerance that is not finite and positive once ran every iteration
# before NoConvergence (nan, 0, -1) or stopped after one (inf). The
# tolerance is now fixed, finite and positive, and none can be passed in.
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-12])
def test_perron_tolerance_must_be_finite_and_positive(tol):
    assert math.isfinite(perron._TOL) and perron._TOL > 0
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        perron_data(FIB, tol=tol)


# perron_data's stopping rule is fixed: a tolerance or an iteration limit
# could only turn a report into NoConvergence, so neither is accepted.
def test_perron_data_takes_only_the_matrix():
    with pytest.raises(TypeError):
        perron_data(FIB, tol=1e-12)
    with pytest.raises(TypeError):
        perron_data(FIB, max_iter=3)


# The certificate reads a fixed number of primes (exact._CERTIFICATE_PRIMES):
# no function that builds one takes a prime budget, by position or by name.
PRIME_BUDGET_CALLS = {
    "irreducibility_certificate": lambda *budget, **named: irreducibility_certificate(
        char_poly(FIB), *budget, **named
    ),
    "build_order": lambda *budget, **named: build_order(FIB, *budget, **named),
    "fiber_class_report": lambda *budget, **named: fiber_class_report(
        BUNDLE, (0, 2, 0, 0), *budget, **named
    ),
}


@pytest.mark.parametrize("name", PRIME_BUDGET_CALLS)
def test_no_function_takes_a_prime_budget(name):
    call = PRIME_BUDGET_CALLS[name]
    call()  # the budget-free call works
    with pytest.raises(TypeError):
        call(10)
    with pytest.raises(TypeError, match="unexpected keyword argument 'prime_budget'"):
        call(prime_budget=10)


# trace_via_embeddings' integer test uses a fixed tolerance
# (numberfield._EMBEDDING_TOL), so none can be passed in.
def test_trace_via_embeddings_takes_no_tolerance():
    assert trace_via_embeddings(FIB_ORDER, (1, 1)) == 3
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        trace_via_embeddings(FIB_ORDER, (1, 1), tol=1e-8)
    with pytest.raises(TypeError):
        trace_via_embeddings(FIB_ORDER, (1, 1), 1e-8)
