"""Trace-form norms on the homology of fibered 3-manifolds.

From a primitive integer matrix (the homology action of a pseudo-Anosov
monodromy) this package builds, exactly: the number field of the dominant
eigenvalue on its power-basis lattice, the trace functional on that
lattice, the induced integer norm on second homology with its positivity
cone, and the stationary dimension group ordering the same lattice.

Public names resolve on first use: ``fibernorm.char_poly`` imports
``fibernorm.exact`` when it is first read, so a process loads only the
layers it touches.  Nothing is cached in this namespace; each read looks
the name up in its defining module.
"""

from importlib import import_module

# public name -> the module that defines it
_SOURCE = {
    "CertificateStatus": "exact",
    "ConeCounterexample": "norm",
    "ConeDescription": "norm",
    "ConeRegion": "norm",
    "DimGroupElement": "dimgroup",
    "IntMatrix": "matrix",
    "IntPolynomial": "exact",
    "IrreducibilityCertificate": "exact",
    "NormReport": "norm",
    "NumberFieldOrder": "numberfield",
    "PerronData": "perron",
    "PositivitySign": "perron",
    "PseudoAnosovBundle": "bundle",
    "Sign": "perron",
    "SingularityData": "bundle",
    "StationaryDimGroup": "dimgroup",
    "TraceFunctional": "numberfield",
    "bratteli_dot": "dimgroup",
    "build_bundle": "bundle",
    "build_order": "numberfield",
    "char_poly": "exact",
    "cone_axiom_check": "norm",
    "cone_membership": "norm",
    "cone_points_text": "norm",
    "enumerate_cone_points": "norm",
    "euler_pairing_fiber": "bundle",
    "eventual_positivity": "perron",
    "factor_mod_p": "exact",
    "fiber_class_report": "norm",
    "h2_rank": "bundle",
    "irreducibility_certificate": "exact",
    "make_dim_group": "dimgroup",
    "matrix_min_poly": "exact",
    "mult_matrix": "numberfield",
    "newton_power_sums": "exact",
    "norm_value": "numberfield",
    "perron_data": "perron",
    "primitivity_check": "perron",
    "telescope": "dimgroup",
    "trace_functional": "numberfield",
    "trace_via_embeddings": "numberfield",
    "trace_via_mult": "numberfield",
    "trace_via_newton": "numberfield",
    "validate_singularity_data": "bundle",
}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
