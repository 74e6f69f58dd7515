"""Trace-form norms on the homology of fibered 3-manifolds.

From a primitive integer matrix (the homology action of a pseudo-Anosov
monodromy) this package builds, exactly: the number field of the dominant
eigenvalue on its power-basis lattice, the trace functional on that
lattice, the induced integer norm on second homology with its positivity
cone, and the stationary dimension group ordering the same lattice.
"""

from .bundle import (
    PseudoAnosovBundle,
    SingularityData,
    build_bundle,
    euler_pairing_fiber,
    h2_rank,
    validate_singularity_data,
)
from .dimgroup import (
    DimGroupElement,
    StationaryDimGroup,
    bratteli_dot,
    elements_equal,
    is_positive,
    make_dim_group,
    order_unit,
    telescope,
)
from .exact import (
    CertificateStatus,
    IntMatrix,
    IntPolynomial,
    IrreducibilityCertificate,
    char_poly,
    factor_mod_p,
    first_primes,
    irreducibility_certificate,
    matrix_min_poly,
    newton_power_sums,
)
from .norm import (
    ConeCounterexample,
    ConeDescription,
    ConeRegion,
    DiagramMismatch,
    NormReport,
    cone_axiom_check,
    cone_membership,
    cone_points_text,
    diagram_consistency,
    enumerate_cone_points,
    fiber_class_report,
    gromov_from_thurston,
    norm_on_h2,
)
from .numberfield import (
    NumberFieldOrder,
    TraceFunctional,
    build_order,
    mult_matrix,
    norm_value,
    trace_functional,
    trace_via_embeddings,
    trace_via_mult,
    trace_via_newton,
)
from .perron import (
    PerronData,
    PositivitySign,
    Sign,
    eventual_positivity,
    perron_data,
    primitivity_check,
)

__all__ = [
    "CertificateStatus",
    "ConeCounterexample",
    "ConeDescription",
    "ConeRegion",
    "DiagramMismatch",
    "DimGroupElement",
    "IntMatrix",
    "IntPolynomial",
    "IrreducibilityCertificate",
    "NormReport",
    "NumberFieldOrder",
    "PerronData",
    "PositivitySign",
    "PseudoAnosovBundle",
    "Sign",
    "SingularityData",
    "StationaryDimGroup",
    "TraceFunctional",
    "bratteli_dot",
    "build_bundle",
    "build_order",
    "char_poly",
    "cone_axiom_check",
    "cone_membership",
    "cone_points_text",
    "diagram_consistency",
    "elements_equal",
    "enumerate_cone_points",
    "euler_pairing_fiber",
    "eventual_positivity",
    "factor_mod_p",
    "fiber_class_report",
    "first_primes",
    "gromov_from_thurston",
    "h2_rank",
    "irreducibility_certificate",
    "is_positive",
    "make_dim_group",
    "matrix_min_poly",
    "mult_matrix",
    "newton_power_sums",
    "norm_on_h2",
    "norm_value",
    "order_unit",
    "perron_data",
    "primitivity_check",
    "telescope",
    "trace_functional",
    "trace_via_embeddings",
    "trace_via_mult",
    "trace_via_newton",
    "validate_singularity_data",
]

__version__ = "0.1.0"
