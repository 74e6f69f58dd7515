"""Floating-point root finding for integer polynomials.

Used for the Perron root and gap, the field embeddings (a numeric
cross-check) and candidate factors for the irreducibility certificate;
no exact result depends on these values, since a proposed factor counts
only after an exact division.
"""

import cmath

from .errors import NoConvergence

_MAX_SWEEPS = 600
_STEP_TOL = 1e-13


def complex_roots(p):
    """All complex roots of p, via Durand-Kerner simultaneous iteration.

    Deterministic start points on the circle whose radius is the geometric
    mean of the root moduli, |a_0 / a_n|^(1/n) (1 when a_0 = 0), updated
    in place (Gauss-Seidel style).  Returns roots sorted by real part,
    then imaginary part.  Raises NoConvergence when a coefficient ratio
    does not fit in a float.
    """
    n = p.degree
    if n <= 0:
        return []
    lead = p.coeffs[-1]
    try:
        coeffs = [c / lead for c in p.coeffs]
    except OverflowError:
        raise NoConvergence("polynomial coefficients do not fit in a float") from None
    if n == 1:
        return [complex(-coeffs[0])]

    def value(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    radius = abs(coeffs[0]) ** (1 / n) or 1.0
    # Offset angle keeps the start points off the real axis and off any
    # root symmetry line.
    z = [radius * cmath.exp(1j * (2 * cmath.pi * i / n + 0.37)) for i in range(n)]
    for _ in range(_MAX_SWEEPS):
        worst = 0.0
        for i in range(n):
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            if den == 0:
                z[i] += 1e-8 + 1e-8j
                worst = float("inf")
                continue
            step = value(z[i]) / den
            z[i] -= step
            worst = max(worst, abs(step) / (1.0 + abs(z[i])))
        if worst <= _STEP_TOL:
            break
    return sorted(z, key=lambda w: (w.real, w.imag))
