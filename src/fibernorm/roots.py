"""Floating-point root finding for integer polynomials.

Used for the Perron root and gap, the field embeddings (a numeric
cross-check) and candidate factors for the irreducibility certificate;
no exact result depends on these values, since a proposed factor counts
only after an exact division.
"""

import math

from .errors import NoConvergence

_MAX_SWEEPS = 600
_STEP_TOL = 1e-13


def _newton_polygon_starts(coeffs):
    """Start points from the Newton polygon of the coefficients.

    The upper convex hull of the points (i, log|a_i|) over the nonzero a_i
    splits the degree into edges; an edge from i to j gives j - i points,
    evenly spaced on the circle of radius (|a_i| / |a_j|)^(1/(j - i)),
    which is about the modulus of that many roots (Bini 1996).  Vertices
    that are collinear up to rounding are merged, since equal radii on two
    edges would give coincident points.  When a_0 .. a_{m-1} are zero, m
    start points sit at 0, already a root of that multiplicity.
    """
    n = len(coeffs) - 1
    low = next(i for i, c in enumerate(coeffs) if c)
    hull = []
    for i in range(low, n + 1):
        if not coeffs[i]:
            continue
        point = (i, math.log(abs(coeffs[i])))
        # Pop the last vertex while it lies on or below the chord from the
        # one before it to the new point; 1e-9 in log|a| absorbs the
        # rounding of the logarithms.
        while len(hull) >= 2:
            (i0, y0), (i1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (i - i0) > (point[1] - y0) * (i1 - i0) + 1e-9 * (i - i0):
                break
            hull.pop()
        hull.append(point)
    z = [0j] * low
    for (i, y), (j, w) in zip(hull, hull[1:]):
        count = j - i
        radius = math.exp((y - w) / count)
        # The offset keeps the points off the real axis and off any root
        # symmetry line, and turns each edge's points differently.
        turn = 2 * math.pi * i / n + 0.37
        z += [radius * complex(math.cos(a), math.sin(a))
              for a in (turn + 2 * math.pi * g / count for g in range(count))]
    return z


def complex_roots(p):
    """All complex roots of p, via Aberth-Ehrlich simultaneous iteration.

    Start points come from the Newton polygon of p (_newton_polygon_starts).
    Each sweep visits the roots in turn and updates each in place
    (Gauss-Seidel order): one Horner pass gives p(z) and p'(z), and the
    Aberth step is N / (1 - N * sum 1/(z - w)) over the other iterates w,
    with N = p(z) / p'(z) the Newton correction.  A root is frozen once
    |N| <= _STEP_TOL * (1 + |z|), or once |p(z)| is at most the rounding
    error of Horner's rule, 2^-53 * sum |a_i| |z|^i, which is where the
    iterates of a repeated root stop; a value whose modulus is past the
    float range is never frozen.  The iteration stops when all roots are
    frozen, after _MAX_SWEEPS sweeps, or at the first iterate that is not
    finite, which is returned as it stands.  Returns roots sorted by real
    part, then imaginary part.  Raises NoConvergence when a coefficient
    ratio does not fit in a float.
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

    z = _newton_polygon_starts(coeffs)
    _aberth(z, coeffs[-2::-1])
    return sorted(z, key=lambda w: (w.real, w.imag))


def _aberth(z, lower):
    """Sweep the Aberth-Ehrlich update over z in place (see complex_roots).

    lower holds a_{n-1} .. a_0 of the monic polynomial.
    """
    terms = [(c, abs(c)) for c in lower]
    active = range(len(z))
    for _ in range(_MAX_SWEEPS):
        still = []
        for i in active:
            zi = z[i]
            value = 1.0
            slope = 0j
            floor = 1.0
            try:
                r = abs(zi)
                for c, m in terms:
                    slope = slope * zi + value
                    value = value * zi + c
                    floor = floor * r + m
                size = abs(value)
                frozen = size < math.inf and (
                    size <= _STEP_TOL * (1.0 + r) * abs(slope) or size <= 2.0**-53 * floor < math.inf
                )
            except OverflowError:  # abs() of a complex whose modulus is past the float range
                frozen = False
            if frozen:
                continue
            repulsion = 0j
            for w in z:
                d = zi - w
                if d:  # skips z[i] itself, and any iterate equal to it
                    repulsion += 1.0 / d
            zi -= value / (slope - value * repulsion)
            z[i] = zi
            if not (math.isfinite(zi.real) and math.isfinite(zi.imag)):
                return
            still.append(i)
        if not still:
            return
        active = still
