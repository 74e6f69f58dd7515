"""Exact integer polynomials, polynomials of integer matrices, and certificates.

Everything in this module is arbitrary precision and uses only exact
arithmetic (the characteristic polynomial comes from Krylov solves modulo
a few primes below 2^27 joined by the Chinese remainder theorem, or from
one solve modulo a power of the prime 2^61 - 1, either made exact by a
proved coefficient bound, or from Berkowitz's recursion, which does no
division at all), so results are bit-for-bit reproducible.  Floats enter
only the search for a rational factor of degree 2 or more (integer roots
are found exactly, by Hensel lifting): numeric roots propose candidate
factors, and only an exact division accepts one.  All values are
immutable once built.
"""

import cmath
import itertools
from array import array
from collections import namedtuple
from enum import Enum
from math import gcd, isqrt
from operator import mul
from sys import byteorder

from .errors import BadReductionPrime, NoConvergence
from .matrix import IntMatrix, int_vector
from .roots import complex_roots

# Past this degree no rational factor is searched for (at most 162 root
# subsets below it); the certificate stays Undecided.
_FACTOR_SEARCH_MAX_DEGREE = 8

# The reduction primes read, in order: _squarefree_prime and the
# certificate try the first 20 primes, and no caller sets them.  Measured
# on the char polys of seeded random primitive 0-2 matrices: of 720 at
# k = 8-32, the first 10 primes left 8 Undecided, and all 8 are Irreducible
# after 11-18 primes; of 2,360 at k = 4-24, every one that 100 primes
# decide needs at most 15.  A polynomial that no count decides (x^4 + 1
# splits mod every prime) pays for all of them.
_CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# The factor search runs once this many primes in a row narrow nothing, so
# a reducible polynomial of degree at most 8 with no integer root, whose
# patterns never empty the open degrees, is found after _STALL_PRIMES
# primes, not after all of _CERTIFICATE_PRIMES.
_STALL_PRIMES = 4

# char_poly's choice between its two exact paths, set from timings of both
# on seeded random matrices: Berkowitz's recursion is the faster at and
# below _BERKOWITZ_MAX_K on 0-2 matrices, and, by up to 3.5x, once the
# coefficient bound passes _KRYLOV_MAX_ROW_BITS bits per row (dense entries
# of 32 bits and wider), where the solve's k^3/3 products of numbers the
# size of Q dominate.
_BERKOWITZ_MAX_K = 8
_KRYLOV_MAX_ROW_BITS = 24

_MERSENNE = 2**61 - 1  # a prime: the Krylov solve runs modulo a power of it

# The lane primes: the 32 largest primes below 2^27, descending (the test
# files prove each one prime).  As p < 2^27, k (p - 1)^2 + p < 2^64 for
# every k <= _LANE_MAX_K, so no sum the lane solve forms carries out of
# its 64-bit lane.  The Krylov path takes the lane solve from
# _LANE_MIN_K on when at most one lane prime per _LANE_K_PER_PRIME rows,
# and at most _LANE_MAX_PRIMES, pass twice the coefficient bound; the
# primes past those are spares for the ones that divide det K.
_LANE_PRIMES = (
    134217689, 134217649, 134217617, 134217613, 134217593, 134217541, 134217529, 134217509,
    134217497, 134217493, 134217487, 134217467, 134217439, 134217437, 134217409, 134217403,
    134217401, 134217367, 134217361, 134217353, 134217323, 134217301, 134217277, 134217257,
    134217247, 134217221, 134217199, 134217173, 134217163, 134217157, 134217131, 134217103,
)
_LANE_MAX_K = 1023
_LANE_MIN_K = 16
_LANE_K_PER_PRIME = 6
_LANE_MAX_PRIMES = 24
_LANE_MASK = 2**64 - 1

# IntPolynomial._squarefree_q before _squarefree_prime has run on it
_UNKNOWN = object()


class IntPolynomial:
    """Polynomial with integer coefficients, ascending degree order.

    ``coeffs[0]`` is the constant term.  The zero polynomial is stored
    with an empty coefficient tuple and reports degree -1.  The private
    slot _squarefree_q keeps the prime found by _squarefree_prime, so
    that it runs once per polynomial object; __eq__ and __hash__ read
    only the coefficients.

    >>> IntPolynomial([1, -3, 1]).degree
    2
    >>> IntPolynomial([1, -3, 1])(2)
    -1
    """

    __slots__ = ("coeffs", "_squarefree_q")

    def __init__(self, coeffs=()):
        cleaned = list(int_vector(coeffs, what="coefficient"))
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)
        self._squarefree_q = _UNKNOWN

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        result = 0 * x
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __reduce__(self):
        # a copy is a fresh polynomial: _squarefree_q must be this module's
        # _UNKNOWN, not an unpickled copy of it
        return type(self), (self.coeffs,)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def div_rem(self, divisor):
        """Exact division by a monic divisor: returns (quotient, remainder)."""
        if not divisor.is_monic:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.coeffs
        shift = len(rem) - len(d)
        if shift < 0:
            return IntPolynomial(), self
        quot = [0] * (shift + 1)
        for i in reversed(range(shift + 1)):
            c = rem[i + len(d) - 1]
            if c:
                quot[i] = c
                for j, b in enumerate(d):
                    rem[i + j] -= c * b
        return IntPolynomial(quot), IntPolynomial(rem)


def char_poly(A):
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Past _BERKOWITZ_MAX_K it comes from the Krylov vectors A^j e_1
    (_char_poly_krylov): solved modulo a few word primes, one at a time,
    when few of them cover the coefficient bound for the size of A
    (_char_poly_lanes), else in one solve modulo a power of 2^61 - 1
    (_char_poly_mersenne).  At and below the cutover, and whenever the
    Krylov path declines (e_1 not cyclic for A, which includes every
    derogatory A; no pivot modulo the first prime; or a coefficient bound
    past _KRYLOV_MAX_ROW_BITS bits per row), from Berkowitz's
    division-free recursion (_berkowitz).  All three are exact and give
    the same polynomial.
    """
    if A.k > _BERKOWITZ_MAX_K:
        p = _char_poly_krylov(A)
        if p is not None:
            return p
    return _berkowitz(A)


def _coefficient_bound(A):
    """B with |c| <= B for every coefficient c of char_poly(A).

    The coefficient of x^{k-i} is, up to sign, the sum of the i x i
    principal minors; Hadamard bounds each by the product of its rows'
    (or columns') 2-norms, and those by the whole rows' (columns').  So
    the i-th elementary symmetric function e_i of the rounded-up row
    norms bounds it, and so does that of the column norms: B is the
    smaller of the two maxima over i.
    """

    def max_elementary(vectors):
        e = [1]  # e_0, ..., e_m of the norms read so far
        for vector in vectors:
            s = sum(map(mul, vector, vector))
            norm = isqrt(s)
            norm += norm * norm < s
            e = [a + norm * b for a, b in zip(e + [0], [0] + e)]
        return max(e)

    return min(max_elementary(A.rows), max_elementary(zip(*A.rows)))


def _char_poly_krylov(A):
    """char_poly(A) from the Krylov vectors v_j = A^j e_1, or None.

    When v_0, ..., v_{k-1} are independent, p(A) e_1 = 0 says p(x) = x^k -
    sum_j c_j x^j for the unique solution c of sum_j c_j v_j = v_k, and
    |c_j| <= B, the coefficient bound.  The solve is chosen from k and B
    alone.  The lane solve (_char_poly_lanes) runs for _LANE_MIN_K <= k
    <= _LANE_MAX_K when the first m = min(k // _LANE_K_PER_PRIME,
    _LANE_MAX_PRIMES) lane primes pass 2B, which holds once 2B has at
    most 26 m bits, as every lane prime exceeds 2^26.  Else the solve
    modulo a power of 2^61 - 1 (_char_poly_mersenne) runs while B has at
    most _KRYLOV_MAX_ROW_BITS bits per row, and past that None.

    The rule is set from timings of both solves (min of 7 calls, median
    over 4 seeded matrices per cell).  On dense 0-1, 0-2 and -3..3
    matrices the lane solve took 0.48-0.93x the time of the other at k =
    20-128 and about 0.8x at k = 16 (0-2 at k = 48: 0.57x, with 6
    primes); the one loss the rule lets in is -3..3 at k = 18, 1.04-1.12x
    with 3 primes.  It lost with 2 primes at k = 10-12 (up to 1.3x on
    -3..3) and with one on the k-cycle plus a self-loop at k = 9-14
    (1.1-1.2x), whose Krylov vectors are sparse.  A companion matrix's
    Krylov vectors are unit vectors, so the other solve is cheap there
    while the lane solve pays its dense cost: with 20-60-bit
    coefficients at k = 16-32 char_poly takes about 1.4x the time it took
    on the other solve.
    """
    k = A.k
    bound = _coefficient_bound(A)
    primes = min(k // _LANE_K_PER_PRIME, _LANE_MAX_PRIMES)
    if _LANE_MIN_K <= k <= _LANE_MAX_K and (2 * bound).bit_length() <= 26 * primes:
        return _char_poly_lanes(A, bound)
    if bound.bit_length() > _KRYLOV_MAX_ROW_BITS * k:
        return None
    return _char_poly_mersenne(A, bound)


def _char_poly_mersenne(A, bound):
    """char_poly(A) by one Krylov solve modulo a power of 2^61 - 1, or None.

    v_0, ..., v_k are exact (k^3 products).  The system sum_j c_j v_j =
    v_k is solved modulo Q, the least power of the prime M = _MERSENNE
    above twice the coefficient bound B, pivoting only on units mod Q:
    the entries M does not divide.  Unit pivots make the Krylov matrix
    invertible mod M, so its vectors are independent over the rationals
    and the solution mod Q is c mod Q; as |c_j| <= B < Q/2, the symmetric
    residues are c exactly.  None when some column has no unit left to
    pivot on.
    """
    rows = A.rows
    k = len(rows)
    Q = _MERSENNE
    while Q <= 2 * bound:
        Q *= _MERSENNE
    v = [row[0] for row in rows]  # v_1; v_0 = e_1
    krylov = [[int(i == 0) for i in range(k)], v]
    for _ in range(k - 1):
        v = [sum(map(mul, row, v)) for row in rows]
        krylov.append(v)
    # Entries are reduced mod Q only where read: a pivot row when it is
    # scaled, a multiplier f before use.  Each update in between adds one
    # term below Q^2, so an entry grows by at most k Q^2.
    system = [list(equation) for equation in zip(*krylov)]
    for j in range(k):
        r = next((r for r in range(j, k) if system[r][j] % _MERSENNE), None)
        if r is None:
            return None
        pivot = system[r]
        system[r] = system[j]
        inverse = pow(pivot[j], -1, Q)
        pivot = system[j] = [x * inverse % Q for x in pivot[j + 1 :]]
        for row in system[j + 1 :]:
            f = row[j] % Q
            if f:
                row[j + 1 :] = [x - f * y for x, y in zip(row[j + 1 :], pivot)]
    return _lift(_back_substitute(system, Q), Q)


def _char_poly_lanes(A, bound):
    """char_poly(A) by Krylov solves modulo the lane primes, or None.

    Each prime p of _LANE_PRIMES, in order, solves sum_j c_j v_j = v_k
    mod p (_lane_solve), and the Chinese remainder theorem joins the
    solutions until the product of the primes passes 2B; as |c_j| <= B,
    the symmetric residues are then c exactly.  A pivot for every column
    mod the first prime makes the Krylov matrix invertible mod p, so its
    vectors are independent over the rationals; None when it has none (as
    for M in _char_poly_mersenne), and a later prime with no pivot
    divides its determinant and is skipped.  None also if the primes run
    out, which needs more than the spare ones to divide that determinant.
    """
    rows = A.rows
    # a column whose entries are residues mod every lane prime is packed once
    columns = list(zip(*rows))
    packed = [_pack(column) if min(column) >= 0 and max(column) < _LANE_PRIMES[-1] else None
              for column in columns]
    c, modulus = None, 1
    for p in _LANE_PRIMES:
        reduced = [_pack([x % p for x in column]) if packed_column is None else packed_column
                   for packed_column, column in zip(packed, columns)]
        residues = _lane_solve(rows, reduced, p)
        if residues is None:
            if c is None:
                return None
            continue
        if c is None:
            c = residues
        else:  # Garner's step: x = c mod modulus and x = r mod p
            t = pow(modulus, -1, p)
            c = [x + modulus * ((r - x) * t % p) for x, r in zip(c, residues)]
        modulus *= p
        if modulus > 2 * bound:
            return _lift(c, modulus)
    return None


def _lane_solve(rows, columns, p):
    """The solution c of sum_j c_j v_j = v_k mod p, ascending, or None.

    Vectors and equations are packed into ints of 64-bit lanes (_pack),
    and columns[i] is column i of A mod p so packed.  A Krylov step A v =
    sum_i v_i columns[i] is one bigint sum, unpacked and reduced mod p.
    Equation r holds v_0[r], ..., v_k[r] from the lowest lane up; column
    j is eliminated from the rows below the pivot by one bigint update
    each, row >> 64 plus (-f mod p) times the pivot row right of its
    normalised pivot, with f the row's lowest lane.  Lanes start below
    p and each update adds at most (p - 1)^2 to one, so no lane exceeds
    k (p - 1)^2 + p < 2^64 (k <= _LANE_MAX_K) and none carries into the
    next.  None when some column has no pivot mod p.
    """
    k = len(rows)
    size = 8 * k
    v = [row[0] % p for row in rows]  # v_1; v_0 = e_1
    krylov = [[int(i == 0) for i in range(k)], v]
    for _ in range(k - 1):
        v = [x % p for x in _unpack(sum(map(mul, v, columns)), size)]
        krylov.append(v)
    system = [_pack(equation) for equation in zip(*krylov)]
    pivots = []  # pivot rows right of their unit, reduced mod p
    for j in range(k):
        r = next((r for r in range(j, k) if (system[r] & _LANE_MASK) % p), None)
        if r is None:
            return None
        lanes = _unpack(system[r], 8 * (k + 1 - j))
        system[r] = system[j]
        inverse = pow(lanes[0] % p, -1, p)
        pivot = [x * inverse % p for x in lanes[1:]]
        pivots.append(pivot)
        packed = _pack(pivot)
        system[j + 1 :] = [(row >> 64) + (-(row & _LANE_MASK) % p) * packed for row in system[j + 1 :]]
    return _back_substitute(pivots, p)


def _pack(values):
    """One int whose 64-bit lanes, lowest first, hold the values."""
    return int.from_bytes(array("Q", values).tobytes(), byteorder)


def _unpack(x, size):
    """The 64-bit lanes of x, lowest first, for x below 2^(8 size)."""
    return memoryview(x.to_bytes(size, byteorder)).cast("Q")


def _back_substitute(pivots, q):
    """c_0, ..., c_{k-1} mod q from the pivot rows of an elimination.

    pivots[j] holds row j right of its unit pivot: the entries of columns
    j + 1 .. k - 1, then the right-hand side.
    """
    c = []  # c_{k-1}, ..., c_0
    for u in reversed(pivots):
        c.append((u[-1] - sum(map(mul, u, reversed(c)))) % q)
    return c[::-1]


def _lift(c, modulus):
    """char_poly x^k - sum_j c_j x^j from c mod modulus, by symmetric residues."""
    return IntPolynomial([modulus - x if x > modulus // 2 else -x for x in c] + [1])


def _berkowitz(A):
    """char_poly(A) by Berkowitz's division-free recursion (Berkowitz 1984).

    Bordering the leading r x r block A_r by the row R, the column C and
    the corner a multiplies its char poly by the lower-triangular
    Toeplitz matrix with first column (1, -a, -R C, -R A_r C, ...,
    -R A_r^{r-1} C).
    """
    rows = A.rows
    cs = [1, -rows[0][0]]  # descending: coefficient of x^r, x^{r-1}, ...
    for r in range(1, A.k):
        v = [row[r] for row in rows[:r]]  # A_r^m C; map() stops after its r entries
        t = [1, -rows[r][r]]
        for _ in range(r):
            t.append(-sum(map(mul, rows[r], v)))
            v = [sum(map(mul, row, v)) for row in rows[:r]]
        cs = [sum(t[i - j] * cs[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return IntPolynomial(list(reversed(cs)))


def matrix_min_poly(A):
    """Monic minimal polynomial of A over the rationals.

    The minimal polynomial divides p = char_poly(A) and has every
    eigenvalue as a root, so it equals p whenever p is squarefree, which
    _squarefree_prime proves with one gcd in F_q[x] per prime tried: the
    usual cost is one char_poly.  Only a char poly not shown squarefree
    runs _min_poly_by_elimination, about k^6 bigint operations.  Either
    way the answer is exact: the primes bound the cost, not the result.
    """
    p = char_poly(A)
    if _squarefree_prime(p) is not None:
        return p
    return _min_poly_by_elimination(A)


def _min_poly_by_elimination(A):
    """Monic minimal polynomial of A from the matrix powers themselves.

    The first of I, A, A^2, ... to reduce to zero against the earlier ones
    (one fraction-free elimination, rows divided by their content) gives
    the smallest linear dependence; the result divides char_poly(A) and
    has integer coefficients.
    """
    k = A.k
    n = k * k
    kept = []  # (pivot, reduced power flattened, then its combination of powers)
    power = IntMatrix.identity(k)
    for d in range(k + 1):
        row = [x for r in power.rows for x in r] + [int(i == d) for i in range(k + 1)]
        for pivot, kept_row in kept:
            f = row[pivot]
            if f:
                g = kept_row[pivot]
                row = [g * x - f * y for x, y in zip(row, kept_row)]
                content = gcd(*row)
                row = [x // content for x in row]
        pivot = next((i for i in range(n) if row[i]), None)
        if pivot is None:
            lead = row[n + d]
            if any(c % lead for c in row):
                raise ArithmeticError("minimal polynomial came out non-integral")
            return IntPolynomial([c // lead for c in row[n : n + d + 1]])
        kept.append((pivot, row))
        power = power * A
    raise ArithmeticError("no annihilating polynomial up to the matrix dimension")


def newton_power_sums(p, J):
    """Power sums (p_0, ..., p_J) of the roots of a monic polynomial.

    Newton's identities on the coefficients, all exact.  When p is the
    characteristic polynomial of A, p_j equals tr(A^j).
    """
    if not p.is_monic:
        raise ValueError("power sums need a monic polynomial")
    if J < 0:
        raise ValueError("J must be nonnegative")
    k = p.degree
    if k < 1:
        raise ValueError("polynomial must have degree at least 1")
    # p_j = -([j <= k] j a_{k-j} + sum_{i=1}^{min(j-1,k)} a_{k-i} p_{j-i})
    a = p.coeffs
    sums = [k]
    for j in range(1, J + 1):
        s = sum(a[k - i] * sums[j - i] for i in range(1, min(j - 1, k) + 1))
        if j <= k:
            s += j * a[k - j]
        sums.append(-s)
    return tuple(sums)


def is_prime(n):
    """Whether n is prime, by trial division: about sqrt(n)/2 steps for a prime n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# --- arithmetic in F_q[x]: plain ascending coefficient lists -----------------

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_trim([c % q for c in out])


def _fp_sub(a, b, q):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % q
    return _fp_trim(out)


def _fp_monic(a, q):
    inv = pow(a[-1], -1, q)
    return [(x * inv) % q for x in a]


def _fp_divmod(a, b, q):
    if b[-1] != 1:
        b = _fp_monic(b, q)
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], _fp_trim(rem)
    quot = [0] * (len(rem) - db)
    for i in reversed(range(len(quot))):
        c = rem[i + db] % q  # entries are reduced only when read
        if c:
            quot[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return _fp_trim(quot), _fp_trim([x % q for x in rem])


def _fp_gcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        _, r = _fp_divmod(a, b, q)
        a, b = b, r
    return _fp_monic(a, q) if a else []


def _fp_powmod(base, exponent, modulus, q):
    """base^exponent mod modulus in F_q[x], for exponent >= 1.

    Left-to-right binary powering from base itself: one squaring per bit
    after the leading one, and one multiplication per further set bit.
    """
    base = _fp_divmod(base, modulus, q)[1]
    result = base
    for bit in bin(exponent)[3:]:
        result = _fp_divmod(_fp_mul(result, result, q), modulus, q)[1]
        if bit == "1":
            result = _fp_divmod(_fp_mul(result, base, q), modulus, q)[1]
    return result


def _squarefree_prime(p):
    """The first prime q with p squarefree mod q, or None.

    The primes of _CERTIFICATE_PRIMES are tried in order.  gcd(p mod q,
    p' mod q) = 1 means no repeated root over the algebraic closure of
    F_q.  p is monic, so a square factor over Q stays a square factor
    mod every q, and one such prime proves p squarefree over Q.  None
    when no prime tried shows it.  The answer is kept on p (its
    _squarefree_q slot), so matrix_min_poly and the certificate of the
    same char poly share it.
    """
    if p._squarefree_q is _UNKNOWN:
        p._squarefree_q = None
        derivative = [i * c for i, c in enumerate(p.coeffs)][1:]
        for q in _CERTIFICATE_PRIMES:
            if _fp_gcd([c % q for c in p.coeffs], _fp_trim([c % q for c in derivative]), q) == [1]:
                p._squarefree_q = q
                break
    return p._squarefree_q


def _least_integer_root(p):
    """The least integer root of a monic p, or None when p has none.

    A root r mod q of p, with p squarefree mod q, is simple, so Newton's
    step r - p(r)/p'(r) lifts it from q^e to q^{2e} uniquely (Hensel).
    Every integer root lies within R of 0: R is the Cauchy bound
    1 + max |a_i| below the leading term, or |p(0)| when that is smaller
    and nonzero, since an integer root divides p(0).  So once q^e > 2R
    each integer root is the symmetric residue of one lifted root, and
    exact evaluation accepts only residues with p(r) == 0.  None also
    when no prime shows p squarefree: then nothing is proved.
    """
    q = _squarefree_prime(p)
    if q is None:
        return None
    coeffs = p.coeffs
    derivative = IntPolynomial([i * c for i, c in enumerate(coeffs)][1:])
    bound = 1 + max((abs(c) for c in coeffs[:-1]), default=0)
    if coeffs[0]:
        bound = min(bound, abs(coeffs[0]))
    roots = []
    for r in range(q):
        if p(r) % q:
            continue
        modulus = q
        while modulus <= 2 * bound:
            modulus *= modulus
            r = (r - p(r) * pow(derivative(r), -1, modulus)) % modulus
        if r > modulus // 2:
            r -= modulus
        if p(r) == 0:
            roots.append(r)
    return min(roots, default=None)


def factor_mod_p(p, q):
    """Multiset of irreducible factor degrees of p over F_q, ascending.

    One distinct-degree pass: once the factors of degree below i are gone,
    g = gcd(f, x^{q^i} - x) is the product of the distinct degree-i
    factors.  Dividing g out of f and repeating g = gcd(f, g) peels the
    repeated ones, so multiplicities are respected without a squarefree
    decomposition and the degrees always sum to deg p.  Whatever is left
    below degree 2i is a single irreducible factor; counting is enough
    here, no equal-degree splitting is needed.  The prime must not divide
    the leading coefficient.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if p.coeffs[-1] % q == 0:
        raise BadReductionPrime(f"prime {q} divides the leading coefficient")
    f = _fp_monic(_fp_trim([c % q for c in p.coeffs]), q)
    degrees = []
    h = _fp_divmod([0, 1], f, q)[1]  # x^{q^(i-1)} mod f at the loop head
    i = 1
    while len(f) - 1 >= 2 * i:
        h = _fp_powmod(h, q, f, q)
        g = _fp_gcd(f, _fp_sub(h, [0, 1], q), q)
        while g != [1]:
            degrees.extend([i] * ((len(g) - 1) // i))
            f = _fp_divmod(f, g, q)[0]
            g = _fp_gcd(f, g, q)
        h = _fp_divmod(h, f, q)[1]
        i += 1
    if len(f) - 1 >= 1:
        degrees.append(len(f) - 1)
    return tuple(degrees)


class CertificateStatus(Enum):
    IRREDUCIBLE = "Irreducible"
    REDUCIBLE = "Reducible"
    UNDECIDED = "Undecided"


class IrreducibilityCertificate(
    namedtuple(
        "IrreducibilityCertificate",
        "status witness_prime factor_degrees patterns factor",
        defaults=(None, None, (), None),
    )
):
    """Outcome of the rational irreducibility test.

    ``patterns`` holds each ``(prime, mod-prime factor degrees)`` pair read.
    Irreducible: no factor degree the root test leaves open is a subset
    sum of every pattern; ``witness_prime`` is a prime where the polynomial
    stays in one piece of full degree, or None when no single prime does.
    Reducible carries ``factor``, a monic integer factor of proper degree
    that divides the polynomial exactly (one ``div_rem`` checks it), and
    the degrees of that split.  Undecided is an honest answer, not an
    error.
    """

    __slots__ = ()


def _proper_subset_sums(degrees, full):
    """Achievable proper factor degrees given one mod-q degree pattern."""
    bits = 1
    for d in degrees:
        bits |= bits << d
    return {d for d in range(1, full) if bits >> d & 1}


def _factor_from_roots(p, candidate_degrees):
    """A monic integer factor of p with a degree in the candidate set, or None.

    Every monic integer factor of degree d is the product of (x - r) over
    d of the complex roots r of p.  Each d-subset of the numeric roots is
    multiplied out and rounded to integers: the floats only propose
    candidates, and a candidate counts only when it divides p exactly.
    Roots that cannot be computed in floating point, or products that are
    not finite, propose nothing.
    """
    k = p.degree
    if k > _FACTOR_SEARCH_MAX_DEGREE:
        return None
    try:
        roots = complex_roots(p)
    except NoConvergence:
        return None
    for d in sorted(d for d in candidate_degrees if d <= k // 2):
        for subset in itertools.combinations(roots, d):
            coeffs = [1]  # descending coefficients of the product so far
            for r in subset:
                coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            if not all(cmath.isfinite(c) for c in coeffs):
                continue
            candidate = IntPolynomial([round(c.real) for c in reversed(coeffs)])
            if p.div_rem(candidate)[1].is_zero:
                return candidate
    return None


def irreducibility_certificate(p):
    """Certify irreducibility of a monic integer polynomial over Q.

    First an exact test for a linear factor: when p has degree at least 2
    and an integer root, found by Hensel lifting (_least_integer_root),
    the answer is Reducible with factor x - r for the least such root r
    and no pattern read.  When the test ran (some prime showed p
    squarefree) and found none, no factor has degree 1 or k - 1, so the
    open degrees start at 2 .. k - 2, else at 1 .. k - 1.  A monic factor
    of degree d reduces mod every prime to factors whose degrees sum to
    d, so each prime of _CERTIFICATE_PRIMES, in order, keeps the open
    degrees that are subset sums of its pattern: none left proves
    irreducibility, at the first prime for a quadratic or cubic.  If
    degrees stay open (and the degree is at most 8), products of the
    numeric roots propose integer factors of those degrees, and exact
    division decides: Reducible only with a factor that divides p.  The
    search runs once: when _STALL_PRIMES primes in a row narrow nothing,
    or at the last prime.  Anything else is Undecided after all 20
    primes, as is x^4 + 1, irreducible but with degree 2 open at every
    prime.

    >>> irreducibility_certificate(IntPolynomial([-2, 0, 0, 1])).patterns
    ((2, (1, 1, 1)),)
    """
    if not p.is_monic or p.degree < 1:
        raise ValueError("certificate needs a monic polynomial of degree >= 1")
    k = p.degree
    root = _least_integer_root(p) if k >= 2 else None
    if root is not None:
        return IrreducibilityCertificate(
            CertificateStatus.REDUCIBLE,
            factor_degrees=(1, k - 1),
            factor=IntPolynomial([-root, 1]),
        )
    # No integer root: once the root test has run, that proves p has no
    # factor of degree 1 or k - 1.
    root_test_ran = k >= 2 and _squarefree_prime(p) is not None
    possible = set(range(2, k - 1)) if root_test_ran else set(range(1, k))
    patterns = ()
    stalled = 0
    searched = False
    for q in _CERTIFICATE_PRIMES:
        degrees = factor_mod_p(p, q)
        patterns += ((q, degrees),)
        narrowed = possible & _proper_subset_sums(degrees, k)
        stalled = stalled + 1 if narrowed == possible else 0
        possible = narrowed
        if not possible:
            return IrreducibilityCertificate(
                CertificateStatus.IRREDUCIBLE,
                witness_prime=q if degrees == (k,) else None,
                factor_degrees=(k,),
                patterns=patterns,
            )
        if not searched and (stalled == _STALL_PRIMES or q == _CERTIFICATE_PRIMES[-1]):
            searched = True
            factor = _factor_from_roots(p, possible)
            if factor is not None:
                return IrreducibilityCertificate(
                    CertificateStatus.REDUCIBLE,
                    factor_degrees=tuple(sorted((factor.degree, k - factor.degree))),
                    patterns=patterns,
                    factor=factor,
                )
    return IrreducibilityCertificate(CertificateStatus.UNDECIDED, patterns=patterns)
