"""Exact kernel: polynomials, matrices, certificates.

The oracles here are deliberately independent of the code under test:
the characteristic polynomial is cross-checked against a cofactor
determinant on plain coefficient lists (and, past the Krylov cutover,
against the kept Berkowitz recursion), and the mod-p factor degrees
against exhaustive trial division.
"""

import copy
import itertools
import math
import operator
import pickle
import random
import time
from itertools import combinations

import pytest

from fibernorm import exact
from fibernorm.errors import BadReductionPrime
from fibernorm.exact import (
    CertificateStatus,
    IntMatrix,
    IntPolynomial,
    char_poly,
    factor_mod_p,
    irreducibility_certificate,
    matrix_min_poly,
    newton_power_sums,
)

QUAD = IntMatrix([[2, 1], [1, 1]])
TRIB = IntMatrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])


# --- independent oracles ------------------------------------------------------

def _padd(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _det_poly(entries):
    # Cofactor expansion along the first row; entries are coefficient lists.
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
        term = _pmul(entries[0][j], _det_poly(minor))
        if j % 2:
            term = [-c for c in term]
        total = _padd(total, term)
    return total


def _char_poly_oracle(matrix):
    n = matrix.k
    entries = [
        [[-matrix[i][j], 1] if i == j else [-matrix[i][j]] for j in range(n)]
        for i in range(n)
    ]
    return tuple(_det_poly(entries))


def _eval_at_matrix(p, matrix):
    k = matrix.k
    result = IntMatrix([[0] * k for _ in range(k)])
    ident = IntMatrix.identity(k)
    for c in reversed(p.coeffs):
        result = result * matrix + c * ident
    return result


def _fp_divides_oracle(divisor, f, q):
    rem = [c % q for c in f]
    d = [c % q for c in divisor]
    inv = pow(d[-1], -1, q)
    for i in reversed(range(len(rem) - len(d) + 1)):
        c = (rem[i + len(d) - 1] * inv) % q
        for j, y in enumerate(d):
            rem[i + j] = (rem[i + j] - c * y) % q
    return all(c % q == 0 for c in rem)


def _fp_quotient_oracle(f, divisor, q):
    rem = [c % q for c in f]
    d = [c % q for c in divisor]
    inv = pow(d[-1], -1, q)
    quot = [0] * (len(rem) - len(d) + 1)
    for i in reversed(range(len(quot))):
        c = (rem[i + len(d) - 1] * inv) % q
        quot[i] = c
        for j, y in enumerate(d):
            rem[i + j] = (rem[i + j] - c * y) % q
    while quot and quot[-1] == 0:
        quot.pop()
    return quot


def _brute_factor_degrees(f, q):
    """Degrees of irreducible factors of monic f over F_q by trial division.

    The smallest-degree monic divisor found at each step is necessarily
    irreducible, so peeling divisors smallest-first is a complete
    factorization.
    """
    f = [c % q for c in f]
    degrees = []
    while len(f) - 1 >= 1:
        found = False
        for d in range(1, len(f)):
            for idx in range(q**d):
                coeffs = []
                rest = idx
                for _ in range(d):
                    coeffs.append(rest % q)
                    rest //= q
                candidate = coeffs + [1]
                if _fp_divides_oracle(candidate, f, q):
                    degrees.append(d)
                    f = _fp_quotient_oracle(f, candidate, q)
                    found = True
                    break
            if found:
                break
        assert found, "every nonconstant polynomial has an irreducible divisor"
    return tuple(sorted(degrees))


def _random_matrix(rng, k, low, high):
    return IntMatrix([[rng.randint(low, high) for _ in range(k)] for _ in range(k)])


# --- polynomial and matrix plumbing -------------------------------------------

def test_polynomial_trims_and_reports_degree():
    assert IntPolynomial([1, -3, 1, 0, 0]).coeffs == (1, -3, 1)
    assert IntPolynomial([]).is_zero
    assert IntPolynomial([0, 0]).degree == -1
    assert IntPolynomial([5]).degree == 0
    assert IntPolynomial([1, -3, 1]).is_monic
    assert not IntPolynomial([1, -3, 2]).is_monic


def test_polynomial_arithmetic_and_division():
    p = IntPolynomial([1, -3, 1])
    d = IntPolynomial([-1, 1])
    product = p * d
    q, r = product.div_rem(d)
    assert q == p and r.is_zero
    q, r = p.div_rem(d)
    assert q * d + r == p
    with pytest.raises(ValueError):
        p.div_rem(IntPolynomial([1, 2]))


# The package's rule for a wrong operand type is TypeError, never an
# AttributeError from inside the method; IntMatrix covers the reflected side.
@pytest.mark.parametrize("operand", [2, 1.5, "x", IntMatrix([[1]]), None])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_polynomial_arithmetic_with_a_non_polynomial_is_a_type_error(op, operand):
    p = IntPolynomial([1, 1])
    with pytest.raises(TypeError):
        op(p, operand)
    with pytest.raises(TypeError):
        op(operand, p)


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_matrix_powers_and_apply():
    assert (QUAD**0) == IntMatrix.identity(2)
    assert (QUAD**3) == QUAD * QUAD * QUAD
    assert QUAD.apply((1, 0)) == (2, 1)
    assert QUAD.transpose() == QUAD


def test_matrix_product_matches_triple_loop():
    rng = random.Random(2002)
    for k in (1, 2, 3, 5, 8):
        for bits in (2, 200):
            a, b = (_random_matrix(rng, k, -(2**bits), 2**bits) for _ in range(2))
            expected = [[sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k)]
                        for i in range(k)]
            assert a * b == IntMatrix(expected)
            c = rng.randint(-(2**bits), 2**bits)
            scaled = IntMatrix([[c * x for x in row] for row in a.rows])
            assert a * c == c * a == scaled


# --- characteristic polynomial -------------------------------------------------

def test_char_poly_examples():
    assert char_poly(IntMatrix([[1]])) == IntPolynomial([-1, 1])
    assert char_poly(QUAD) == IntPolynomial([1, -3, 1])
    assert char_poly(TRIB) == IntPolynomial([-1, -1, -1, 1])


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(1803)
    for _ in range(40):
        k = rng.randint(1, 5)
        matrix = _random_matrix(rng, k, -3, 3)
        assert char_poly(matrix).coeffs == _char_poly_oracle(matrix)


def test_cayley_hamilton_exact():
    rng = random.Random(2718)
    for _ in range(40):
        k = rng.randint(1, 6)
        matrix = _random_matrix(rng, k, -3, 3)
        zero = IntMatrix([[0] * k for _ in range(k)])
        assert _eval_at_matrix(char_poly(matrix), matrix) == zero


def _cycle_with_loop(k):
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[(i + 1) % k][i] = 1
    rows[0][0] = 1
    return rows


def _companion(coeffs):
    k = len(coeffs)
    return [[int(j == i - 1) for j in range(k - 1)] + [c] for i, c in enumerate(coeffs)]


def _blocks(top_left, top_right, bottom_right):
    """[[top_left, top_right], [0, bottom_right]]."""
    zeros = [0] * len(top_left)
    return [a + b for a, b in zip(top_left, top_right)] + [zeros + d for d in bottom_right]


def _weighted_shift(weights, last):
    """A e_i = w_i e_{i+1} for i < k and A e_k = last: det K is a product of w's."""
    k = len(last)
    return [[weights[j] if i == j + 1 else 0 for j in range(k - 1)] + [last[i]] for i in range(k)]


def _krylov_cases():
    """Matrices with k = 13..128, and the solve that answers (None: Berkowitz)."""
    rng = random.Random(4813)

    def rand(k, low, high):
        return [[rng.randint(low, high) for _ in range(k)] for _ in range(k)]

    b12 = rand(12, 0, 2)
    b7 = rand(7, -2, 2)
    lanes, mersenne = "_char_poly_lanes", "_char_poly_mersenne"
    cases = [("random02-k13", rand(13, 0, 2), mersenne)]
    cases += [(f"random02-k{k}", rand(k, 0, 2), lanes) for k in (16, 24, 33, 48, 64, 96, 128)]
    cases += [(f"negative-k{k}", rand(k, -3, 3), solve) for k, solve in ((13, mersenne), (20, lanes))]
    cases += [(f"signed-k{k}", rand(k, -1, 1), lanes) for k in (96, 128)]
    cases += [(f"companion200-k{k}", _companion([rng.randint(-2**200, 2**200) for _ in range(k)]), mersenne)
              for k in (13, 20)]
    cases += [(f"cycle-k{k}", _cycle_with_loop(k), lanes) for k in (16, 24)]
    cases += [
        ("cycle-k15", _cycle_with_loop(15), mersenne),
        ("permutation-k17", [[int(j == (i - 1) % 17) for j in range(17)] for i in range(17)], lanes),
        # 5 (2^61 - 1) is no unit mod any power of 2^61 - 1, so column 1
        # skips row 1 for row 2
        ("word-prime-entry-k13", [[5 * exact._MERSENNE if (i, j) == (1, 0) else int(i == 2) if j == 0 else x
                                   for j, x in enumerate(row)] for i, row in enumerate(rand(13, 0, 2))], mersenne),
        # the same past the lane cutover: 5 p is no pivot mod the first lane
        # prime p, and the entries 5 p and -1 are no residues, so A is taken
        # mod each prime
        ("lane-prime-entry-k24", [[5 * exact._LANE_PRIMES[0] if (i, j) == (1, 0) else int(i == 2) if j == 0
                                   else -1 if (i, j) == (0, 1) else x
                                   for j, x in enumerate(row)] for i, row in enumerate(rand(24, 0, 2))], lanes),
        # past the bits-per-row limit: Berkowitz runs, though e_1 is cyclic
        ("dense200-k13", rand(13, -2**200, 2**200), None),
        ("zero-k13", [[0] * 13 for _ in range(13)], None),
        ("twice-identity-k16", [[2 * (i == j) for j in range(16)] for i in range(16)], None),
        ("diag-B-B-k24", _blocks(b12, [[0] * 12] * 12, b12), None),
        ("block-triangular-k14", _blocks(b7, rand(7, -2, 2), rand(7, -2, 2)), None),
    ]
    # unit Krylov vectors: one lane prime per 14 rows, so 2 primes' worth of
    # coefficients go to the lanes at k = 28, not at k = 16 or 24
    cases += [(f"companion{bits}-k{k}", _companion([random.Random(bits).getrandbits(bits) | 1 for _ in range(k)]),
               solve) for k, bits, solve in ((16, 20, mersenne), (24, 40, mersenne), (32, 60, mersenne),
                                             (16, 8, lanes), (28, 25, lanes))]
    return [pytest.param(rows, solve, id=name) for name, rows, solve in cases]


@pytest.mark.parametrize("rows, solve", _krylov_cases())
def test_krylov_char_poly_matches_berkowitz_and_falls_back_when_not_cyclic(monkeypatch, rows, solve):
    matrix = IntMatrix(rows)
    bound = exact._coefficient_bound(matrix)
    # past k = 64 Berkowitz takes seconds: the solve modulo a power of 2^61 - 1,
    # which shares no step with the lane solve, stands in for it
    expected = exact._berkowitz(matrix) if matrix.k <= 64 else exact._char_poly_mersenne(matrix, bound)
    answered = []

    def recording(name, real):
        def recorded(*args):
            result = real(*args)
            if result is not None:
                answered.append(name)
            return result
        return recorded

    for name in ("_char_poly_lanes", "_char_poly_mersenne"):
        monkeypatch.setattr(exact, name, recording(name, getattr(exact, name)))
    monkeypatch.setattr(exact, "_berkowitz", recording(None, lambda A: expected))
    assert char_poly(matrix) == expected
    assert answered == [solve]
    assert max(map(abs, expected.coeffs)) <= bound


def test_krylov_solve_is_exact_past_the_bits_per_row_limit():
    # char_poly sends these to Berkowitz for speed, not correctness
    rng = random.Random(200)
    for k in (13, 16):
        matrix = _random_matrix(rng, k, -2**200, 2**200)
        bound = exact._coefficient_bound(matrix)
        assert bound.bit_length() > exact._KRYLOV_MAX_ROW_BITS * k
        assert exact._char_poly_mersenne(matrix, bound) == exact._berkowitz(matrix)


def test_krylov_path_starts_above_the_cutover(monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "_char_poly_mersenne", lambda A, bound: calls.append(A.k))
    for k in (exact._BERKOWITZ_MAX_K, exact._BERKOWITZ_MAX_K + 1):
        matrix = IntMatrix(_cycle_with_loop(k))
        assert char_poly(matrix) == IntPolynomial([-1] + [0] * (k - 2) + [-1, 1])
    assert calls == [exact._BERKOWITZ_MAX_K + 1]


def test_the_lane_solve_runs_from_its_cutover_while_few_primes_pass_the_bound(monkeypatch):
    calls = []
    for name in ("_char_poly_lanes", "_char_poly_mersenne"):
        monkeypatch.setattr(exact, name, lambda A, bound, name=name: calls.append((name, A.k)))
    for k in (exact._LANE_MIN_K - 1, exact._LANE_MIN_K):
        exact._char_poly_krylov(IntMatrix(_cycle_with_loop(k)))
    assert calls == [("_char_poly_mersenne", 15), ("_char_poly_lanes", 16)]
    # at k = 16, 2B of 52 bits is two lane primes' worth, and 53 bits is not:
    # a 16-cycle with one edge of weight w has the norms w and 1 (15 times),
    # so B = C(15, 8) + w C(15, 7) = 6435 (w + 1)
    k = exact._LANE_MIN_K
    for bits, name in ((52, "_char_poly_lanes"), (53, "_char_poly_mersenne")):
        w = 2 ** (bits - 1) // 12870
        matrix = IntMatrix(_weighted_shift([w] + [1] * (k - 2), [1] + [0] * (k - 1)))
        assert (2 * exact._coefficient_bound(matrix)).bit_length() == bits
        calls.clear()
        exact._char_poly_krylov(matrix)
        assert calls == [(name, k)]


def test_lanes_round_trip_and_never_carry():
    top = 2**64 - 1
    for values in ([0], [top], [0, top, 0], [top, 0, top, 1]):
        packed = exact._pack(values)
        assert packed == sum(x << (64 * i) for i, x in enumerate(values))
        assert list(exact._unpack(packed, 8 * len(values))) == values
    # the largest sum of the lane solve, at the largest k it admits: no carry
    p = max(exact._LANE_PRIMES)
    assert p < 2**27
    assert exact._LANE_MAX_K * (p - 1) ** 2 + p < 2**64


def test_unit_krylov_vectors_are_read_along_the_columns_they_pick():
    k = 20
    assert exact._unit_krylov(_companion([3] * k))
    assert exact._unit_krylov([[int(j == (i - 1) % k) for j in range(k)] for i in range(k)])
    assert not exact._unit_krylov(_cycle_with_loop(k))  # A e_1 = e_1 + e_2
    # a weight 2 on the shift makes A e_1, or only A^(k-1) e_1, twice a unit vector
    assert not exact._unit_krylov(_weighted_shift([2] + [1] * (k - 2), [3] * k))
    assert not exact._unit_krylov(_weighted_shift([1] * (k - 2) + [2], [3] * k))


def test_the_lane_path_admits_no_size_past_its_no_carry_bound(monkeypatch):
    calls = []
    for name in ("_char_poly_lanes", "_char_poly_mersenne"):
        monkeypatch.setattr(exact, name, lambda A, bound, name=name: calls.append((name, A.k)))
    # one entry 1: the bound is 1, so only k can send it off the lanes
    for k in (exact._LANE_MAX_K, exact._LANE_MAX_K + 1):
        exact._char_poly_krylov(IntMatrix([[int((i, j) == (1, 0)) for j in range(k)] for i in range(k)]))
    assert calls == [("_char_poly_lanes", 1023), ("_char_poly_mersenne", 1024)]


def test_a_lane_prime_that_divides_det_k_is_skipped_and_a_first_one_declines(monkeypatch):
    # K = [e_1, A e_1, ...] is diag(1, q, q, ..., q): det K = q^(k-1)
    p1, q = exact._LANE_PRIMES[0], 1000003
    k = 20
    matrix = IntMatrix(_weighted_shift([q] + [1] * (k - 2), [3, -1] + [0] * (k - 3) + [2]))
    expected = exact._berkowitz(matrix)
    solved = []  # (prime, whether it solved)
    real_solve = exact._lane_solve

    def recorded(rows, columns, p):
        residues = real_solve(rows, columns, p)
        solved.append((p, residues is not None))
        return residues

    monkeypatch.setattr(exact, "_lane_solve", recorded)
    monkeypatch.setattr(exact, "_LANE_PRIMES", (p1, q) + exact._LANE_PRIMES[1:])
    bound = exact._coefficient_bound(matrix)
    assert exact._char_poly_lanes(matrix, bound) == expected
    assert solved[:3] == [(p1, True), (q, False), (exact._LANE_PRIMES[2], True)]
    # q first: the path declines after one pass, and char_poly falls back
    monkeypatch.setattr(exact, "_LANE_PRIMES", (q,) + exact._LANE_PRIMES[:1] + exact._LANE_PRIMES[2:])
    solved.clear()
    assert exact._char_poly_lanes(matrix, bound) is None
    assert solved == [(q, False)]
    assert exact._char_poly_krylov(matrix) is None
    assert char_poly(matrix) == expected


def _krylov_moduli(monkeypatch, matrix):
    """The moduli of the inverses taken by the solve modulo a power of 2^61 - 1."""
    moduli = set()

    def recording_pow(base, exponent, modulus):
        moduli.add(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(exact, "pow", recording_pow, raising=False)
    assert exact._char_poly_mersenne(matrix, exact._coefficient_bound(matrix)) is not None
    monkeypatch.delattr(exact, "pow")
    return moduli


def test_coefficient_bound_is_tight_for_companions_by_their_columns(monkeypatch):
    # Row norms are the huge coefficients, so rows alone would give about
    # k * bits bits; the unit columns give about bits + k.
    rng = random.Random(62)
    M = exact._MERSENNE
    for k in (13, 24, 40):
        for bits in (1, 100, 300):
            coeffs = [rng.randint(-2**bits, 2**bits) for _ in range(k)]
            top = max(1, max(map(abs, coeffs)))
            matrix = IntMatrix(_companion(coeffs))
            bound = exact._coefficient_bound(matrix)
            assert top <= bound and bound.bit_length() <= bits + k + 4
            # Q is the one power of M in (2B, 2B M]: M^e has 61e bits
            (Q,) = _krylov_moduli(monkeypatch, matrix)
            assert 2 * top <= 2 * bound < Q <= 2 * bound * M
            assert Q == M ** (Q.bit_length() // 61)
    # five blocks [[1, 1], [-1, 1]]: every row and column has norm sqrt(2),
    # and rounded down the bound would be C(10, 5) = 252, below the 720 of
    # (x^2 - 2x + 2)^5
    rotations = IntMatrix([[(1 if j >= i else -1) if j // 2 == i // 2 else 0 for j in range(10)]
                           for i in range(10)])
    assert max(map(abs, char_poly(rotations).coeffs)) == 720
    assert exact._coefficient_bound(rotations) >= 720


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _mersenne_is_prime(p):
    """Whether 2^p - 1 is prime, for an odd prime p (Lucas-Lehmer)."""
    m, s = 2**p - 1, 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    assert [n for n in range(-5, 5000) if exact.is_prime(n)] == [
        n for n in range(-5, 5000) if _trial_division_is_prime(n)
    ]
    # the Krylov modulus is a power of a prime; 2^11 - 1 = 23 * 89 checks the check
    assert exact._MERSENNE == 2**61 - 1 and _mersenne_is_prime(61)
    assert not _mersenne_is_prime(11) and _mersenne_is_prime(31)
    # strong pseudoprimes (the first to every base 2..31, the others to base
    # 2): trial division meets a small factor of each
    assert not exact.is_prime(3825123056546413051)
    assert not exact.is_prime(2047) and not exact.is_prime(3215031751)
    # past 3.2e23, where primality was once refused, a composite is answered
    assert not exact.is_prime(101 * (2**89 - 1))


# --- minimal polynomial ---------------------------------------------------------

def test_min_poly_examples():
    assert matrix_min_poly(IntMatrix.identity(2)) == IntPolynomial([-1, 1])
    assert matrix_min_poly(IntMatrix([[2, 0], [0, 2]])) == IntPolynomial([-2, 1])
    assert matrix_min_poly(QUAD) == char_poly(QUAD)


def test_min_poly_on_derogatory_and_nilpotent_matrices():
    # two copies of the same block: min poly is one block's char poly
    block_diag = IntMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    assert matrix_min_poly(block_diag) == IntPolynomial([1, -3, 1])
    assert char_poly(block_diag) == IntPolynomial([1, -6, 11, -6, 1])
    # a Jordan block is non-derogatory: min poly equals (x-1)^2
    assert matrix_min_poly(IntMatrix([[1, 1], [0, 1]])) == IntPolynomial([1, -2, 1])
    assert matrix_min_poly(IntMatrix([[0, 1], [0, 0]])) == IntPolynomial([0, 0, 1])


def test_min_poly_falls_back_to_elimination_when_no_prime_shows_squarefree(monkeypatch):
    # x^2 - P x is squarefree over Q, but x^2 mod every prime the shortcut tries
    P = math.prod(exact._CERTIFICATE_PRIMES)
    eliminated = []
    original = exact._min_poly_by_elimination

    def counted(A):
        eliminated.append(A)
        return original(A)

    monkeypatch.setattr(exact, "_min_poly_by_elimination", counted)
    matrix = IntMatrix([[0, 0], [0, P]])
    assert matrix_min_poly(matrix) == IntPolynomial([0, -P, 1]) == char_poly(matrix)
    assert eliminated == [matrix]
    assert matrix_min_poly(QUAD) == char_poly(QUAD)
    assert eliminated == [matrix]


def test_min_poly_divides_char_poly():
    rng = random.Random(9229)
    for _ in range(40):
        k = rng.randint(1, 5)
        matrix = _random_matrix(rng, k, -2, 2)
        minimal = matrix_min_poly(matrix)
        quotient, remainder = char_poly(matrix).div_rem(minimal)
        assert remainder.is_zero
        assert quotient * minimal == char_poly(matrix)
        # minimality: the matrix satisfies it, and it is monic
        zero = IntMatrix([[0] * k for _ in range(k)])
        assert _eval_at_matrix(minimal, matrix) == zero
        assert minimal.is_monic


# --- Newton power sums ----------------------------------------------------------

def test_newton_examples():
    assert newton_power_sums(IntPolynomial([1, -3, 1]), 3) == (2, 3, 7, 18)
    assert newton_power_sums(IntPolynomial([-1, -1, -1, 1]), 3) == (3, 1, 3, 7)
    assert newton_power_sums(IntPolynomial([-1, 1]), 2) == (1, 1, 1)
    assert newton_power_sums(IntPolynomial([-1, -1, -1, -1, 1]), 3) == (4, 1, 3, 7)


def test_newton_rejects_non_monic():
    with pytest.raises(ValueError):
        newton_power_sums(IntPolynomial([1, 2]), 3)
    with pytest.raises(ValueError):
        newton_power_sums(IntPolynomial([5]), 3)


def test_newton_equals_traces_of_powers():
    rng = random.Random(40962)
    for _ in range(30):
        k = rng.randint(1, 5)
        matrix = _random_matrix(rng, k, -3, 3)
        sums = newton_power_sums(char_poly(matrix), 10)
        for j in range(11):
            assert sums[j] == (matrix**j).trace()


# --- factorization over prime fields --------------------------------------------

def test_factor_mod_p_examples():
    assert factor_mod_p(IntPolynomial([1, -3, 1]), 2) == (2,)
    assert factor_mod_p(IntPolynomial([-1, -1, -1, 1]), 2) == (1, 1, 1)
    assert factor_mod_p(IntPolynomial([-1, -1, -1, 1]), 3) == (3,)


def test_factor_mod_p_rejects_bad_input():
    with pytest.raises(BadReductionPrime):
        factor_mod_p(IntPolynomial([1, 1, 3]), 3)
    with pytest.raises(ValueError):
        factor_mod_p(IntPolynomial([1, 1]), 4)
    with pytest.raises(ValueError):
        factor_mod_p(IntPolynomial([]), 2)


def test_factor_degrees_sum_to_degree():
    rng = random.Random(555)
    for _ in range(60):
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [1]
        p = IntPolynomial(coeffs)
        for q in (2, 3, 5, 7):
            assert sum(factor_mod_p(p, q)) == degree


def test_factor_mod_p_matches_trial_division_exhaustively():
    # every monic polynomial of degree <= 4 over F_2 and degree <= 3 over F_3
    for q, max_degree in ((2, 4), (3, 3)):
        for degree in range(1, max_degree + 1):
            for idx in range(q**degree):
                coeffs = []
                rest = idx
                for _ in range(degree):
                    coeffs.append(rest % q)
                    rest //= q
                p = IntPolynomial(coeffs + [1])
                assert factor_mod_p(p, q) == _brute_factor_degrees(list(p.coeffs), q)


def _fp_polys(q, max_degree):
    """Every polynomial over F_q of degree <= max_degree, zero first, as trimmed lists."""
    return [exact._fp_trim(list(c)) for c in itertools.product(range(q), repeat=max_degree + 1)]


def _fp_pairs(q):
    """(a, b), b not zero: every pair of degree <= 4 over F_2 and F_3; over F_5,
    whose 9.7 million such pairs would take a minute, every a of degree <= 4
    against every b of degree <= 1, and every pair of degree <= 2."""
    if q < 5:
        polys = _fp_polys(q, 4)
        return [(a, b) for a in polys for b in polys if b]
    low, square = _fp_polys(q, 1), _fp_polys(q, 2)
    return [(a, b) for a in _fp_polys(q, 4) for b in low if b] + [(a, b) for a in square for b in square if b]


@pytest.mark.parametrize("q", (2, 3, 5))
def test_fp_rem_is_the_divmod_remainder_exhaustively(q):
    for a, b in _fp_pairs(q):
        assert exact._fp_rem(list(a), b, q) == exact._fp_divmod(a, b, q)[1], (a, b)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_fp_gcd_is_the_greatest_common_monic_divisor_exhaustively(q):
    # every monic d of degree <= 4 times every nonzero e, with the product of
    # degree <= 4: the monic divisors of each polynomial, found by search
    polys = _fp_polys(q, 4)
    divisors = {}
    for d in polys:
        if d and d[-1] == 1:
            for e in polys:
                if e and len(d) + len(e) <= 6:
                    divisors.setdefault(tuple(exact._fp_mul(d, e, q)), set()).add(tuple(d))
    for a, b in _fp_pairs(q):
        common = divisors[tuple(b)] if not a else divisors[tuple(a)] & divisors[tuple(b)]
        assert exact._fp_gcd(a, b, q) == list(max(common, key=len)), (a, b)
    assert exact._fp_gcd([], [], q) == []


@pytest.mark.parametrize("q", (2, 3, 5))
def test_fp_powmod_is_repeated_multiplication_exhaustively(q):
    # every base of degree <= 4 (<= 2 over F_5) against every modulus of
    # degree 1 or 2 (monic over F_5), to the powers 1 .. 6 and q^2
    moduli = [m for m in _fp_polys(q, 2) if len(m) >= 2 and (q < 5 or m[-1] == 1)]
    for modulus in moduli:
        for base in _fp_polys(q, 4 if q < 5 else 2):
            power = [1]
            for exponent in range(1, q * q + 1):
                power = exact._fp_divmod(exact._fp_mul(power, base, q), modulus, q)[1]
                if exponent <= 6 or exponent == q * q:
                    assert exact._fp_powmod(base, exponent, modulus, q) == power, (base, exponent, modulus)


def test_factor_mod_p_matches_trial_division_random_f5():
    rng = random.Random(808)
    for _ in range(40):
        degree = rng.randint(1, 5)
        p = IntPolynomial([rng.randint(-20, 20) for _ in range(degree)] + [1])
        assert factor_mod_p(p, 5) == _brute_factor_degrees(list(p.coeffs), 5)


# --- irreducibility certificates --------------------------------------------------

def test_certificate_examples():
    cert = irreducibility_certificate(IntPolynomial([1, -3, 1]))
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime == 2
    assert cert.factor_degrees == (2,)

    # x^3 - x^2 - x - 1 has no integer root, so a cubic has no factor left
    # to rule out: the first prime decides, and it need not keep p whole
    cert = irreducibility_certificate(IntPolynomial([-1, -1, -1, 1]))
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime is None
    assert cert.patterns == ((2, (1, 1, 1)),)

    cert = irreducibility_certificate(IntPolynomial([-1, 0, 1]))
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor_degrees == (1, 1)
    assert cert.factor in (IntPolynomial([-1, 1]), IntPolynomial([1, 1]))


def _pickled(protocol):
    return lambda p: pickle.loads(pickle.dumps(p, protocol))


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, *map(_pickled, PROTOCOLS)],
                         ids=["copy", "deepcopy", *(f"pickle{n}" for n in PROTOCOLS)])
def test_a_copied_polynomial_certifies_like_the_original(duplicate):
    # a copy starts afresh: its squarefree prime is computed, not carried
    # over as a copy of the "not yet computed" marker
    expected = irreducibility_certificate(IntPolynomial([-1, -1, 1]))
    fresh = duplicate(IntPolynomial([-1, -1, 1]))
    assert irreducibility_certificate(fresh) == expected
    certified = IntPolynomial([-1, -1, 1])
    irreducibility_certificate(certified)
    assert irreducibility_certificate(duplicate(certified)) == expected
    assert exact._squarefree_prime(duplicate(IntPolynomial([0, 0, 1]))) is None


def test_certificate_witness_is_checkable():
    rng = random.Random(77)
    seen = 0
    while seen < 25:
        degree = rng.randint(2, 5)
        p = IntPolynomial([rng.randint(-5, 5) for _ in range(degree)] + [1])
        cert = irreducibility_certificate(p)
        if cert.status is CertificateStatus.IRREDUCIBLE:
            seen += 1
            if cert.witness_prime is not None:
                assert factor_mod_p(p, cert.witness_prime) == (degree,)
                continue
            # no single witness: the patterns together leave no factor degree
            # but 1 and k - 1, and those only when the root test proves p
            # has no integer root
            possible = set(range(1, degree))
            for q, pattern in cert.patterns:
                assert factor_mod_p(p, q) == pattern
                possible -= {d for d in possible if not _is_subset_sum(pattern, d)}
            if possible:
                assert possible <= {1, degree - 1}
                assert exact._squarefree_prime(p) is not None
                assert exact._least_integer_root(p) is None


def _is_subset_sum(parts, target):
    return any(
        sum(chosen) == target
        for r in range(len(parts) + 1)
        for chosen in combinations(parts, r)
    )


def test_certificate_patterns_prove_irreducibility_without_a_witness(monkeypatch):
    # x^4 - 2x^3 - x^2 - 3x - 3 has no integer root, so only degree 2 is
    # open, and the (1,3) split mod 2 closes it.
    p = IntPolynomial([-3, -3, -1, -2, 1])
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime is None
    assert cert.patterns == ((2, (1, 3)),)
    # With the root test switched off, it splits (1,3) mod 2, (1,1,2) mod 3
    # and (2,2) mod 5: no prime keeps it whole, yet no proper degree
    # survives all three.
    monkeypatch.setattr(exact, "_squarefree_prime", lambda p: None)
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime is None
    assert cert.patterns == ((2, (1, 3)), (3, (1, 1, 2)), (5, (2, 2)))


def test_certificate_finds_built_reducible_products():
    rng = random.Random(4242)
    for _ in range(25):
        f = IntPolynomial([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))] + [1])
        g = IntPolynomial([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))] + [1])
        product = f * g
        cert = irreducibility_certificate(product)
        assert cert.status is CertificateStatus.REDUCIBLE
        assert sum(cert.factor_degrees) == product.degree
        assert cert.factor.degree in cert.factor_degrees
        assert product.div_rem(cert.factor)[1].is_zero


def test_certificate_square_is_reducible():
    square = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1])
    cert = irreducibility_certificate(square)
    assert cert.status is CertificateStatus.REDUCIBLE


def test_certificate_divisor_enumeration_is_bounded():
    # Large constant terms once meant enumerating their divisors; the
    # integer-root test finds the factor, so its size costs nothing.
    cert = irreducibility_certificate(IntPolynomial([-16_000_000, 0, 1]))
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor_degrees == (1, 1)
    start = time.perf_counter()
    cert = irreducibility_certificate(IntPolynomial([-(10**12), 0, 1]))
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor_degrees == (1, 1)
    assert cert.factor in (IntPolynomial([-(10**6), 1]), IntPolynomial([10**6, 1]))
    assert time.perf_counter() - start < 5


def test_certificate_undecided_when_roots_do_not_fit_a_float():
    # (x^2 - 2)(x^2 + 2^1100 x + 3) has no integer root, the patterns leave
    # degree 2 open, and the coefficients overflow a float, so no candidate
    # factor is proposed.
    p = IntPolynomial([-2, 0, 1]) * IntPolynomial([3, 2**1100, 1])
    assert exact._least_integer_root(p) is None
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.UNDECIDED
    assert cert.factor is None
    assert len(cert.patterns) == len(exact._CERTIFICATE_PRIMES)


def test_certificate_finds_an_integer_root_that_does_not_fit_a_float():
    # (x - 2^1100)(x + 1): its roots overflow a float, but the lifted
    # roots are exact at any size.
    p = IntPolynomial([-(2**1100), 1]) * IntPolynomial([1, 1])
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor == IntPolynomial([1, 1])
    assert (cert.factor_degrees, cert.patterns, cert.witness_prime) == ((1, 1), (), None)
    # the least root wins even when it is the huge one
    p = IntPolynomial([2**1100, 1]) * IntPolynomial([-3, 1]) * IntPolynomial([1, 0, 1])
    cert = irreducibility_certificate(p)
    assert cert.factor == IntPolynomial([2**1100, 1])
    assert cert.factor_degrees == (1, 3)


# --- integer roots by Hensel lifting ---------------------------------------------

def _integer_roots_oracle(coeffs):
    """Every integer root of the ascending coefficients, by divisors of p(0)."""
    coeffs = list(coeffs)
    roots = set()
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.add(0)
        coeffs.pop(0)
    if len(coeffs) > 1:
        c0 = abs(coeffs[0])
        for d in range(1, c0 + 1):
            if c0 % d == 0:
                for r in (d, -d):
                    if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                        roots.add(r)
    return roots


def _linear_products(rng, count):
    """Monic polynomials built with known integer roots, one extra factor each."""
    for _ in range(count):
        p = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 3))] + [1])
        for _ in range(rng.randint(1, 3)):
            p = p * IntPolynomial([-rng.randint(-40, 40), 1])
        yield p


def test_least_integer_root_matches_the_divisor_oracle():
    rng = random.Random(1969)
    randoms = (
        IntPolynomial([rng.randint(-30, 30) for _ in range(rng.randint(1, 7))] + [1])
        for _ in range(300)
    )
    decided = 0
    for p in itertools.chain(randoms, _linear_products(rng, 200)):
        found = exact._least_integer_root(p)
        if exact._squarefree_prime(p) is None:
            assert found is None  # nothing is claimed without a squarefree prime
            continue
        decided += 1
        assert found == min(_integer_roots_oracle(p.coeffs), default=None), p
    assert decided > 450


def test_certificate_returns_the_least_integer_root_without_reading_primes():
    rng = random.Random(7)
    for p in _linear_products(rng, 60):
        if p.degree < 2:  # x - r is irreducible: nothing to split off
            assert irreducibility_certificate(p).status is CertificateStatus.IRREDUCIBLE
            continue
        if exact._squarefree_prime(p) is None:
            continue
        cert = irreducibility_certificate(p)
        least = min(_integer_roots_oracle(p.coeffs))
        assert cert.status is CertificateStatus.REDUCIBLE
        assert cert.factor == IntPolynomial([-least, 1])
        assert cert.factor_degrees == (1, p.degree - 1)
        assert cert.patterns == ()
        assert p.div_rem(cert.factor)[1].is_zero


def test_least_integer_root_examples():
    x = IntPolynomial([0, 1])
    # p(0) = 0 with a negative root: the least root wins, not 0, and the
    # lift runs to the Cauchy bound since |p(0)| bounds nothing
    p = x * IntPolynomial([1000, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([1, 0, 1])
    assert exact._least_integer_root(p) == -1000
    # several roots
    p = IntPolynomial([-1, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([5, 1]) * IntPolynomial([-7, 1])
    assert exact._least_integer_root(p) == -5
    # no integer root: x^2 - 2, x^4 + 1, x^3 - x - 1
    for coeffs in ([-2, 0, 1], [1, 0, 0, 0, 1], [-1, -1, 0, 1]):
        assert exact._least_integer_root(IntPolynomial(coeffs)) is None
    # a large constant term: x^2 - 4000^2, the corpus's divisor stress
    assert exact._least_integer_root(IntPolynomial([-(4000**2), 0, 1])) == -4000


def test_nothing_is_claimed_when_no_budget_prime_shows_p_squarefree():
    # x^2 - P x = x (x - P) is x^2 mod every prime tried, so the lift never
    # starts; the patterns and the float search decide as before.
    P = math.prod(exact._CERTIFICATE_PRIMES)
    p = IntPolynomial([0, -P, 1])
    assert exact._squarefree_prime(p) is None
    assert exact._least_integer_root(p) is None
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.patterns  # reached through the prime loop
    assert p.div_rem(cert.factor)[1].is_zero


def test_irreducible_certificates_do_not_depend_on_the_root_test(monkeypatch):
    # With the root test switched off, the patterns alone must rule out
    # degrees 1 and k - 1 too: every certificate Irreducible that way is
    # Irreducible with the root test, which only closes those degrees
    # sooner, so it reads a prefix of the same primes.  It is switched off
    # at its squarefree prime, so that the open degrees start at 1 .. k - 1.
    rng = random.Random(2024)
    polys = [
        IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [1])
        for _ in range(150)
    ]
    with_roots = [irreducibility_certificate(p) for p in polys]
    monkeypatch.setattr(exact, "_squarefree_prime", lambda p: None)
    without = [irreducibility_certificate(p) for p in polys]
    irreducible = 0
    for new, old in zip(with_roots, without):
        if old.status is CertificateStatus.IRREDUCIBLE:
            irreducible += 1
            assert new.status is CertificateStatus.IRREDUCIBLE
            assert new.patterns == old.patterns[: len(new.patterns)]
        elif old.status is CertificateStatus.REDUCIBLE:
            assert new.status is CertificateStatus.REDUCIBLE
    assert irreducible > 50


def _certificate_searching_every_open_degree(p):
    """The certificate rule that closes degrees 1 and k - 1 last.

    The same prime loop as irreducibility_certificate, except that the
    open degrees start at 1 .. k - 1 even after the root test has ruled
    out 1 and k - 1, so the primes and the factor search go on deciding
    them; only after the loop does the root test's word close them.
    """
    k = p.degree
    root = exact._least_integer_root(p) if k >= 2 else None
    if root is not None:
        return exact.IrreducibilityCertificate(
            CertificateStatus.REDUCIBLE, factor_degrees=(1, k - 1), factor=IntPolynomial([-root, 1])
        )
    possible, patterns, stalled, searched = set(range(1, k)), (), 0, False
    for q in exact._CERTIFICATE_PRIMES:
        degrees = factor_mod_p(p, q)
        patterns += ((q, degrees),)
        narrowed = possible & exact._proper_subset_sums(degrees, k)
        stalled = stalled + 1 if narrowed == possible else 0
        possible = narrowed
        if not possible:
            return exact.IrreducibilityCertificate(
                CertificateStatus.IRREDUCIBLE,
                witness_prime=q if degrees == (k,) else None,
                factor_degrees=(k,),
                patterns=patterns,
            )
        if not searched and (
            stalled == exact._STALL_PRIMES or q == exact._CERTIFICATE_PRIMES[-1]
        ):
            searched = True
            factor = exact._factor_from_roots(p, possible)
            if factor is not None:
                return exact.IrreducibilityCertificate(
                    CertificateStatus.REDUCIBLE,
                    factor_degrees=tuple(sorted((factor.degree, k - factor.degree))),
                    patterns=patterns,
                    factor=factor,
                )
    if k >= 2 and exact._squarefree_prime(p) is not None and possible <= {1, k - 1}:
        return exact.IrreducibilityCertificate(
            CertificateStatus.IRREDUCIBLE, factor_degrees=(k,), patterns=patterns
        )
    return exact.IrreducibilityCertificate(CertificateStatus.UNDECIDED, patterns=patterns)


def _reference_corpus(rng):
    """3,500 seeded monic polynomials of degree 1-12: small, reducible and wide."""
    for _ in range(1000):
        k = rng.randint(2, 8)
        yield IntPolynomial([rng.randint(-9, 9) for _ in range(k)] + [1])
    for _ in range(1500):
        k = rng.randint(1, 10)
        yield IntPolynomial([rng.randint(-9, 9) for _ in range(k)] + [1])
    for _ in range(700):
        f, g = (
            IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))] + [1])
            for _ in range(2)
        )
        yield f * g
    for _ in range(300):
        k = rng.randint(4, 12)
        yield IntPolynomial([rng.randint(-(2**60), 2**60) for _ in range(k)] + [1])


def test_factor_search_skips_degrees_the_root_test_ruled_out():
    # Once the root test has run, degrees 1 and k - 1 are closed before the
    # first prime: every verdict is the one of the rule that closes them
    # last, read from a prefix of its primes.
    statuses = set()
    for p in _reference_corpus(random.Random(1729)):
        cert = irreducibility_certificate(p)
        reference = _certificate_searching_every_open_degree(p)
        assert (cert.status, cert.factor, cert.factor_degrees) == (
            reference.status,
            reference.factor,
            reference.factor_degrees,
        ), p.coeffs
        assert cert.patterns == reference.patterns[: len(cert.patterns)], p.coeffs
        statuses.add(cert.status)
    assert statuses == set(CertificateStatus)


def test_factor_search_does_not_run_when_only_degrees_one_and_k_minus_one_are_open(monkeypatch):
    # x^2 - 2 is (x)^2 and x^3 - 2 is (x)^3 mod 2, but with no integer
    # root a quadratic or cubic has no degree left open: one prime ends it.
    def no_search(p, candidate_degrees):
        raise AssertionError(f"factor search ran for degrees {sorted(candidate_degrees)}")

    monkeypatch.setattr(exact, "_factor_from_roots", no_search)
    for coeffs in ([-2, 0, 1], [-2, 0, 0, 1]):
        p = IntPolynomial(coeffs)
        assert exact._squarefree_prime(p) is not None
        cert = irreducibility_certificate(p)
        assert cert.status is CertificateStatus.IRREDUCIBLE
        assert cert.witness_prime is None
        assert cert.patterns == ((2, (1,) * p.degree),)


def test_certificate_reads_primes_only_as_far_as_needed():
    # x^2 - x - 1 is decided at q = 2: no later prime is read.
    cert = irreducibility_certificate(IntPolynomial([-1, -1, 1]))
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime == 2
    assert cert.patterns == ((2, (2,)),)


def test_certificate_stops_reading_primes_once_a_factor_is_found():
    # (x^2 - 2)(x^2 - 3) has no integer root (its squarefree prime is 5),
    # so degree 2 is open, and every prime keeps it open.  Once
    # _STALL_PRIMES primes have narrowed nothing, the factor search runs
    # instead of waiting for the last of _CERTIFICATE_PRIMES.
    p = IntPolynomial([-2, 0, 1]) * IntPolynomial([-3, 0, 1])
    assert exact._squarefree_prime(p) == 5
    assert exact._least_integer_root(p) is None
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.REDUCIBLE
    assert cert.factor == IntPolynomial([-2, 0, 1])
    assert len(cert.patterns) == exact._STALL_PRIMES < len(exact._CERTIFICATE_PRIMES)


def test_certificate_undecided_for_everywhere_split_polynomial():
    # x^4 + 1 is irreducible over Q but splits modulo every prime, so it
    # can never earn a single-prime witness.
    # Its roots propose candidates such as x^2 - x + 1 (rounded from
    # x^2 - sqrt(2)x + 1), and exact division rejects every one.
    cert = irreducibility_certificate(IntPolynomial([1, 0, 0, 0, 1]))
    assert cert.status is CertificateStatus.UNDECIDED
    assert cert.factor is None
    # it reads the fixed number of primes, no more and no fewer
    assert len(exact._CERTIFICATE_PRIMES) == 20
    assert tuple(q for q, _ in cert.patterns) == exact._CERTIFICATE_PRIMES
    # x^4 - 5x^3 - 4x^2 + 15x + 9, irreducible too, keeps degree 2 open at
    # every prime: it splits (2,2), (1,1,2) or (1,1,1,1)
    cert = irreducibility_certificate(IntPolynomial([9, 15, -4, -5, 1]))
    assert cert.status is CertificateStatus.UNDECIDED
    assert len(cert.patterns) == len(exact._CERTIFICATE_PRIMES)
    assert {degrees for _, degrees in cert.patterns} == {(2, 2), (1, 1, 2), (1, 1, 1, 1)}


def test_certificate_decides_a_random_char_poly_that_needs_eleven_primes():
    # The char poly of a seeded random primitive 0-2 matrix (see
    # tests/test_cli.py); the first ten primes leave degrees open, so it was
    # Undecided when certificates read only those.  The 11th prime, 31,
    # closes the last of degrees 2 .. 6, with no witness prime.
    p = IntPolynomial([-12, 93, -139, 75, 37, 7, -9, -7, 1])
    cert = irreducibility_certificate(p)
    assert cert.status is CertificateStatus.IRREDUCIBLE
    assert cert.witness_prime is None
    assert len(cert.patterns) == 11
    assert cert.patterns[-3:] == ((23, (1, 1, 6)), (29, (1, 1, 1, 5)), (31, (1, 7)))


def test_lane_primes_are_the_largest_primes_below_two_to_the_27():
    # trial division over every integer from the least of them up to 2^27
    primes = [n for n in range(2**27 - 1, min(exact._LANE_PRIMES) - 1, -1) if _trial_division_is_prime(n)]
    assert exact._LANE_PRIMES == tuple(primes)
    assert len(primes) == 32


def test_first_primes():
    # the certificate's primes are exactly the first 20 primes, in order
    first = itertools.islice(filter(exact.is_prime, itertools.count()), 20)
    assert exact._CERTIFICATE_PRIMES == tuple(first)
    sympy = pytest.importorskip("sympy")
    assert exact._CERTIFICATE_PRIMES == tuple(map(sympy.prime, range(1, 21)))
