"""Seeded corpus generator for the two benchmark workloads.

Every operation is a plain JSON-able dict:

    id     unique name, stable for a given seed
    kind   "cli" (fibernorm.cli.main), "trace3" (the three trace
           computations through the library), "telescope" or "axioms"
    doc    the input document, in the CLI's text format
    argv   CLI arguments without --input (cli ops only)
    why    one line: why this input is in the corpus
    repeat runs per pass, when more than one

The program under test only ever sees ``doc`` and ``argv`` (or the values
parsed from them).  Nothing here imports fibernorm or the oracle, so the
same seed yields byte-identical operations on every commit; ``digest``
pins that.
"""

import hashlib
import json
import math
import random

WORKLOADS = ("field", "spectral")

FIXTURE = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]

# Seed of the base matrices (see generate).  Changing it changes the benchmark.
BASE_SEED = 0

# A 40-bit k=4 companion on which power iteration never meets
# perron_data's absolute Rayleigh tolerance (a Perron root near 2^40; about
# one random such companion in ten behaves so, depending on float
# rounding).  Pinned, so that every seed shows this form of the defect.
NO_CONVERGENCE_COEFFS = (783527408893, 753130058915, 769707099532, 909504909443)

# Runs per pass of the ops that take up to a few tens of milliseconds:
# field ops at k <= 8; the cheap spectral commands, the smallest cycle and
# the telescoping.  p50 falls among them, and each op's median needs more
# than the four to seven samples one run a pass gives.
CHEAP_REPEAT = 4
# Runs per pass of the field ops of about 40-320 ms (k = 10 and 12, the cone
# and the axiom checks): p90 falls among them, and each op's median needs
# more than the four or five samples one run a pass gives.
MID_REPEAT = 2

# Sizes per workload.  The smoke sizes keep every kind of input but shrink
# the expensive ones, so the benchmark's own test runs in seconds.
FULL = {
    # Thirteen k=8 matrices: the typical input, and enough of them that the
    # field p50 falls inside their cluster, not on its edge.
    "field_random": ((8, 13), (12, 3), (16, 1)),
    "field_companions": ((4, 40), (6, 80), (8, 120), (10, 160), (12, 200)),
    "field_stress_m": 4000,
    "field_cone": ((4, 8), (5, 4), (6, 3), (4, 6), (5, 3)),
    "field_axioms": ((4, 2, 3), (4, 2, 3)),
    "spectral_random": (24, 24, 32, 48),
    "spectral_cycles": (16, 20, 24),
    "spectral_companions": ((4, 40), (6, 80), (8, 120), (10, 160), (12, 200)),
    "spectral_dot": ((4, 10_000), (5, 5_000), (6, 3_000)),
    "spectral_telescope": ((4, 600), (5, 500), (6, 400), (4, 3_000), (5, 2_000)),
}
SMOKE = {
    "field_random": ((8, 1),),
    "field_companions": ((4, 40), (12, 200)),
    "field_stress_m": 40,
    "field_cone": ((4, 2),),
    "field_axioms": ((4, 1, 2),),
    "spectral_random": (8, 32),
    "spectral_cycles": (8,),
    "spectral_companions": ((4, 40), (10, 160)),
    "spectral_dot": ((4, 20),),
    "spectral_telescope": ((4, 30),),
}


def primitivity_exponent(rows):
    """Smallest m with rows^m entrywise positive, or None if there is none.

    Boolean matrix powers up to Wielandt's bound (k-1)^2 + 1.  Written
    here, independently of fibernorm.perron, for the generator and oracle.
    """
    k = len(rows)
    if any(x < 0 for row in rows for x in row):
        return None
    support = [{j for j in range(k) if rows[i][j] > 0} for i in range(k)]
    current = [set(s) for s in support]
    for m in range(1, (k - 1) ** 2 + 2):
        if all(len(s) == k for s in current):
            return m
        current = [set().union(*(support[t] for t in s)) if s else set() for s in current]
    return None


def _random_primitive(rng, k, values=(0, 1, 2)):
    while True:
        rows = [[rng.choice(values) for _ in range(k)] for _ in range(k)]
        if primitivity_exponent(rows) is not None:
            return rows


def companion(coeffs):
    """Companion matrix of x^k - sum_i coeffs[i] x^i (nonnegative when coeffs are)."""
    k = len(coeffs)
    rows = [[0] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = 1
    for i in range(k):
        rows[i][k - 1] = coeffs[i]
    return rows


def _big_coeffs(rng, k, bits):
    return [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(k)]


def _gf2_irreducible(bits, k):
    """Whether the degree-k polynomial over F_2 with coefficient bits is irreducible."""
    poly = bits | (1 << k)
    for d in range(2, 1 << (k // 2 + 1)):
        r = poly
        while r.bit_length() >= d.bit_length():
            r ^= d << (r.bit_length() - d.bit_length())
        if r == 0:
            return False
    return True


def _mod2_irreducible_companion(rng, k):
    """Companion of x^k - sum c_i x^i, 1 <= c_i <= 6, irreducible modulo 2.

    The reduction mod 2 is an irreducible witness at the first prime, so
    building the order is cheap and certain: workloads that use this stay
    off the certificate path that the field workload measures.
    """
    patterns = [b for b in range(1 << k) if _gf2_irreducible(b, k)]
    pattern = rng.choice(patterns)
    return companion([rng.choice((1, 3, 5) if pattern >> i & 1 else (2, 4, 6)) for i in range(k)])


def _cycle_with_loop(k):
    """A k-cycle plus one self-loop: primitive, spectral gap close to 1."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[(i + 1) % k][i] = 1
    rows[0][0] = 1
    return rows


def _constant_row_sum(rng, k):
    """Positive matrix whose rows permute one multiset: its row sum is an
    integer eigenvalue, so the characteristic polynomial has a linear factor."""
    base = [rng.randint(1, 3) for _ in range(k)]
    rows = []
    for _ in range(k):
        row = list(base)
        rng.shuffle(row)
        rows.append(row)
    return rows


def _genus_and_prongs(rng, k):
    """Valid (genus, prongs) with 2g + m - 1 = k and sum(n_i - 2) = 4g - 4."""
    choices = [g for g in range(2, k) if 1 <= k - 2 * g + 1 <= 4 * g - 4]
    g = rng.choice(choices)
    m = k - 2 * g + 1
    excess = [1] * m
    for _ in range(4 * g - 4 - m):
        excess[rng.randrange(m)] += 1
    return g, sorted(2 + e for e in excess)


def _doc(rows, genus=None, prongs=None):
    lines = []
    if genus is not None:
        lines.append(f"genus = {genus}")
        lines.append("singularities = " + ",".join(map(str, prongs)))
    lines.append("matrix = [" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]")
    return "\n".join(lines) + "\n"


def _vec(values):
    return "[" + ",".join(map(str, values)) + "]"


def _small_vector(rng, k, low=-2, high=2):
    while True:
        v = [rng.randint(low, high) for _ in range(k)]
        if any(v):
            return v


def _field_ops(base, rng, rows, name, why, commands, genus=None, prongs=None):
    """One op per command on one matrix; report needs genus/prong data.

    The trace3 element is a base draw: whether the numeric embedding sum
    lands within its tolerance depends on it.
    """
    k = len(rows)
    if genus is None:
        genus, prongs = _genus_and_prongs(rng, k)
    bundle_doc = _doc(rows, genus, prongs)
    repeat = CHEAP_REPEAT if k <= 8 else MID_REPEAT if k <= 12 else 1
    ops = []
    for command in commands:
        op_id = f"{name}/{command}"
        if command == "report":
            ops.append(_cli(op_id, bundle_doc, ["report", "--fiber-class", _vec(_small_vector(rng, k))], why, repeat))
        elif command == "trace":
            ops.append(_cli(op_id, bundle_doc, ["trace", "--element", _vec(_small_vector(rng, k))], why, repeat))
        elif command == "norm":
            ops.append(_cli(op_id, bundle_doc, ["norm", "--class", _vec(_small_vector(rng, k))], why, repeat))
        else:
            ops.append({"id": op_id, "kind": "trace3", "doc": bundle_doc,
                        "element": _small_vector(base, k, -3, 3), "why": why, "repeat": repeat})
    return ops


def _cli(op_id, doc, argv, why, repeat=1):
    op = {"id": op_id, "kind": "cli", "doc": doc, "argv": argv, "why": why}
    if repeat > 1:
        op["repeat"] = repeat
    return op


def _relabel(rng, rows, vector=None):
    """P A P^T (and P v) for a random permutation P.

    Relabelling keeps the characteristic polynomial, the spectrum and the
    sign pattern of every A^n v, hence every verdict and failure.
    """
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    out = [[rows[perm[i]][perm[j]] for j in range(len(rows))] for i in range(len(rows))]
    return out if vector is None else (out, [vector[p] for p in perm])


def _field(base, rng, sizes):
    ops = _field_ops(
        base, rng, FIXTURE, "fixture", "the paper's genus-2 example; every command must agree",
        ("report", "trace", "norm", "trace3"), genus=2, prongs=[6],
    )
    cycle = ("report", "trace3", "norm", "trace")
    for k, count in sizes["field_random"]:
        for i in range(count):
            ops += _field_ops(
                base, rng, _random_primitive(base, k), f"random-k{k}-{i}",
                f"random primitive {{0,1,2}} matrix, k={k}: min poly and certificate cost",
                (cycle[i % len(cycle)],),
            )
    for i, (k, bits) in enumerate(sizes["field_companions"]):
        ops += _field_ops(
            base, rng, companion(_big_coeffs(base, k, bits)), f"companion-k{k}-b{bits}",
            f"companion with {bits}-bit coefficients: bigint size, embedding accuracy",
            ("trace3", ("report", "trace", "norm")[i % 3]),
        )
    ops += _field_ops(
        base, rng, _constant_row_sum(base, 4), "reducible-k4",
        "integer eigenvalue (constant row sums): the correct verdict is NotAField",
        ("report",),
    )
    m = sizes["field_stress_m"]
    ops.append(_cli(
        f"divisor-stress-m{m}", _doc([[0, m * m], [1, 0]]), ["trace", "--element", "[1,1]"],
        "x^2 - m^2: NotAField after a divisor enumeration linear in m^2",
    ))
    # The cone of the norm at k = 4-6: trivial algebra, enumeration and
    # output dominate.
    for k, box in sizes["field_cone"]:
        ops.append(_cli(f"cone-k{k}-box{box}", _doc(_relabel(rng, _mod2_irreducible_companion(base, k))),
                        ["cone", "--box", str(box)],
                        f"cone enumeration of (2*{box}+1)^{k} lattice points and a large report", MID_REPEAT))
    for i, (k, box, scale) in enumerate(sizes["field_axioms"]):
        ops.append({"id": f"axioms-k{k}-box{box}-{i}", "kind": "axioms",
                    "doc": _doc(_relabel(rng, _mod2_irreducible_companion(base, k))),
                    "box": box, "scale_max": scale, "repeat": MID_REPEAT,
                    "why": "exhaustive cone axiom check: quadratic in interior points, trivial algebra"})
    return ops


def _spectral(base, rng, sizes):
    ops = []
    commands = ("charpoly", "perron", "dimgroup")

    def three(name, rows, why, relabel=True, cheap=("dimgroup",)):
        # The dimgroup vector is a base draw too: its sign decision (and
        # whether it exceeds the program's iteration bound) is fixed.
        vector = _small_vector(base, len(rows), -1, 3)
        if relabel:
            rows, vector = _relabel(rng, rows, vector)
        doc = _doc(rows)
        argvs = (["charpoly"], ["perron"], ["dimgroup", "--vector", _vec(vector), "--stage", str(rng.randint(0, 3))])
        return [_cli(f"{name}/{c}", doc, argv, why, CHEAP_REPEAT if c in cheap else 1)
                for c, argv in zip(commands, argvs)]

    for i, k in enumerate(sizes["spectral_random"]):
        ops += three(f"random-k{k}-{i}", _random_primitive(base, k),
                     f"random primitive k={k}: large bigint char poly, root finding at degree {k}")
    for k in sizes["spectral_cycles"]:
        ops += three(f"cycle-k{k}", _cycle_with_loop(k),
                     f"{k}-cycle plus a self-loop: spectral gap near 1, primitivity witness near 2k",
                     cheap=commands if k == min(sizes["spectral_cycles"]) else ())
    for k, bits in sizes["spectral_companions"]:
        # Not relabelled: the summation order decides whether power
        # iteration on a huge Perron root stops, and where.
        made = three(f"companion-k{k}-b{bits}", companion(_big_coeffs(base, k, bits)),
                     f"companion with {bits}-bit coefficients: huge Perron root, tiny gap", relabel=False,
                     cheap=commands)
        # perron on the 200-bit one spends the whole iteration budget (about
        # 3 s) and raises NoConvergence, the defect the pinned 40-bit
        # companion below shows in a quarter of the time.  It would take a
        # third of every pass, and so a third of every other op's samples.
        ops += made if bits < 200 else [op for op in made if not op["id"].endswith("/perron")]
    ops.append(_cli("companion-k4-b40-noconv/perron", _doc(companion(list(NO_CONVERGENCE_COEFFS))), ["perron"],
                    "40-bit companion whose power iteration never meets the absolute Rayleigh tolerance"))
    # The dimension group's cheap paths at k = 4-6: output and bigint
    # matrix-vector products, no polynomial work.
    for k, levels in sizes["spectral_dot"]:
        ops.append(_cli(f"dot-k{k}-levels{levels}", _doc(_relabel(rng, _random_primitive(base, k))),
                        ["bratteli", "--levels", str(levels), "--format", "dot"],
                        f"Bratteli DOT text for {levels} floors: string building and output size"))
    for k, stage in sizes["spectral_telescope"]:
        ops.append({"id": f"telescope-k{k}-stage{stage}", "kind": "telescope",
                    "doc": _doc(_relabel(rng, _random_primitive(base, k))), "vector": _small_vector(rng, k, -2, 3),
                    "stage": stage, "why": f"exact telescoping {stage} stages: bigint matrix-vector products",
                    "repeat": CHEAP_REPEAT})
    return ops


def generate(workload, seed, smoke=False):
    """The operations of one workload for one seed, in run order.

    The matrices come from BASE_SEED, the same for every run seed, so that
    each seed has the same mix of sizes, verdicts and failures: a random
    draw of that mix, or of the row order that the minimal polynomial's
    elimination pivots on, moves the metrics more than a change worth
    measuring.  The run seed draws the classes, elements, stages and
    genus/prong data, and relabels (P A P^T) the matrices whose costs and
    outcomes do not depend on the labelling.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = random.Random(f"fibernorm-bench/{workload}/base/{BASE_SEED}")
    rng = random.Random(f"fibernorm-bench/{workload}/{seed}")
    sizes = SMOKE if smoke else FULL
    return _spread({"field": _field, "spectral": _spectral}[workload](base, rng, sizes))


def _spread(ops):
    """Reorder so that neighbours in generation order (similar inputs, similar
    cost) run far apart: a spell of slow machine then touches few of them."""
    n = len(ops)
    step = round(n / 1.618)
    while math.gcd(step, n) != 1:
        step += 1
    return [ops[j * step % n] for j in range(n)]


def digest(ops):
    """sha256 of the canonical JSON of the corpus: equal digests, equal inputs."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
