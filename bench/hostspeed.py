"""A fixed reference computation that gauges how fast the host runs right now.

On the shared 2-vCPU host of the first baseline, the same Python code runs
up to twice as fast at one moment as at another, in phases that last from
seconds to minutes, and CPU time follows wall time, so neither clock
removes it.  Ten 45 s runs of the raw times spread by 0.2-0.42 of their
median; the spread of one op's samples within a run was 0.2-0.7.

The timed process runs this reference between consecutive operations.
Each operation's wall time is scaled by REFERENCE_S over the mean of the
reference timings on either side of it: the result is the time the
operation would take on a host where the reference takes REFERENCE_S.
That cut the spread of one op's samples within a run to 0.04-0.24, and
that of ten runs to below 0.08 (README "Noise and bounds").  The
reference is benchmark code, the same on every commit, so a change to the
program moves the scaled times by exactly as much as it moves the raw
ones at equal host speed.

The reference does the program's kinds of work: fraction-free integer
elimination on bigints, Fraction sums, and complex Horner steps.
"""

import statistics
import time
from fractions import Fraction

# A fixed constant that sets the unit only.  On that host (2.1 GHz Xeon,
# Python 3.11.7) `python3 bench/hostspeed.py` printed medians of 0.29-0.50 ms,
# depending on the moment.
REFERENCE_S = 0.000300

_MATRIX = tuple(tuple((i * 7 + j * 13) ** 5 % 1000003 + (i == j) * 999 for j in range(10)) for i in range(10))
_POLY = (1.0, -3.5, 2.25, 0.75, -1.0, 0.5, 0.125, -2.0)


def reference():
    """One fixed computation; its result is returned only so that it is used."""
    a = [list(row) for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(a[n - 1][n - 1] % 97 + 1, i)
    z = complex(0.3, 0.4)
    for _ in range(120):
        value = 0j
        for c in _POLY:
            value = value * z + c
        z = z - value * 1e-3
    return a[n - 1][n - 1], total, z


def sample():
    """Median of three timings of the reference, in seconds, after one untimed
    call that warms the caches the last operation cooled (about 1.2 ms in all)."""
    reference()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds, before, after):
    """Wall time at the reference host speed, given reference samples on either side."""
    return seconds * REFERENCE_S / ((before + after) / 2)


if __name__ == "__main__":
    samples = []
    end = time.perf_counter() + 20
    while time.perf_counter() < end:
        samples.append(sample())
    quartiles = statistics.quantiles(samples, n=4)
    print(f"reference over 20 s: median {statistics.median(samples) * 1e6:.1f} us, "
          f"quartiles {quartiles[0] * 1e6:.1f}-{quartiles[2] * 1e6:.1f} us, n={len(samples)}")
