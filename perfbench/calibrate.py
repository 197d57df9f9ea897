"""Machine-speed calibration of the benchmark's timings.

The shared machines this benchmark runs on change speed in stretches of
seconds to minutes, which moves every CPU-bound timing by up to 40 %
between runs of identical code.  The benchmark therefore times a fixed
reference kernel next to the program and reports each time scaled by
``NOMINAL_S / reference time``: seconds on a machine where the kernel takes
``NOMINAL_S``.  The kernel is part of the benchmark, so no change to the
program moves it; the raw times are printed beside the calibrated ones.

Set-up time is import work (reading, unmarshalling and running modules),
which the arithmetic kernel does not track.  It is scaled instead by
``NOMINAL_IMPORT_S`` over the time a fresh interpreter takes to import the
standard-library modules that ``triboconv.cli`` imports (``IMPORT_CODE``).
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

#: Median time of the reference kernel on the machine where the benchmark
#: was defined (2 vCPUs, Python 3.11).
NOMINAL_S = 0.06

#: Median time of ``IMPORT_CODE`` on that machine.
NOMINAL_IMPORT_S = 0.023

#: Run as ``python -I -c IMPORT_CODE``: prints how long the imports took.
IMPORT_CODE = (
    "import time; start = time.perf_counter(); "
    "import argparse, cmath, dataclasses, fractions, json; print(time.perf_counter() - start)"
)


def reference_kernel() -> tuple[int, Fraction, Fraction]:
    """Fixed arithmetic of the two kinds the program spends its time on:
    big-integer and binomial work done in C, as in the convolution tables,
    and interpreted Fraction arithmetic on small numbers, as in the field
    and the symmetric identities.  A machine's speed swings do not hit the
    two kinds alike, so the kernel holds both."""
    acc, frac = 0, Fraction(0)
    big = 7**300
    for i in range(1, 1500):
        acc += comb(300, i % 300) * big // (i + 3)
        frac += Fraction(i, i * i + 1)
    total = Fraction(0)
    for start in range(1, 41):
        a = (Fraction(start, 3), Fraction(1, start + 1), Fraction(-2, 7))
        b = (Fraction(1, 2), Fraction(start, 5), Fraction(1, 9))
        for _ in range(12):
            # a * b in Q(t), t^3 = t^2 + t + 1 and so t^4 = 2t^2 + 2t + 1
            c0 = a[0] * b[0]
            c1 = a[0] * b[1] + a[1] * b[0]
            c2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
            c3 = a[1] * b[2] + a[2] * b[1]
            c4 = a[2] * b[2]
            a = (c0 + c3 + c4, c1 + c3 + 2 * c4, c2 + c3 + 2 * c4)
        total += a[0] - a[1]
    return acc, frac, total


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
