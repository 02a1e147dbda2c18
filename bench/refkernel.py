"""Fixed reference kernel that calibrates wall time against machine speed.

The kernel never imports the program.  Its four parts follow the program's
own hot paths, which a loaded machine slows by different amounts:

* a pure-Python float recurrence (the Legendre sweeps, per-`n` closed forms);
* numpy elementwise updates on arrays the size of a lattice of a few
  thousand sites (the walk step at long horizons);
* numpy calls on 2x2 matrices and short arrays, where call overhead
  dominates (short walks, the path-word enumeration);
* exact `Fraction` arithmetic on big integers (the path-sum lemma).

Timing it beside each measured pass gives the factor NOMINAL_S / measured
that turns raw seconds into reference-scaled seconds: the time the pass
would take on a machine where the kernel takes exactly NOMINAL_S.

    python3 bench/refkernel.py    # prints the median of 200 kernel runs
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time on the 2-CPU reference machine (see README.md).
NOMINAL_S = 0.012

_RECURRENCE_STEPS = 16_000
_ARRAY_SITES = 6001
_ARRAY_ROUNDS = 80
_SMALL_ROUNDS = 500
_FRACTION_TERMS = 80


def _kernel() -> float:
    x = 0.3
    p_prev, p = 1.0, x
    for j in range(1, _RECURRENCE_STEPS):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)

    left = np.full(_ARRAY_SITES, 0.6 + 0.1j)
    right = np.full(_ARRAY_SITES, 0.2 - 0.7j)
    for _ in range(_ARRAY_ROUNDS):
        left, right = 0.6 * left + 0.8j * right, 0.8j * left + 0.6 * right

    coin = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    word = np.eye(2, dtype=complex)
    short = np.zeros(41, dtype=complex)
    for i in range(_SMALL_ROUNDS):
        word = coin @ word
        short[i % 41] = word[0, 0]
        short = 0.5 * short + 0.25 * np.abs(short)

    ratio = -Fraction(0.7) / Fraction(0.3)
    total, power = Fraction(0), Fraction(1)
    for g in range(1, _FRACTION_TERMS):
        power *= ratio
        total += power * (g * g) / g
    return p + float(np.abs(left[0]) ** 2) + float(short.real.sum()) + float(total > 0)


def time_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(f"{statistics.median(time_kernel() for _ in range(200)):.6f}")
