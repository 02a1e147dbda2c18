"""One-dimensional correlated (persistent) random walk.

The step direction depends on the previous direction through a
column-stochastic 2x2 transition matrix A = [[a, b], [c, d]] with
a + c = b + d = 1: a is the probability of repeating a left step, d of
repeating a right step.  The state tracked per position is the pair of
masses whose last step was Left / Right, so the total at a position is the
occupation probability.

Routes to the return probability: exact mass evolution
(:func:`simulate_return_crw`), the Legendre closed form
(:func:`return_series_crw`, one sweep for all of r_0..r_nmax), and the
explicit path-count sum (:func:`return_sum_form_crw`) used as a
verification path.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .lattice import Field
from .specfun import _require_count, _scaled_legendre

__all__ = [
    "TransitionMatrix",
    "CRWInitialState",
    "crw_step",
    "evolve_crw",
    "simulate_return_crw",
    "closed_form_params",
    "return_closed_crw",
    "return_series_crw",
    "return_sum_form_crw",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic coin: a, b stored, c = 1 - a and d = 1 - b derived.

    The persistence parameters are p = a (keep going left) and q = d (keep
    going right); interior values 0 < a, d < 1 are required, which keeps
    every entry strictly inside (0, 1).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie strictly inside (0, 1), got {self.a}")
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"d = 1 - b must lie strictly inside (0, 1), got b = {self.b}")

    @property
    def c(self) -> float:
        return 1.0 - self.a

    @property
    def d(self) -> float:
        return 1.0 - self.b

    def matrix(self) -> np.ndarray:
        """The matrix [[a, b], [c, d]], computed once and read-only."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        matrix = np.array([[self.a, self.b], [self.c, self.d]])
        matrix.setflags(write=False)
        return matrix

    @classmethod
    def from_persistence(cls, p: float, q: float) -> "TransitionMatrix":
        """a = p and b = 1 - q, so the walk's d = 1 - b is q exactly only for q >= 0.5.

        Below 0.5 each subtraction may round: q = 0.3 walks
        d = 0.30000000000000004, and q = 1e-9 walks d = 9.999999717180685e-10,
        2.8e-8 off relative to q.  c = 1 - a rounds the same way, so for
        a < 0.5 the stored a + c may differ from 1 as an exact sum (at a = 0.3).
        """
        return cls(a=p, b=1.0 - q)

    @classmethod
    def uncorrelated(cls, p: float) -> "TransitionMatrix":
        """Move left with probability p regardless of history (a = b = p)."""
        return cls(a=p, b=p)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "TransitionMatrix":
        return cls(a=rng.uniform(0.05, 0.95), b=rng.uniform(0.05, 0.95))


@dataclass(frozen=True)
class CRWInitialState:
    """Distribution over the direction of the (virtual) previous step."""

    phi1_hat: float
    phi2_hat: float

    def __post_init__(self) -> None:
        if self.phi1_hat < 0.0 or self.phi2_hat < 0.0:
            raise ValueError("initial weights must be non-negative")
        total = self.phi1_hat + self.phi2_hat
        # Written so that a NaN total fails the check.
        if not abs(total - 1.0) <= _MASS_TOL:
            raise ValueError(f"initial weights must sum to 1, got {total}")

    def vector(self) -> np.ndarray:
        return np.array([self.phi1_hat, self.phi2_hat])

    @classmethod
    def from_phi1(cls, phi1_hat: float) -> "CRWInitialState":
        return cls(phi1_hat=phi1_hat, phi2_hat=1.0 - phi1_hat)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "CRWInitialState":
        return cls.from_phi1(rng.uniform(0.0, 1.0))


# One time step of a planned correlated-walk field.  A name of its own because
# ``bench/tracing.py`` wraps it by name to count `crw.site_steps` apart from
# `qw.site_steps`.
crw_step = lattice.shift


def evolve_crw(
    transition: TransitionMatrix | Sequence[TransitionMatrix], phi_hat: CRWInitialState | Sequence[CRWInitialState], n: int
) -> Field:
    """Masses after n steps from the origin: one walk, or a stack as in :func:`simulate_return_crw`."""
    return lattice.evolve(*lattice.stack(transition, phi_hat), n, crw_step)


def simulate_return_crw(
    transition: TransitionMatrix | Sequence[TransitionMatrix],
    phi_hat: CRWInitialState | Sequence[CRWInitialState],
    nmax: int,
) -> np.ndarray:
    """Return probabilities r_0..r_nmax by direct mass evolution.

    A sequence of states walks as one stack, under the one transition or
    paired one-to-one with a sequence of transitions, and gives one row per
    state, shape (len(phi_hat), nmax + 1): bit for bit the walks one state
    at a time.
    """
    return lattice.return_values(*lattice.stack(transition, phi_hat), nmax, crw_step)


def closed_form_params(
    transition: TransitionMatrix, phi_hat: CRWInitialState
) -> tuple[float, float, float, float]:
    """Scalars of the closed form, as (delta_plus, delta_minus, k_plus, k_minus).

    delta_pm = ad +- bc and k_pm = ac phi1 + bd phi2 +- ad.
    """
    a, b, c, d = transition.a, transition.b, transition.c, transition.d
    s = a * c * phi_hat.phi1_hat + b * d * phi_hat.phi2_hat
    return a * d + b * c, a * d - b * c, s + a * d, s - a * d


def return_closed_crw(
    transition: TransitionMatrix, phi_hat: CRWInitialState, n: int
) -> float:
    """Legendre closed form for the return probability at time n.

    r_{2j} = (delta_minus^j / 2ad) (k_minus P_{j-1}(y) + k_plus P_j(y))
    with y = delta_plus/delta_minus; odd times return 0, r_0 = 1.  The
    value is entry n of :func:`return_series_crw`, the route that every
    caller takes; ``bench/tracing.py`` wraps this view by name, and its
    ``Tracer.install`` raises on a missing name.
    """
    return return_series_crw(transition, phi_hat, _require_count(n, "n"))[n]


def return_series_crw(
    transition: TransitionMatrix, phi_hat: CRWInitialState, nmax: int
) -> np.ndarray:
    """Closed-form return series r_0..r_nmax from one scaled Legendre sweep.

    T_j = delta_minus^j P_j(delta_plus/delta_minus) comes from the scaled
    recurrence, so nothing overflows where |y| > 1 and nothing divides by
    delta_minus; at delta_minus = 0 (the uncorrelated walk) the recurrence
    gives T_j = delta_plus^j C(2j, j) / 2^j exactly.
    """
    nmax = _require_count(nmax, "nmax")
    delta_plus, delta_minus, k_plus, k_minus = closed_form_params(transition, phi_hat)
    scaled = np.array(_scaled_legendre(nmax // 2, delta_plus, delta_minus))
    ad2 = k_plus - k_minus  # equals 2ad
    values = np.zeros(nmax + 1)
    values[0] = 1.0
    # 2ad rounds to 0 against k_pm when ad is tiny: raise, never return NaN.
    with np.errstate(divide="raise", invalid="raise"):
        values[2::2] = (k_minus * delta_minus * scaled[:-1] + k_plus * scaled[1:]) / ad2
    return values


def return_sum_form_crw(
    transition: TransitionMatrix, phi_hat: CRWInitialState, n: int
) -> float:
    """Return probability at time 2n via the explicit binomial path count.

    (ad)^n sum_g (bc/ad)^g C(n-1, g-1)^2
        { (n/g)(s/ad + 1) + ((ad - bc)/(abcd)) s },  s = ac phi1 + bd phi2.

    The brace is evaluated as n/g + (s/ad)((n-g)/g + ad/bc), a sum of
    non-negative terms; as (n/g)(s/ad + 1) plus the drift it cancels to 0
    or below when ad is small.  All terms are positive, so they are summed
    in the log domain: each log term from `lgamma`, shifted by the largest
    before exponentiating, which keeps C(n-1, g-1)^2 and the powers from
    overflowing; a brace too large for a float is taken in logs as
    log(s/ad) + log(rest + (n/g)/(s/ad)), rest = (n-g)/g + ad/bc.  Each log
    term carries its own (n-g) log(ad) + g log(bc), so no n log(ad) is left
    to cancel against the largest term.  The logs grow like n, so their
    rounding leaves a relative error of about 1e-12 at n = 1000; near the
    smallest normal ad it stays about 3e-14 at a = 5e-308, n = 200, and
    1.1e-13 at a = 1e-307, n = 100.  A ValueError names the cause where ad
    or bc is not a normal float.
    This is the independent verification twin of :func:`return_series_crw`.
    """
    n = _require_count(n, "n")
    if n < 1:
        raise ValueError("return_sum_form_crw needs n >= 1; r_0 = 1 by definition")
    a, b, c, d = transition.a, transition.b, transition.c, transition.d
    ad, bc = a * d, b * c
    # A subnormal product has lost digits, and s/ad or bc/ad overflows.
    if min(ad, bc) < sys.float_info.min:
        raise ValueError(
            f"return_sum_form_crw needs a*d and b*c to be normal floats, got a*d = {ad!r}, b*c = {bc!r}"
        )
    s = a * c * phi_hat.phi1_hat + b * d * phi_hat.phi2_hat
    log_ad, log_bc = math.log(ad), math.log(bc)
    spread = s / ad
    balance = ad / bc
    log_top = math.lgamma(n)  # log (n-1)!
    logs = []
    for g in range(1, n + 1):
        rest = (n - g) / g + balance
        brace = n / g + spread * rest
        # Near the smallest normal ad, s/ad times the rest can overflow; its log cannot.
        log_brace = math.log(brace) if brace < math.inf else math.log(spread) + math.log(rest + n / g / spread)
        logs.append((n - g) * log_ad + g * log_bc + 2.0 * (log_top - math.lgamma(g) - math.lgamma(n - g + 1)) + log_brace)
    peak = max(logs)
    total = math.fsum(math.exp(term - peak) for term in logs)
    return math.exp(peak + math.log(total))
