"""Generating functions of the return-probability series.

Closed forms:

* quantum walk: elliptic-integral kernels plus a quadrature term
  (:func:`gf_qw`), reducing to (1+z^2) K(z^2)/pi + 1/2 for the Hadamard
  coin (:func:`gf_hadamard`);
* correlated walk: an algebraic square-root form (:func:`gf_crw`), and
  the uncorrelated walk's own 1/sqrt(1 - 4pqz^2) (:func:`gf_rw`);
* 2-D/3-D simple-walk baselines: (2/pi) K(z) and the lattice Green
  constant behind the 3-D recurrence probability (:func:`polya3d_constants`).

Each closed form can be cross-checked against the truncated power series
of its return values; :func:`series_sum` reports the rigorous geometric
tail bound (return probabilities never exceed 1).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .crw import CRWInitialState, TransitionMatrix, closed_form_params
from .specfun import binom, central_binomial_ratios, ellipK, ellipK_from_complement, script_E, script_K

__all__ = [
    "ConvergenceError",
    "integrate",
    "integral_E_term",
    "gf_qw",
    "gf_hadamard",
    "gf_crw",
    "gf_rw",
    "polya2d_return",
    "polya2d_gf",
    "polya2d_series",
    "polya3d_constants",
    "series_sum",
    "truncation_for",
]

_Z_MARGIN = 1e-6

# Subdivisions the adaptive Simpson rule may make before it gives up.
_MAX_SUBDIVISIONS = 4000


class ConvergenceError(RuntimeError):
    """Quadrature failed to meet its tolerance within the subdivision budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


def _check_tol(tol: float) -> None:
    # Written so that NaN fails the check as well.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite positive number, got {tol}")


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    # Stack of (a, m, b, fa, fm, fb, coarse Simpson value, local tolerance).
    stack = [(a, m, b, fa, fm, fb, whole, tol)]
    total = 0.0
    used = 0
    while stack:
        a0, m0, b0, f0, f1, f2, coarse, tol = stack.pop()
        lm, rm = 0.5 * (a0 + m0), 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        left = _simpson(f0, flm, f1, m0 - a0)
        right = _simpson(f1, frm, f2, b0 - m0)
        err = (left + right - coarse) / 15.0
        if abs(err) <= tol:
            total += left + right + err  # Richardson-extrapolated accept
        elif used >= _MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"adaptive Simpson exceeded {_MAX_SUBDIVISIONS} subdivisions",
                estimate=abs(err),
            )
        else:
            used += 1
            stack.append((a0, lm, m0, f0, flm, f1, left, tol / 2.0))
            stack.append((m0, rm, b0, f1, frm, f2, right, tol / 2.0))
    return total


def integrate(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to the absolute tolerance `tol`."""
    _check_tol(tol)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval ends must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"inverted interval [{a}, {b}]")
    if a == b:
        return 0.0
    return _adaptive_simpson(f, a, b, tol)


def integral_E_term(k: float, z2: float, tol: float = 1e-10) -> float:
    """The quadrature term of the quantum-walk generating function:
    integral_0^{z2} scriptE(k, w) / (1 - w) dw.

    The integrand is smooth on [0, z2] for z2 < 1; the 1/(1-w) pole sits
    outside the admissible domain.
    """
    _check_tol(tol)
    if not -1.0 < k < 1.0:
        raise ValueError(f"k must lie in (-1, 1), got {k}")
    if not 0.0 <= z2 < 1.0 - _Z_MARGIN:
        raise ValueError(f"upper limit must lie in [0, {1.0 - _Z_MARGIN}), got {z2}")
    if z2 == 0.0:
        return 0.0
    return integrate(lambda w: script_E(k, w) / (1.0 - w), 0.0, z2, tol)


def gf_qw(alpha_sq: float, z: float, tol: float = 1e-10) -> float:
    """Generating function sum_n r_n z^n of the quantum walk.

    (1/(pi (k+1))) ((1+z^2) scriptK(k, z^2) - 2 k^2 I(k, z^2) - pi/2) + 1
    with k = 2|alpha|^2 - 1 and I the :func:`integral_E_term` quadrature,
    run to the absolute tolerance `tol`.
    """
    _check_tol(tol)
    if not 0.0 < alpha_sq < 1.0:
        raise ValueError(f"alpha_sq must lie in (0, 1), got {alpha_sq}")
    if not abs(z) < 1.0 - _Z_MARGIN:
        raise ValueError(f"|z| must be below {1.0 - _Z_MARGIN}, got {z}")
    k = 2.0 * alpha_sq - 1.0
    w = z * z
    bracket = (1.0 + w) * script_K(k, w) - math.pi / 2.0
    if k != 0.0:
        bracket -= 2.0 * k * k * integral_E_term(k, w, tol)
    return bracket / (math.pi * (k + 1.0)) + 1.0


def gf_hadamard(z: float) -> float:
    """Hadamard-walk generating function (1+z^2) K(z^2) / pi + 1/2."""
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    w = z * z
    return (1.0 + w) * ellipK(w) / math.pi + 0.5


def gf_rw(p: float, z: float) -> float:
    """Uncorrelated-walk generating function 1/sqrt(1 - 4 p (1-p) z^2).

    Equals 1/sqrt(1 - z^2) in the symmetric case p = 1/2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    return 1.0 / math.sqrt(1.0 - 4.0 * p * (1.0 - p) * z * z)


def gf_crw(transition: TransitionMatrix, phi_hat: CRWInitialState, z: float) -> float:
    """Correlated-walk generating function.

    (1/2ad) ((delta_minus k_minus z^2 + k_plus)
             / sqrt(delta_minus^2 z^4 - 2 delta_plus z^2 + 1) - k_plus) + 1.

    Nothing divides by delta_minus: at delta_minus = 0 (the uncorrelated
    walk) the form is 1/sqrt(1 - 4pqz^2), whatever phi_hat.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    params = closed_form_params(transition, phi_hat)
    w = z * z
    radicand = params.delta_minus**2 * w * w - 2.0 * params.delta_plus * w + 1.0
    if radicand <= 0.0:
        # Unreachable for |z| < 1 with a valid transition matrix: the
        # nearest root of the radicand sits at w >= 1.
        raise ValueError(f"generating-function radicand {radicand} not positive at z={z}")
    ad2 = params.k_plus - params.k_minus
    value = (params.delta_minus * params.k_minus * w + params.k_plus) / math.sqrt(radicand)
    return (value - params.k_plus) / ad2 + 1.0


def polya2d_return(n: int) -> float:
    """Simple 2-D lattice walk return probability r_{2j} = C(2j, j)^2 / 16^j."""
    if n < 0:
        raise ValueError(f"time must be non-negative, got {n}")
    if n % 2 == 1:
        return 0.0
    j = n // 2
    # int/int true division is correctly rounded and cannot overflow.
    central = binom(2 * j, j) / 4**j
    return central * central


def polya2d_gf(z: float) -> float:
    """Generating function (2/pi) K(z) of the 2-D return series."""
    if not abs(z) < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    return 2.0 / math.pi * ellipK(abs(z))


def polya2d_series(nmax: int) -> np.ndarray:
    """The 2-D return series r_0..r_nmax, equal to :func:`polya2d_return` bit for bit."""
    if nmax < 0:
        raise ValueError(f"nmax must be non-negative, got {nmax}")
    values = np.zeros(nmax + 1)
    ratios = central_binomial_ratios(nmax // 2)
    values[::2] = ratios * ratios
    return values


def _polya3d_head_bound(delta: float) -> float:
    """Upper bound for the untreated integral head over (0, delta].

    Near 0 the kernel K(2/(3-cos t)) has complementary modulus
    m'(t) >= t (1 - t) / sqrt(2) for t <= 1e-3, and
    K(m) <= ln(4/m') + m'^2 for small m', while the 3/(3-cos t) weight is
    at most 3/2; the head is therefore at most
    (3/2) integral_0^delta (ln(4 sqrt2 / t) + 2t + tiny) dt.
    """
    kernel = delta * (math.log(4.0 * math.sqrt(2.0) / delta) + 1.0) + delta * delta + 1e-7 * delta
    return 1.5 * kernel


def polya3d_constants(tol: float = 1e-10) -> tuple[float, float]:
    """Lattice Green constant G and 3-D recurrence probability F = 1 - 1/G.

    G = (1/pi^2) integral_{-pi}^{pi} 3 K(2/(3 - cos t)) / (3 - cos t) dt,
    obtained by collapsing two lattice directions of the simple-cubic Green
    function through the planar identity
    (1/pi^2) iint dx dy / (a - cos x - cos y) = (2/(pi a)) K(2/a).
    The integrand is even with an integrable logarithmic singularity at
    t = 0 (modulus -> 1), so the half-range integral is accumulated over
    dyadic segments [pi/2^{j+1}, pi/2^j] that never touch the endpoint,
    until the analytic head bound drops below the tolerance `tol`.
    """
    _check_tol(tol)

    def integrand(t: float) -> float:
        # 3 K(1/(1+s)) / (2 (1+s)) with s = sin^2(t/2); going through the
        # complementary modulus sqrt(s(2+s))/(1+s) avoids the 1 - cos t
        # cancellation that rounds the modulus to exactly 1 for small t.
        s = math.sin(0.5 * t) ** 2
        kernel = ellipK_from_complement(math.sqrt(s * (2.0 + s)) / (1.0 + s))
        return 3.0 * kernel / (2.0 * (1.0 + s))

    total = 0.0
    hi = math.pi
    lo = 0.5 * math.pi
    # The head bound reaches 0.4*tol within ~64 halvings for any tol
    # >= 1e-12, so a uniform per-segment budget of tol/128 keeps the sum
    # of segment errors below tol/2 while staying above rounding noise.
    seg_tol = max(tol / 128.0, 1e-14)
    for _ in range(200):
        total += integrate(integrand, lo, hi, seg_tol)
        if _polya3d_head_bound(lo) < 0.4 * tol:
            break
        hi = lo
        lo *= 0.5
    else:  # pragma: no cover
        raise ConvergenceError("dyadic refinement stalled", estimate=_polya3d_head_bound(lo))
    g = total * 2.0 / math.pi**2
    return g, 1.0 - 1.0 / g


def truncation_for(z: float, target: float) -> int:
    """Smallest N with geometric tail |z|^{N+1}/(1-|z|) below target/10."""
    az = abs(z)
    if not az < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    _check_tol(target)
    if az == 0.0:
        return 0
    n = math.log(0.1 * target * (1.0 - az)) / math.log(az) - 1.0
    return max(0, math.ceil(n))


def series_sum(series: np.ndarray, z: float) -> tuple[float, float]:
    """Truncated power series sum_{n<=N} r_n z^n of `series` = r_0..r_N and its tail bound.

    The bound |z|^{N+1}/(1-|z|) is rigorous because every r_n lies in [0, 1].
    """
    az = abs(z)
    if not az < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    powers = np.power(z, np.arange(len(series)))
    value = float(math.fsum(series * powers))
    tail = az ** len(series) / (1.0 - az)
    return value, tail
