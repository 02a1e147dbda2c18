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
tail bound (return probabilities never exceed 1), and
:func:`against_series` is that comparison on a z grid, the one both the
`genfunc` command and `verify` run.

Every generating function takes a float z and returns a float, or takes
an array of z and returns the array of values, each equal to its scalar
call.  The quadrature behind :func:`gf_qw` and :func:`polya3d_constants`
is :func:`integrate`: adaptive bisection with a 16-point Gauss-Legendre
rule, run on whole arrays of intervals with one integrand call per level.
The E-kernel term is integrated in s = -log(1 - w), which removes its
1/(1 - w) factor.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .crw import CRWInitialState, TransitionMatrix, closed_form_params
from .specfun import _plain, _real_array, _require_count, _require_in, central_binomial_ratios, ellipK, ellipK_from_complement, script_E, script_K

__all__ = [
    "ConvergenceError",
    "against_series",
    "integrate",
    "integral_E_term",
    "gf_qw",
    "gf_hadamard",
    "gf_crw",
    "gf_rw",
    "polya2d_gf",
    "polya2d_series",
    "polya3d_constants",
    "series_sum",
    "truncation_for",
]

_Z_MARGIN = 1e-6

# Subdivisions the adaptive quadrature may make per integral before it gives up.
_MAX_SUBDIVISIONS = 4000
# Relative disagreement of the coarse and fine values that counts as rounding.
_ROUNDING = 4.0 * np.finfo(float).eps
# Absolute tolerance of the quadrature term of the quantum-walk generating function.
_E_TERM_TOL = 1e-10
# The smallest tolerance `polya3d_constants` can meet.
_POLYA3D_TOL_FLOOR = 1e-12

# The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights (the rule is symmetric about 0).
_G16_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_G16_WEIGHTS = (
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553388, 0.09515851168249279, 0.062253523938647894, 0.027152459411754096,
)


class ConvergenceError(RuntimeError):
    """Quadrature failed to meet its tolerance within the subdivision budget."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


def _check_tol(tol: float) -> None:
    # Written so that NaN fails the check as well.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite positive number, got {tol}")


def _z_array(z, bound: float = 1.0) -> np.ndarray:
    """z as a real float array with every |z| below `bound` (NaN fails too)."""
    z = _real_array("z", z)
    _require_in(z, np.abs(z) < bound, f"|z| must be below {bound}, got {{}}")
    return z


def _gauss16(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 16-point Gauss-Legendre value on every interval [lo_i, hi_i], from one call of f."""
    centre = (0.5 * (lo + hi))[:, None]
    half = 0.5 * (hi - lo)
    offsets = half[:, None] * _G16_NODES
    values = f(np.concatenate([centre - offsets, centre + offsets], axis=1).ravel()).reshape(len(lo), 16)
    pairs = values[:, :8] + values[:, 8:]
    # Summed node by node, so that each interval's value does not depend on
    # how many others share the call.
    total = _G16_WEIGHTS[0] * pairs[:, 0]
    for j in range(1, 8):
        total += _G16_WEIGHTS[j] * pairs[:, j]
    return half * total


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b, tol: float = 1e-10):
    """Integrate f over [a, b] to the absolute tolerance `tol`.

    Adaptive Gauss-Legendre bisection: the 16-point rule on an interval is
    the coarse value, the rule on each half the fine one, and the fine value
    is accepted where the two differ by at most the level's tolerance, which
    halves per level, or by at most a few ulps of the fine value.  `f` must
    be elementwise on a numpy array.  `a` and `b` may be arrays of interval
    ends (broadcast together): then f is called once per level for the live
    intervals of every integral, and an array of integrals comes back, each
    with the bits it would get alone.  Float ends give a float.
    """
    _check_tol(tol)
    lo, hi = np.broadcast_arrays(_real_array("a", a), _real_array("b", b))
    if not np.all(np.isfinite(lo) & np.isfinite(hi)):
        raise ValueError(f"interval ends must be finite, got [{a}, {b}]")
    if np.any(hi < lo):
        raise ValueError(f"inverted interval [{a}, {b}]")
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    totals = np.zeros(lo.size)
    used = np.zeros(lo.size, dtype=int)
    # Empty intervals integrate to 0 without evaluating f.
    owner = np.flatnonzero(lo < hi)
    lo, hi = lo[owner], hi[owner]
    coarse = _gauss16(f, lo, hi) if owner.size else None
    level_tol = tol
    while owner.size:
        mid = 0.5 * (lo + hi)
        halves = _gauss16(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[: owner.size], halves[owner.size :]
        fine = left + right
        error = np.abs(fine - coarse)
        # Halving can push the level's tolerance below the rounding of fine
        # itself, which no bisection resolves; a few ulps of fine then pass.
        split = ~(error <= np.maximum(level_tol, _ROUNDING * np.abs(fine)))  # NaN splits
        np.add.at(totals, owner[~split], fine[~split])
        used += np.bincount(owner[split], minlength=totals.size)
        spent = split & (used[owner] > _MAX_SUBDIVISIONS)
        if spent.any():
            raise ConvergenceError(
                f"adaptive Gauss-Legendre bisection exceeded {_MAX_SUBDIVISIONS} subdivisions",
                estimate=float(np.max(error[spent])),
            )
        owner = np.concatenate([owner[split], owner[split]])
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        coarse = np.concatenate([left[split], right[split]])
        level_tol /= 2.0
    return _plain(totals.reshape(shape))


def integral_E_term(k: float, z2):
    """The quadrature term of the quantum-walk generating function:
    integral_0^{z2} scriptE(k, w) / (1 - w) dw, for a float or an array z2,
    to the absolute tolerance 1e-10.

    Evaluated after the substitution w = 1 - e^{-s} (dw = (1 - w) ds) as
    integral_0^{-log1p(-z2)} scriptE(k, -expm1(-s)) ds, whose integrand has
    no 1/(1 - w) factor left and stays smooth as z2 -> 1.  One `integrate`
    call serves every z2.
    """
    if not -1.0 < k < 1.0:
        raise ValueError(f"k must lie in (-1, 1), got {k}")
    z2 = _real_array("z2", z2)
    _require_in(z2, (0.0 <= z2) & (z2 < 1.0 - _Z_MARGIN), f"upper limit must lie in [0, {1.0 - _Z_MARGIN}), got {{}}")
    return integrate(lambda s: script_E(k, -np.expm1(-s)), 0.0, -np.log1p(-z2), _E_TERM_TOL)


def gf_qw(alpha_sq: float, z):
    """Generating function sum_n r_n z^n of the quantum walk, at a float or an array z.

    (1/(pi (k+1))) ((1+z^2) scriptK(k, z^2) - 2 k^2 I(k, z^2) - pi/2) + 1
    with k = 2|alpha|^2 - 1 and I the :func:`integral_E_term` quadrature.
    """
    if not 0.0 < alpha_sq < 1.0:
        raise ValueError(f"alpha_sq must lie in (0, 1), got {alpha_sq}")
    z = _z_array(z, 1.0 - _Z_MARGIN)
    k = 2.0 * alpha_sq - 1.0
    w = z * z
    bracket = (1.0 + w) * script_K(k, w) - math.pi / 2.0
    if k != 0.0:
        bracket = bracket - 2.0 * k * k * integral_E_term(k, w)
    return _plain(bracket / (math.pi * (k + 1.0)) + 1.0)


def gf_hadamard(z):
    """Hadamard-walk generating function (1+z^2) K(z^2) / pi + 1/2."""
    z = _z_array(z)
    w = z * z
    return _plain((1.0 + w) * ellipK(w) / math.pi + 0.5)


def gf_rw(p: float, z):
    """Uncorrelated-walk generating function 1/sqrt(1 - 4 p (1-p) z^2).

    Equals 1/sqrt(1 - z^2) in the symmetric case p = 1/2.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    z = _z_array(z)
    return _plain(1.0 / np.sqrt(1.0 - 4.0 * p * (1.0 - p) * z * z))


def gf_crw(transition: TransitionMatrix, phi_hat: CRWInitialState, z):
    """Correlated-walk generating function.

    (1/2ad) ((delta_minus k_minus z^2 + k_plus)
             / sqrt(delta_minus^2 z^4 - 2 delta_plus z^2 + 1) - k_plus) + 1.

    Nothing divides by delta_minus: at delta_minus = 0 (the uncorrelated
    walk) the form is 1/sqrt(1 - 4pqz^2), whatever phi_hat.
    """
    z = _z_array(z)
    params = closed_form_params(transition, phi_hat)
    w = z * z
    radicand = params.delta_minus**2 * w * w - 2.0 * params.delta_plus * w + 1.0
    if not np.all(radicand > 0.0):
        # Unreachable for |z| < 1 with a valid transition matrix: the
        # nearest root of the radicand sits at w >= 1.
        raise ValueError(f"generating-function radicand {np.min(radicand)} not positive at some z")
    ad2 = params.k_plus - params.k_minus
    value = (params.delta_minus * params.k_minus * w + params.k_plus) / np.sqrt(radicand)
    # ad = 0 (a or d underflowed): raise FloatingPointError, never return NaN.
    with np.errstate(divide="raise", invalid="raise"):
        return _plain((value - params.k_plus) / ad2 + 1.0)


def polya2d_gf(z):
    """Generating function (2/pi) K(|z|) of the 2-D return series."""
    z = _z_array(z)
    return _plain(2.0 / math.pi * ellipK(np.abs(z)))


def polya2d_series(nmax: int) -> np.ndarray:
    """The 2-D return series r_0..r_nmax, r_{2j} = (C(2j, j) / 4^j)^2, each ratio correctly rounded."""
    nmax = _require_count(nmax, "nmax")
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
    until the analytic head bound drops below the tolerance `tol`, which
    must be at least 1e-12.
    """
    _check_tol(tol)
    if tol < _POLYA3D_TOL_FLOOR:
        raise ValueError(f"polya3d_constants needs a tolerance of at least {_POLYA3D_TOL_FLOOR}, got {tol}")

    def integrand(t: np.ndarray) -> np.ndarray:
        # 3 K(1/(1+s)) / (2 (1+s)) with s = sin^2(t/2); going through the
        # complementary modulus sqrt(s(2+s))/(1+s) avoids the 1 - cos t
        # cancellation that rounds the modulus to exactly 1 for small t.
        s = np.sin(0.5 * t) ** 2
        kernel = ellipK_from_complement(np.sqrt(s * (2.0 + s)) / (1.0 + s))
        return 3.0 * kernel / (2.0 * (1.0 + s))

    # Upper ends pi, pi/2, pi/4, ... of the segments, down to the first
    # segment whose lower end leaves a head bound below 0.4*tol.
    his = [math.pi]
    while _polya3d_head_bound(0.5 * his[-1]) >= 0.4 * tol:
        his.append(0.5 * his[-1])
    # The head bound reaches 0.4*tol within 49 halvings for any tol >=
    # 1e-12, so a uniform per-segment budget of tol/128, floored at 1e-14
    # above rounding noise, keeps the sum of segment errors below tol/2
    # (49 * 1e-14 at the floor).  Below the floor that sum would not fit.
    seg_tol = max(tol / 128.0, 1e-14)
    his = np.array(his)
    total = 0.0
    for value in integrate(integrand, 0.5 * his, his, seg_tol).tolist():
        total += value  # hi -> lo
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
    bound = 0.1 * target * (1.0 - az)
    # Below the normal range the product loses bits or rounds to 0: take its
    # log as a sum of logs there instead.
    if bound >= sys.float_info.min:
        log_bound = math.log(bound)
    else:
        log_bound = math.log(0.1) + math.log(target) + math.log(1.0 - az)
    n = log_bound / math.log(az) - 1.0
    return max(0, math.ceil(n))


def series_sum(series, z: float) -> tuple[float, float]:
    """Truncated power series sum_{n<=N} r_n z^n of `series` = r_0..r_N and its tail bound.

    The bound |z|^{N+1}/(1-|z|) is rigorous because every r_n lies in [0, 1].
    Only the nonzero r_n are summed (every model's r_n vanishes at odd n):
    fsum rounds the exact sum correctly, so exact zeros cannot change it,
    while a NaN or inf term is kept and comes back in the sum.
    """
    az = abs(z)
    if not az < 1.0:
        raise ValueError(f"|z| must be below 1, got {z}")
    series = _real_array("series", series)
    live = (series != 0.0).nonzero()[0]
    # fsum reads Python floats from a memoryview faster than numpy scalars
    # from the array, and needs no list of them.
    value = math.fsum(memoryview(series[live] * np.power(z, live)))
    tail = az ** len(series) / (1.0 - az)
    return value, tail


def against_series(gf: Callable[[np.ndarray], np.ndarray], closed: Callable[[int], np.ndarray], z, tol: float):
    """The generating function against its truncated series on the grid `z`,
    read flat: arrays (G, S, tail) of G = gf(z), each z's series sum S and
    its tail bound.

    `closed(nmax)` is a return route r_0..r_nmax.  Each z is summed to its
    own N = truncation_for(z, tol), whose tail bound is below tol/10.  One
    sweep, to the largest N, serves every z: each closed route's first
    n + 1 values are the same whatever the nmax it is swept to.  The sweep
    holds all N + 1 terms at once: at |z| = 0.999999, 3.9e7 of them took
    11 s and 0.9 GB, and |z| nearer 1 would fill memory, so an N above 5e7
    raises ValueError before either route runs.  G comes before the sweep,
    so that a z the generating function refuses stops no long sweep.
    """
    z = _real_array("z", z).ravel()
    cuts = [truncation_for(x, tol) for x in z.tolist()]
    longest = max(cuts, default=0)
    if longest > 5 * 10**7:
        raise ValueError(f"|z| = {max(map(abs, z.tolist()))!r} needs a series of N = {longest} terms, above the bound 5e7")
    values, sweep = gf(z), closed(longest)
    # The module global, looked up per call, so that a traced run counts every sum.
    sums = np.array([series_sum(sweep[: n + 1], x) for x, n in zip(z.tolist(), cuts)], dtype=float).reshape(-1, 2)
    return values, sums[:, 0], sums[:, 1]
