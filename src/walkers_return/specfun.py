"""Special-function kernels: Legendre/Jacobi polynomials, binomial
coefficients, complete elliptic integrals.

Conventions
-----------
Elliptic integrals take the MODULUS as argument:

    K(m) = integral_0^{pi/2} dt / sqrt(1 - m^2 sin^2 t),   0 <= m < 1
    E(m) = integral_0^{pi/2} sqrt(1 - m^2 sin^2 t) dt,     0 <= m <= 1

This is *not* the parameter convention (parameter = modulus squared) used
by several libraries; every call site in this package passes the modulus.
The elliptic kernels (K, E and the script kernels) are elementwise: a float
gives a float, an array gives an array, and each element gets the bits it
would get alone.

Legendre and Jacobi(1,0) polynomials are evaluated by forward three-term
recurrence, which is stable on [-1, 1].  Every Legendre value, in this
module and in the walks' closed forms, comes from one scaled sweep
T_j = denom^j P_j(numer/denom) (plain P_j at denom = 1).  Arguments with
|x| > 1 are legal (the correlated-walk closed form needs them); when such
values would overflow they must be evaluated jointly with their decaying
prefactor, which is what that sweep does.  The closed-form routes
``qw.return_series_qw`` and ``crw.return_series_crw`` take their columns
from :func:`legendre_range` and ``_scaled_legendre``.

The Legendre sweep carries its degree j as a float and forms 2j+1 as
j + (j+1).  Every integer up to 2^53 is an exact float, and Python's
``int * float`` converts its int to exactly that float before it
multiplies, so the sweep has every bit of a loop over integer j while
doing float arithmetic only.  :func:`jacobi10_range` forms its
coefficients as Python ints in the loop, which rounds each product the
same way.
:func:`central_binomial_ratios` converts its exact C(2j, j) with
``float()`` and an exact power-of-two scaling instead of a long division.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "legendre_eval",
    "legendre_range",
    "jacobi10_range",
    "binom",
    "central_binomial_ratios",
    "ellipK",
    "ellipK_from_complement",
    "ellipE",
    "script_K",
    "script_E",
    "scaled_legendre_pair",
]

_AGM_MAX_ITER = 40


def _require_in(values: np.ndarray, inside: np.ndarray, message: str) -> None:
    """Raise ValueError(message.format(first value outside)) unless `inside` holds everywhere."""
    if not inside.all():
        raise ValueError(message.format(float(np.extract(~inside, values)[0])))


def _real_array(name: str, value) -> np.ndarray:
    """`value` as a float array (0-d for a scalar).  Complex input raises
    ValueError: the cast to float would keep only its real part."""
    values = np.asarray(value)
    if values.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {value!r}")
    return np.asarray(values, dtype=float)


def _finite_array(name: str, value) -> np.ndarray:
    """`value` as a real float array (0-d for a scalar), every element finite."""
    values = _real_array(name, value)
    _require_in(values, np.isfinite(values), name + " must be finite, got {!r}")
    return values


def _require_count(value: int, name: str) -> int:
    """A degree or step count as an int, or ValueError naming the parameter `name`."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def _not_finite(n: int, x) -> OverflowError:
    """The error for a polynomial value past the float range, where a sweep
    reaches inf and then inf - inf = NaN, and stays there."""
    return OverflowError(f"polynomial of degree {n} at x = {x} is not finite in float64")


def _scaled_legendre(n: int, numer: float, denom: float) -> list[float]:
    """T_j = denom^j P_j(numer/denom) for j = 0..n: the one Legendre sweep.

    T_0 = 1, T_1 = numer, (j+1) T_{j+1} = (2j+1) numer T_j - j denom^2 T_{j-1}.
    At denom = 1 this is the plain Legendre recurrence.  Every iterate stays
    bounded whenever the target quantity is, so |numer/denom| > 1 never
    overflows even though P_j alone would, and denom = 0 is exact: the
    second term vanishes and T_j = numer^j C(2j, j) / 2^j.
    """
    t_prev, t = 1.0, numer
    values = [t_prev, t]
    d2 = denom * denom
    j, stop = 1.0, float(n)  # float to float compares faster than float to int
    while j < stop:
        j1 = j + 1.0
        t_prev, t = t, ((j + j1) * numer * t - j * d2 * t_prev) / j1
        values.append(t)
        j = j1
    return values if n else values[:1]


def legendre_range(n: int, x: float) -> np.ndarray:
    """All values P_0(x), ..., P_n(x) in one forward pass.

    P_0 = 1, P_1 = x, (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}.
    Raises OverflowError where P_n(x) is not finite in float64: a
    non-finite value stays non-finite, so P_n decides for the whole sweep.
    """
    n = _require_count(n, "n")
    x = float(_finite_array("x", x))
    values = _scaled_legendre(n, x, 1.0)
    if not math.isfinite(values[-1]):
        raise _not_finite(n, x)
    return np.array(values)


def legendre_eval(n: int, x: float) -> float:
    """Legendre polynomial P_n(x): the last value of :func:`legendre_range`.
    No route calls it; ``bench/tracing.py`` wraps it by name, and its
    ``Tracer.install`` raises on a missing name."""
    return float(legendre_range(n, x)[-1])


def jacobi10_range(n: int, x: float) -> np.ndarray:
    """All values P_0^(1,0)(x), ..., P_n^(1,0)(x) in one forward pass.

    Specialization of the general Jacobi recurrence:
    P_0 = 1, P_1 = (3x+1)/2,
    (j+1)(2j-1) P_j = ((2j+1)(2j-1) x + 1) P_{j-1} - (j-1)(2j+1) P_{j-2}.
    Raises OverflowError where P_n^(1,0)(x) is not finite, as :func:`legendre_range` does.
    """
    n = _require_count(n, "n")
    x = float(_finite_array("x", x))
    p_prev, p = 1.0, (3.0 * x + 1.0) / 2.0
    values = [p_prev, p]
    for j in range(2, n + 1):
        odd, odd_below = 2 * j + 1, 2 * j - 1
        p_prev, p = p, ((odd * odd_below * x + 1.0) * p - (j - 1) * odd * p_prev) / ((j + 1) * odd_below)
        values.append(p)
    if not math.isfinite(values[n]):
        raise _not_finite(n, x)
    return np.array(values[: n + 1])


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k).

    Arbitrary-precision integers keep this exact at every size, which the
    path-sum verification routes rely on.
    """
    n = _require_count(n, "n")
    k = _require_count(k, "k")
    if k > n:
        raise ValueError(f"binom requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def central_binomial_ratios(jmax: int) -> np.ndarray:
    """C(2j, j) / 4^j for j = 0..jmax, each correctly rounded.

    C(2j, j) is carried exactly from term to term, and every value equals
    ``binom(2 * j, j) / 4**j``.  ``float(C)`` rounds correctly and the
    scaling by 2^-2j is exact, since the ratio is a normal float.  C(2j, j)
    < 4^j stays below 2^1022 up to j = 511; from j = 512 on, C is first cut
    to its top 64 bits with a sticky 1 in the last, which rounds to the same
    53 bits.  The bits cut are never all zero: by Kummer's theorem C(2j, j)
    has as many trailing zero bits as j has one bits, far fewer than the
    more than 900 bits cut, so the sticky bit is always 1.
    """
    jmax = _require_count(jmax, "jmax")
    ratios = [1.0]
    central = 1  # C(2j, j), exact
    for j in range(1, min(jmax, 511) + 1):
        central = central * (4 * j - 2) // j
        ratios.append(math.ldexp(float(central), -2 * j))
    for j in range(512, jmax + 1):
        central = central * (4 * j - 2) // j
        shift = central.bit_length() - 64
        ratios.append(math.ldexp(float(central >> shift | 1), shift - 2 * j))
    return np.array(ratios)


def _plain(values: np.ndarray) -> float | np.ndarray:
    """A float for scalar arguments (a 0-d result), else the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def _agm(m: np.ndarray, mc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AGM iteration from modulus m and its complement mc = sqrt(1 - m^2), elementwise.

    m and mc share one shape.  a_0 = 1, b_0 = mc, c_0 = m; returns
    K(m) = pi / (2 a_inf) and the c-sum sum_i 2^{i-1} c_i^2, so
    E = K * (1 - that sum).  Each element stops at its own iteration, so it
    gets the bits it would get alone.
    """
    shape = np.shape(mc)
    c = np.ravel(m)
    b = np.ravel(mc)
    a = np.ones(b.size)
    csum = 0.5 * c * c
    weight = 0.5
    k = np.empty(b.size)
    sums = np.empty(b.size)
    live = np.arange(b.size)
    for _ in range(_AGM_MAX_ITER):
        # Quadratic convergence stalls at the rounding floor of a - b
        # (about half an ulp of a), so the cut sits just above one ulp.
        done = abs(c) <= 4e-16 * a
        finished = np.count_nonzero(done)
        if finished == live.size:  # also where no element was given
            k[live] = math.pi / (2.0 * a)
            sums[live] = csum
            return k.reshape(shape), sums.reshape(shape)
        if finished:
            k[live[done]] = math.pi / (2.0 * a[done])
            sums[live[done]] = csum[done]
            live, a, b, csum = live[~done], a[~done], b[~done], csum[~done]
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        csum += weight * c * c
    raise RuntimeError(f"AGM did not converge for modulus {np.ravel(m)[0]}")  # pragma: no cover


def _complement(m: np.ndarray) -> np.ndarray:
    """sqrt(1 - m^2), factored so that it keeps its precision near m = 1."""
    return np.sqrt((1.0 - m) * (1.0 + m))


def ellipK(m):
    """Complete elliptic integral of the first kind, modulus convention.

    Like every elliptic kernel here it takes a float and returns a float,
    or takes an array and returns an array of the same shape.
    """
    m = _finite_array("m", m)
    _require_in(m, (0.0 <= m) & (m < 1.0), "ellipK requires modulus in [0, 1), got {} (K diverges at 1)")
    return _plain(_agm(m, _complement(m))[0])


def ellipK_from_complement(mc):
    """K(m) evaluated from the complementary modulus mc = sqrt(1 - m^2).

    Near m = 1 the modulus itself rounds to 1 and K appears to diverge,
    but mc is often computable without cancellation; K = pi / (2 AGM(1, mc))
    stays accurate there (K grows only like log(4/mc)).
    """
    mc = _finite_array("mc", mc)
    _require_in(mc, (0.0 < mc) & (mc <= 1.0), "complementary modulus must lie in (0, 1], got {}")
    return _plain(_agm(_complement(mc), mc)[0])


def ellipE(m):
    """Complete elliptic integral of the second kind, modulus convention."""
    m = _finite_array("m", m)
    _require_in(m, (0.0 <= m) & (m <= 1.0), "ellipE requires modulus in [0, 1], got {}")
    # E(1) = 1 exactly; the AGM from mc = 0 would never converge there.
    edge = m == 1.0
    inner = np.where(edge, 0.0, m)
    k, csum = _agm(inner, _complement(inner))
    return _plain(np.where(edge, 1.0, k * (1.0 - csum)))


def _script_pieces(x, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner modulus, its complement and sqrt-denominator shared by script K and script E.

    D = (1 - z)^2 + 4z(1 - x)(1 + x) and m^2 = 4z(1 - x)(1 + x) / D are
    formed from non-negative terms, so nothing cancels as x -> +-1 or
    z -> 1: D >= (1 - z)^2 > 0, and m^2 <= 1 since rounding is monotone.
    1 - m^2 = (1 - z)^2 / D exactly, so the complement is taken as
    (1 - z)/sqrt(D), which stays positive where m rounds to 1.
    """
    x = _finite_array("x", x)
    z = _finite_array("z", z)
    _require_in(x, (-1.0 < x) & (x < 1.0), "first argument must lie in (-1, 1), got {}")
    _require_in(z, (0.0 <= z) & (z < 1.0), "second argument must lie in [0, 1), got {}")
    spread = 4.0 * z * (1.0 - x) * (1.0 + x)
    denom = (1.0 - z) ** 2 + spread
    root = np.sqrt(denom)
    return np.sqrt(spread / denom), (1.0 - z) / root, root


def script_K(x, z):
    """Kernel K(sqrt(4z(1-x^2)/D)) / sqrt(D) with D = (1-z)^2 + 4z(1-x^2)."""
    modulus, complement, root = _script_pieces(x, z)
    return _plain(_agm(modulus, complement)[0] / root)


def script_E(x, z):
    """Kernel E(sqrt(4z(1-x^2)/D)) / sqrt(D) with D = (1-z)^2 + 4z(1-x^2)."""
    modulus, complement, root = _script_pieces(x, z)
    k, csum = _agm(modulus, complement)
    return _plain(k * (1.0 - csum) / root)


def scaled_legendre_pair(n: int, numer: float, denom: float) -> tuple[float, float]:
    """Jointly evaluate (denom^(n-1) P_{n-1}(numer/denom), denom^n P_n(numer/denom)).

    The last two values of the scaled sweep T_j = denom^j P_j(numer/denom),
    which never overflows where the pair itself is finite; OverflowError
    where it is not.  No route calls it; ``bench/tracing.py`` wraps it by
    name, and its ``Tracer.install`` raises on a missing name.
    """
    n = _require_count(n, "n")
    if n == 0:
        raise ValueError("scaled_legendre_pair needs n >= 1 (the pair ends at degree n)")
    numer = float(_finite_array("numer", numer))
    denom = float(_finite_array("denom", denom))
    t_prev, t = _scaled_legendre(n, numer, denom)[-2:]
    if not math.isfinite(t):
        raise _not_finite(n, f"{numer!r}/{denom!r}")
    return t_prev, t
