"""Special-function kernels against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkers_return import genfunc, specfun
from walkers_return.specfun import (
    binom,
    central_binomial_ratios,
    ellipE,
    ellipK,
    ellipK_from_complement,
    jacobi10_range,
    legendre_eval,
    legendre_range,
    scaled_legendre_pair,
    script_E,
    script_K,
)


def simpson_oracle(f, a, b, panels=4000):
    """Fixed composite Simpson rule, independent of the package quadrature."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.array([f(v) for v in x])
    h = (b - a) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


# ---------------------------------------------------------------------------
# Legendre


def test_legendre_degree_zero_is_one():
    assert legendre_eval(0, 0.7) == 1.0


def test_legendre_quadratic_by_hand():
    # P_2(x) = (3x^2 - 1)/2
    assert legendre_eval(2, 0.6) == pytest.approx(0.04, abs=1e-15)
    assert legendre_eval(2, 0.0) == -0.5


def test_legendre_at_zero_squares_to_central_binomial_ratio():
    # {P_2(0)}^2 must reproduce (C(2,1)/2^2)^2; the standard sign makes
    # P_2(0) itself negative, which every downstream use squares away.
    assert legendre_eval(2, 0.0) ** 2 == (binom(2, 1) / 2**2) ** 2


def test_legendre_recurrence_residual_on_grid():
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 101):
        p = legendre_range(201, float(x))
        for n in range(1, 200):
            resid = abs((n + 1) * p[n + 1] - (2 * n + 1) * x * p[n] + n * p[n - 1])
            worst = max(worst, resid / max(1.0, abs(p[n])))
    assert worst < 1e-12


@given(st.integers(1, 199), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_legendre_recurrence_property(n, x):
    p = legendre_range(n + 1, x)
    resid = abs((n + 1) * p[n + 1] - (2 * n + 1) * x * p[n] + n * p[n - 1])
    assert resid < 1e-12 * max(1.0, abs(p[n]))


def test_legendre_range_matches_scalar():
    values = legendre_range(30, 0.37)
    for n in (0, 1, 7, 30):
        assert values[n] == legendre_eval(n, 0.37)
    for n in (1, 2, 7, 30):
        assert scaled_legendre_pair(n, 0.37, 1.0) == (legendre_eval(n - 1, 0.37), legendre_eval(n, 0.37))


def test_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        legendre_eval(2, math.inf)
    with pytest.raises(ValueError):
        legendre_eval(2, math.nan)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.5)


# ---------------------------------------------------------------------------
# Jacobi (1,0)


def test_jacobi10_degree_zero_and_one():
    assert jacobi10_range(0, 0.3)[-1] == 1.0
    # P_1^(1,0)(x) = (1 + 3x)/2
    assert jacobi10_range(1, 0.0)[-1] == 0.5


def test_jacobi10_difference_identity_grid():
    # P_n^(1,0)(k) (1 - k) = P_n(k) - P_{n+1}(k)
    worst = 0.0
    for k in np.linspace(-0.95, 0.95, 39):
        k = float(k)
        for n in range(51):
            lhs = jacobi10_range(n, k)[-1] * (1.0 - k)
            rhs = legendre_eval(n, k) - legendre_eval(n + 1, k)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-11


@given(st.integers(0, 30), st.floats(-0.99, 0.99))
@settings(max_examples=60, deadline=None)
def test_jacobi10_difference_identity_property(n, k):
    lhs = jacobi10_range(n, k)[-1] * (1.0 - k)
    rhs = legendre_eval(n, k) - legendre_eval(n + 1, k)
    assert abs(lhs - rhs) < 1e-11


def test_jacobi10_rejects_bad_arguments():
    with pytest.raises(ValueError):
        jacobi10_range(3, math.nan)
    with pytest.raises(ValueError):
        jacobi10_range(-2, 0.1)


@pytest.mark.parametrize(
    "sweep, args, message",
    [
        (legendre_range, (3, math.nan), r"^x must be finite, got nan$"),
        (jacobi10_range, (3, math.inf), r"^x must be finite, got inf$"),
        (scaled_legendre_pair, (2, math.nan, 1.0), r"^numer must be finite, got nan$"),
        (scaled_legendre_pair, (2, 0.3, -math.inf), r"^denom must be finite, got -inf$"),
        # None casts to NaN, so it is refused by name too, not by float(None).
        (legendre_range, (3, None), r"^x must be finite, got nan$"),
    ],
)
def test_a_sweep_refuses_a_non_finite_argument_by_name(sweep, args, message):
    with pytest.raises(ValueError, match=message):
        sweep(*args)


@pytest.mark.parametrize(
    "function, args, name",
    [
        (ellipK, (np.array([0.5 + 0.5j]),), "m"),
        (legendre_range, (3, np.complex128(0.5 + 0.5j)), "x"),
        (scaled_legendre_pair, (2, 0.5, 1.0 + 1e-3j), "denom"),
    ],
)
def test_complex_input_is_refused_not_cut_to_its_real_part(function, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be real, got "):
        function(*args)


# P_n(1.5) grows like 2.618^n and leaves the float range near n = 737, where
# the sweep reaches inf and then inf - inf = NaN.
_OVERFLOWING = {
    "legendre_eval": lambda: legendre_eval(740, 1.5),
    "legendre_range": lambda: legendre_range(800, 1.5),
    "jacobi10_range": lambda: jacobi10_range(740, 1.5),
    "scaled_legendre_pair": lambda: scaled_legendre_pair(740, 1.5, 1.0),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING))
def test_evaluator_raises_where_its_value_is_not_finite(name):
    with pytest.raises(OverflowError, match=r"degree (740|800) at x = 1\.5"):
        _OVERFLOWING[name]()


def test_evaluators_stay_finite_below_the_overflow():
    values = legendre_range(700, 1.5)
    assert np.isfinite(values).all()
    assert legendre_eval(700, 1.5) == values[-1]
    assert scaled_legendre_pair(700, 1.5, 1.0) == (values[-2], values[-1])
    assert math.isfinite(jacobi10_range(700, 1.5)[-1])


# ---------------------------------------------------------------------------
# the sweeps against the scalar loops they replaced, bit for bit


def _scaled_legendre_scalar(n, numer, denom):
    """The Legendre sweep with every coefficient formed from the integer j in the loop."""
    t_prev, t = 1.0, numer
    values = [t_prev, t]
    d2 = denom * denom
    for j in range(1, n):
        t_prev, t = t, ((2 * j + 1) * numer * t - j * d2 * t_prev) / (j + 1)
        values.append(t)
    return values if n else values[:1]


def _jacobi10_scalar(n, x):
    """The Jacobi(1,0) sweep P_0..P_n, each coefficient formed from the integer j in the loop."""
    p_prev, p = 1.0, (3.0 * x + 1.0) / 2.0
    values = [p_prev, p]
    for j in range(2, n + 1):
        p_prev, p = p, (
            ((2 * j + 1) * (2 * j - 1) * x + 1.0) * p - (j - 1) * (2 * j + 1) * p_prev
        ) / ((j + 1) * (2 * j - 1))
        values.append(p)
    return values[: n + 1]


def _bits(values):
    return [float(v).hex() for v in values]


_BLOCK_EDGES = [0, 1, 2, 3, 511, 512, 513, 514, 1024, 1025, 2000]
_SWEEP_ARGUMENTS = st.floats(-3.0, 3.0, allow_nan=False)


@given(st.integers(0, 2000), _SWEEP_ARGUMENTS, st.one_of(st.just(0.0), _SWEEP_ARGUMENTS))
@example(513, 0.7, 0.0)  # denom = 0: T_j = numer^j C(2j, j) / 2^j
@example(1025, -1.7, 0.4)  # |numer/denom| > 1
@example(2000, -0.3, -1.0)
@settings(max_examples=80, deadline=None)
def test_scaled_legendre_keeps_the_bits_of_the_scalar_loop(n, numer, denom):
    # Past the float range both sweeps reach the same inf or NaN.
    assert _bits(specfun._scaled_legendre(n, numer, denom)) == _bits(_scaled_legendre_scalar(n, numer, denom))


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_legendre_sweep_keeps_its_bits_across_coefficient_blocks(n):
    assert _bits(legendre_range(n, -0.61)) == _bits(_scaled_legendre_scalar(n, -0.61, 1.0))
    assert _bits(specfun._scaled_legendre(n, 0.9, 0.35)) == _bits(_scaled_legendre_scalar(n, 0.9, 0.35))


@pytest.mark.parametrize("numer, denom", [(-0.61, 1.0), (1.0, 1.0), (-1.0, 1.0), (0.3, 0.8), (0.9, 0.35)])
def test_legendre_sweep_keeps_its_bits_at_the_largest_cli_degree(numer, denom):
    # Degree 50000 is the sweep of `return --nmax 100000`; the sweep carries
    # j as a float.  At 0.9/0.35 both loops reach the same inf or NaN.
    assert _bits(specfun._scaled_legendre(50_000, numer, denom)) == _bits(_scaled_legendre_scalar(50_000, numer, denom))


@given(st.integers(0, 2000), _SWEEP_ARGUMENTS)
@example(513, -0.999)
@example(740, 1.5)
@example(2000, -1.0)
@settings(max_examples=80, deadline=None)
def test_jacobi10_keeps_the_bits_of_the_scalar_loop(n, x):
    expected = _jacobi10_scalar(n, x)[-1]
    if math.isfinite(expected):
        assert jacobi10_range(n, x)[-1].hex() == expected.hex()
    else:
        with pytest.raises(OverflowError):
            jacobi10_range(n, x)


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_jacobi10_keeps_its_bits_across_coefficient_blocks(n):
    # The Legendre table's block edges; the whole sweep, |x| > 1 included.
    for x in (-0.83, 0.29, 1.0, -1.02, 1.001):
        expected = _jacobi10_scalar(n, x)
        assert _bits(jacobi10_range(n, x)) == _bits(expected)
        assert jacobi10_range(n, x)[-1].hex() == expected[-1].hex()


# Up to degree 1000 at |x| <= 1.2, where no value leaves the float range.
@given(st.integers(0, 500), st.integers(0, 500), st.floats(-1.2, 1.2))
@example(0, 0, 0.3)
@example(511, 2, -1.0)
@settings(max_examples=60, deadline=None)
def test_sweeps_are_prefix_stable(n, extra, x):
    for sweep, last in ((legendre_range, legendre_eval), (jacobi10_range, lambda n, x: jacobi10_range(n, x)[-1])):
        longer = sweep(n + extra, x)
        assert _bits(sweep(n, x)) == _bits(longer[: n + 1])
        assert last(n, x).hex() == longer[n].hex()


# ---------------------------------------------------------------------------
# alternating binomial sums


def _alternating_sum_oracle(n, w):
    """sum_g (1/g or 1) (-w)^g C(n-1, g-1)^2 in exact rational arithmetic."""
    weighted = Fraction(0)
    plain = Fraction(0)
    power = Fraction(1)
    wf = Fraction(w)
    for g in range(1, n + 1):
        power *= -wf
        csq = math.comb(n - 1, g - 1) ** 2
        plain += power * csq
        weighted += power * csq / g
    return float(weighted), float(plain)


@pytest.mark.parametrize("alpha_sq", [0.3, 0.5, 0.8])
def test_alternating_binomial_sum_equals_jacobi_form(alpha_sq):
    # The weighted alternating binomial sum equals the Jacobi form, for n <= 12.
    beta_sq = 1.0 - alpha_sq
    w = beta_sq / alpha_sq
    k = 2.0 * alpha_sq - 1.0
    for n in range(1, 13):
        oracle, _ = _alternating_sum_oracle(n, w)
        via_jacobi = -(beta_sq / n) * alpha_sq**-n * jacobi10_range(n - 1, k)[-1]
        scale = max(abs(oracle), 1e-300)
        assert abs(via_jacobi - oracle) / scale < 1e-9


# ---------------------------------------------------------------------------
# binomials


def test_binom_small_values():
    assert binom(2, 1) == 2
    assert binom(4, 2) == 6


def test_binom_against_pascal_triangle():
    row = [1]
    for n in range(26):
        for k in range(n + 1):
            assert binom(n, k) == row[k]
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]
    assert binom(12, 6) == 924


def test_binom_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binom(3, 4)
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -1)


def test_central_binomial_ratios_equal_per_term_division():
    # float(C(2j, j)) overflows from j = 515 on; the ratios may not notice.
    ratios = central_binomial_ratios(3000)
    assert ratios.tolist() == [binom(2 * j, j) / 4**j for j in range(3001)]
    for jmax in (0, 1, 511, 512, 513):
        assert central_binomial_ratios(jmax).tolist() == ratios[: jmax + 1].tolist()
    with pytest.raises(ValueError):
        central_binomial_ratios(-1)


@pytest.mark.parametrize("n", [63, 80, 120, 200])
def test_binom_large_values_continuous_with_loggamma(n):
    for k in (n // 3, n // 2):
        log_est = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        assert float(binom(n, k)) == pytest.approx(math.exp(log_est), rel=1e-12)


# ---------------------------------------------------------------------------
# elliptic integrals


def test_elliptic_trivial_values():
    assert ellipK(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert ellipE(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert ellipE(1.0) == 1.0


def test_elliptic_against_quadrature_oracle():
    for m in np.linspace(0.1, 0.9, 9):
        m = float(m)
        k_ref = simpson_oracle(lambda t: 1.0 / math.sqrt(1.0 - (m * math.sin(t)) ** 2), 0.0, math.pi / 2.0)
        e_ref = simpson_oracle(lambda t: math.sqrt(1.0 - (m * math.sin(t)) ** 2), 0.0, math.pi / 2.0)
        assert ellipK(m) == pytest.approx(k_ref, abs=1e-10)
        assert ellipE(m) == pytest.approx(e_ref, abs=1e-10)


def test_elliptic_within_1e14_relative_of_mpmath():
    # Moduli spread over [0, 1) and crowded towards 1 - 1e-12, where K grows
    # like log(4/mc) and E's c-sum nears 1: a c-sum off by 1e-11 relative
    # once moved only a pinned residual.
    mpmath = pytest.importorskip("mpmath")
    moduli = np.concatenate([np.linspace(0.0, 0.999, 360), 1.0 - np.logspace(-3, -12, 100)])
    k_values, e_values = ellipK(moduli), ellipE(moduli)
    with mpmath.workdps(30):
        for m, k, e in zip(moduli.tolist(), k_values.tolist(), e_values.tolist()):
            parameter = mpmath.mpf(m) ** 2
            assert abs(k / mpmath.ellipk(parameter) - 1) <= 1e-14, m
            assert abs(e / mpmath.ellipe(parameter) - 1) <= 1e-14, m


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_landen_relation(t):
    assert (1.0 + t) * ellipK(t) == pytest.approx(ellipK(2.0 * math.sqrt(t) / (1.0 + t)), abs=1e-12)


@given(st.floats(0.01, 0.95))
@settings(max_examples=80, deadline=None)
def test_landen_relation_property(t):
    assert abs((1.0 + t) * ellipK(t) - ellipK(2.0 * math.sqrt(t) / (1.0 + t))) < 1e-12


def test_polya_gf_normalization_at_zero():
    # (2/pi) K(0) must equal r_0 = 1 of the 2-D return series.
    assert 2.0 / math.pi * ellipK(0.0) == pytest.approx(1.0, abs=1e-15)


def test_elliptic_domain_errors():
    for bad in (1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            ellipK(bad)
    for bad in (-0.1, 1.0001):
        with pytest.raises(ValueError):
            ellipE(bad)


def test_elliptic_from_complement_matches_direct():
    for m in np.linspace(0.0, 0.95, 20):
        m = float(m)
        mc = math.sqrt((1.0 - m) * (1.0 + m))
        assert ellipK_from_complement(mc) == pytest.approx(ellipK(m), abs=1e-14)
    with pytest.raises(ValueError):
        ellipK_from_complement(0.0)
    with pytest.raises(ValueError):
        ellipK_from_complement(1.5)


# ---------------------------------------------------------------------------
# script kernels


@pytest.mark.parametrize("x", [-0.9, 0.0, 0.5])
def test_script_kernels_at_z_zero(x):
    assert script_K(x, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert script_E(x, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)


@pytest.mark.parametrize("w", [0.1, 0.25])
def test_script_K_hadamard_reduction(w):
    # scriptK(0, w) = K(2 sqrt(w)/(1+w)) / (1+w) = K(w) by the Landen step.
    landen = ellipK(2.0 * math.sqrt(w) / (1.0 + w)) / (1.0 + w)
    assert script_K(0.0, w) == pytest.approx(landen, abs=1e-13)
    assert script_K(0.0, w) == pytest.approx(ellipK(w), abs=1e-12)


def test_script_kernel_domain_errors():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        script_K(0.3, 1.0)
    with pytest.raises(ValueError):
        script_K(1.5, 0.3)
    with pytest.raises(ValueError):
        script_E(0.3, -0.2)


# ---------------------------------------------------------------------------
# elementwise elliptic kernels

_KERNELS = {
    "ellipK": (ellipK, (np.linspace(0.0, 0.999, 7),)),
    "ellipE": (ellipE, (np.linspace(0.0, 1.0, 7),)),
    "ellipK_from_complement": (ellipK_from_complement, (np.linspace(1e-9, 1.0, 7),)),
    "script_K": (script_K, (np.array([-0.9, -0.3, 0.0, 0.4, 0.95]), np.array([0.0, 0.2, 0.5, 0.9, 0.999999]))),
    "script_E": (script_E, (np.array([-0.9, -0.3, 0.0, 0.4, 0.95]), np.array([0.0, 0.2, 0.5, 0.9, 0.999999]))),
}


@pytest.mark.parametrize("name", list(_KERNELS))
def test_kernel_on_an_array_equals_its_scalar_calls(name):
    kernel, args = _KERNELS[name]
    values = kernel(*args)
    assert isinstance(values, np.ndarray) and values.shape == args[0].shape
    scalar = [kernel(*(float(a[i]) for a in args)) for i in range(len(args[0]))]
    assert all(type(v) is float for v in scalar)
    assert values.tolist() == scalar


def test_kernels_broadcast_a_scalar_against_an_array():
    z = np.array([0.1, 0.6, 0.95])
    assert script_K(0.3, z).tolist() == [script_K(0.3, float(v)) for v in z]
    assert script_E(0.3, z[:, None]).shape == (3, 1)


def test_ellipE_is_one_at_modulus_one_in_an_array():
    values = ellipE(np.array([0.5, 1.0, 0.0, 1.0]))
    assert values[1] == 1.0 and values[3] == 1.0
    assert values[0] == ellipE(0.5) and values[2] == ellipE(0.0)


# Every kernel that runs the AGM, as a function of one array argument.
_AGM_KERNELS = {
    "ellipK": ellipK,
    "ellipE": ellipE,
    "ellipK_from_complement": ellipK_from_complement,
    "script_K": lambda z: script_K(0.3, z),
    "script_E": lambda z: script_E(0.3, z),
    "gf_qw": lambda z: genfunc.gf_qw(0.3, z),
    "gf_hadamard": genfunc.gf_hadamard,
    "polya2d_gf": genfunc.polya2d_gf,
}


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
@pytest.mark.parametrize("kernel", list(_AGM_KERNELS))
def test_an_empty_array_gives_an_empty_array(kernel, shape):
    # With no element the AGM has none to finish: it returns at once,
    # rather than run out of iterations.
    values = _AGM_KERNELS[kernel](np.zeros(shape))
    assert isinstance(values, np.ndarray)
    assert values.shape == shape and values.dtype == np.float64


def test_kernel_domain_errors_name_an_offending_element():
    with pytest.raises(ValueError, match=r"got 1\.0"):
        ellipK(np.array([0.2, 1.0, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        ellipE(np.array([0.2, math.nan]))
    with pytest.raises(ValueError, match=r"got 0\.0"):
        ellipK_from_complement(np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        script_E(0.3, np.array([0.5, 1.0]))


@pytest.mark.parametrize("z", [0.999, 0.9999, 0.999998])
def test_script_K_keeps_full_precision_as_z_tends_to_one(z):
    # The complement (1 - w)/sqrt(D) replaces sqrt(1 - m^2), which lost
    # 9e-12 of relative accuracy at z = 0.999 and 4e-7 at z = 0.999998.
    # script_E shares the complement; its E c-sum costs a few ulps.
    mpmath = pytest.importorskip("mpmath")
    k, w = 2.0 * 0.3 - 1.0, z * z
    with mpmath.workdps(30):
        assert abs(script_K(k, w) / _script_exact(mpmath, mpmath.ellipk, k, w) - 1) <= 1e-15
        assert abs(script_E(k, w) / _script_exact(mpmath, mpmath.ellipe, k, w) - 1) <= 1e-14


def _script_exact(mpmath, elliptic, x: float, z: float) -> float:
    """scriptK or scriptE at (x, z) in mpmath's working precision; `elliptic`
    takes the parameter m^2."""
    x, z = mpmath.mpf(x), mpmath.mpf(z)
    denom = (1 - z) ** 2 + 4 * z * (1 - x * x)
    return float(elliptic(4 * z * (1 - x * x) / denom) / mpmath.sqrt(denom))


# (x, z) where D = 1 - 2z(2x^2-1) + z^2, formed by subtraction, cancelled:
# 5.5e-8 to 5.5e-6 off near x = +-1 and z = 1, and a ValueError at (0.3, 1 - 1e-12).
_SCRIPT_EDGE_POINTS = [
    (1.0 - 1e-12, 1.0 - 1e-9),
    (-(1.0 - 1e-15), 1.0 - 1e-6),
    (0.999998, 0.999),
    (1.0 - 1e-9, 1.0 - 1e-12),
    (0.3, 1.0 - 1e-12),
]


@pytest.mark.parametrize("kernel", ["script_K", "script_E"])
@pytest.mark.parametrize(("x", "z"), _SCRIPT_EDGE_POINTS)
def test_script_kernels_keep_full_precision_at_the_edges(kernel, x, z):
    mpmath = pytest.importorskip("mpmath")
    kernel, elliptic = {"script_K": (script_K, mpmath.ellipk), "script_E": (script_E, mpmath.ellipe)}[kernel]
    with mpmath.workdps(60):
        exact = _script_exact(mpmath, elliptic, x, z)
    assert abs(kernel(x, z) / exact - 1) <= 1e-14


def test_script_kernels_answer_everywhere_near_the_edges():
    # 400 seeded points x = +-(1 - 10^u), z = 1 - 10^v with u, v in [-15, -1].
    # The subtracted D refused 42 of them; E is at most 9.7e-15 off here,
    # the noise of the E c-sum near modulus 1.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-15.0, -1.0, (2, 400))
    x = rng.choice([-1.0, 1.0], 400) * (1.0 - 10.0**u)
    z = 1.0 - 10.0**v
    values = {"K": script_K(x, z), "E": script_E(x, z)}
    with mpmath.workdps(40):
        for name, elliptic in (("K", mpmath.ellipk), ("E", mpmath.ellipe)):
            exact = np.array([_script_exact(mpmath, elliptic, a, b) for a, b in zip(x.tolist(), z.tolist())])
            assert np.all(np.abs(values[name] / exact - 1.0) <= 1e-13), name


# ---------------------------------------------------------------------------
# scaled Legendre pair


def test_scaled_pair_reduces_to_plain_legendre():
    for n in (1, 2, 9, 40):
        lo, hi = scaled_legendre_pair(n, 0.43, 1.0)
        assert lo == pytest.approx(legendre_eval(n - 1, 0.43), abs=1e-14)
        assert hi == pytest.approx(legendre_eval(n, 0.43), abs=1e-14)


def _scaled_pair_oracle(n, numer, denom):
    """denom^j P_j(numer/denom) via exact rational Legendre recurrence."""
    y_num, y_den = Fraction(numer), Fraction(denom)
    t_prev, t = Fraction(1), y_num
    for j in range(1, n):
        t_prev, t = t, ((2 * j + 1) * y_num * t - j * y_den * y_den * t_prev) / (j + 1)
    return float(t_prev), float(t)


@pytest.mark.parametrize("numer,denom", [(0.7, 0.1), (0.52, -0.48), (0.9, 1e-6)])
def test_scaled_pair_against_exact_oracle(numer, denom):
    for n in (1, 3, 10, 25):
        lo, hi = scaled_legendre_pair(n, numer, denom)
        lo_ref, hi_ref = _scaled_pair_oracle(n, numer, denom)
        assert lo == pytest.approx(lo_ref, rel=1e-12, abs=1e-300)
        assert hi == pytest.approx(hi_ref, rel=1e-12, abs=1e-300)


def test_scaled_pair_stays_bounded_far_outside_unit_interval():
    # Transition-matrix scalars a=0.6, b=0.6-1e-6: the Legendre argument is
    # ~4.8e5 and P_600 alone overflows, but the joint value stays tame.
    numer, denom = 0.48, 1e-6
    with pytest.raises(OverflowError, match="degree 600"):
        legendre_eval(600, numer / denom)
    lo, hi = scaled_legendre_pair(600, numer, denom)
    assert abs(lo) <= 1.0
    assert abs(hi) <= 1.0


def test_scaled_pair_rejects_degree_zero():
    with pytest.raises(ValueError):
        scaled_legendre_pair(0, 0.5, 0.5)

