"""Generating functions vs truncated-series oracles, plus the identity suite."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkers_return import cli, genfunc
from walkers_return.crw import CRWInitialState, TransitionMatrix, return_series_crw
from walkers_return.genfunc import (
    ConvergenceError,
    against_series,
    gf_crw,
    gf_hadamard,
    gf_qw,
    gf_rw,
    integral_E_term,
    integrate,
    polya2d_gf,
    polya2d_series,
    polya3d_constants,
    series_sum,
    truncation_for,
)
from walkers_return.qw import return_hadamard, return_series_qw
from walkers_return.specfun import (
    binom,
    ellipK,
    ellipK_from_complement,
    legendre_range,
    script_E,
    script_K,
)


# ---------------------------------------------------------------------------
# quadrature engine


def test_integrate_polynomial_exactly():
    assert integrate(lambda x: x * x, 0.0, 1.0, tol=1e-12) == pytest.approx(1 / 3, abs=1e-12)
    assert integrate(lambda x: np.sin(x), 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)


def test_integrate_empty_interval_is_zero():
    assert integrate(lambda x: 1.0, 2.0, 2.0) == 0.0


def test_integrate_rejects_inverted_interval():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 1.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_integrate_rejects_non_finite_interval_before_evaluating(a, b):
    # [0, nan] once ran out the subdivision budget and raised ConvergenceError.
    def integrand(x):
        pytest.fail(f"integrand evaluated at {x}")

    with pytest.raises(ValueError, match="finite"):
        integrate(integrand, a, b)


def test_integrate_raises_on_exhausted_budget():
    # sin(1/x) oscillates ever faster towards x = 1e-6: no budget resolves it.
    with pytest.raises(ConvergenceError) as err:
        integrate(lambda x: np.sin(1.0 / x), 1e-6, 1.0, tol=1e-14)
    assert err.value.estimate > 0.0


def test_integrate_accepts_rounding_level_agreement_near_a_singularity():
    # Halving the tolerance per level asks for 1e-26 on the intervals at the
    # x^-1/2 singularity, below the rounding of their own values.
    value = integrate(lambda x: x**-0.5, 1e-12, 1.0, tol=1e-14)
    assert value == pytest.approx(2.0 - 2e-6, abs=1e-14)


def test_integrate_over_intervals_equals_single_calls_bit_for_bit():
    # The intervals refine to different depths, and one is empty.
    def f(x):
        return np.exp(-x) * np.cos(3.0 * x) + 1.0 / (1.0 + 100.0 * x * x)

    lo = np.array([0.0, -2.0, 0.5, 1.0, 0.0])
    hi = np.array([1.0, 3.0, 0.5, 7.0, 1e-3])
    batched = integrate(f, lo, hi, tol=1e-12)
    assert isinstance(batched, np.ndarray) and batched.shape == lo.shape
    single = [integrate(f, a, b, tol=1e-12) for a, b in zip(lo.tolist(), hi.tolist())]
    assert all(type(v) is float for v in single)
    assert batched.tolist() == single
    assert single[2] == 0.0


def test_integrate_calls_the_integrand_once_per_level_for_all_intervals():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sqrt(x)

    levels = []
    for b in (0.5, 1.0, 2.0):
        calls.clear()
        integrate(f, 0.0, b, tol=1e-10)
        levels.append(len(calls))
    calls.clear()
    integrate(f, 0.0, np.array([0.5, 1.0, 2.0]), tol=1e-10)
    assert len(calls) == max(levels) > 2


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([0.0, 0.0]), np.array([1.0, math.nan])),
        (np.array([0.0, -math.inf]), 1.0),
        (0.0, np.array([1.0, -1.0])),
        (np.array([0.0, 2.0]), np.array([1.0, 1.0])),
    ],
)
def test_integrate_rejects_bad_array_bounds_before_evaluating(a, b):
    def integrand(x):
        pytest.fail(f"integrand evaluated at {x}")

    with pytest.raises(ValueError, match="finite|inverted"):
        integrate(integrand, a, b)


# Every public function that takes a quadrature tolerance, called where it
# returns early without integrating as well as where it integrates, with the
# smallest tolerance it can meet.
_TOL_TAKERS = {
    "integrate": (lambda tol: integrate(lambda x: x, 0.0, 1.0, tol), 0.0),
    "integrate empty interval": (lambda tol: integrate(lambda x: x, 2.0, 2.0, tol), 0.0),
    "polya3d_constants": (lambda tol: polya3d_constants(tol), 1e-15),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_quadrature_tolerance_rejects_non_finite_or_non_positive(tol):
    # tol = nan once passed and ran out the subdivision budget instead.
    for name, (call, _) in _TOL_TAKERS.items():
        with pytest.raises(ValueError, match="tolerance"):
            call(tol)
            pytest.fail(f"{name} accepted tol={tol}")


def test_quadrature_tolerance_rejects_values_below_the_floor():
    # polya3d_constants once returned at 1e-13 as if it met it, and raised
    # "dyadic refinement stalled" at 1e-57 and below.
    for name, (call, floor) in _TOL_TAKERS.items():
        for tol in (0.9 * floor, 1e-13, 1e-57, 5e-324):
            if tol >= floor:
                continue
            with pytest.raises(ValueError, match=f"tolerance of at least {floor}"):
                call(tol)
                pytest.fail(f"{name} accepted tol={tol}")


def test_polya3d_constants_meets_its_floor():
    g, _ = polya3d_constants(1e-15)
    assert abs(g - polya3d_constants()[0]) < 1e-10


# ---------------------------------------------------------------------------
# the E-kernel integral term


def test_integral_E_term_empty_range():
    assert integral_E_term(0.3, 0.0) == 0.0


def test_integral_E_term_vanishing_weight_at_k_zero():
    # At k = 0 the product series sum z^n P_n(0) P_{n-1}(0) vanishes term by
    # term (Legendre parity), so the weighted identity value (2k/pi) * I = 0.
    values = legendre_range(200, 0.0)
    series_side = math.fsum(
        0.25**n * values[n] * values[n - 1] for n in range(1, 201)
    )
    assert series_side == 0.0
    identity_value = 2.0 * 0.0 / math.pi * integral_E_term(0.0, 0.25)
    assert identity_value == 0.0


def test_integral_E_term_against_product_series():
    # I(k, z) = (pi / 2k) sum_{n>=1} z^n P_n(k) P_{n-1}(k), summed at N = 200.
    k, z = 0.6, 0.25
    values = legendre_range(200, k)
    series_side = math.fsum(z**n * values[n] * values[n - 1] for n in range(1, 201))
    assert integral_E_term(k, z) == pytest.approx(math.pi / (2.0 * k) * series_side, abs=1e-8)


def test_integral_E_term_domain_errors():
    with pytest.raises(ValueError):
        integral_E_term(0.3, 0.9999999)
    with pytest.raises(ValueError):
        integral_E_term(1.2, 0.5)


# ---------------------------------------------------------------------------
# quantum-walk generating function


def test_gf_qw_at_zero_is_one():
    for alpha_sq in (0.2, 0.5, 0.9):
        assert gf_qw(alpha_sq, 0.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("z", [0.3, 0.6])
def test_gf_qw_hadamard_corollary(z):
    expected = (1.0 + z * z) * ellipK(z * z) / math.pi + 0.5
    assert gf_qw(0.5, z) == pytest.approx(expected, abs=1e-10)


def test_gf_qw_against_series_oracle():
    closed = gf_qw(0.8, 0.5)
    series = return_series_qw(0.8, 400)
    value, tail = series_sum(series, 0.5)
    assert abs(closed - value) <= 1e-6 + tail


@pytest.mark.parametrize("alpha_sq", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
def test_gf_qw_series_grid(alpha_sq, z):
    closed = gf_qw(alpha_sq, z)
    value, tail = series_sum(return_series_qw(alpha_sq, truncation_for(z, 1e-6)), z)
    assert abs(closed - value) <= 1e-6 + tail


def test_integral_E_term_meets_its_tolerance_where_simpson_accepted_early():
    # The adaptive Simpson rule accepted this after 5 evaluations, 1.27e-9 off.
    mpmath = pytest.importorskip("mpmath")
    k, z2 = 2.0 * 0.2441 - 1.0, 0.3925**2
    with mpmath.workdps(30):
        x = mpmath.mpf(k)

        def script_e(w):
            denom = 1 - 2 * w * (2 * x * x - 1) + w * w
            return mpmath.ellipe(4 * w * (1 - x * x) / denom) / mpmath.sqrt(denom)

        exact = mpmath.quad(lambda w: script_e(w) / (1 - w), [0, mpmath.mpf(z2)])
        assert abs(integral_E_term(k, z2) - exact) <= 1e-10


@pytest.mark.parametrize("alpha_sq", [0.02, 0.3, 0.97])
@pytest.mark.parametrize("z", [0.999, 0.9999, 0.999998])
def test_gf_qw_near_the_unit_circle_against_mpmath(alpha_sq, z):
    # Formerly up to 1.8e-9 off, and a ConvergenceError at z = 0.999998.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        k, w = 2 * mpmath.mpf(alpha_sq) - 1, mpmath.mpf(z) ** 2

        def kernel(elliptic, t):
            denom = 1 - 2 * t * (2 * k * k - 1) + t * t
            return elliptic(4 * t * (1 - k * k) / denom) / mpmath.sqrt(denom)

        quad = mpmath.quad(lambda t: kernel(mpmath.ellipe, t) / (1 - t), [0, w])
        bracket = (1 + w) * kernel(mpmath.ellipk, w) - 2 * k * k * quad - mpmath.pi / 2
        exact = bracket / (mpmath.pi * (k + 1)) + 1
        assert abs(gf_qw(alpha_sq, z) - exact) <= 1e-10


def test_gf_qw_domain_errors():
    with pytest.raises(ValueError):
        gf_qw(0.5, 0.9999999)
    with pytest.raises(ValueError):
        gf_qw(0.0, 0.5)


# ---------------------------------------------------------------------------
# every generating function on an array of z

_TRANSITION = TransitionMatrix(a=0.7, b=0.4)
_GF_ON_GRID = {
    "gf_qw": lambda z: gf_qw(0.3, z),
    "gf_qw at k = 0": lambda z: gf_qw(0.5, z),
    "gf_hadamard": gf_hadamard,
    "gf_rw": lambda z: gf_rw(0.35, z),
    "gf_crw": lambda z: gf_crw(_TRANSITION, CRWInitialState.from_phi1(0.2), z),
    "polya2d_gf": polya2d_gf,
}


@pytest.mark.parametrize("name", list(_GF_ON_GRID))
def test_gf_on_an_array_equals_its_scalar_values(name):
    gf = _GF_ON_GRID[name]
    zgrid = np.linspace(-0.98, 0.98, 9)
    values = gf(zgrid)
    assert isinstance(values, np.ndarray) and values.shape == zgrid.shape
    scalar = [gf(z) for z in zgrid.tolist()]
    assert all(type(v) is float for v in scalar)
    assert values.tolist() == scalar


@pytest.mark.parametrize("name", list(_GF_ON_GRID))
def test_gf_rejects_an_array_with_one_z_outside(name):
    with pytest.raises(ValueError, match="must be below"):
        _GF_ON_GRID[name](np.array([0.2, math.nan, 0.5]))
    with pytest.raises(ValueError, match="must be below"):
        _GF_ON_GRID[name](np.array([0.2, -1.0]))


# Each cast of genfunc's inputs to float, where a complex value would keep
# only its real part.
_COMPLEX_INPUT = {
    "gf_hadamard": (lambda: gf_hadamard(np.array([0.3 + 0.2j])), "z"),
    "integrate": (lambda: integrate(np.cos, np.array([0.0 + 1j]), 1.0), "a"),
    "integral_E_term": (lambda: integral_E_term(0.2, np.array([0.3 + 0.1j])), "z2"),
    "series_sum": (lambda: series_sum(np.array([1.0, 0.5j]), 0.5), "series"),
    "against_series": (lambda: against_series(polya2d_gf, polya2d_series, [0.3 + 0.2j], 1e-9), "z"),
}


@pytest.mark.parametrize("name", list(_COMPLEX_INPUT))
def test_complex_input_is_refused_not_cut_to_its_real_part(name):
    call, argument = _COMPLEX_INPUT[name]
    with pytest.raises(ValueError, match=f"^{argument} must be real, got "):
        call()


_COMPLEX_Z = {"complex": 0.5 + 0.1j, "complex128": np.complex128(0.5 + 0.1j), "0-d array": np.array(0.5 + 0.1j)}
_TAKES_Z = {"series_sum": lambda z: series_sum([1.0, 0.5], z), "truncation_for": lambda z: truncation_for(z, 1e-10)}


@pytest.mark.parametrize("z", list(_COMPLEX_Z))
@pytest.mark.parametrize("name", list(_TAKES_Z))
def test_a_complex_z_is_refused_by_name(name, z):
    # series_sum once raised NotImplementedError from fsum, and
    # truncation_for returned the N for |z|.
    with pytest.raises(ValueError, match="^z must be real, got "):
        _TAKES_Z[name](_COMPLEX_Z[z])


@pytest.mark.parametrize("name", list(_TAKES_Z))
def test_a_real_z_of_any_type_gives_what_its_float_gives(name):
    call = _TAKES_Z[name]
    assert call(np.float32(0.5)) == call(np.array(0.5)) == call(0.5)
    assert call(0) == call(0.0)


def test_integral_E_term_on_an_array_equals_its_scalar_values():
    z2 = np.array([0.0, 0.04, 0.5, 0.9604, 0.999])
    assert integral_E_term(0.3, z2).tolist() == [integral_E_term(0.3, v) for v in z2.tolist()]


# ---------------------------------------------------------------------------
# Hadamard generating function


def test_gf_hadamard_at_zero():
    assert gf_hadamard(0.0) == pytest.approx(1.0, abs=1e-15)


def test_gf_hadamard_equals_general_form():
    assert gf_hadamard(0.5) == pytest.approx(gf_qw(0.5, 0.5), abs=1e-10)


def test_gf_hadamard_against_series_oracle():
    values = np.array([return_hadamard(n) for n in range(601)])
    value, tail = series_sum(values, 0.7)
    assert abs(gf_hadamard(0.7) - value) <= 1e-8 + tail


def test_gf_hadamard_is_even_in_z():
    assert gf_hadamard(-0.4) == gf_hadamard(0.4)


def test_gf_hadamard_domain_error():
    with pytest.raises(ValueError):
        gf_hadamard(1.0)


# ---------------------------------------------------------------------------
# correlated-walk generating function


def test_gf_crw_at_zero_is_one():
    rng = np.random.default_rng(71)
    for _ in range(5):
        t = TransitionMatrix.random(rng)
        assert gf_crw(t, CRWInitialState.random(rng), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_gf_symmetric_rw_value():
    t = TransitionMatrix(a=0.5, b=0.5)
    state = CRWInitialState.from_phi1(0.5)
    assert gf_crw(t, state, 0.6) == pytest.approx(1.25, abs=1e-14)
    assert gf_rw(0.5, 0.6) == pytest.approx(1.25, abs=1e-14)


def test_gf_crw_against_series_oracle():
    rng = np.random.default_rng(73)
    for _ in range(20):
        t = TransitionMatrix.random(rng)
        state = CRWInitialState.random(rng)
        z = float(rng.uniform(-0.9, 0.9))
        closed = gf_crw(t, state, z)
        value, tail = series_sum(return_series_crw(t, state, truncation_for(z, 1e-10)), z)
        assert abs(closed - value) <= 1e-10 + tail


def test_gf_rw_biased_matches_its_series():
    # The uncorrelated walk keeps the p-dependence: 1/sqrt(1 - 4 p q z^2).
    p, z = 0.3, 0.7
    values = np.zeros(401)
    for j in range(201):
        values[2 * j] = (p * (1.0 - p)) ** j * binom(2 * j, j)
    value, tail = series_sum(values, z)
    assert abs(gf_rw(p, z) - value) <= 1e-10 + tail
    # gf_crw reaches the same value through its general form, which has no
    # delta_minus = 0 branch: 1 ulp (1.7e-16) apart here, and at most 1.6e-14
    # apart over 99 p x 4 phi1 x 44 z up to |z| = 0.999.
    t = TransitionMatrix.uncorrelated(p)
    assert gf_crw(t, CRWInitialState.from_phi1(0.5), z) == pytest.approx(gf_rw(p, z), rel=1e-15, abs=0.0)


def test_gf_crw_domain_error():
    t = TransitionMatrix(a=0.5, b=0.5)
    with pytest.raises(ValueError):
        gf_crw(t, CRWInitialState.from_phi1(0.5), 1.0)


# ---------------------------------------------------------------------------
# 2-D baseline


def _polya2d_exact(n: int) -> float:
    """r_n = (C(2j, j) / 4^j)^2 at n = 2j, 0 at odd n.

    The int/int division rounds correctly; the square is a product, as in
    the series (a float ``** 2`` goes through pow and rounds differently in
    the last bit at n = 948 and 1448).
    """
    j, odd = divmod(n, 2)
    ratio = math.comb(2 * j, j) / 4**j
    return 0.0 if odd else ratio * ratio


def test_polya2d_values():
    values = polya2d_series(4)
    assert values[0] == 1.0
    assert values[2] == pytest.approx(0.25, abs=1e-15)
    assert values[3] == 0.0
    assert values[4] == pytest.approx((6 / 16) ** 2, abs=1e-15)


@pytest.mark.parametrize("n", [1024, 2048, 10_000])
def test_polya2d_return_matches_lgamma_form_at_long_horizons(n):
    # 4.0**j overflowed here once j reached 512 (n >= 1024).
    j = n // 2
    log_central = math.lgamma(2 * j + 1) - 2 * math.lgamma(j + 1) - 2 * j * math.log(2.0)
    assert polya2d_series(n)[n] == pytest.approx(math.exp(2.0 * log_central), rel=1e-9)


def test_polya2d_series_equals_per_term_values():
    series = polya2d_series(4000)
    per_term = np.array([_polya2d_exact(n) for n in range(4001)])
    assert np.array_equal(series, per_term)


def test_polya2d_gf_at_zero():
    assert polya2d_gf(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("z", [0.3, 0.5, 0.6])
def test_polya2d_gf_against_series(z):
    value, tail = series_sum(polya2d_series(400), z)
    assert abs(polya2d_gf(z) - value) <= 1e-9 + tail


# ---------------------------------------------------------------------------
# 3-D constant


def test_polya3d_kernel_finite_at_pi():
    # Modulus at the far end is 2/(3 - cos(pi)) = 1/2.
    s = math.sin(0.5 * math.pi) ** 2
    kernel = ellipK_from_complement(math.sqrt(s * (2.0 + s)) / (1.0 + s))
    assert kernel == pytest.approx(ellipK(0.5), abs=1e-13)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-15])
def test_polya3d_constant_within_tol_of_watsons_closed_form(tol):
    # Watson's G = sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
    # (Glasser & Zucker, PNAS 74, 1800, 1977).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        gammas = mpmath.fprod(mpmath.gamma(mpmath.mpf(k) / 24) for k in (1, 5, 7, 11))
        watson = float(mpmath.sqrt(6) / (32 * mpmath.pi**3) * gammas)
    g, f = polya3d_constants(tol)
    assert abs(g - watson) <= tol
    assert f == 1.0 - 1.0 / g


def test_polya3d_stable_under_tolerance_halving():
    g1, f1 = polya3d_constants(tol=1e-8)
    g2, f2 = polya3d_constants(tol=5e-9)
    assert abs(g1 - g2) < 1e-6
    assert 0.0 < f1 < 1.0
    assert 0.0 < f2 < 1.0


def test_polya3d_probability_bracketed_by_riemann_sums():
    # Independent bracket: the weighted integrand 3 K(2/(3-cos t))/(3-cos t)
    # decreases on (0, pi) (K's modulus and the weight both decrease), so
    # left/right Riemann sums on [delta, pi] enclose that piece, and the
    # head over (0, delta] is non-negative and bounded by
    # 1.5 * integral_0^delta (ln(4 sqrt2/t) + 2t + 1e-7) dt.
    delta = 1e-6
    m = 20000
    grid = np.linspace(delta, math.pi, m + 1)
    s = np.sin(0.5 * grid) ** 2
    values = 3.0 * ellipK_from_complement(np.sqrt(s * (2.0 + s)) / (1.0 + s)) / (2.0 * (1.0 + s))
    h = (math.pi - delta) / m
    lower = h * values[1:].sum()
    head = 1.5 * (delta * (math.log(4.0 * math.sqrt(2.0) / delta) + 1.0) + delta**2 + 1e-7 * delta)
    upper = h * values[:-1].sum() + head
    g_lower = 2.0 / math.pi**2 * lower
    g_upper = 2.0 / math.pi**2 * upper
    f_lower = 1.0 - 1.0 / g_lower
    f_upper = 1.0 - 1.0 / g_upper
    assert 0.3 < f_lower <= f_upper < 0.4
    # and the quadrature value sits inside the bracket
    g, f = polya3d_constants()
    assert g_lower <= g <= g_upper
    assert f_lower <= f <= f_upper


# ---------------------------------------------------------------------------
# proof-identity suite


@pytest.mark.parametrize("x", [-0.6, 0.0, 0.6])
@pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
def test_legendre_product_identities(x, z):
    nmax = 400
    values = legendre_range(nmax, x)
    squares = []
    products = []
    weighted = []
    power = 1.0
    for n in range(1, nmax + 1):
        prod = values[n] * values[n - 1]
        weighted.append(n * power * prod)
        power *= z
        squares.append(values[n] ** 2 * power)
        products.append(power * prod)
    assert math.fsum(squares) == pytest.approx(2.0 / math.pi * script_K(x, z) - 1.0, abs=1e-8)
    assert math.fsum(products) == pytest.approx(
        2.0 * x / math.pi * integral_E_term(x, z), abs=1e-8
    )
    assert math.fsum(weighted) == pytest.approx(
        2.0 * x * script_E(x, z) / (math.pi * (1.0 - z)), abs=1e-8
    )


@pytest.mark.parametrize("x", [-0.6, 0.3, 0.6])
@pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
def test_kernel_derivative_relations(x, z):
    h = 1e-5
    sk = script_K(x, z)
    se = script_E(x, z)
    dz_exact = ((1.0 + z) * se - (1.0 - z) * sk) / (2.0 * z * (1.0 - z))
    dz_numeric = (script_K(x, z + h) - script_K(x, z - h)) / (2.0 * h)
    assert dz_numeric == pytest.approx(dz_exact, rel=1e-6)
    dx_exact = x * (se - sk) / (x * x - 1.0)
    dx_numeric = (script_K(x + h, z) - script_K(x - h, z)) / (2.0 * h)
    assert dx_numeric == pytest.approx(dx_exact, rel=1e-6)


# ---------------------------------------------------------------------------
# series summation helper


def test_series_sum_point_mass():
    value, tail = series_sum(np.array([1.0, 0.0, 0.0]), 0.9)
    assert value == 1.0
    assert tail == pytest.approx(0.9**3 / 0.1)


def test_series_sum_hadamard_vs_closed():
    values = np.array([return_hadamard(n) for n in range(601)])
    value, tail = series_sum(values, 0.5)
    assert abs(value - gf_hadamard(0.5)) <= 1e-8 + tail


def test_series_sum_symmetric_rw():
    series = return_series_crw(TransitionMatrix(a=0.5, b=0.5), CRWInitialState.from_phi1(0.5), 200)
    value, tail = series_sum(series, 0.6)
    assert abs(value - 1.25) <= tail + 1e-12


def test_series_sum_rejects_large_z():
    with pytest.raises(ValueError):
        series_sum(np.array([1.0]), 1.0)


def _series_sum_dense(series, z):
    """series_sum as it summed every term, zeros included."""
    powers = np.power(z, np.arange(len(series)))
    value = float(math.fsum(series * powers))
    return value, abs(z) ** len(series) / (1.0 - abs(z))


def _bits(pair):
    return tuple(float(v).hex() for v in pair)


_TERMS = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@given(st.lists(_TERMS, min_size=1, max_size=400), st.floats(-0.999, 0.999))
@example([1.0, 0.0, 0.25, 0.0, 0.0], 0.0)
@example([0.0, 0.0, 0.0], -0.5)
@example([1.0] + [0.0, 5e-324] * 40, -0.999)
@settings(max_examples=100, deadline=None)
def test_series_sum_of_the_nonzero_terms_keeps_the_bits_of_the_dense_sum(terms, z):
    series = np.array(terms)
    assert _bits(series_sum(series, z)) == _bits(_series_sum_dense(series, z))


@pytest.mark.parametrize("model", ["qw", "crw", "polya2d"])
def test_series_sum_of_a_model_series_keeps_its_bits(model):
    series = {
        "qw": lambda: return_series_qw(0.3, 1500),
        "crw": lambda: return_series_crw(TransitionMatrix(a=0.4, b=0.6), CRWInitialState.from_phi1(0.2), 1500),
        "polya2d": lambda: polya2d_series(1500),
    }[model]()
    for z in (-0.98, -0.3, 0.0, 0.5, 0.98):
        assert _bits(series_sum(series, z)) == _bits(_series_sum_dense(series, z))


def test_series_sum_takes_any_one_dimensional_sequence():
    expected = series_sum(np.array([1.0, 0.0, 0.5]), 0.3)
    assert series_sum([1.0, 0.0, 0.5], 0.3) == expected
    assert series_sum((1.0, 0.0, 0.5), 0.3) == expected
    assert series_sum([1, 0, 0], -0.3) == (1.0, 0.3**3 / 0.7)


@pytest.mark.parametrize("z", [-0.7, 0.0, 0.4])
def test_series_sum_keeps_a_non_finite_term(z):
    # A NaN is nonzero, so it is summed and never filtered out.
    assert math.isnan(series_sum([1.0, 0.0, math.nan, 0.0], z)[0])
    series = np.array([1.0, 0.0, math.inf])
    with np.errstate(invalid="ignore"):  # inf * 0 at z = 0
        assert _bits(series_sum(series, z)) == _bits(_series_sum_dense(series, z))
        value, _ = series_sum(series, z)
    if z == 0.0:
        assert math.isnan(value)
    else:
        assert value == math.inf


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_truncation_rejects_non_finite_or_non_positive_target(target):
    # nan once leaked "cannot convert float NaN to integer", inf an OverflowError.
    with pytest.raises(ValueError, match="tolerance"):
        truncation_for(0.5, target)


def test_truncation_rule():
    n = truncation_for(0.5, 1e-8)
    assert 0.5 ** (n + 1) / 0.5 < 1e-9
    assert truncation_for(0.0, 1e-8) == 0
    with pytest.raises(ValueError):
        truncation_for(1.0, 1e-8)


@pytest.mark.parametrize(
    ("z", "target", "n"),
    [(0.98, 1e-6, 991), (0.5, 1e-8, 30), (-0.25, 1e-10, 18), (0.999999, 1e-9, 36841343), (0.9, 1e-300, 6600)],
)
def test_truncation_with_a_normal_bound_is_pinned(z, target, n):
    assert truncation_for(z, target) == n


@pytest.mark.parametrize(("z", "target"), [(0.9, 5e-324), (0.5, 1e-323), (-0.999999, 5e-324), (0.5, 2e-307)])
def test_truncation_with_a_subnormal_bound(z, target):
    # target * (1 - |z|) / 10 is subnormal or 0 here: log(0) once raised "math domain error".
    n = truncation_for(z, target)
    log_bound = math.log(0.1) + math.log(target) + math.log1p(-abs(z))
    log_z = math.log(abs(z))
    assert (n + 1) * log_z <= log_bound < n * log_z


# ---------------------------------------------------------------------------
# prefix stability: `genfunc` sweeps once to the largest N and slices per z

prefix_cuts = st.tuples(st.integers(0, 200), st.integers(1, 1500))


@given(st.floats(1e-6, 1.0 - 1e-6), prefix_cuts)
@settings(max_examples=40, deadline=None)
def test_qw_series_is_prefix_stable(alpha_sq, cuts):
    m, extra = cuts
    assert np.array_equal(return_series_qw(alpha_sq, m), return_series_qw(alpha_sq, m + extra)[: m + 1])


@given(st.floats(1e-3, 0.999), st.floats(1e-3, 0.999), st.floats(0.0, 1.0), prefix_cuts)
@settings(max_examples=40, deadline=None)
def test_crw_series_is_prefix_stable(a, b, phi1, cuts):
    m, extra = cuts
    transition, phi = TransitionMatrix(a=a, b=b), CRWInitialState.from_phi1(phi1)
    longer = return_series_crw(transition, phi, m + extra)
    assert np.array_equal(return_series_crw(transition, phi, m), longer[: m + 1])


@given(prefix_cuts)
@settings(max_examples=20, deadline=None)
def test_polya2d_series_is_prefix_stable(cuts):
    m, extra = cuts
    assert np.array_equal(polya2d_series(m), polya2d_series(m + extra)[: m + 1])


# ---------------------------------------------------------------------------
# the closed form against its series on a z grid


def _against_series_inline(walk, zgrid, tol):
    """The comparison as `genfunc` requests spelled it out before
    `against_series`: cuts, the 5e7 bound, G, one sweep, a sum per z."""
    points = zgrid.tolist()
    cuts = [truncation_for(z, tol) for z in points]
    longest = max(cuts)
    if longest > 5 * 10**7:
        raise ValueError(f"|z| = {max(map(abs, points))!r} needs a series of N = {longest} terms, above the bound 5e7")
    closed = walk.gf(zgrid)
    values = walk.closed(longest)
    series, tails = np.array([series_sum(values[: n + 1], z) for z, n in zip(points, cuts)]).T
    return closed, series, tails


# One binding of every model the `genfunc` command serves.
_MODEL_VALUES = {
    "qw": {"alpha_sq": 0.3},
    "hadamard": {},
    "crw": {"a": 0.7, "d": 0.6, "phi1": 0.2},
    "rw": {"p": 0.4},
    "polya2d": {},
}


def _hexes(*arrays):
    return [[float(v).hex() for v in np.ravel(array)] for array in arrays]


@pytest.mark.parametrize("name", list(cli.MODELS))
def test_against_series_keeps_the_bits_of_the_inline_comparison(name):
    assert set(_MODEL_VALUES) == set(cli.MODELS)
    model = cli.MODELS[name]
    walk = model.bind(**_MODEL_VALUES[name])
    zgrid = np.linspace(-0.95, 0.9, 12)
    got = against_series(walk.gf, walk.closed, zgrid, model.genfunc_tol)
    assert _hexes(*got) == _hexes(*_against_series_inline(walk, zgrid, model.genfunc_tol))


class _Routes:
    """Stub routes that record their calls; `gf` raises `gf_error` if set."""

    def __init__(self, gf_error=None):
        self.calls, self.gf_error = [], gf_error

    def gf(self, z):
        self.calls.append(("gf", len(z)))
        if self.gf_error:
            raise self.gf_error
        return np.zeros(len(z))

    def closed(self, nmax):
        self.calls.append(("closed", nmax))
        return np.zeros(nmax + 1)


def test_against_series_bounds_the_series_before_either_route():
    routes = _Routes()
    # 0.99999999 at tol 1e-10 asks for about 4e9 terms.
    with pytest.raises(ValueError, match=r"^\|z\| = 0\.99999999 needs a series of N = \d+ terms, above the bound 5e7$"):
        against_series(routes.gf, routes.closed, [0.5, -0.99999999], 1e-10)
    assert routes.calls == []


def test_a_generating_function_that_raises_stops_the_sweep_before_it_starts():
    routes = _Routes(gf_error=ValueError("|z| refused"))
    with pytest.raises(ValueError, match="refused"):
        against_series(routes.gf, routes.closed, [0.5, 0.9], 1e-10)
    assert routes.calls == [("gf", 2)]


def test_one_sweep_serves_the_whole_grid(monkeypatch):
    routes = _Routes()
    sums = []
    summed = genfunc.series_sum

    def counted(series, z):
        sums.append((len(series), z))
        return summed(series, z)

    # Called through the module global, so a wrapper there sees every sum.
    monkeypatch.setattr(genfunc, "series_sum", counted)
    zgrid = [-0.9, 0.2, 0.0, 0.7]
    closed, series, tails = against_series(routes.gf, routes.closed, zgrid, 1e-8)
    cuts = [truncation_for(z, 1e-8) for z in zgrid]
    assert routes.calls == [("gf", 4), ("closed", max(cuts))]
    assert sums == [(n + 1, z) for z, n in zip(zgrid, cuts)]
    assert all(len(column) == 4 for column in (closed, series, tails))


def test_against_series_reads_the_grid_flat():
    routes = _Routes()
    closed, series, tails = against_series(routes.gf, routes.closed, [[0.1, 0.2], [0.3, 0.4]], 1e-8)
    assert routes.calls == [("gf", 4), ("closed", truncation_for(0.4, 1e-8))]
    assert series.shape == tails.shape == (4,)
    routes = _Routes()
    closed, series, tails = against_series(routes.gf, routes.closed, [], 1e-8)
    assert (closed.shape, series.shape, tails.shape) == ((0,), (0,), (0,))
