"""Correlated random walk: evolution, closed forms, degenerations."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkers_return import lattice
from walkers_return.crw import (
    CRWInitialState,
    TransitionMatrix,
    closed_form_params,
    crw_step,
    evolve_crw,
    return_closed_crw,
    return_series_crw,
    return_sum_form_crw,
    simulate_return_crw,
)
from walkers_return.lattice import stack
from walkers_return.specfun import binom


# ---------------------------------------------------------------------------
# construction


def test_transition_matrix_columns_are_stochastic():
    t = TransitionMatrix(a=0.7, b=0.2)
    assert t.a + t.c == 1.0
    assert t.b + t.d == 1.0
    assert t.a == 0.7
    assert t.d == 0.8


def test_transition_matrix_cannot_be_changed_by_a_caller():
    t = TransitionMatrix(a=0.7, b=0.2)
    phi_hat = CRWInitialState.from_phi1(0.3)
    before = simulate_return_crw(t, phi_hat, 20)
    assert np.array_equal(t.matrix(), [[0.7, 0.2], [t.c, t.d]])
    with pytest.raises(ValueError):
        t.matrix()[0, 0] = 0.0
    assert np.array_equal(simulate_return_crw(t, phi_hat, 20), before)


def test_transition_matrix_rejects_boundary_persistence():
    for a in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            TransitionMatrix(a=a, b=0.5)
    for b in (0.0, 1.0):
        with pytest.raises(ValueError):
            TransitionMatrix(a=0.5, b=b)


def test_from_persistence_recovers_parameters():
    t = TransitionMatrix.from_persistence(0.7, 0.4)
    assert t.a == 0.7
    assert t.d == pytest.approx(0.4)
    assert t.b == pytest.approx(0.6)


def test_from_persistence_walks_the_d_that_its_stored_b_gives():
    # b = 1 - d is stored and d is read back as 1 - b, rounded twice.
    assert TransitionMatrix.from_persistence(0.7, 0.3).d == 0.30000000000000004
    assert TransitionMatrix.from_persistence(0.7, 1e-9).d == 9.999999717180685e-10
    # c = 1 - a is rounded as well: the stored column need not sum to 1.
    t = TransitionMatrix.from_persistence(0.3, 0.6)
    assert Fraction(t.a) + Fraction(t.c) != 1


@given(st.floats(0.5, 1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_from_persistence_keeps_every_d_from_one_half_exactly(d):
    t = TransitionMatrix.from_persistence(0.7, d)
    assert t.d == d
    assert Fraction(t.b) + Fraction(t.d) == 1


def test_initial_state_validation():
    with pytest.raises(ValueError):
        CRWInitialState(phi1_hat=0.7, phi2_hat=0.7)
    with pytest.raises(ValueError):
        CRWInitialState(phi1_hat=-0.1, phi2_hat=1.1)
    state = CRWInitialState.from_phi1(0.25)
    assert state.phi2_hat == 0.75


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_initial_state_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError):
        CRWInitialState(phi1_hat=bad, phi2_hat=0.5)
    with pytest.raises(ValueError):
        CRWInitialState(phi1_hat=0.0, phi2_hat=bad)
    with pytest.raises(ValueError):
        CRWInitialState.from_phi1(bad)


# ---------------------------------------------------------------------------
# evolution


def test_symmetric_two_step_distribution():
    field = evolve_crw(TransitionMatrix(a=0.5, b=0.5), CRWInitialState.from_phi1(0.5), 2)
    dist = field.position_distribution()  # x = -2..2
    assert dist[0] == pytest.approx(0.25, abs=1e-15)
    assert dist[2] == pytest.approx(0.5, abs=1e-15)
    assert dist[4] == pytest.approx(0.25, abs=1e-15)
    assert dist[3] == 0.0


def test_single_persistent_step():
    t = TransitionMatrix.from_persistence(0.9, 0.9)
    field = evolve_crw(t, CRWInitialState(phi1_hat=1.0, phi2_hat=0.0), 1)
    # At time 1 the stored sites are x = -1 (column 0) and x = 1 (column 1).
    assert field.packed[0, 0] == pytest.approx(0.9, abs=1e-15)  # x = -1, went left
    assert field.packed[1, 1] == pytest.approx(0.1, abs=1e-15)  # x = +1, went right
    assert np.array_equal(field.position_distribution(), [field.packed[0, 0], 0.0, field.packed[1, 1]])


def test_mass_conserved_over_five_hundred_steps():
    rng = np.random.default_rng(41)
    field = lattice.evolve(*stack(TransitionMatrix.random(rng), CRWInitialState.random(rng)), 500, crw_step)
    assert abs(field.total_probability() - 1.0) < 1e-12


def test_simulated_return_is_zero_at_odd_times():
    series = simulate_return_crw(TransitionMatrix(a=0.3, b=0.8), CRWInitialState.from_phi1(1.0), 11)
    for n in range(1, 12, 2):
        assert series[n] == 0.0


def test_symmetric_r2_is_half():
    series = simulate_return_crw(TransitionMatrix(a=0.5, b=0.5), CRWInitialState.from_phi1(0.5), 2)
    assert series[2] == pytest.approx(0.5, abs=1e-15)


def test_general_r2_by_two_path_enumeration():
    # r_2 = || QP phi ||_1 + || PQ phi ||_1 = ac phi1 + bd phi2 + bc
    rng = np.random.default_rng(43)
    for _ in range(10):
        t = TransitionMatrix.random(rng)
        state = CRWInitialState.random(rng)
        p_hat = np.array([[t.a, t.b], [0.0, 0.0]])
        q_hat = np.array([[0.0, 0.0], [t.c, t.d]])
        phi = state.vector()
        enumerated = float(np.sum(q_hat @ (p_hat @ phi)) + np.sum(p_hat @ (q_hat @ phi)))
        expected = t.a * t.c * state.phi1_hat + t.b * t.d * state.phi2_hat + t.b * t.c
        assert enumerated == pytest.approx(expected, abs=1e-15)
        assert simulate_return_crw(t, state, 2)[2] == pytest.approx(expected, abs=1e-14)
        assert return_closed_crw(t, state, 2) == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# closed-form scalars


def test_params_for_symmetric_walk():
    params = closed_form_params(TransitionMatrix(a=0.5, b=0.5), CRWInitialState.from_phi1(0.5))
    assert params.delta_plus == pytest.approx(0.5)
    assert params.delta_minus == 0.0


def test_params_for_equal_persistence():
    # a = d = p, b = c = 1 - p: delta_plus = p^2 + (1-p)^2, delta_minus = 2p - 1
    for p in (0.2, 0.5, 0.9):
        params = closed_form_params(
            TransitionMatrix.from_persistence(p, p), CRWInitialState.from_phi1(0.3)
        )
        assert params.delta_plus == pytest.approx(p * p + (1 - p) * (1 - p), abs=1e-15)
        assert params.delta_minus == pytest.approx(2 * p - 1, abs=1e-15)


def test_k_gap_is_twice_ad():
    rng = np.random.default_rng(47)
    for _ in range(10):
        t = TransitionMatrix.random(rng)
        params = closed_form_params(t, CRWInitialState.random(rng))
        assert params.k_plus - params.k_minus == pytest.approx(2 * t.a * t.d, abs=1e-16)


# ---------------------------------------------------------------------------
# closed form vs simulation


def test_closed_form_base_cases():
    t = TransitionMatrix(a=0.4, b=0.7)
    state = CRWInitialState.from_phi1(0.8)
    assert return_closed_crw(t, state, 0) == 1.0
    assert return_closed_crw(t, state, 9) == 0.0


def test_symmetric_walk_central_binomial_values():
    t = TransitionMatrix(a=0.5, b=0.5)
    state = CRWInitialState.from_phi1(0.5)
    assert return_closed_crw(t, state, 2) == pytest.approx(0.5, abs=1e-15)
    assert return_closed_crw(t, state, 4) == pytest.approx(6 / 16, abs=1e-15)
    for j in range(1, 20):
        assert return_closed_crw(t, state, 2 * j) == pytest.approx(
            binom(2 * j, j) / 4.0**j, abs=1e-14
        )


def test_closed_form_matches_simulation_random_cases():
    rng = np.random.default_rng(53)
    for _ in range(50):
        t = TransitionMatrix.random(rng)
        state = CRWInitialState.random(rng)
        sim = simulate_return_crw(t, state, 80)
        closed = return_series_crw(t, state, 80)
        assert float(np.max(np.abs(sim - closed))) < 1e-12


@pytest.mark.parametrize("offset", [1e-10, -1e-10])
def test_closed_form_stable_near_degenerate_delta(offset):
    t = TransitionMatrix(a=0.6, b=0.6 - offset)
    state = CRWInitialState.from_phi1(0.3)
    sim = simulate_return_crw(t, state, 80)
    closed = return_series_crw(t, state, 80)
    assert float(np.max(np.abs(sim - closed))) < 1e-12


@given(
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
    st.integers(1, 30),
)
@settings(max_examples=30, deadline=None)
def test_closed_form_matches_simulation_property(a, b, phi1, n):
    t = TransitionMatrix(a=a, b=b)
    state = CRWInitialState.from_phi1(phi1)
    sim = simulate_return_crw(t, state, 2 * n)
    assert abs(sim[2 * n] - return_closed_crw(t, state, 2 * n)) < 1e-12


def test_equal_persistence_is_state_independent():
    rng = np.random.default_rng(59)
    t = TransitionMatrix.from_persistence(0.7, 0.7)
    series = [
        return_series_crw(t, CRWInitialState.random(rng), 60) for _ in range(10)
    ]
    stacked = np.stack(series)
    assert float(np.max(stacked.max(axis=0) - stacked.min(axis=0))) < 1e-12


@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
def test_uncorrelated_reduction_to_random_walk(p):
    t = TransitionMatrix.uncorrelated(p)
    state = CRWInitialState.from_phi1(0.42)
    series = return_series_crw(t, state, 60)
    sim = simulate_return_crw(t, state, 60)
    for j in range(31):
        exact = (p * (1.0 - p)) ** j * binom(2 * j, j)
        assert abs(series[2 * j] - exact) < 1e-12
        assert abs(sim[2 * j] - exact) < 1e-12


def test_return_values_stay_in_unit_interval():
    rng = np.random.default_rng(61)
    for _ in range(20):
        t = TransitionMatrix.random(rng)
        values = return_series_crw(t, CRWInitialState.random(rng), 200)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)


def test_sum_form_equals_legendre_form():
    rng = np.random.default_rng(67)
    for _ in range(10):
        t = TransitionMatrix.random(rng)
        state = CRWInitialState.random(rng)
        for n in range(1, 16):
            legendre_form = return_closed_crw(t, state, 2 * n)
            sum_form = return_sum_form_crw(t, state, n)
            assert sum_form == pytest.approx(legendre_form, rel=1e-11)


@pytest.mark.parametrize("n", [2000, 10_000])
@pytest.mark.parametrize("a, b", [(0.7, 0.4), (0.7, 0.3), (0.3, 0.7)])
def test_sum_form_matches_series_at_long_horizons(a, b, n):
    # C(n-1, g-1)**2 once overflowed a float from n = 518 on (a = 0.7, b = 0.4).
    transition = TransitionMatrix(a=a, b=b)
    phi_hat = CRWInitialState.from_phi1(0.3)
    series = return_series_crw(transition, phi_hat, 2 * n)
    assert series[2 * n] > 0.0
    assert return_sum_form_crw(transition, phi_hat, n) == pytest.approx(series[2 * n], rel=1e-10)


def _exact_sum_form(transition, phi_hat, n):
    """The sum form's path count in exact rationals of the stored a, b, c, d and phi."""
    a, b, c, d = (Fraction(x) for x in (transition.a, transition.b, transition.c, transition.d))
    s = a * c * Fraction(phi_hat.phi1_hat) + b * d * Fraction(phi_hat.phi2_hat)
    return sum(
        (a * d) ** (n - g)
        * (b * c) ** g
        * binom(n - 1, g - 1) ** 2
        * (Fraction(n, g) * (s / (a * d) + 1) + (a * d - b * c) / (a * b * c * d) * s)
        for g in range(1, n + 1)
    )


def _sum_form_is_exact(transition, phi_hat, n):
    """Within 1e-11 relative of the exact sum, or of the float grid where the
    value underflows, and never NaN; False where the sum form refuses with a
    ValueError."""
    try:
        got = return_sum_form_crw(transition, phi_hat, n)
    except ValueError:
        return False
    assert not math.isnan(got)
    exact = _exact_sum_form(transition, phi_hat, n)
    assert abs(Fraction(got) - exact) <= Fraction(1e-11) * exact + Fraction(5e-324)
    return True


_SMALL = [1e-3, 1e-8, 1e-12, 1e-17, 1e-300, 1e-310, 5e-324]


@pytest.mark.parametrize(
    "transition",
    [TransitionMatrix(a=x, b=0.5) for x in _SMALL]
    + [TransitionMatrix(a=0.5, b=x) for x in _SMALL]
    # d = 1 - b is a float above 2**-53 at the least.
    + [TransitionMatrix.from_persistence(0.5, x) for x in [1e-3, 1e-8, 1e-12, 2.0**-53]],
)
@pytest.mark.parametrize("n", [1, 5, 15])
def test_sum_form_near_the_boundary_is_exact_unless_a_product_is_subnormal(transition, n):
    normal = min(transition.a * transition.d, transition.b * transition.c) >= sys.float_info.min
    for phi1 in (0.0, 0.5, 1.0):
        assert _sum_form_is_exact(transition, CRWInitialState.from_phi1(phi1), n) == normal


def test_sum_form_names_what_a_float_cannot_hold():
    # Where the brace cancelled, this raised a math domain error at
    # a = 1e-17 .. 1e-300, returned NaN at 1e-310 and divided by 0 at 5e-324.
    phi_hat = CRWInitialState.from_phi1(0.5)
    for a in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="normal floats"):
            return_sum_form_crw(TransitionMatrix(a=a, b=0.5), phi_hat, 5)
    # Here s/ad is about 2.5e306 and a brace (s/ad)(n - g)/g overflows;
    # its log does not, and the value is r_200 = 2.05e-29.
    transition = TransitionMatrix(a=1e-307, b=0.5)
    exact = _exact_sum_form(transition, phi_hat, 100)
    assert abs(Fraction(return_sum_form_crw(transition, phi_hat, 100)) - exact) <= Fraction(1e-11) * exact


@pytest.mark.parametrize("a, n", [(5e-308, 200), (1e-300, 200), (1e-307, 100)])
def test_sum_form_near_the_smallest_normal_ad_keeps_its_digits(a, n):
    # A final n log(ad) cancelled against the largest log term here and
    # left a relative error of up to 3.4e-11.
    transition = TransitionMatrix(a=a, b=0.5)
    phi_hat = CRWInitialState.from_phi1(0.5)
    exact = _exact_sum_form(transition, phi_hat, n)
    assert abs(Fraction(return_sum_form_crw(transition, phi_hat, n)) - exact) <= Fraction(1e-12) * exact


@given(
    a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    b=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    phi1=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=200, deadline=None)
def test_sum_form_is_exact_or_refused_from_subnormal_to_normal(a, b, phi1, n):
    _sum_form_is_exact(TransitionMatrix(a=a, b=b), CRWInitialState.from_phi1(phi1), n)


def test_sum_form_rejects_zero_steps():
    with pytest.raises(ValueError):
        return_sum_form_crw(TransitionMatrix(a=0.5, b=0.5), CRWInitialState.from_phi1(0.5), 0)


@pytest.mark.parametrize("p, n", [(0.5, 10_000), (0.4, 10_000), (0.2, 1500)])
def test_uncorrelated_walk_matches_lgamma_form_at_long_horizons(p, n):
    # (pq)^j * C(2j, j) overflowed (p = 0.5, n >= 1030) or underflowed to 0
    # (p = 0.2, n = 1500, true value ~1e-147) when the factors were apart.
    transition = TransitionMatrix.uncorrelated(p)
    phi_hat = CRWInitialState.from_phi1(0.5)
    series = return_series_crw(transition, phi_hat, n)
    j = n // 2
    log_central = math.lgamma(2 * j + 1) - 2 * math.lgamma(j + 1) - 2 * j * math.log(2.0)
    expected = math.exp(j * math.log(4.0 * p * (1.0 - p)) + log_central)
    assert expected > 0.0
    assert series[n] == pytest.approx(expected, rel=1e-9)
    assert return_closed_crw(transition, phi_hat, n) == series[n]
