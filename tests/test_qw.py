"""Quantum walk: coin algebra, evolution, path sums, closed forms."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkers_return.lattice import stack
from walkers_return.qw import (
    CoinMatrix,
    QWInitialState,
    _lemma_sums,
    decompose,
    distribution,
    evolve,
    return_closed_qw,
    return_hadamard,
    return_lemma1,
    return_series_qw,
    simulate_return,
    step,
    xi_bruteforce,
    xi_lemma1,
)
from walkers_return.specfun import binom

HADAMARD_EXACT = {0: 1.0, 2: 0.5, 4: 1 / 8, 6: 1 / 8, 8: 9 / 128, 10: 9 / 128}


# ---------------------------------------------------------------------------
# coin and state construction


def test_hadamard_coin_entries():
    h = CoinMatrix.hadamard().matrix()
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[s, s], [s, -s]], dtype=complex)
    assert np.max(np.abs(h - expected)) < 1e-12
    # Unitary to rounding: a walk under it keeps its mass.
    coin = CoinMatrix.hadamard()
    assert abs(coin.alpha) ** 2 + abs(coin.beta) ** 2 == 1.0


def test_coin_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = CoinMatrix.random(rng).matrix()
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_coin_rejects_non_normalized_rows():
    with pytest.raises(ValueError):
        CoinMatrix(theta=0.0, alpha=0.9, beta=0.9)


def test_coin_rejects_boundary_cases():
    with pytest.raises(ValueError):
        CoinMatrix(theta=0.0, alpha=1.0, beta=0.0)
    with pytest.raises(ValueError):
        CoinMatrix(theta=0.0, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        CoinMatrix.from_alpha_sq(0.0)
    with pytest.raises(ValueError):
        CoinMatrix.from_alpha_sq(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_coin_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        CoinMatrix(theta=0.0, alpha=complex(bad, 0.0), beta=0.6)
    with pytest.raises(ValueError):
        CoinMatrix(theta=0.0, alpha=0.8, beta=complex(0.0, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_initial_state_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        QWInitialState(phi1=complex(bad, 0.0), phi2=0.0)
    with pytest.raises(ValueError):
        QWInitialState(phi1=1.0, phi2=complex(0.0, bad))


def test_coin_matrix_cannot_be_changed_by_a_caller():
    coin = CoinMatrix.from_alpha_sq(0.3, theta=0.7)
    phi = QWInitialState.canonical()
    before = simulate_return(coin, phi, 20)
    with pytest.raises(ValueError):
        coin.matrix()[0, 0] = 0.0
    assert np.array_equal(simulate_return(coin, phi, 20), before)


def test_initial_state_requires_unit_norm():
    with pytest.raises(ValueError):
        QWInitialState(phi1=1.0, phi2=1.0)
    canonical = QWInitialState.canonical()
    assert abs(canonical.phi1) ** 2 + abs(canonical.phi2) ** 2 == 1.0


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_pieces_reassemble():
    rng = np.random.default_rng(5)
    for _ in range(5):
        coin = CoinMatrix.random(rng)
        p, q, r, s = decompose(coin)
        u = coin.matrix()
        assert np.array_equal(p + q, u)
        # R + S is U with its rows swapped.
        assert np.array_equal(r + s, u[::-1])


def test_decompose_hadamard_left_piece():
    p, _, _, _ = decompose(CoinMatrix.hadamard())
    s = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(p - np.array([[s, s], [0, 0]]))) < 1e-12


# ---------------------------------------------------------------------------
# evolution


def test_single_step_amplitudes_by_hand():
    coin = CoinMatrix.hadamard()
    phi = QWInitialState.canonical()
    matrix, field = stack(coin, phi)
    field = step(field, matrix)
    s = 1.0 / math.sqrt(2.0)
    # At time 1 the stored sites are x = -1 (column 0) and x = 1 (column 1).
    (left_at_minus_one, left_at_one), (right_at_minus_one, right_at_one) = field.packed
    assert left_at_minus_one == pytest.approx(s * (phi.phi1 + phi.phi2), abs=1e-15)
    assert right_at_minus_one == 0.0
    assert right_at_one == pytest.approx(s * (phi.phi1 - phi.phi2), abs=1e-15)
    assert left_at_one == 0.0


def test_two_step_origin_probability_is_half():
    field = evolve(CoinMatrix.hadamard(), QWInitialState.canonical(), 2)
    assert field.position_distribution()[2] == pytest.approx(0.5, abs=1e-14)  # x = 0


def test_norm_preserved_over_hundred_steps():
    rng = np.random.default_rng(11)
    phi = QWInitialState.random(rng)
    matrix, field = stack(CoinMatrix.random(rng), phi)
    for _ in range(100):
        field = step(field, matrix)
    assert abs(field.total_probability() - 1.0) < 1e-10


def test_off_parity_positions_hold_exact_zeros():
    rng = np.random.default_rng(13)
    phi = QWInitialState.random(rng)
    matrix, field = stack(CoinMatrix.random(rng), phi)
    for _ in range(25):
        field = step(field, matrix)
        dist = field.position_distribution()
        bad = dist[(np.arange(-field.time, field.time + 1) + field.time) % 2 == 1]
        assert np.all(bad == 0.0)


def test_two_step_distribution():
    field = evolve(CoinMatrix.hadamard(), QWInitialState.canonical(), 2)
    expected = {-2: 0.25, -1: 0.0, 0: 0.5, 1: 0.0, 2: 0.25}
    dist = field.position_distribution()  # x = -2..2
    for x, prob in expected.items():
        assert dist[x + 2] == pytest.approx(prob, abs=1e-14)


# ---------------------------------------------------------------------------
# simulated return probabilities


def test_simulated_return_is_zero_at_odd_times():
    series = simulate_return(CoinMatrix.hadamard(), QWInitialState.canonical(), 15)
    for n in range(1, 16, 2):
        assert series[n] == 0.0


def test_simulated_hadamard_matches_exact_values():
    series = simulate_return(CoinMatrix.hadamard(), QWInitialState.canonical(), 10)
    for n, exact in HADAMARD_EXACT.items():
        assert series[n] == pytest.approx(exact, abs=1e-12)


def test_r2_equals_beta_squared():
    # Two-step closed value (1-k)/2 = |beta|^2, cross-checked against the
    # explicit two-path enumeration PQ + QP.
    coin = CoinMatrix.from_alpha_sq(0.8, theta=0.4, alpha_phase=1.2)
    phi = QWInitialState.canonical()
    assert simulate_return(coin, phi, 2)[2] == pytest.approx(0.2, abs=1e-13)
    assert return_closed_qw(0.8, 2) == pytest.approx(0.2, abs=1e-13)
    assert np.linalg.norm(xi_bruteforce(coin, 1, 1) @ phi.vector()) ** 2 == pytest.approx(0.2, abs=1e-13)


# ---------------------------------------------------------------------------
# path sums


def test_three_step_words():
    coin = CoinMatrix.random(np.random.default_rng(17))
    p, q, _, _ = decompose(coin)
    assert np.max(np.abs(xi_bruteforce(coin, 0, 3) - q @ q @ q)) < 1e-14
    listing = q @ q @ p + q @ p @ q + p @ q @ q
    assert np.max(np.abs(xi_bruteforce(coin, 1, 2) - listing)) < 1e-14
    swapped = p @ p @ q + p @ q @ p + q @ p @ p
    assert np.max(np.abs(xi_bruteforce(coin, 2, 1) - swapped)) < 1e-14


def test_bruteforce_refuses_large_words():
    coin = CoinMatrix.hadamard()
    with pytest.raises(ValueError):
        xi_bruteforce(coin, 8, 7)


def test_bruteforce_words_sum_to_the_coin_power():
    # Every word of n steps has some number l of left moves: (P + Q)^n = U^n.
    rng = np.random.default_rng(37)
    for _ in range(3):
        coin = CoinMatrix.random(rng)
        for n in range(0, 15):
            total = sum(xi_bruteforce(coin, l, n - l) for l in range(n + 1))
            power = np.linalg.matrix_power(coin.matrix(), n)
            assert np.max(np.abs(total - power)) < 1e-12


def _listed_bruteforce(coin, l, m):
    """`xi_bruteforce` with its word table built from a list of tuples."""
    nsteps = l + m
    count = math.comb(nsteps, l)
    slots = np.array(list(itertools.combinations(range(nsteps), l)), dtype=np.intp).reshape(count, l)
    moves_left = np.zeros((count, nsteps), dtype=bool)
    np.put_along_axis(moves_left, slots, True, axis=1)
    keep = np.stack([moves_left, ~moves_left])[:, None]
    words = np.zeros((2, 2, count), dtype=complex)
    words[0, 0] = words[1, 1] = 1.0
    for i in range(nsteps):
        words = (coin.matrix() @ words.reshape(2, 2 * count)).reshape(2, 2, count) * keep[..., i]
    return words.sum(axis=2)


def test_bruteforce_keeps_the_bits_of_the_listed_word_table():
    rng = np.random.default_rng(43)
    for _ in range(3):
        coin = CoinMatrix.random(rng)
        for nsteps in range(13):
            for l in range(nsteps + 1):
                expected = _listed_bruteforce(coin, l, nsteps - l)
                got = xi_bruteforce(coin, l, nsteps - l)
                assert np.array_equal(got.view(float), expected.view(float)), (l, nsteps - l)


def test_lemma_matches_bruteforce_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(10):
        coin = CoinMatrix.random(rng)
        for n in range(1, 8):
            diff = np.abs(xi_lemma1(coin, n) - xi_bruteforce(coin, n, n))
            assert np.max(diff) < 1e-12


def _fraction_lemma_sums(coin, n):
    """sigma1, sigma0 and n sigma1 - sigma0 as exact Fractions, term by term."""
    rho = -Fraction(abs(coin.beta) ** 2) / Fraction(abs(coin.alpha) ** 2)
    sigma1 = sigma0 = Fraction(0)
    power = Fraction(1)
    for g in range(1, n + 1):
        power *= rho
        weight = Fraction(binom(n - 1, g - 1) ** 2)
        sigma0 += power * weight
        sigma1 += power * weight / g
    return sigma1, sigma0, n * sigma1 - sigma0


def test_lemma_sums_equal_exact_fraction_sums():
    # Both round the same rational once, so the floats are identical.
    rng = np.random.default_rng(41)
    for _ in range(4):
        coin = CoinMatrix.random(rng)
        scale = Fraction(abs(coin.alpha) ** 2)
        for n in range(1, 41):
            exact = _fraction_lemma_sums(coin, n)
            assert _lemma_sums(coin, n) == tuple(float(scale**n * x) for x in exact)


@pytest.mark.parametrize("alpha_sq", [0.5, 0.25, 0.75, 2.0**-30, 1e-6, 1.0 - 1e-6])
@pytest.mark.parametrize("n", [1, 2, 3, 41, 97, 200])
def test_lemma_sums_equal_exact_fraction_sums_across_alpha(alpha_sq, n):
    # From the balanced coin to both ends, where the terms cancel almost
    # completely (small |alpha|) or barely alternate (small |beta|).
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=0.7, alpha_phase=2.1)
    scale = Fraction(abs(coin.alpha) ** 2)
    exact = _fraction_lemma_sums(coin, n)
    assert _lemma_sums(coin, n) == tuple(float(scale**n * x) for x in exact)


@given(
    alpha_sq=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    theta=st.floats(min_value=0.0, max_value=6.28),
    n=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_lemma_sums_equal_exact_fraction_sums_for_any_coin(alpha_sq, theta, n):
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=theta)
    scale = Fraction(abs(coin.alpha) ** 2)
    exact = _fraction_lemma_sums(coin, n)
    assert _lemma_sums(coin, n) == tuple(float(scale**n * x) for x in exact)


def _carried_lemma_sums(coin, n):
    """The lemma's sums with each term carried from g to g + 1 by two exact
    long divisions: the earlier spelling of `_lemma_sums`, kept as its reference."""
    u, v = (abs(coin.alpha) ** 2).as_integer_ratio()
    s, t = (abs(coin.beta) ** 2).as_integer_ratio()
    num, den = -s * v, t * u
    term = num * den ** (n - 1)
    plain = weighted = 0
    for g in range(1, n + 1):
        plain += term
        weighted += term * n // g
        term = term * (n - g) ** 2 * num // (g * g * den)
    scale = (v * t) ** n
    return weighted / (n * scale), plain / scale, (weighted - plain) / scale


@pytest.mark.parametrize("alpha_sq, theta", [(0.3, 1.3), (0.62, 4.0)])
def test_lemma_sums_equal_the_carried_terms_at_a_long_horizon(alpha_sq, theta):
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=theta)
    assert _lemma_sums(coin, 1100) == _carried_lemma_sums(coin, 1100)


@pytest.mark.parametrize("alpha_sq, n", [(0.2, 450), (0.1, 320), (0.3, 1100)])
def test_lemma_return_where_the_unscaled_sums_overflow_a_float(alpha_sq, n):
    # The bare sums overflow a float at these n; times |alpha|^{2n} they do not.
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=1.3, alpha_phase=0.4)
    lemma = return_lemma1(coin, QWInitialState.canonical(), n)
    assert abs(lemma - return_series_qw(alpha_sq, 2 * n)[2 * n]) <= 1e-12


def test_lemma_hadamard_two_step_probability():
    coin = CoinMatrix.hadamard()
    phi = QWInitialState.canonical()
    assert np.linalg.norm(xi_lemma1(coin, 1) @ phi.vector()) ** 2 == pytest.approx(0.5, abs=1e-13)


def test_lemma_rejects_zero_steps():
    with pytest.raises(ValueError):
        xi_lemma1(CoinMatrix.hadamard(), 0)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_base_cases():
    assert return_closed_qw(0.37, 0) == 1.0
    assert return_closed_qw(0.37, 7) == 0.0
    assert return_closed_qw(0.5, 4) == pytest.approx(0.125, abs=1e-14)
    assert return_closed_qw(0.8, 2) == pytest.approx(0.2, abs=1e-14)


def test_closed_form_rejects_boundary_alpha():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            return_closed_qw(bad, 4)


def test_hadamard_formula_values():
    assert return_hadamard(2) == 0.5
    assert return_hadamard(4) == pytest.approx(1 / 8, abs=1e-15)
    assert return_hadamard(8) == pytest.approx(9 / 128, abs=1e-15)
    assert return_hadamard(5) == 0.0
    assert return_hadamard(0) == 1.0


def test_hadamard_formula_matches_general_closed_form():
    for n in range(0, 61):
        assert return_hadamard(n) == pytest.approx(return_closed_qw(0.5, n), abs=1e-12)


def test_series_sweep_matches_pointwise_closed_form():
    series = return_series_qw(0.73, 100)
    for n in range(101):
        assert series[n] == pytest.approx(return_closed_qw(0.73, n), abs=1e-13)


# ---------------------------------------------------------------------------
# oracle triangle and invariances


@pytest.mark.parametrize("alpha_sq", [0.1, 0.3, 0.5, 0.8, 0.95])
def test_oracle_triangle(alpha_sq):
    rng = np.random.default_rng(int(alpha_sq * 100))
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=rng.uniform(0, 2 * math.pi))
    phi = QWInitialState.random(rng)
    sim = simulate_return(coin, phi, 80)
    for n in range(1, 41):
        closed = return_closed_qw(alpha_sq, 2 * n)
        lemma = return_lemma1(coin, phi, n)
        assert abs(sim[2 * n] - closed) < 1e-10
        assert abs(lemma - closed) < 1e-10
        assert abs(sim[2 * n] - lemma) < 1e-10


@given(st.floats(0.05, 0.95), st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_simulation_equals_closed_form_property(alpha_sq, n):
    coin = CoinMatrix.from_alpha_sq(alpha_sq)
    sim = simulate_return(coin, QWInitialState.canonical(), 2 * n)
    assert abs(sim[2 * n] - return_closed_qw(alpha_sq, 2 * n)) < 1e-10


def test_return_series_independent_of_initial_state():
    rng = np.random.default_rng(23)
    coin = CoinMatrix.random(rng)
    series = [
        simulate_return(coin, QWInitialState.random(rng), 60) for _ in range(20)
    ]
    stacked = np.stack(series)
    assert float(np.max(stacked.max(axis=0) - stacked.min(axis=0))) < 1e-10


def test_return_series_independent_of_coin_phases():
    rng = np.random.default_rng(29)
    phi = QWInitialState.canonical()
    base = simulate_return(CoinMatrix.from_alpha_sq(0.62), phi, 60)
    for _ in range(5):
        coin = CoinMatrix.from_alpha_sq(
            0.62,
            theta=rng.uniform(0, 2 * math.pi),
            alpha_phase=rng.uniform(0, 2 * math.pi),
            beta_phase=rng.uniform(0, 2 * math.pi),
        )
        other = simulate_return(coin, phi, 60)
        assert float(np.max(np.abs(other - base))) < 1e-10


def test_unitarity_over_thousand_steps():
    rng = np.random.default_rng(31)
    matrix, field = stack(CoinMatrix.random(rng), QWInitialState.random(rng))
    for _ in range(1000):
        field = step(field, matrix)
    assert abs(field.total_probability() - 1.0) < 1e-10


def test_hadamard_formula_matches_legendre_sweep_at_ten_thousand_steps():
    # 4.0**m overflowed here once m reached 512 (n >= 2048).
    sweep = return_series_qw(0.5, 10_000)
    for n in (2046, 2048, 4096, 9998, 10_000):
        assert return_hadamard(n) == pytest.approx(sweep[n], rel=1e-12)


# ---------------------------------------------------------------------------
# momentum-space distribution


_phase = st.floats(0.0, 2 * math.pi, exclude_max=True)


@given(
    alpha_sq=st.floats(0.05, 0.95),
    phases=st.tuples(_phase, _phase, _phase),
    mix=st.floats(0.0, math.pi / 2),
    relative_phase=_phase,
    n=st.integers(0, 300),
)
@settings(max_examples=25, deadline=None)
def test_distribution_matches_lattice_evolution(alpha_sq, phases, mix, relative_phase, n):
    theta, alpha_phase, beta_phase = phases
    coin = CoinMatrix.from_alpha_sq(alpha_sq, theta=theta, alpha_phase=alpha_phase, beta_phase=beta_phase)
    phi = QWInitialState(phi1=math.cos(mix), phi2=math.sin(mix) * cmath.exp(1j * relative_phase))
    spectral = distribution(coin, phi, n)
    lattice = evolve(coin, phi, n).position_distribution()
    assert spectral.shape == (2 * n + 1,)
    assert float(np.max(np.abs(spectral - lattice))) <= 1e-13


def test_distribution_at_time_zero_is_the_origin():
    assert distribution(CoinMatrix.hadamard(), QWInitialState(phi1=1.0, phi2=0.0), 0).tolist() == [1.0]
    dist = distribution(CoinMatrix.hadamard(), QWInitialState.canonical(), 0)
    assert dist.shape == (1,)
    assert dist[0] == pytest.approx(1.0, abs=1e-15)


def test_distribution_rejects_negative_time():
    with pytest.raises(ValueError):
        distribution(CoinMatrix.hadamard(), QWInitialState.canonical(), -1)


def test_distribution_hadamard_at_hundred_thousand_steps():
    # The lattice route takes about ten minutes here; the Fourier route a second.
    n = 100_000
    dist = distribution(CoinMatrix.hadamard(), QWInitialState.canonical(), n)
    assert dist[n] == pytest.approx(return_series_qw(0.5, n)[n], abs=1e-12)
    assert abs(float(dist.sum()) - 1.0) <= 1e-9
    assert np.all(dist[1::2] == 0.0)
