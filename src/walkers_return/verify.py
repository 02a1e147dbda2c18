"""Cross-validation suites: every closed form against an independent route.

Each check computes a max residual and compares it to a fixed tolerance;
the CLI `verify` command prints one line per check and fails the process
if any residual exceeds its tolerance.  Each check draws its random inputs
from its own generator, seeded by the run's seed and the check's name, so
a check's report is the same run alone, in its suite or in `all`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import crw, genfunc, lattice, qw, specfun

__all__ = ["CheckResult", "CHECKS", "SUITE_NAMES", "run_check", "run_suite", "DEFAULT_SEED"]

DEFAULT_SEED = 20230711


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _worst(*values: float | np.ndarray) -> float:
    """The largest residual, NaN if any residual is NaN.

    The builtin max keeps its running value against a NaN, so a NaN residual
    would vanish and pass the gate; np.max propagates it, and a NaN residual
    fails every `residual <= tolerance` comparison.  Adding 0.0 turns a
    -0.0 maximum (np.max may keep either of two equal zeros) into 0.0.
    """
    return float(np.max(values)) + 0.0


def _beyond_tail(values: np.ndarray, sums: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """How far each generating-function value lies from its series sum
    beyond the series' tail bound: |G - S| - tail, floored at 0 (a series
    inside its tail bound).  np.maximum keeps a NaN, so it fails the gate."""
    return np.maximum(np.abs(values - sums) - tails, 0.0)


def _pairs(draws) -> tuple[list, list]:
    """(coins, states) of a stack from (coin, its states) draws: each coin
    repeated once per state, paired one-to-one with the states in order."""
    coins = [coin for coin, states in draws for _ in states]
    return coins, [phi for _, states in draws for phi in states]


# ---------------------------------------------------------------------------
# specfun checks


def _check_legendre_recurrence(rng: np.random.Generator) -> float:
    residuals = []
    n = np.arange(1.0, 200.0)
    for x in np.linspace(-1.0, 1.0, 101):
        values = specfun.legendre_range(201, float(x))
        resid = np.abs((n + 1) * values[2:-1] - (2 * n + 1) * x * values[1:-2] + n * values[:-3])
        residuals.append(resid / np.maximum(1.0, np.abs(values[1:-2])))
    return _worst(*residuals)


def _check_jacobi_difference_identity(rng: np.random.Generator) -> float:
    # P_n^(1,0)(k) (1 - k) = P_n(k) - P_{n+1}(k)
    residuals = []
    for k in np.linspace(-0.95, 0.95, 39).tolist():
        # One Jacobi sweep per k, independent of the Legendre one.
        lhs = specfun.jacobi10_range(50, k) * (1.0 - k)
        legendre = specfun.legendre_range(51, k)
        residuals.append(np.abs(lhs - (legendre[:-1] - legendre[1:])))
    return _worst(*residuals)


def _check_geometric_sum_identities(rng: np.random.Generator) -> float:
    # The path-sum lemma's exact alternating sums, which `qw._lemma_sums`
    # returns multiplied by |alpha|^{2n}, against the Jacobi / Legendre forms.
    residuals = []
    for alpha_sq in (0.3, 0.5, 0.8):
        coin = qw.CoinMatrix.from_alpha_sq(alpha_sq)
        beta_sq = 1.0 - alpha_sq
        k = 2.0 * alpha_sq - 1.0
        jacobi = specfun.jacobi10_range(14, k).tolist()
        legendre = specfun.legendre_range(14, k).tolist()
        for n in range(1, 16):
            weighted, plain, _ = qw._lemma_sums(coin, n)
            jac = -(beta_sq / n) * jacobi[n - 1]
            leg = -beta_sq * legendre[n - 1]
            residuals.append(abs(weighted - jac) / max(abs(jac), 1e-300))
            residuals.append(abs(plain - leg) / max(abs(leg), 1e-300))
    return _worst(*residuals)


def _check_elliptic_vs_quadrature(rng: np.random.Generator) -> float:
    moduli = np.linspace(0.1, 0.9, 9)
    quadratures = []
    for m in moduli.tolist():
        k_quad = genfunc.integrate(
            lambda t: 1.0 / np.sqrt(1.0 - (m * np.sin(t)) ** 2), 0.0, math.pi / 2.0, tol=1e-12
        )
        e_quad = genfunc.integrate(
            lambda t: np.sqrt(1.0 - (m * np.sin(t)) ** 2), 0.0, math.pi / 2.0, tol=1e-12
        )
        quadratures.append((k_quad, e_quad))
    k_quad, e_quad = np.array(quadratures).T
    residuals = np.abs([specfun.ellipK(moduli) - k_quad, specfun.ellipE(moduli) - e_quad])
    return _worst(residuals)


def _check_landen(rng: np.random.Generator) -> float:
    t = np.linspace(0.02, 0.98, 49)
    lhs = (1.0 + t) * specfun.ellipK(t)
    rhs = specfun.ellipK(2.0 * np.sqrt(t) / (1.0 + t))
    return _worst(np.abs(lhs - rhs))


def _check_kernel_reduction(rng: np.random.Generator) -> float:
    # scriptK(0, w) collapses to K(w) through the Landen step.
    w = np.array([0.1, 0.25])
    return _worst(np.abs(specfun.script_K(0.0, w) - specfun.ellipK(w)))


# ---------------------------------------------------------------------------
# qw checks


_HADAMARD_EXACT = {0: 1.0, 2: 0.5, 4: 0.125, 6: 0.125, 8: 9.0 / 128.0, 10: 9.0 / 128.0}


def _check_hadamard_three_routes(rng: np.random.Generator) -> float:
    coin = qw.CoinMatrix.hadamard()
    phi = qw.QWInitialState.canonical()
    sim = qw.simulate_return(coin, phi, 10)
    closed = qw.return_series_qw(0.5, 10)
    residuals = []
    for n, exact in _HADAMARD_EXACT.items():
        routes = (
            sim[n],
            qw.return_lemma1(coin, phi, n // 2),
            closed[n],
            qw.return_hadamard(n),
        )
        residuals += [abs(r - exact) for r in routes]
    return _worst(*residuals)


def _check_oracle_triangle_random(rng: np.random.Generator) -> float:
    # 25 coins with 10 states each, five coins to a stack of 50 walkers.
    draws = [(qw.CoinMatrix.random(rng), [qw.QWInitialState.random(rng) for _ in range(10)]) for _ in range(25)]
    residuals = []
    for start in range(0, 25, 5):
        group = draws[start : start + 5]
        closed = np.repeat([qw.return_series_qw(coin.alpha_sq, 60) for coin, _ in group], 10, axis=0)
        residuals.append(np.abs(qw.simulate_return(*_pairs(group), 60) - closed))
    return _worst(*residuals)


def _check_state_independence(rng: np.random.Generator) -> float:
    # 5 coins with 20 states each, walked as one stack of 100.
    draws = [(qw.CoinMatrix.random(rng), [qw.QWInitialState.random(rng) for _ in range(20)]) for _ in range(5)]
    stacked = qw.simulate_return(*_pairs(draws), 60).reshape(5, 20, -1)
    return _worst(stacked.max(axis=1) - stacked.min(axis=1))


def _check_oracle_triangle_grid(rng: np.random.Generator) -> float:
    # All three routes at once across the |alpha|^2 grid, n <= 40.
    grid = (0.1, 0.3, 0.5, 0.8, 0.95)
    coins, states = [], []
    for alpha_sq in grid:
        coins.append(qw.CoinMatrix.from_alpha_sq(alpha_sq, theta=rng.uniform(0.0, 2.0 * math.pi)))
        states.append(qw.QWInitialState.random(rng))
    sims = qw.simulate_return(coins, states, 80)
    residuals = []
    for alpha_sq, coin, phi, sim in zip(grid, coins, states, sims):
        series = qw.return_series_qw(alpha_sq, 80)
        for n in range(1, 41):
            lemma = qw.return_lemma1(coin, phi, n)
            closed = series[2 * n]
            residuals += [abs(lemma - closed), abs(sim[2 * n] - closed), abs(sim[2 * n] - lemma)]
    return _worst(*residuals)


def _check_lemma_vs_bruteforce(rng: np.random.Generator) -> float:
    residuals = []
    for _ in range(10):
        coin = qw.CoinMatrix.random(rng)
        for n in range(1, 7):
            diff = qw.xi_lemma1(coin, n) - qw.xi_bruteforce(coin, n, n)
            residuals.append(float(np.max(np.abs(diff))))
    return _worst(*residuals)


def _check_three_step_listing(rng: np.random.Generator) -> float:
    coin = qw.CoinMatrix.random(rng)
    p, q, _, _ = qw.decompose(coin)
    listing = q @ q @ p + q @ p @ q + p @ q @ q
    return _worst(
        float(np.max(np.abs(qw.xi_bruteforce(coin, 0, 3) - q @ q @ q))),
        float(np.max(np.abs(qw.xi_bruteforce(coin, 1, 2) - listing))),
    )


def _check_phase_independence(rng: np.random.Generator) -> float:
    # The phase-free coin and five phased ones, walked as one stack.
    alpha_sq = rng.uniform(0.1, 0.9)
    coins = [qw.CoinMatrix.from_alpha_sq(alpha_sq)] + [
        qw.CoinMatrix.from_alpha_sq(
            alpha_sq,
            theta=rng.uniform(0.0, 2.0 * math.pi),
            alpha_phase=rng.uniform(0.0, 2.0 * math.pi),
            beta_phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        for _ in range(5)
    ]
    stacked = qw.simulate_return(coins, [qw.QWInitialState.canonical()] * len(coins), 60)
    return _worst(np.abs(stacked[1:] - stacked[0]))


def _norm_drift(source, state, step, steps: int) -> float:
    """Largest |total weight - 1| over `steps` calls `step(field, matrix)` walking `state` under `source`."""
    residuals = []

    def recorded(field, matrix):
        field = step(field, matrix)
        residuals.append(abs(field.total_probability() - 1.0))
        return field

    lattice.evolve(*lattice.stack(source, state), steps, recorded)
    return _worst(*residuals)


def _check_unitarity_long_run(rng: np.random.Generator) -> float:
    return _norm_drift(qw.CoinMatrix.random(rng), qw.QWInitialState.random(rng), qw.step, 1000)


def _check_norm_conservation(rng: np.random.Generator) -> float:
    return _norm_drift(qw.CoinMatrix.random(rng), qw.QWInitialState.random(rng), qw.step, 30)


def _check_dist_spectral_vs_lattice(rng: np.random.Generator) -> float:
    coin = qw.CoinMatrix.random(rng)
    phi = qw.QWInitialState.random(rng)
    residuals = []
    for n in (0, 1, 2, 37, 200):
        walked = qw.evolve(coin, phi, n).position_distribution()
        residuals.append(float(np.max(np.abs(qw.distribution(coin, phi, n) - walked))))
    return _worst(*residuals)


# ---------------------------------------------------------------------------
# crw checks


def _check_crw_closed_vs_simulation(rng: np.random.Generator) -> float:
    cases = [
        (crw.TransitionMatrix.random(rng), crw.CRWInitialState.random(rng)) for _ in range(50)
    ]
    # Near-degenerate delta_minus: the scaled recurrence must stay smooth.
    for sign in (1.0, -1.0):
        a = 0.6
        cases.append(
            (crw.TransitionMatrix(a=a, b=a - sign * 1e-10), crw.CRWInitialState.from_phi1(0.3))
        )
    transitions, states = zip(*cases)
    closed = [crw.return_series_crw(transition, phi_hat, 80) for transition, phi_hat in cases]
    return _worst(np.abs(crw.simulate_return_crw(transitions, states, 80) - closed))


def _check_crw_state_independence(rng: np.random.Generator) -> float:
    residuals = []
    for a in (0.2, 0.5, 0.9):
        transition = crw.TransitionMatrix.from_persistence(a, a)  # a = d
        series = [
            crw.return_series_crw(transition, crw.CRWInitialState.random(rng), 60)
            for _ in range(10)
        ]
        stacked = np.stack(series)
        residuals.append(float(np.max(stacked.max(axis=0) - stacked.min(axis=0))))
    return _worst(*residuals)


def _check_rw_reduction(rng: np.random.Generator) -> float:
    grid = (0.2, 0.5, 0.7)
    transitions = [crw.TransitionMatrix.uncorrelated(p) for p in grid]
    states = [crw.CRWInitialState.random(rng) for _ in grid]
    sims = crw.simulate_return_crw(transitions, states, 60)
    residuals = []
    for p, transition, phi_hat, sim in zip(grid, transitions, states, sims):
        series = crw.return_series_crw(transition, phi_hat, 60)
        for j in range(31):
            exact = (p * (1.0 - p)) ** j * specfun.binom(2 * j, j)
            residuals += [abs(series[2 * j] - exact), abs(sim[2 * j] - exact)]
    return _worst(*residuals)


def _check_crw_range(rng: np.random.Generator) -> float:
    residuals = [0.0]
    for _ in range(20):
        transition = crw.TransitionMatrix.random(rng)
        values = crw.return_series_crw(transition, crw.CRWInitialState.random(rng), 200)
        residuals += [float(np.max(values - 1.0)), float(np.max(-values))]
    return _worst(*residuals)


def _check_crw_sum_form(rng: np.random.Generator) -> float:
    residuals = []
    for _ in range(10):
        transition = crw.TransitionMatrix.random(rng)
        phi_hat = crw.CRWInitialState.random(rng)
        series = crw.return_series_crw(transition, phi_hat, 30)
        for n in range(1, 16):
            legendre_form = series[2 * n]
            sum_form = crw.return_sum_form_crw(transition, phi_hat, n)
            residuals.append(abs(legendre_form - sum_form) / max(abs(legendre_form), 1e-300))
    return _worst(*residuals)


def _check_crw_gf_vs_series(rng: np.random.Generator) -> float:
    residuals = []
    for _ in range(20):
        transition, phi_hat = crw.TransitionMatrix.random(rng), crw.CRWInitialState.random(rng)
        gf, closed = partial(genfunc.gf_crw, transition, phi_hat), partial(crw.return_series_crw, transition, phi_hat)
        residuals.append(_beyond_tail(*genfunc.against_series(gf, closed, [rng.uniform(-0.9, 0.9)], 1e-10)))
    return _worst(*residuals)


def _check_crw_mass_conservation(rng: np.random.Generator) -> float:
    return _norm_drift(crw.TransitionMatrix.random(rng), crw.CRWInitialState.random(rng), crw.crw_step, 30)


# ---------------------------------------------------------------------------
# genfunc checks


def _check_qw_gf_vs_series(rng: np.random.Generator) -> float:
    residuals = []
    for alpha_sq in (0.2, 0.5, 0.8):
        gf, closed = partial(genfunc.gf_qw, alpha_sq), partial(qw.return_series_qw, alpha_sq)
        residuals.append(_beyond_tail(*genfunc.against_series(gf, closed, [0.2, 0.5, 0.8], 1e-6)))
    return _worst(*residuals)


def _check_qw_gf_hadamard_limit(rng: np.random.Generator) -> float:
    zgrid = np.array([0.2, 0.3, 0.5, 0.6, 0.8])
    return _worst(np.abs(genfunc.gf_qw(0.5, zgrid) - genfunc.gf_hadamard(zgrid)))


def _legendre_product_series(x: float, z: tuple[float, ...], nmax: int, which: int) -> np.ndarray:
    """Series `which` of (sum P_n^2 z^n, sum P_n P_{n-1} z^n,
    sum n z^{n-1} P_n P_{n-1}), n >= 1, one value per z: each z's terms
    summed exactly by fsum."""
    values = specfun.legendre_range(nmax, x)
    # z^1..z^nmax as the running products z, z z, (z z) z, ...
    powers = np.cumprod(np.repeat(np.array(z)[:, None], nmax, axis=1), axis=1)
    if which == 2:  # n z^{n-1} in place of z^n
        powers = np.arange(1.0, nmax + 1) * np.hstack([np.ones((len(z), 1)), powers[:, :-1]])
    terms = powers * (values[1:] * values[1:] if which == 0 else values[1:] * values[:-1])
    return np.array([math.fsum(row) for row in terms])


# The (x, z) grid of the three Legendre product identities, x-major.
_IDENTITY_X = (-0.6, 0.0, 0.6)
_IDENTITY_Z = (0.2, 0.5, 0.8)
_IDENTITY_GRID = np.meshgrid(_IDENTITY_X, _IDENTITY_Z, indexing="ij")


def _identity_series(which: int) -> np.ndarray:
    """Series `which` of :func:`_legendre_product_series` over the identity grid."""
    return np.array([_legendre_product_series(x, _IDENTITY_Z, 400, which) for x in _IDENTITY_X])


def _check_square_legendre_identity(rng: np.random.Generator) -> float:
    x, z = _IDENTITY_GRID
    rhs = 2.0 / math.pi * specfun.script_K(x, z) - 1.0
    return _worst(np.abs(_identity_series(0) - rhs))


def _check_product_integral_identity(rng: np.random.Generator) -> float:
    # One quadrature call per x serves its whole z grid.
    rhs = np.array([2.0 * x / math.pi * genfunc.integral_E_term(x, np.array(_IDENTITY_Z)) for x in _IDENTITY_X])
    return _worst(np.abs(_identity_series(1) - rhs))


def _check_weighted_product_identity(rng: np.random.Generator) -> float:
    x, z = _IDENTITY_GRID
    rhs = 2.0 * x * specfun.script_E(x, z) / (math.pi * (1.0 - z))
    return _worst(np.abs(_identity_series(2) - rhs))


def _check_kernel_derivatives(rng: np.random.Generator) -> float:
    h = 1e-5
    x, z = np.meshgrid([-0.6, 0.3, 0.6], [0.2, 0.5, 0.8], indexing="ij")
    sk = specfun.script_K(x, z)
    se = specfun.script_E(x, z)
    dz_exact = ((1.0 + z) * se - (1.0 - z) * sk) / (2.0 * z * (1.0 - z))
    dz_num = (specfun.script_K(x, z + h) - specfun.script_K(x, z - h)) / (2.0 * h)
    dx_exact = x * (se - sk) / (x * x - 1.0)
    dx_num = (specfun.script_K(x + h, z) - specfun.script_K(x - h, z)) / (2.0 * h)
    return _worst(np.abs(dz_num - dz_exact) / np.abs(dz_exact), np.abs(dx_num - dx_exact) / np.abs(dx_exact))


def _check_polya2d(rng: np.random.Generator) -> float:
    series = genfunc.polya2d_series(400)
    zgrid = np.array([0.3, 0.6])
    values, tails = np.array([genfunc.series_sum(series, z) for z in zgrid.tolist()]).T
    return _worst(_beyond_tail(genfunc.polya2d_gf(zgrid), values, tails))


def _check_polya3d(rng: np.random.Generator) -> float:
    g1, f1 = genfunc.polya3d_constants(tol=1e-8)
    g2, f2 = genfunc.polya3d_constants(tol=5e-9)
    # A recurrence probability outside (0, 1), NaN included, fails outright.
    in_range = all(0.0 < f < 1.0 for f in (f1, f2))
    return _worst(abs(g1 - g2), 0.0 if in_range else 1.0)


# ---------------------------------------------------------------------------
# the check table: name -> (suite, residual of a generator, tolerance), in suite order

CHECKS = {
    "legendre-three-term-recurrence": ("specfun", _check_legendre_recurrence, 1e-12),
    "jacobi-legendre-difference-identity": ("specfun", _check_jacobi_difference_identity, 1e-11),
    "binomial-sum-vs-jacobi-legendre": ("specfun", _check_geometric_sum_identities, 1e-9),
    "elliptic-agm-vs-quadrature": ("specfun", _check_elliptic_vs_quadrature, 1e-10),
    "landen-transformation": ("specfun", _check_landen, 1e-12),
    "kernel-hadamard-reduction": ("specfun", _check_kernel_reduction, 1e-12),
    "hadamard-return-three-routes": ("qw", _check_hadamard_three_routes, 1e-10),
    "simulation-vs-closed-form-random-coins": ("qw", _check_oracle_triangle_random, 1e-10),
    "return-series-initial-state-independence": ("qw", _check_state_independence, 1e-10),
    "oracle-triangle-simulation-lemma-closed": ("qw", _check_oracle_triangle_grid, 1e-10),
    "path-sum-lemma-vs-enumeration": ("qw", _check_lemma_vs_bruteforce, 1e-12),
    "three-step-word-listing": ("qw", _check_three_step_listing, 1e-14),
    "coin-phase-independence": ("qw", _check_phase_independence, 1e-10),
    "unitarity-1000-steps": ("qw", _check_unitarity_long_run, 1e-10),
    "norm-conservation-30-steps": ("qw", _check_norm_conservation, 1e-12),
    "dist-spectral-vs-lattice": ("qw", _check_dist_spectral_vs_lattice, 1e-13),
    "crw-closed-form-vs-simulation": ("crw", _check_crw_closed_vs_simulation, 1e-12),
    "crw-equal-persistence-state-independence": ("crw", _check_crw_state_independence, 1e-12),
    "uncorrelated-reduction-to-random-walk": ("crw", _check_rw_reduction, 1e-12),
    "crw-return-values-within-unit-interval": ("crw", _check_crw_range, 0.0),
    "crw-binomial-sum-vs-legendre-form": ("crw", _check_crw_sum_form, 1e-11),
    "crw-generating-function-vs-series": ("crw", _check_crw_gf_vs_series, 1e-10),
    "crw-mass-conservation-30-steps": ("crw", _check_crw_mass_conservation, 1e-12),
    "qw-generating-function-vs-series": ("genfunc", _check_qw_gf_vs_series, 1e-6),
    "qw-generating-function-hadamard-limit": ("genfunc", _check_qw_gf_hadamard_limit, 1e-10),
    "squared-legendre-generating-function": ("genfunc", _check_square_legendre_identity, 1e-8),
    "legendre-product-integral-identity": ("genfunc", _check_product_integral_identity, 1e-8),
    "weighted-legendre-product-identity": ("genfunc", _check_weighted_product_identity, 1e-8),
    "kernel-derivative-relations": ("genfunc", _check_kernel_derivatives, 1e-6),
    "polya-2d-generating-function-vs-series": ("genfunc", _check_polya2d, 1e-9),
    "polya-3d-constant-stability": ("genfunc", _check_polya3d, 1e-6),
}

SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS.values())) + ("all",)


def run_check(name: str, seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one check on its own generator, seeded by `seed` and the check's name.

    crc32 and not hash(): str hashes are salted per process.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    _, residual, tolerance = CHECKS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return CheckResult(name, residual(rng), tolerance)


def run_suite(tag: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one named suite (or 'all') and return its check results."""
    if tag not in SUITE_NAMES:
        raise ValueError(f"unknown suite {tag!r}; choose from {', '.join(SUITE_NAMES)}")
    return [run_check(name, seed) for name, (suite, _, _) in CHECKS.items() if tag in (suite, "all")]
