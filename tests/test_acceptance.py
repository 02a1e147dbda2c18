"""Acceptance criteria, one test per criterion.

Each test pins the tolerance it was specified with, measures its own
runtime against the stated budget, and prints one summary line; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion report.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from walkers_return import crw, genfunc, qw, specfun, verify


def _report(criterion, elapsed, budget, detail):
    print(f"[PASS] criterion {criterion}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _named(results, name):
    found = [r for r in results if r.name == name]
    assert len(found) == 1, f"expected one check named {name}, got {len(found)}"
    return found[0]


def test_criterion_1_hadamard_three_routes():
    # The check compares simulation, path-sum lemma, closed form and the
    # C(2m, m) formula with the exact values at n = 0, 2, ..., 10; each
    # route within 5e-11 of the exact value keeps any two within 1e-10.
    budget = 1.0
    with _Timer() as t:
        result = _named(verify.run_suite("qw"), "hadamard-return-three-routes")
        assert result.residual <= 5e-11
    assert t.elapsed < budget
    _report(1, t.elapsed, budget, f"Hadamard return values n<=10, every route within {result.residual:.1e}")


def test_criterion_2_oracle_triangle_random_coins():
    budget = 10.0
    with _Timer() as t:
        rng = np.random.default_rng(101)
        worst_closed = 0.0
        worst_spread = 0.0
        for _ in range(25):
            coin = qw.CoinMatrix.random(rng)
            closed = qw.return_series_qw(coin.alpha_sq, 60)
            runs = []
            for _ in range(10):
                sim = qw.simulate_return(coin, qw.QWInitialState.random(rng), 60)
                runs.append(sim)
                worst_closed = max(worst_closed, float(np.max(np.abs(sim - closed))))
            stacked = np.stack(runs)
            worst_spread = max(
                worst_spread, float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
            )
        assert worst_closed < 1e-10
        assert worst_spread < 1e-10
    assert t.elapsed < budget
    _report(
        2, t.elapsed, budget,
        f"25 coins x 10 states, n<=60: closed-form dev {worst_closed:.1e}, state spread {worst_spread:.1e}",
    )


def test_criterion_3_lemma_exactness():
    budget = 5.0
    with _Timer() as t:
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(10):
            coin = qw.CoinMatrix.random(rng)
            for n in range(1, 7):
                diff = np.abs(qw.xi_lemma1(coin, n).matrix - qw.xi_bruteforce(coin, n, n).matrix)
                worst = max(worst, float(np.max(diff)))
        assert worst < 1e-12
        # the three-step listing Q^2 P + QPQ + PQ^2
        coin = qw.CoinMatrix.random(rng)
        p, q, _, _ = qw.decompose(coin)
        listing = q @ q @ p + q @ p @ q + p @ q @ q
        assert np.max(np.abs(qw.xi_bruteforce(coin, 1, 2).matrix - listing)) < 1e-14
    assert t.elapsed < budget
    _report(3, t.elapsed, budget, f"path-sum lemma vs enumeration, n<=6: max entry dev {worst:.1e}")


def test_criterion_4_qw_generating_function():
    # The series check runs the 3x3 grid |alpha|^2, z in {0.2, 0.5, 0.8};
    # the Hadamard limit runs z in {0.2, 0.3, 0.5, 0.6, 0.8}.
    budget = 30.0
    with _Timer() as t:
        results = verify.run_suite("genfunc")
        series = _named(results, "qw-generating-function-vs-series")
        assert series.tolerance == 1e-6
        assert series.residual <= 1e-6
        hadamard = _named(results, "qw-generating-function-hadamard-limit")
        assert hadamard.residual < 1e-10
    assert t.elapsed < budget
    _report(
        4, t.elapsed, budget,
        f"3x3 grid vs series, excess over tail {series.residual:.1e}; Hadamard limit {hadamard.residual:.1e}",
    )


def test_criterion_5_proof_identity_suite():
    budget = 20.0
    names_and_tols = {
        "squared-legendre-generating-function": 1e-8,
        "legendre-product-integral-identity": 1e-8,
        "weighted-legendre-product-identity": 1e-8,
        "kernel-derivative-relations": 1e-6,
        "binomial-sum-vs-jacobi-legendre": 1e-9,
        "jacobi-legendre-difference-identity": 1e-11,
        "landen-transformation": 1e-12,
    }
    with _Timer() as t:
        results = {r.name: r for r in verify.run_suites()}
        for name, tol in names_and_tols.items():
            assert name in results, f"missing identity check {name}"
            result = results[name]
            assert result.tolerance == tol
            assert result.residual <= tol, f"{name}: {result.residual} > {tol}"
    assert t.elapsed < budget
    _report(5, t.elapsed, budget, f"{len(names_and_tols)} identity families at spec tolerances")


def test_criterion_6_crw():
    budget = 15.0
    with _Timer() as t:
        rng = np.random.default_rng(106)
        worst_sim = 0.0
        for _ in range(50):
            transition = crw.TransitionMatrix.random(rng)
            state = crw.CRWInitialState.random(rng)
            sim = crw.simulate_return_crw(transition, state, 80)
            closed = crw.return_series_crw(transition, state, 80)
            worst_sim = max(worst_sim, float(np.max(np.abs(sim - closed))))
        assert worst_sim < 1e-12

        spread = 0.0
        equal = crw.TransitionMatrix.from_persistence(0.65, 0.65)
        runs = np.stack(
            [crw.return_series_crw(equal, crw.CRWInitialState.random(rng), 60) for _ in range(10)]
        )
        spread = float(np.max(runs.max(axis=0) - runs.min(axis=0)))
        assert spread < 1e-12

        worst_rw = 0.0
        for p in (0.2, 0.5, 0.7):
            series = crw.return_series_crw(
                crw.TransitionMatrix.uncorrelated(p), crw.CRWInitialState.from_phi1(0.3), 60
            )
            for j in range(31):
                exact = (p * (1 - p)) ** j * specfun.binom(2 * j, j)
                worst_rw = max(worst_rw, abs(series[2 * j] - exact))
        assert worst_rw < 1e-12

        worst_gf = 0.0
        for _ in range(20):
            transition = crw.TransitionMatrix.random(rng)
            state = crw.CRWInitialState.random(rng)
            z = float(rng.uniform(-0.9, 0.9))
            closed_gf = genfunc.gf_crw(transition, state, z)
            series = crw.return_series_crw(transition, state, genfunc.truncation_for(z, 1e-10))
            ev = genfunc.evaluate_vs_series(closed_gf, series, z)
            assert ev.abs_err <= 1e-10 + ev.tail_bound
            worst_gf = max(worst_gf, ev.abs_err)
    assert t.elapsed < budget
    _report(
        6, t.elapsed, budget,
        f"closed=sim {worst_sim:.1e}, a=d spread {spread:.1e}, rw branch {worst_rw:.1e}, gf {worst_gf:.1e}",
    )


def test_criterion_7_polya_baselines():
    budget = 10.0
    with _Timer() as t:
        series = genfunc.polya2d_series(400)
        for j in range(201):
            # C(2j, j) exceeds 2^53 from j = 29 on, so evaluation order
            # costs an ulp; compare at float precision, not bit-for-bit.
            assert series[2 * j] == pytest.approx(
                specfun.binom(2 * j, j) ** 2 / 16.0**j, rel=1e-13
            )
        for z in (0.3, 0.6):
            ev = genfunc.evaluate_vs_series(genfunc.polya2d_gf(z), series, z)
            assert ev.abs_err <= 1e-9 + ev.tail_bound
        g1, f1 = genfunc.polya3d_constants(tol=1e-8)
        g2, f2 = genfunc.polya3d_constants(tol=5e-9)
        assert abs(g1 - g2) < 1e-6
        assert 0.0 < f1 < 1.0
        assert 0.0 < f2 < 1.0
    assert t.elapsed < budget
    _report(7, t.elapsed, budget, f"2-D gf ok; 3-D constant G={g1:.9f} halving dev {abs(g1-g2):.1e}")


def test_criterion_8_verify_all_single_command():
    budget = 60.0
    # A subprocess does not inherit pytest's import path: hand it the package.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with _Timer() as t:
        proc = subprocess.run(
            [sys.executable, "-m", "walkers_return", "verify", "all"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[FAIL]" not in proc.stdout
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[PASS]")]
        assert len(lines) >= 30
    assert t.elapsed < budget
    _report(8, t.elapsed, budget, f"`verify all` exit 0 with {len(lines)} residual lines")
