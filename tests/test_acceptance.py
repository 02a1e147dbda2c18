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

from walkers_return import genfunc, qw, specfun, verify


def _report(criterion, elapsed, budget, detail):
    print(f"[PASS] criterion {criterion}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_hadamard_three_routes():
    # The check compares simulation, path-sum lemma, closed form and the
    # C(2m, m) formula with the exact values at n = 0, 2, ..., 10; each
    # route within 5e-11 of the exact value keeps any two within 1e-10.
    budget = 1.0
    with _Timer() as t:
        result = verify.run_check("hadamard-return-three-routes")
        assert result.residual <= 5e-11
    assert t.elapsed < budget
    _report(1, t.elapsed, budget, f"Hadamard return values n<=10, every route within {result.residual:.1e}")


def test_criterion_2_oracle_triangle_random_coins():
    # No check measures the per-coin spread over a coin's states, so it is
    # measured here, on 25 coins x 10 states of its own at seed 101.
    budget = 10.0
    with _Timer() as t:
        result = verify.run_check("simulation-vs-closed-form-random-coins", seed=101)
        assert result.tolerance == 1e-10
        assert result.residual < 1e-10
        rng = np.random.default_rng(101)
        worst_spread = 0.0
        for _ in range(25):
            coin = qw.CoinMatrix.random(rng)
            runs = np.stack(
                [qw.simulate_return(coin, qw.QWInitialState.random(rng), 60) for _ in range(10)]
            )
            worst_spread = max(worst_spread, float(np.max(runs.max(axis=0) - runs.min(axis=0))))
        assert worst_spread < 1e-10
    assert t.elapsed < budget
    _report(
        2, t.elapsed, budget,
        f"25 coins x 10 states, n<=60: closed-form dev {result.residual:.1e}, state spread {worst_spread:.1e}",
    )


def test_criterion_3_lemma_exactness():
    # 10 random coins at n <= 6, then the listings Q^3 and Q^2 P + QPQ + PQ^2.
    budget = 5.0
    with _Timer() as t:
        lemma = verify.run_check("path-sum-lemma-vs-enumeration", seed=103)
        assert lemma.tolerance == 1e-12
        assert lemma.residual < 1e-12
        assert verify.run_check("three-step-word-listing", seed=103).residual < 1e-14
    assert t.elapsed < budget
    _report(3, t.elapsed, budget, f"path-sum lemma vs enumeration, n<=6: max entry dev {lemma.residual:.1e}")


def test_criterion_4_qw_generating_function():
    # The series check runs the 3x3 grid |alpha|^2, z in {0.2, 0.5, 0.8};
    # the Hadamard limit runs z in {0.2, 0.3, 0.5, 0.6, 0.8}.
    budget = 30.0
    with _Timer() as t:
        series = verify.run_check("qw-generating-function-vs-series")
        assert series.tolerance == 1e-6
        assert series.residual <= 1e-6
        hadamard = verify.run_check("qw-generating-function-hadamard-limit")
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
        results = {r.name: r for r in verify.run_suite("all")}
        for name, tol in names_and_tols.items():
            assert name in results, f"missing identity check {name}"
            result = results[name]
            assert result.tolerance == tol
            assert result.residual <= tol, f"{name}: {result.residual} > {tol}"
    assert t.elapsed < budget
    _report(5, t.elapsed, budget, f"{len(names_and_tols)} identity families at spec tolerances")


def test_criterion_6_crw():
    # The closed-form check draws 50 random walks, plus two with
    # delta_minus = +-1e-10.
    budget = 15.0
    with _Timer() as t:
        sim = verify.run_check("crw-closed-form-vs-simulation", seed=106)
        assert sim.residual < 1e-12
        spread = verify.run_check("crw-equal-persistence-state-independence", seed=106)
        assert spread.residual < 1e-12
        rw = verify.run_check("uncorrelated-reduction-to-random-walk", seed=106)
        assert rw.residual < 1e-12
        # Closed-form generating function minus its series, beyond the tail bound.
        gf = verify.run_check("crw-generating-function-vs-series", seed=106)
        assert gf.tolerance == 1e-10
        assert gf.residual <= 1e-10
    assert t.elapsed < budget
    _report(
        6, t.elapsed, budget,
        f"closed=sim {sim.residual:.1e}, a=d spread {spread.residual:.1e}, "
        f"rw branch {rw.residual:.1e}, gf excess over tail {gf.residual:.1e}",
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
        # The same 400-term series against (2/pi) K(z) at z = 0.3 and 0.6.
        assert verify.run_check("polya-2d-generating-function-vs-series").residual <= 1e-9
        # G at tol 1e-8 and 5e-9; a recurrence probability outside (0, 1)
        # makes the residual 1.
        polya3d = verify.run_check("polya-3d-constant-stability")
        assert polya3d.residual < 1e-6
    assert t.elapsed < budget
    _report(7, t.elapsed, budget, f"2-D gf ok; 3-D constant halving dev {polya3d.residual:.1e}")


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
