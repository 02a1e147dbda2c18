"""Verification suites: a NaN residual must fail the check it feeds."""

import math

import numpy as np
import pytest

from walkers_return import crw, genfunc, qw, verify


def _nan(*args, **kwargs):
    return math.nan


@pytest.mark.parametrize(
    "module, route, check",
    [
        (qw, "return_hadamard", verify._check_hadamard_three_routes),
        (qw, "return_series_qw", verify._check_oracle_triangle_random),
        (crw, "return_sum_form_crw", verify._check_crw_sum_form),
        (genfunc, "gf_crw", verify._check_crw_gf_vs_series),
        (genfunc, "polya2d_gf", verify._check_polya2d),
    ],
)
def test_nan_from_a_route_fails_its_check(monkeypatch, module, route, check):
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    assert check(rng).passed
    monkeypatch.setattr(module, route, _nan)
    result = check(np.random.default_rng(verify.DEFAULT_SEED))
    assert math.isnan(result.residual)
    assert not result.passed


@pytest.mark.parametrize("walker", [0, 7, 19])
def test_one_nan_walker_in_a_stack_fails_state_independence(monkeypatch, walker):
    walk = qw.simulate_return

    def one_nan_walker(coin, phi, nmax):
        values = walk(coin, phi, nmax)
        values[walker, 10] = math.nan
        return values

    monkeypatch.setattr(qw, "simulate_return", one_nan_walker)
    result = verify._check_state_independence(np.random.default_rng(verify.DEFAULT_SEED))
    assert math.isnan(result.residual)
    assert not result.passed


def test_worst_propagates_nan_in_any_position():
    assert verify._worst(1.0, 3.0, 2.0) == 3.0
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan)):
        assert math.isnan(verify._worst(*values))


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 2, 3, 12345])
def test_dist_spectral_check_passes(seed):
    result = verify._check_dist_spectral_vs_lattice(np.random.default_rng(seed))
    assert result.name == "dist-spectral-vs-lattice"
    assert result.passed


def test_suites_hold_thirty_one_checks():
    assert sum(len(checks) for checks in verify._SUITES.values()) == 31
