"""Verification checks: each runs alone on its own generator, and a NaN
residual fails the check it feeds."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from walkers_return import crw, genfunc, lattice, qw, verify

SEEDS = [verify.DEFAULT_SEED, 1, 2, 3, 12345]


def _name(check):
    """The table name of a `_check_*` residual function."""
    return next(name for name, (_, residual, _) in verify.CHECKS.items() if residual is check)


def _nan_from(route):
    """`route` with every value it returns replaced by NaN, in the same shape."""
    return lambda *args, **kwargs: route(*args, **kwargs) * math.nan


@pytest.mark.parametrize(
    "module, route, check",
    [
        (qw, "return_hadamard", verify._check_hadamard_three_routes),
        (qw, "return_series_qw", verify._check_oracle_triangle_random),
        (qw, "return_lemma1", verify._check_oracle_triangle_grid),
        (crw, "return_sum_form_crw", verify._check_crw_sum_form),
        (crw, "simulate_return_crw", verify._check_crw_closed_vs_simulation),
        (genfunc, "gf_crw", verify._check_crw_gf_vs_series),
        (genfunc, "gf_qw", verify._check_qw_gf_vs_series),
        (qw, "return_series_qw", verify._check_qw_gf_vs_series),
        (genfunc, "polya2d_gf", verify._check_polya2d),
    ],
)
def test_nan_from_a_route_fails_its_check(monkeypatch, module, route, check):
    assert verify.run_check(_name(check)).passed
    monkeypatch.setattr(module, route, _nan_from(getattr(module, route)))
    result = verify.run_check(_name(check))
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
    result = verify.run_check("return-series-initial-state-independence")
    assert math.isnan(result.residual)
    assert not result.passed


def test_worst_propagates_nan_in_any_position():
    assert verify._worst(1.0, 3.0, 2.0) == 3.0
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan)):
        assert math.isnan(verify._worst(*values))


def test_a_corrupted_step_fails_both_conservation_checks(monkeypatch):
    # The parity checks these replaced read sites the field never stores,
    # and passed with every stored value overwritten.  Both model steps are
    # bindings of lattice.shift, so each is patched under its own name.
    shift = lattice.shift

    def corrupted(field, matrix):
        new = shift(field, matrix)
        new.packed[...] = 7.0
        return new

    monkeypatch.setattr(qw, "step", corrupted)
    monkeypatch.setattr(crw, "crw_step", corrupted)
    for name in ("norm-conservation-30-steps", "crw-mass-conservation-30-steps"):
        assert not verify.run_check(name).passed, name


@pytest.mark.parametrize("seed", SEEDS)
def test_dist_spectral_check_passes(seed):
    result = verify.run_check("dist-spectral-vs-lattice", seed)
    assert result.name == "dist-spectral-vs-lattice"
    assert result.passed


def test_suites_hold_thirty_one_checks():
    assert len(verify.CHECKS) == 31
    assert verify.SUITE_NAMES == ("specfun", "qw", "crw", "genfunc", "all")


def _bits(results):
    return {r.name: (r.residual.hex(), r.tolerance) for r in results}


@pytest.mark.parametrize("seed", SEEDS)
def test_a_check_run_alone_equals_its_suite_and_all_entries(seed):
    """Bit for bit, whatever runs before it: the checks alone run last to
    first, and the suites run in reverse order."""
    alone = _bits(verify.run_check(name, seed) for name in reversed(verify.CHECKS))
    suites = _bits(r for tag in reversed(verify.SUITE_NAMES[:-1]) for r in verify.run_suite(tag, seed))
    everything = verify.run_suite("all", seed)
    assert [r.name for r in everything] == list(verify.CHECKS)
    assert alone == suites == _bits(everything)
    assert all(r.passed for r in everything), [r for r in everything if not r.passed]
    # No report reads residual=-0.000e+00.
    assert [r.name for r in everything if math.copysign(1.0, r.residual) < 0] == []


# float.hex of every residual at DEFAULT_SEED.  A change that moves one
# bit of a route moves its residual; a pin changes only with a reason.
PINNED_RESIDUALS = {
    "legendre-three-term-recurrence": "0x1.0000000000000p-48",
    "jacobi-legendre-difference-identity": "0x1.f000000000000p-50",
    "binomial-sum-vs-jacobi-legendre": "0x1.4f61cbf89a867p-46",
    "elliptic-agm-vs-quadrature": "0x1.0000000000000p-51",
    "landen-transformation": "0x1.8100000000000p-42",
    "kernel-hadamard-reduction": "0x1.0000000000000p-52",
    "hadamard-return-three-routes": "0x1.0000000000000p-52",
    "simulation-vs-closed-form-random-coins": "0x1.4000000000000p-50",
    "return-series-initial-state-independence": "0x1.4000000000000p-50",
    "oracle-triangle-simulation-lemma-closed": "0x1.8000000000000p-52",
    "path-sum-lemma-vs-enumeration": "0x1.c0b9a2aeb49acp-51",
    "three-step-word-listing": "0x1.1e3779b97f4a8p-54",
    "coin-phase-independence": "0x1.4000000000000p-54",
    "unitarity-1000-steps": "0x1.4700000000000p-43",
    "norm-conservation-30-steps": "0x1.5800000000000p-47",
    "dist-spectral-vs-lattice": "0x1.0000000000000p-50",
    "crw-closed-form-vs-simulation": "0x1.2e00000000000p-48",
    "crw-equal-persistence-state-independence": "0x1.8000000000000p-52",
    "uncorrelated-reduction-to-random-walk": "0x1.0000000000000p-55",
    "crw-return-values-within-unit-interval": "0x0.0p+0",
    "crw-binomial-sum-vs-legendre-form": "0x1.b9ae2607b6926p-47",
    "crw-generating-function-vs-series": "0x0.0p+0",
    "crw-mass-conservation-30-steps": "0x1.0000000000000p-52",
    "qw-generating-function-vs-series": "0x0.0p+0",
    "qw-generating-function-hadamard-limit": "0x0.0p+0",
    "squared-legendre-generating-function": "0x1.8000000000000p-53",
    "legendre-product-integral-identity": "0x1.0000000000000p-53",
    "weighted-legendre-product-identity": "0x1.0000000000000p-51",
    "kernel-derivative-relations": "0x1.18d97b8932ee8p-30",
    "polya-2d-generating-function-vs-series": "0x1.0000000000000p-52",
    "polya-3d-constant-stability": "0x1.0c31700000000p-32",
}


def test_every_residual_keeps_its_pinned_bits():
    results = verify.run_suite("all")
    assert {r.name: r.residual.hex() for r in results} == PINNED_RESIDUALS


# float.hex of the conservation residuals at more seeds: the lattice walks
# under them, and any bit a step moves moves one of these.
PINNED_CONSERVATION = {
    1: ("0x1.8b00000000000p-43", "0x1.8000000000000p-50", "0x1.e000000000000p-50"),
    2: ("0x1.d000000000000p-45", "0x1.4000000000000p-50", "0x1.0000000000000p-50"),
    3: ("0x1.5000000000000p-45", "0x1.0000000000000p-51", "0x1.0000000000000p-52"),
    7: ("0x1.1000000000000p-44", "0x1.e000000000000p-50", "0x1.0000000000000p-50"),
}


@pytest.mark.parametrize("seed", list(PINNED_CONSERVATION))
def test_conservation_residuals_keep_their_pinned_bits(seed):
    names = ("unitarity-1000-steps", "norm-conservation-30-steps", "crw-mass-conservation-30-steps")
    assert tuple(verify.run_check(name, seed).residual.hex() for name in names) == PINNED_CONSERVATION[seed]


# float.hex of the other checks that walk the lattice, at the same seeds,
# in the order of LATTICE_CHECKS.
LATTICE_CHECKS = (
    "hadamard-return-three-routes",
    "simulation-vs-closed-form-random-coins",
    "return-series-initial-state-independence",
    "oracle-triangle-simulation-lemma-closed",
    "coin-phase-independence",
    "dist-spectral-vs-lattice",
    "crw-closed-form-vs-simulation",
    "uncorrelated-reduction-to-random-walk",
)
PINNED_LATTICE = {
    1: (
        "0x1.0000000000000p-52", "0x1.7000000000000p-50", "0x1.0000000000000p-50", "0x1.c000000000000p-51",
        "0x1.c000000000000p-51", "0x1.f800000000000p-51", "0x1.6400000000000p-49", "0x1.0000000000000p-55",
    ),
    2: (
        "0x1.0000000000000p-52", "0x1.c000000000000p-51", "0x1.c000000000000p-51", "0x1.e000000000000p-51",
        "0x1.0000000000000p-51", "0x1.7400000000000p-50", "0x1.4800000000000p-50", "0x1.0000000000000p-55",
    ),
    3: (
        "0x1.0000000000000p-52", "0x1.1000000000000p-50", "0x1.0000000000000p-50", "0x1.a000000000000p-51",
        "0x1.4000000000000p-52", "0x1.c000000000000p-51", "0x1.b000000000000p-51", "0x1.0000000000000p-55",
    ),
    7: (
        "0x1.0000000000000p-52", "0x1.c000000000000p-51", "0x1.0000000000000p-50", "0x1.4000000000000p-51",
        "0x1.0000000000000p-53", "0x1.a400000000000p-51", "0x1.3400000000000p-50", "0x1.0000000000000p-55",
    ),
}


@pytest.mark.parametrize("seed", list(PINNED_LATTICE))
def test_lattice_residuals_keep_their_pinned_bits(seed):
    assert tuple(verify.run_check(name, seed).residual.hex() for name in LATTICE_CHECKS) == PINNED_LATTICE[seed]


# sha256 of the float.hex of all 200 path-sum lemma values the oracle
# triangle reads at DEFAULT_SEED; its pinned residual covers only their worst.
PINNED_LEMMA_VALUES_SHA256 = "67ff0d67208d64c09eb1adb13f2bf4514074dea7a09d616d1e6334cada97bb82"


def test_oracle_triangle_lemma_values_keep_their_bits(monkeypatch):
    values = []
    lemma = qw.return_lemma1

    def recorded(*args):
        values.append(lemma(*args))
        return values[-1]

    monkeypatch.setattr(qw, "return_lemma1", recorded)
    assert verify.run_check("oracle-triangle-simulation-lemma-closed").passed
    assert len(values) == 200
    digest = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == PINNED_LEMMA_VALUES_SHA256


# sha256 of the float.hex of every value the generating functions and
# series sums return inside each generating-function-vs-series check, in
# call order, at the seeds below: the residuals are floored at 0, so their
# pins cannot see a bit of G, S or the tail bound move.  The qw check draws
# nothing, so its digest is the same at every seed.
PINNED_GF_SERIES_SHA256 = {
    "qw-generating-function-vs-series": dict.fromkeys(
        (verify.DEFAULT_SEED, 1, 2, 3, 7), "7cc333187574dbf196dce76eabaa834e4e09eefa22d648387c1315bdc9bf2c2f"
    ),
    "crw-generating-function-vs-series": {
        verify.DEFAULT_SEED: "0d42e60bebfc50cff1604d96b28bc2afa6236eecfcdb7d13873f4647e616955b",
        1: "8ced150246239d4f9e984299359ff42cfadc9f106bdab5b35d18bc67a26cb6ad",
        2: "9eeb4dd30829c9fe5b2ecf837809d37d3d17b2ae520fb1996c4b5a50207328e8",
        3: "897be57b67d17490b1fe3f54904f0f092d5cb66aea90997921caff54ae18bc1d",
        7: "006eb76d75bff418487dd12f9bdbca778631a518c0bb2333cb49ff64a0d7e634",
    },
}


@pytest.mark.parametrize(
    "name, seed", [(name, seed) for name, pins in PINNED_GF_SERIES_SHA256.items() for seed in pins]
)
def test_generating_function_vs_series_values_keep_their_bits(monkeypatch, name, seed):
    values = []

    def recorded(route):
        def call(*args):
            result = route(*args)
            values.extend(np.ravel(result).tolist())
            return result

        return call

    for route in ("series_sum", "gf_qw", "gf_crw"):
        monkeypatch.setattr(genfunc, route, recorded(getattr(genfunc, route)))
    assert verify.run_check(name, seed).passed
    digest = hashlib.sha256(",".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == PINNED_GF_SERIES_SHA256[name][seed]


def test_each_check_draws_its_own_stream(monkeypatch):
    for name, (suite, _, tolerance) in verify.CHECKS.items():
        monkeypatch.setitem(verify.CHECKS, name, (suite, lambda rng: rng.random(), tolerance))
    assert len({r.residual for r in verify.run_suite("all")}) == 31


def test_a_check_draws_the_same_in_every_process():
    # A stream keyed by the salted str hash would differ from process to process.
    name = "unitarity-1000-steps"
    code = f"from walkers_return import verify; print(verify.run_check({name!r}).residual.hex())"
    # The child imports the package from wherever this process does.
    paths = os.pathsep.join(sys.path)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=paths, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for hash_seed in ("1", "2")
    }
    assert outputs == {verify.run_check(name).residual.hex()}


def test_unknown_check_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        verify.run_check("no-such-check")
