"""The public surface: every name an `__all__` exports resolves, and every
count parameter rejects a non-integer or negative value by name."""

import importlib
import pkgutil

import pytest

import walkers_return
from walkers_return import crw, genfunc, qw, specfun

# `__main__` runs the CLI when imported, so it is no importable module.
MODULES = ["walkers_return"] + [
    f"walkers_return.{info.name}"
    for info in pkgutil.iter_modules(walkers_return.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()


_COIN, _PHI = qw.CoinMatrix.hadamard(), qw.QWInitialState.canonical()
_TRANSITION, _PHI_HAT = crw.TransitionMatrix(a=0.7, b=0.4), crw.CRWInitialState.from_phi1(0.3)

# Every public step count or degree: the parameter's name and a call that passes it.
COUNT_TAKERS = {
    "return_series_qw": ("nmax", lambda n: qw.return_series_qw(0.3, n)),
    "return_closed_qw": ("n", lambda n: qw.return_closed_qw(0.3, n)),
    "return_hadamard": ("n", qw.return_hadamard),
    "simulate_return": ("nmax", lambda n: qw.simulate_return(_COIN, _PHI, n)),
    "evolve": ("n", lambda n: qw.evolve(_COIN, _PHI, n)),
    "distribution": ("n", lambda n: qw.distribution(_COIN, _PHI, n)),
    "xi_lemma1": ("n", lambda n: qw.xi_lemma1(_COIN, n)),
    "return_lemma1": ("n", lambda n: qw.return_lemma1(_COIN, _PHI, n)),
    "xi_bruteforce l": ("l", lambda n: qw.xi_bruteforce(_COIN, n, 2)),
    "xi_bruteforce m": ("m", lambda n: qw.xi_bruteforce(_COIN, 2, n)),
    "return_series_crw": ("nmax", lambda n: crw.return_series_crw(_TRANSITION, _PHI_HAT, n)),
    "return_closed_crw": ("n", lambda n: crw.return_closed_crw(_TRANSITION, _PHI_HAT, n)),
    "return_sum_form_crw": ("n", lambda n: crw.return_sum_form_crw(_TRANSITION, _PHI_HAT, n)),
    "simulate_return_crw": ("nmax", lambda n: crw.simulate_return_crw(_TRANSITION, _PHI_HAT, n)),
    "evolve_crw": ("n", lambda n: crw.evolve_crw(_TRANSITION, _PHI_HAT, n)),
    "polya2d_series": ("nmax", genfunc.polya2d_series),
    "legendre_eval": ("n", lambda n: specfun.legendre_eval(n, 0.3)),
    "legendre_range": ("n", lambda n: specfun.legendre_range(n, 0.3)),
    "jacobi10_eval": ("n", lambda n: specfun.jacobi10_eval(n, 0.3)),
    "jacobi10_range": ("n", lambda n: specfun.jacobi10_range(n, 0.3)),
    "scaled_legendre_pair": ("n", lambda n: specfun.scaled_legendre_pair(n, 0.3, 0.5)),
    "central_binomial_ratios": ("jmax", specfun.central_binomial_ratios),
    "binom n": ("n", lambda n: specfun.binom(n, 0)),
    "binom k": ("k", lambda k: specfun.binom(5, k)),
}


@pytest.mark.parametrize("bad", [4.0, -1, True])
@pytest.mark.parametrize("taker", COUNT_TAKERS)
def test_a_bad_count_is_a_value_error_that_names_it(taker, bad):
    parameter, call = COUNT_TAKERS[taker]
    with pytest.raises(ValueError, match=f"^{parameter} must be "):
        call(bad)
