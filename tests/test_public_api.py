"""The public surface: every name an `__all__` exports resolves, every
count parameter rejects a non-integer or negative value by name, and the
README's library example runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import walkers_return
from walkers_return import crw, genfunc, lattice, qw, specfun

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
    "lattice.evolve": ("n", lambda n: lattice.evolve(*lattice.stack(_COIN, _PHI), n, qw.step)),
    "lattice.return_values": ("nmax", lambda n: lattice.return_values(*lattice.stack(_COIN, _PHI), n, qw.step)),
    "polya2d_series": ("nmax", genfunc.polya2d_series),
    "legendre_eval": ("n", lambda n: specfun.legendre_eval(n, 0.3)),
    "legendre_range": ("n", lambda n: specfun.legendre_range(n, 0.3)),
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


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "simulate_return" in code
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("name", ["walkers_return.verify", "walkers_return.genfunc"])
def test_the_library_loads_no_command_line_module(name):
    # The generating-function comparison lives in the library: `verify`
    # and `genfunc` run it without the CLI behind them.
    code = f"import sys, {name}; print(sorted(m for m in sys.modules if m.startswith('walkers_return')))"
    # The child imports the package from wherever this process does.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert name in loaded and "walkers_return.cli" not in loaded
