"""Request lists of the three workloads, made from the seed alone.

A request is one operation: one `walkers_return.cli.main(argv)` call or one
`verify.run_suite(suite, seed)` call.  Sizes, grids and request counts are
fixed; the seed draws only the model parameters (and, for `cross-check`,
the seed handed to the suites), so every seed does the same amount of work
up to the parameter dependence of the adaptive quadrature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long-horizon", "z-scan", "cross-check")

RETURN_NMAX = 3000
DIST_NMAX = 4000

# Today's per-model default tolerances of the CLI, passed explicitly so that
# the work a request asks for does not change if the defaults do.
RETURN_TOL = {"qw": 1e-10, "hadamard": 1e-10, "crw": 1e-12, "rw": 1e-12}
GENFUNC_TOL = {"qw": 1e-6, "hadamard": 1e-8, "crw": 1e-10, "rw": 1e-10, "polya2d": 1e-9}

# z-scan: requests per model and the grid shape.  hadamard, rw and polya2d
# stop at 0.97 because `return_hadamard`, the uncorrelated `crw` branch and
# `polya2d_return` raise OverflowError on the longer series beyond it.
ZSCAN_PER_MODEL = 40
ZSCAN_MODELS = ("qw", "crw", "hadamard", "rw", "polya2d")
ZSCAN_STOP = {"qw": 0.98, "crw": 0.98, "hadamard": 0.97, "rw": 0.97, "polya2d": 0.97}
ZSCAN_COUNT = 5

VERIFY_SUITES = ("specfun", "qw", "crw", "genfunc")


@dataclass(frozen=True)
class Request:
    """One operation plus what the independent checks need to know about it."""

    command: str  # "return" | "dist" | "genfunc" | "verify"
    model: str = ""
    params: dict = field(default_factory=dict)
    argv: tuple[str, ...] = ()
    out: Path | None = None
    fmt: str = "csv"
    nmax: int = 0
    zgrid: tuple[float, float, int] = (0.0, 0.0, 0)
    tol: float = 0.0
    suite: str = ""
    seed: int = 0


def _draw_unit(rng: random.Random) -> float:
    """A parameter in [0.15, 0.85], rounded so argv and README stay readable."""
    return round(rng.uniform(0.15, 0.85), 4)


def _draw_crw(rng: random.Random) -> dict:
    # a + d - 1 = ad - bc; keeping it away from 0 keeps the walk correlated,
    # so the closed form never takes the uncorrelated branch.
    while True:
        a, d = _draw_unit(rng), _draw_unit(rng)
        if abs(a + d - 1.0) >= 0.1:
            return {"a": a, "d": d, "phi1": round(rng.uniform(0.0, 1.0), 4)}


def _model_argv(model: str, params: dict) -> list[str]:
    if model == "qw":
        return ["--alpha-sq", repr(params["alpha_sq"])]
    if model == "crw":
        return ["--a", repr(params["a"]), "--d", repr(params["d"]), "--phi1", repr(params["phi1"])]
    if model == "rw":
        return ["--p", repr(params["p"])]
    return []


def _draw_params(model: str, rng: random.Random) -> dict:
    if model == "qw":
        return {"alpha_sq": _draw_unit(rng)}
    if model == "crw":
        return _draw_crw(rng)
    if model == "rw":
        return {"p": _draw_unit(rng)}
    if model == "hadamard":
        return {"alpha_sq": 0.5}
    return {}


def _long_horizon(rng: random.Random, out_dir: Path) -> list[Request]:
    requests = []
    plan = [
        ("return", "qw", RETURN_NMAX, "csv"),
        ("return", "crw", RETURN_NMAX, "csv"),
        ("dist", "qw", DIST_NMAX, "csv"),
        ("dist", "hadamard", DIST_NMAX, "json"),
        ("dist", "crw", DIST_NMAX, "csv"),
    ]
    for i, (command, model, nmax, fmt) in enumerate(plan):
        params = _draw_params(model, rng)
        out = out_dir / f"{i}-{command}-{model}.{fmt}"
        argv = [command, "--model", model, *_model_argv(model, params), "--nmax", str(nmax)]
        if command == "return":
            argv += ["--tol", repr(RETURN_TOL[model])]
        argv += ["--format", fmt, "--out", str(out)]
        tol = RETURN_TOL[model] if command == "return" else 0.0
        requests.append(Request(command, model, params, tuple(argv), out=out, fmt=fmt, nmax=nmax, tol=tol))
    return requests


def _z_scan(rng: random.Random) -> list[Request]:
    requests = []
    for i in range(ZSCAN_PER_MODEL):
        # Starts cycle over -0.85, -0.65, ..., 0.75; every grid ends at the
        # model's largest |z|, where the series are longest.
        start = round(-0.85 + 0.2 * (i % 9), 2)
        for model in ZSCAN_MODELS:
            params = _draw_params(model, rng)
            stop = ZSCAN_STOP[model]
            tol = GENFUNC_TOL[model]
            argv = [
                "genfunc", "--model", model, *_model_argv(model, params),
                "--z-start", repr(start), "--z-stop", repr(stop), "--z-count", str(ZSCAN_COUNT),
                "--tol", repr(tol),
            ]
            requests.append(
                Request("genfunc", model, params, tuple(argv),
                        zgrid=(start, stop, ZSCAN_COUNT), tol=tol)
            )
    return requests


def _cross_check(seed: int) -> list[Request]:
    return [Request("verify", suite=suite, seed=seed) for suite in VERIFY_SUITES]


def build(workload: str, seed: int, out_dir: Path) -> list[Request]:
    """The fixed request list of one pass of `workload` for `seed`."""
    rng = random.Random(seed)
    if workload == "long-horizon":
        return _long_horizon(rng, out_dir)
    if workload == "z-scan":
        return _z_scan(rng)
    if workload == "cross-check":
        return _cross_check(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
