"""Command-line front end: return tables, generating-function scans,
verification suites, and position distributions.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or arithmetic
error, or output that cannot be written (an --out path or a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__, crw, genfunc, qw, verify
from .genfunc import ConvergenceError

__all__ = ["main", "console_main", "Table", "emit_csv", "emit_json", "emit_gnuplot"]


class Table:
    """Result table: named columns, one array per column (`data`), and a meta header."""

    def __init__(self, columns: list[str], data, meta: dict | None = None) -> None:
        self.columns = list(columns)
        self.meta = {} if meta is None else meta
        self.data = [np.asarray(column) for column in data]

    @property
    def rows(self) -> range:
        """The row indices; `len(table.rows)` is the row count."""
        return range(len(self.data[0]) if self.data else 0)


def _cells(column: np.ndarray) -> list[str]:
    """A column as text: integers exact, floats to 17 significant digits,
    which round-trip any float64."""
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return list(map("%.17g".__mod__, column.tolist()))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(column: np.ndarray) -> list[str]:
    """A column as the JSON encoder writes it: float.__repr__, NaN, Infinity."""
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    cells = list(map(float.__repr__, column.tolist()))
    if not np.isfinite(column).all():
        cells = [_JSON_NON_FINITE.get(cell, cell) for cell in cells]
    return cells


# Rows formatted and written at a time: bounds the text held in memory.
_BLOCK_ROWS = 4096


def _blocks(data: list[np.ndarray], cells: Callable[[np.ndarray], list[str]]):
    """Row tuples of formatted cells, one list of them per block of rows."""
    for start in range(0, len(data[0]) if data else 0, _BLOCK_ROWS):
        yield list(zip(*(cells(column[start : start + _BLOCK_ROWS]) for column in data)))


def emit_csv(table: Table, stream) -> None:
    csv.writer(stream, lineterminator="\n").writerow(table.columns)
    # Number cells hold no comma, quote or line break, so none needs quoting.
    for rows in _blocks(table.data, _cells):
        stream.write("\n".join(map(",".join, rows)) + "\n")


def emit_json(table: Table, stream) -> None:
    """The bytes of json.dump({"meta": ..., "rows": [records]}, indent=2),
    with each record filled into one template instead of encoded cell by cell."""
    meta = json.dumps(table.meta, indent=2).replace("\n", "\n  ")
    keys = [json.dumps(name).replace("%", "%%") for name in table.columns]
    record = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    stream.write(f'{{\n  "meta": {meta},\n  "rows": ')
    opening = "[\n"
    for rows in _blocks(table.data, _json_cells):
        stream.write(opening + ",\n".join(map(record.__mod__, rows)))
        opening = ",\n"
    stream.write("[]\n}\n" if opening == "[\n" else "\n  ]\n}\n")


def emit_gnuplot(table: Table, stream) -> None:
    """Two-column plain text (first two columns) for external plotters."""
    stream.write(f"# {table.columns[0]} {table.columns[1]}\n")
    for rows in _blocks(table.data[:2], _cells):
        stream.write("".join(map("%s %s\n".__mod__, rows)))


def _write_output(table: Table, args) -> None:
    # Built per call, so that a traced run calls the emitters it wrapped.
    emitter = {"csv": emit_csv, "json": emit_json, "gnuplot": emit_gnuplot}[args.format]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            emitter(table, handle)
    else:
        emitter(table, sys.stdout)


def _resolve_tol(args, default: float) -> float:
    if args.tol is None:
        return default
    # Written so that NaN fails the check as well.
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be a finite positive number, got {args.tol!r}")
    return args.tol


@dataclass(frozen=True)
class Walk:
    """A model bound to its parsed parameters: what each command computes from it."""

    params: dict  # the meta block's "params"
    closed: Callable[[int], np.ndarray]  # closed-form r_0..r_nmax in one sweep
    gf: Callable[[np.ndarray], np.ndarray]  # closed-form generating function on a z grid
    simulate: Callable[[int], np.ndarray] | None = None  # lattice r_0..r_nmax
    dist: Callable[[int], np.ndarray] | None = None  # p(-n..n) at time n


@dataclass(frozen=True)
class Model:
    """One row of the model table: flag parsing plus default tolerances.

    A model without a lattice route (return_tol None) serves `genfunc` only.
    """

    parse: Callable[[argparse.Namespace], Walk]  # reads and validates the model's flags
    flags: tuple[str, ...]  # the model flags `parse` reads, by argparse dest
    genfunc_tol: float
    return_tol: float | None = None


def _quantum(coin: qw.CoinMatrix, alpha_sq: float, gf) -> Walk:
    phi = qw.QWInitialState.canonical()
    return Walk(
        {"alpha_sq": alpha_sq},
        lambda nmax: qw.return_series_qw(alpha_sq, nmax),
        gf,
        lambda nmax: qw.simulate_return(coin, phi, nmax),
        lambda n: qw.distribution(coin, phi, n),
    )


def _correlated(transition: crw.TransitionMatrix, phi_hat: crw.CRWInitialState, params: dict, gf) -> Walk:
    # The distribution stays on the lattice: a Fourier route leaves rounding
    # noise of either sign on tail masses that are exactly non-negative here.
    return Walk(
        params,
        lambda nmax: crw.return_series_crw(transition, phi_hat, nmax),
        gf,
        lambda nmax: crw.simulate_return_crw(transition, phi_hat, nmax),
        lambda n: crw.evolve_crw(transition, phi_hat, n).position_distribution(),
    )


def _parse_qw(args) -> Walk:
    if args.alpha_sq is None:
        raise ValueError("model qw requires --alpha-sq")
    alpha_sq = args.alpha_sq
    return _quantum(qw.CoinMatrix.from_alpha_sq(alpha_sq), alpha_sq, lambda z: genfunc.gf_qw(alpha_sq, z))


def _parse_hadamard(args) -> Walk:
    # The Legendre form at k = 0; the C(2m, m) formula is checked in `verify`.
    return _quantum(qw.CoinMatrix.hadamard(), 0.5, genfunc.gf_hadamard)


def _parse_crw(args) -> Walk:
    if args.a is None:
        raise ValueError("model crw requires --a (left-persistence probability)")
    if args.d is None:
        raise ValueError("model crw requires --d (right-persistence probability)")
    transition = crw.TransitionMatrix.from_persistence(args.a, args.d)
    phi_hat = crw.CRWInitialState.from_phi1(0.5 if args.phi1 is None else args.phi1)
    return _correlated(
        transition,
        phi_hat,
        {"a": transition.a, "b": transition.b, "phi1_hat": phi_hat.phi1_hat},
        lambda z: genfunc.gf_crw(transition, phi_hat, z),
    )


def _parse_rw(args) -> Walk:
    if args.p is None:
        raise ValueError("model rw requires --p")
    p = args.p
    return _correlated(
        crw.TransitionMatrix.uncorrelated(p),
        # The walk does not depend on the last step, so --phi1 is crw's alone.
        crw.CRWInitialState.from_phi1(0.5),
        {"p": p},
        lambda z: genfunc.gf_rw(p, z),
    )


def _parse_polya2d(args) -> Walk:
    return Walk({}, genfunc.polya2d_series, genfunc.polya2d_gf)


MODELS = {
    "qw": Model(_parse_qw, ("alpha_sq",), genfunc_tol=1e-6, return_tol=1e-10),
    "hadamard": Model(_parse_hadamard, (), genfunc_tol=1e-8, return_tol=1e-10),
    "crw": Model(_parse_crw, ("a", "d", "phi1"), genfunc_tol=1e-10, return_tol=1e-12),
    "rw": Model(_parse_rw, ("p",), genfunc_tol=1e-10, return_tol=1e-12),
    "polya2d": Model(_parse_polya2d, (), genfunc_tol=1e-9),
}
RETURN_MODELS = tuple(name for name, model in MODELS.items() if model.return_tol is not None)
GENFUNC_MODELS = tuple(MODELS)


def _model(args, command: str, supported: tuple[str, ...]) -> Model:
    if args.model not in supported:
        raise ValueError(
            f"model {args.model!r} not supported by `{command}`; choose from {', '.join(supported)}"
        )
    model = MODELS[args.model]
    # A flag another model reads would otherwise be dropped without a word.
    stray = [
        "--" + flag.replace("_", "-")
        for flag in dict.fromkeys(flag for other in MODELS.values() for flag in other.flags)
        if flag not in model.flags and getattr(args, flag) is not None
    ]
    if stray:
        raise ValueError(f"model {args.model!r} does not read {', '.join(stray)}")
    return model


def cmd_return(args) -> int:
    model = _model(args, "return", RETURN_MODELS)
    if args.nmax < 0:
        raise ValueError(f"--nmax must be non-negative, got {args.nmax}")
    tol = _resolve_tol(args, model.return_tol)
    walk = model.parse(args)
    closed = walk.closed(args.nmax)
    simulated = walk.simulate(args.nmax)
    errors = np.abs(closed - simulated)
    table = Table(
        columns=["n", "r_closed", "r_simulated", "abs_err"],
        data=[np.arange(args.nmax + 1), closed, simulated, errors],
        meta={
            "command": "return",
            "model": args.model,
            "params": walk.params,
            "tolerance": tol,
            "version": __version__,
        },
    )
    _write_output(table, args)
    # np.max propagates a NaN residual, which then fails the comparison.
    return 0 if np.max(errors) <= tol else 1


def cmd_genfunc(args) -> int:
    model = _model(args, "genfunc", GENFUNC_MODELS)
    tol = _resolve_tol(args, model.genfunc_tol)
    if args.z_count < 1:
        raise ValueError(f"--z-count must be at least 1, got {args.z_count}")
    zgrid = np.linspace(args.z_start, args.z_stop, args.z_count)
    # Written so that a NaN grid point fails the check as well.
    if not np.all(np.abs(zgrid) < 1.0):
        raise ValueError("z grid must lie strictly inside (-1, 1)")
    walk = model.parse(args)
    closed = walk.gf(zgrid)
    points = zgrid.tolist()
    cuts = [genfunc.truncation_for(z, tol) for z in points]
    # One sweep serves every z: each closed route's first n + 1 values are
    # the same whatever the nmax it is swept to.
    values = walk.closed(max(cuts))
    # Called through the module, so that a traced run counts every sum.
    series, tails = np.array([genfunc.series_sum(values[: n + 1], z) for z, n in zip(points, cuts)]).T
    errors = np.abs(closed - series)
    table = Table(
        columns=["z", "gf_closed", "gf_series", "abs_err", "tail_bound"],
        data=[zgrid, closed, series, errors, tails],
        meta={
            "command": "genfunc",
            "model": args.model,
            "params": walk.params,
            "tolerance": tol,
            "version": __version__,
        },
    )
    _write_output(table, args)
    # A NaN error fails the comparison.
    return 0 if np.all(errors <= tol + tails) else 1


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{status}] {r.name:<{width}}  residual={r.residual:.3e}  tol={r.tolerance:.1e}")
    print(f"{len(results) - failed}/{len(results)} checks passed ({args.suite})")
    return 1 if failed else 0


def cmd_dist(args) -> int:
    model = _model(args, "dist", RETURN_MODELS)
    if not 0 <= args.nmax <= 10**5:
        raise ValueError(f"--nmax must lie in [0, 1e5], got {args.nmax}")
    walk = model.parse(args)
    dist = walk.dist(args.nmax)
    table = Table(
        columns=["x", "probability"],
        data=[np.arange(-args.nmax, args.nmax + 1), dist],
        meta={
            "command": "dist",
            "model": args.model,
            "params": walk.params,
            "time": args.nmax,
            "total": float(dist.sum()),
            "version": __version__,
        },
    )
    _write_output(table, args)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="qw | hadamard | crw | rw | polya2d")
    parser.add_argument("--alpha-sq", type=float, help="|alpha|^2 of the qw coin, in (0, 1)")
    parser.add_argument("--a", type=float, help="crw left-persistence probability")
    parser.add_argument("--d", type=float, help="crw right-persistence probability")
    parser.add_argument("--phi1", type=float, help="crw initial left weight (default 0.5)")
    parser.add_argument("--p", type=float, help="rw left-step probability")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json", "gnuplot"),
        default="csv",
        help="csv (default), json with a meta header, or gnuplot: the first two columns as plain text",
    )
    parser.add_argument("--out", help="write the table to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Every later call in the process returns the same object, so callers
    must not mutate it.  Nothing in the tree depends on a request or on
    the environment: every text and default is fixed.
    """
    parser = argparse.ArgumentParser(
        prog="walkers-return",
        description="Return probabilities of 1-D quantum and correlated random walks, "
        "with closed-form / simulation / generating-function cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_return = sub.add_parser("return", help="tabulate closed-form vs simulated return probabilities")
    _add_model_flags(p_return)
    p_return.add_argument("--nmax", type=int, default=20, help="largest time step (default 20)")
    p_return.add_argument("--tol", type=float, help="comparison tolerance (default per model)")
    _add_output_flags(p_return)
    p_return.set_defaults(func=cmd_return)

    p_gf = sub.add_parser("genfunc", help="scan generating function vs truncated series over a z grid")
    _add_model_flags(p_gf)
    p_gf.add_argument("--z-start", type=float, default=0.1)
    p_gf.add_argument("--z-stop", type=float, default=0.9)
    p_gf.add_argument("--z-count", type=int, default=9)
    p_gf.add_argument("--tol", type=float, help="comparison tolerance (default per model)")
    _add_output_flags(p_gf)
    p_gf.set_defaults(func=cmd_genfunc)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument(
        "suite", nargs="?", default="all", choices=verify.SUITE_NAMES, help="suite to run"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dist = sub.add_parser("dist", help="full position distribution at one time step")
    _add_model_flags(p_dist)
    p_dist.add_argument("--nmax", type=int, default=10, help="time step (default 10)")
    _add_output_flags(p_dist)
    p_dist.set_defaults(func=cmd_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, ConvergenceError, OSError) as exc:
        # stderr may be the closed pipe that raised: the exit code still says 2.
        with contextlib.suppress(OSError):
            print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
