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
from itertools import chain
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


def _conversions(data: list[np.ndarray], floats: str) -> list[str]:
    """One `%` conversion per column: integers exact, floats by `floats`."""
    return ["%d" if column.dtype.kind in "iu" else floats for column in data]


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(column: np.ndarray) -> list:
    """A column's cells for a JSON row template: integers as they are,
    floats as the JSON encoder writes them, float.__repr__, NaN, Infinity."""
    if column.dtype.kind in "iu":
        return column.tolist()
    cells = list(map(float.__repr__, column.tolist()))
    if not np.isfinite(column).all():
        cells = [_JSON_NON_FINITE.get(cell, cell) for cell in cells]
    return cells


# Rows formatted and written at a time: bounds the text held in memory.
_BLOCK_ROWS = 4096


def _blocks(
    data: list[np.ndarray], row: str, cells: Callable[[np.ndarray], list] = np.ndarray.tolist, separator: str = ""
):
    """The rows of `data` as text, one string per block of up to _BLOCK_ROWS
    rows, each made by one `%`: the template `row`, one conversion per
    column, repeated once per row with `separator` between, filled row by
    row with the columns' `cells`.  Rows stop at the shortest column."""
    nrows = min(map(len, data), default=0)
    for start in range(0, nrows, _BLOCK_ROWS):
        count = min(_BLOCK_ROWS, nrows - start)
        columns = [cells(column[start : start + count]) for column in data]
        yield separator.join([row] * count) % tuple(chain.from_iterable(zip(*columns)))


def emit_csv(table: Table, stream) -> None:
    csv.writer(stream, lineterminator="\n").writerow(table.columns)
    # Number cells hold no comma, quote or line break, so none needs quoting;
    # %.17g round-trips any float64.
    for block in _blocks(table.data, ",".join(_conversions(table.data, "%.17g")) + "\n"):
        stream.write(block)


def emit_json(table: Table, stream) -> None:
    """The bytes of json.dump({"meta": ..., "rows": [records]}, indent=2),
    with each block of records filled into one template instead of encoded
    cell by cell."""
    meta = json.dumps(table.meta, indent=2).replace("\n", "\n  ")
    keys = [json.dumps(name).replace("%", "%%") for name in table.columns]
    fields = zip(keys, _conversions(table.data, "%s"))
    record = "    {\n" + ",\n".join(f"      {key}: {conversion}" for key, conversion in fields) + "\n    }"
    stream.write(f'{{\n  "meta": {meta},\n  "rows": ')
    opening = "[\n"
    for block in _blocks(table.data, record, _json_cells, ",\n"):
        stream.write(opening + block)
        opening = ",\n"
    stream.write("[]\n}\n" if opening == "[\n" else "\n  ]\n}\n")


def emit_gnuplot(table: Table, stream) -> None:
    """Two-column plain text (first two columns) for external plotters."""
    stream.write(f"# {table.columns[0]} {table.columns[1]}\n")
    data = table.data[:2]
    for block in _blocks(data, " ".join(_conversions(data, "%.17g")) + "\n"):
        stream.write(block)


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
class Flag:
    """One model flag: its argparse dest, its help text and its default (None: required)."""

    dest: str
    help: str
    default: float | None = None

    @property
    def option(self) -> str:
        return "--" + self.dest.replace("_", "-")


@dataclass(frozen=True)
class Model:
    """One row of the model table, the one place a model's facts are stated:
    its flags, the binding of their values to a walk, and default tolerances.

    A model without a lattice route (return_tol None) serves `genfunc` only.
    """

    flags: tuple[Flag, ...]
    bind: Callable[..., Walk]  # the flag values, as keywords by dest, to the walk
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


def _bind_crw(a: float, d: float, phi1: float) -> Walk:
    transition = crw.TransitionMatrix.from_persistence(a, d)
    phi_hat = crw.CRWInitialState.from_phi1(phi1)
    params = {"a": transition.a, "b": transition.b, "phi1_hat": phi_hat.phi1_hat}
    return _correlated(transition, phi_hat, params, lambda z: genfunc.gf_crw(transition, phi_hat, z))


MODELS = {
    "qw": Model(
        (Flag("alpha_sq", "|alpha|^2 of the qw coin, in (0, 1)"),),
        lambda alpha_sq: _quantum(
            qw.CoinMatrix.from_alpha_sq(alpha_sq), alpha_sq, lambda z: genfunc.gf_qw(alpha_sq, z)
        ),
        genfunc_tol=1e-6, return_tol=1e-10,
    ),
    # The Legendre form at k = 0; the C(2m, m) formula is checked in `verify`.
    "hadamard": Model(
        (), lambda: _quantum(qw.CoinMatrix.hadamard(), 0.5, genfunc.gf_hadamard), genfunc_tol=1e-8, return_tol=1e-10
    ),
    "crw": Model(
        (
            Flag("a", "crw left-persistence probability"),
            Flag("d", "crw right-persistence probability"),
            Flag("phi1", "crw initial left weight", default=0.5),
        ),
        _bind_crw,
        genfunc_tol=1e-10, return_tol=1e-12,
    ),
    # The walk does not depend on the last step, so --phi1 is crw's alone.
    "rw": Model(
        (Flag("p", "rw left-step probability"),),
        lambda p: _correlated(
            crw.TransitionMatrix.uncorrelated(p),
            crw.CRWInitialState.from_phi1(0.5),
            {"p": p},
            lambda z: genfunc.gf_rw(p, z),
        ),
        genfunc_tol=1e-10, return_tol=1e-12,
    ),
    "polya2d": Model((), lambda: Walk({}, genfunc.polya2d_series, genfunc.polya2d_gf), genfunc_tol=1e-9),
}
RETURN_MODELS = tuple(name for name, model in MODELS.items() if model.return_tol is not None)
# Every model flag once, in table order: the parser's flags and the stray check's.
_MODEL_FLAGS = tuple({flag.dest: flag for model in MODELS.values() for flag in model.flags}.values())


def _model(args, command: str, supported: tuple[str, ...]) -> tuple[Model, Walk]:
    """The requested model and its walk, bound to the flag values `args` holds."""
    if args.model not in supported:
        raise ValueError(
            f"model {args.model!r} not supported by `{command}`; choose from {', '.join(supported)}"
        )
    model = MODELS[args.model]
    given = {flag: getattr(args, flag.dest) for flag in _MODEL_FLAGS}
    # A flag another model reads would otherwise be dropped without a word.
    stray = [flag.option for flag, value in given.items() if flag not in model.flags and value is not None]
    if stray:
        raise ValueError(f"model {args.model!r} does not read {', '.join(stray)}")
    # `is None`, not `or`: a given 0 is a value.
    values = {flag.dest: flag.default if given[flag] is None else given[flag] for flag in model.flags}
    missing = [f"{flag.option} ({flag.help})" for flag in model.flags if values[flag.dest] is None]
    if missing:
        raise ValueError(f"model {args.model!r} requires {', '.join(missing)}")
    return model, model.bind(**values)


def _write_table(args, walk: Walk, columns: list[str], data, **meta) -> None:
    """Writes a command's table under a meta block: the request, the command's own keys, the version."""
    meta = {"command": args.command, "model": args.model, "params": walk.params, **meta, "version": __version__}
    _write_output(Table(columns, data, meta), args)


def _require_nmax(args) -> None:
    """The one bound on --nmax of `return` and `dist`: their lattice walks
    cost about nmax^2 / 4 site steps or more, about a minute at 1e5."""
    if not 0 <= args.nmax <= 10**5:
        raise ValueError(f"--nmax must lie in [0, 1e5], got {args.nmax}")


def cmd_return(args) -> int:
    model, walk = _model(args, "return", RETURN_MODELS)
    _require_nmax(args)
    tol = _resolve_tol(args, model.return_tol)
    closed = walk.closed(args.nmax)
    simulated = walk.simulate(args.nmax)
    errors = np.abs(closed - simulated)
    columns = ["n", "r_closed", "r_simulated", "abs_err"]
    _write_table(args, walk, columns, [np.arange(args.nmax + 1), closed, simulated, errors], tolerance=tol)
    # np.max propagates a NaN residual, which then fails the comparison.
    return 0 if np.max(errors) <= tol else 1


def cmd_genfunc(args) -> int:
    model, walk = _model(args, "genfunc", tuple(MODELS))
    tol = _resolve_tol(args, model.genfunc_tol)
    # Each grid point costs a quadrature and a series sum: 1e5 of them take
    # seconds, and nothing else would stop 1e8 from allocating gigabytes.
    if not 1 <= args.z_count <= 10**5:
        raise ValueError(f"--z-count must lie in [1, 1e5], got {args.z_count}")
    zgrid = np.linspace(args.z_start, args.z_stop, args.z_count)
    # Written so that a NaN grid point fails the check as well.
    if not np.all(np.abs(zgrid) < 1.0):
        raise ValueError("z grid must lie strictly inside (-1, 1)")
    points = zgrid.tolist()
    cuts = [genfunc.truncation_for(z, tol) for z in points]
    longest = max(cuts)
    # The sweep holds all N + 1 terms at once: at |z| = 0.999999, 3.9e7 of
    # them took 11 s and 0.9 GB, and |z| nearer 1 would fill memory.
    if longest > 5 * 10**7:
        raise ValueError(f"|z| = {max(map(abs, points))!r} needs a series of N = {longest} terms, above the bound 5e7")
    closed = walk.gf(zgrid)
    # One sweep serves every z: each closed route's first n + 1 values are
    # the same whatever the nmax it is swept to.
    values = walk.closed(longest)
    # Called through the module, so that a traced run counts every sum.
    series, tails = np.array([genfunc.series_sum(values[: n + 1], z) for z, n in zip(points, cuts)]).T
    errors = np.abs(closed - series)
    columns = ["z", "gf_closed", "gf_series", "abs_err", "tail_bound"]
    _write_table(args, walk, columns, [zgrid, closed, series, errors, tails], tolerance=tol)
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
    _, walk = _model(args, "dist", RETURN_MODELS)
    _require_nmax(args)
    dist = walk.dist(args.nmax)
    x = np.arange(-args.nmax, args.nmax + 1)
    _write_table(args, walk, ["x", "probability"], [x, dist], time=args.nmax, total=float(dist.sum()))
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help=" | ".join(MODELS))
    # No argparse default: `_model` fills them, after it rejects a stray flag.
    for flag in _MODEL_FLAGS:
        default = "" if flag.default is None else f" (default {flag.default})"
        parser.add_argument(flag.option, type=float, help=flag.help + default)


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
