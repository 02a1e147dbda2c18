"""Command-line interface: tables, formats, exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import walkers_return
from walkers_return import cli, crw, genfunc, qw
from walkers_return.cli import Table, emit_csv, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cell(text):
    """A CSV cell as the table wrote it: an integer, else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def csv_rows(out):
    header, *body = csv.reader(io.StringIO(out))
    return header, [tuple(map(_cell, row)) for row in body]


def child_env():
    """The environment for `python -m walkers_return`: a subprocess does not
    inherit pytest's import path, so it is handed the package."""
    package_root = str(Path(walkers_return.__file__).resolve().parents[1])
    paths = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# ---------------------------------------------------------------------------
# return command


def test_return_hadamard_table(capsys):
    code, out, _ = run_cli(capsys, "return", "--model", "hadamard", "--nmax", "8")
    assert code == 0
    columns, rows = csv_rows(out)
    assert columns == ["n", "r_closed", "r_simulated", "abs_err"]
    by_n = {row[0]: row for row in rows}
    assert by_n[4][1] == pytest.approx(0.125, abs=1e-14)
    assert by_n[3][1] == 0.0
    assert all(row[3] < 1e-10 for row in rows)


def test_return_qw_two_steps(capsys):
    code, out, _ = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "0.8", "--nmax", "2")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1][1] == pytest.approx(0.2, abs=1e-13)


def test_return_qw_starts_from_a_unit_norm_state(capsys):
    code, out, _ = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "2")
    assert code == 0
    assert out.splitlines()[1] == "0,1,1,0"


def test_return_rw_table(capsys):
    code, out, _ = run_cli(capsys, "return", "--model", "rw", "--p", "0.5", "--nmax", "4")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[-1][1] == pytest.approx(0.375, abs=1e-14)


def test_return_rejects_unknown_model(capsys):
    code, _, err = run_cli(capsys, "return", "--model", "polya3d")
    assert code == 2
    assert "not supported" in err


# Each model's required flags with a value for each, listed by hand.
_REQUIRED_FLAGS = {"qw": {"--alpha-sq": "0.3"}, "crw": {"--a": "0.7", "--d": "0.6"}, "rw": {"--p": "0.4"}}


@pytest.mark.parametrize("command", ["return", "genfunc", "dist"])
@pytest.mark.parametrize(
    "model, missing", [(model, flag) for model, flags in _REQUIRED_FLAGS.items() for flag in flags]
)
def test_return_rejects_missing_parameter(capsys, command, model, missing):
    given = [word for flag, value in _REQUIRED_FLAGS[model].items() if flag != missing for word in (flag, value)]
    code, out, err = run_cli(capsys, command, "--model", model, *given)
    assert (code, out) == (2, "")
    assert f"model {model!r} requires {missing} (" in err


def test_return_rejects_invalid_alpha(capsys):
    code, _, err = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "1.5")
    assert code == 2


def test_return_rejects_nan_initial_weight(capsys):
    code, out, err = run_cli(
        capsys, "return", "--model", "crw", "--a", "0.7", "--d", "0.6", "--phi1", "nan", "--nmax", "4"
    )
    assert code == 2
    assert out == ""
    assert "must sum to 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "crw", "--a", "0.5", "--d", "nan", "--nmax", "4"),
        ("genfunc", "--model", "crw", "--a", "0.5", "--d", "nan", "--z-count", "2"),
    ],
    ids=["return", "genfunc"],
)
def test_nan_persistence_is_usage_error(capsys, argv):
    # A NaN --d was once ignored beside a consistent --b.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must lie strictly inside (0, 1)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "hadamard", "--nmax", "3000"),
        ("return", "--model", "rw", "--p", "0.5", "--nmax", "1100"),
        ("genfunc", "--model", "polya2d", "--z-start", "0.98", "--z-stop", "0.98", "--z-count", "1"),
        ("genfunc", "--model", "rw", "--p", "0.5", "--z-start", "0.99", "--z-stop", "0.99", "--z-count", "1"),
    ],
)
def test_long_horizon_runs_do_not_overflow(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "qw", "--alpha-sq", "1e-320", "--nmax", "10"),
        ("genfunc", "--model", "crw", "--a", "1e-300", "--d", "0.5", "--z-count", "2"),
        ("return", "--model", "crw", "--a", "1e-300", "--d", "0.5", "--nmax", "10"),
    ],
    ids=["return", "genfunc", "return-crw"],
)
def test_arithmetic_failure_is_a_domain_error(capsys, argv):
    # Exit 1 means a comparison failed; a division by zero is no comparison.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# genfunc command


def test_genfunc_rw_value(capsys):
    code, out, _ = run_cli(
        capsys,
        "genfunc", "--model", "rw", "--p", "0.5",
        "--z-start", "0.6", "--z-stop", "0.6", "--z-count", "1",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == pytest.approx(1.25, abs=1e-12)


def test_genfunc_rw_near_the_unit_circle_is_fast(capsys):
    # z = 0.9999 needs a series of about 4e5 terms; a per-term bignum
    # central binomial once made this take over 20 s.
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys,
        "genfunc", "--model", "rw", "--p", "0.5",
        "--z-start", "0.999", "--z-stop", "0.9999", "--z-count", "2",
    )
    assert code == 0, err
    assert time.perf_counter() - start < 5.0


def test_genfunc_hadamard_at_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "genfunc", "--model", "hadamard",
        "--z-start", "0", "--z-stop", "0", "--z-count", "1",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == pytest.approx(1.0, abs=1e-14)


def test_genfunc_qw_grid_small_errors(capsys):
    code, out, _ = run_cli(
        capsys,
        "genfunc", "--model", "qw", "--alpha-sq", "0.8",
        "--z-start", "0.1", "--z-stop", "0.7", "--z-count", "5",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 5
    assert all(row[3] < 1e-6 + row[4] for row in rows)


def test_genfunc_polya2d(capsys):
    code, out, _ = run_cli(
        capsys,
        "genfunc", "--model", "polya2d",
        "--z-start", "0.3", "--z-stop", "0.6", "--z-count", "2",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert all(row[3] < 1e-9 + row[4] for row in rows)


def test_genfunc_rejects_z_outside_unit_disk(capsys, monkeypatch):
    # np.abs(nan) >= 1.0 is False: a NaN grid point once passed the grid check.
    # The series length is fixed per z first, so neither route runs.
    reached = []

    def route(arg):
        reached.append(arg)
        raise AssertionError("a route ran on a z outside the unit disk")

    bind = cli.MODELS["hadamard"].bind
    stubbed = dataclasses.replace(
        cli.MODELS["hadamard"], bind=lambda **values: dataclasses.replace(bind(**values), closed=route, gf=route)
    )
    monkeypatch.setitem(cli.MODELS, "hadamard", stubbed)
    for start, stop in [("0.5", "1.0"), ("nan", "0.5"), ("0.1", "nan")]:
        code, out, err = run_cli(
            capsys,
            "genfunc", "--model", "hadamard",
            "--z-start", start, "--z-stop", stop, "--z-count", "2",
        )
        assert code == 2, (start, stop)
        assert out == ""
        assert "must be below 1" in err
    assert reached == []


@pytest.mark.parametrize(
    ("module", "name", "model"),
    [
        (qw, "return_series_qw", ("--model", "qw", "--alpha-sq", "0.3")),
        (qw, "return_series_qw", ("--model", "hadamard")),
        (crw, "return_series_crw", ("--model", "crw", "--a", "0.7", "--d", "0.6")),
        (crw, "return_series_crw", ("--model", "rw", "--p", "0.4")),
        (genfunc, "polya2d_series", ("--model", "polya2d")),
    ],
    ids=["qw", "hadamard", "crw", "rw", "polya2d"],
)
def test_genfunc_sweeps_the_series_once(capsys, monkeypatch, module, name, model):
    sweep = getattr(module, name)
    cuts = []

    def counted(*args):
        cuts.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(module, name, counted)
    code, out, err = run_cli(
        capsys, "genfunc", *model, "--z-start", "-0.5", "--z-stop", "0.9", "--z-count", "5", "--tol", "1e-8"
    )
    assert code == 0, err
    # One sweep, to the cut of the z farthest from 0, serves all five rows.
    assert cuts == [genfunc.truncation_for(0.9, 1e-8)]
    assert len(csv_rows(out)[1]) == 5


@pytest.mark.parametrize("tol", ["5e-324", "1e-323"])
def test_genfunc_with_a_subnormal_tolerance_is_no_domain_error(capsys, tol):
    # 0.1 * tol * (1 - |z|) underflows to 0: "error: math domain error" once exited 2.
    code, out, err = run_cli(
        capsys, "genfunc", "--model", "rw", "--p", "0.5", "--tol", tol, "--z-stop", "0.9", "--z-count", "2"
    )
    assert code in (0, 1)
    assert err == ""
    _, rows = csv_rows(out)
    assert [row[0] for row in rows] == pytest.approx([0.1, 0.9])
    assert all(row[1] == pytest.approx(row[2], abs=1e-14) and row[4] == 0.0 for row in rows)


# The sha256 of each model's `genfunc` stdout, recorded before the series
# route's sweeps and sums were restructured for speed (x86-64, Python 3.11,
# numpy 2.4), so a speed-up cannot move one byte unseen.
_GENFUNC_DIGESTS = {
    ("qw", "--alpha-sq", "0.3", "--z-start", "-0.85", "--z-stop", "0.98"):
        "49ba0f3726c2c0711bcc7e5bb394adffacebbc7ef9a85137304347b778f74108",
    ("crw", "--a", "0.4", "--d", "0.3", "--phi1", "0.7", "--z-start", "0.15", "--z-stop", "0.98"):
        "b21956148b5ccf78d15804ae42dd834644ce0db9225d21df72b1b6debd7bd98d",
    ("hadamard", "--z-start", "0.35", "--z-stop", "0.97"):
        "55f410676eed9f26fa3582d7730e30ae1695c5bffdc56752529ef22a3e41ef07",
    ("rw", "--p", "0.35", "--z-start", "0.55", "--z-stop", "0.97"):
        "813428da9c547b3f5e76fee099d1142b20f4be86594ad62c7c0399094dcf15e7",
    ("polya2d", "--z-start", "0.75", "--z-stop", "0.97"):
        "9fdfa703af3c81830720c55893897a1f25b6102810b1a178f7cfe970a25ccdb9",
}


@pytest.mark.parametrize("request_argv", list(_GENFUNC_DIGESTS), ids=lambda argv: argv[0])
def test_genfunc_output_bytes_are_pinned(capsys, request_argv):
    code, out, err = run_cli(capsys, "genfunc", "--model", *request_argv, "--z-count", "5")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _GENFUNC_DIGESTS[request_argv]


# sha256 of the stdout of each lattice request, recorded before the lattice
# step moved onto per-walk buffers and real products: the qw coin steps
# with its real part, the Hadamard coin with the complex product.
_CRW = ("--model", "crw", "--a", "0.7", "--d", "0.6", "--phi1", "0.3", "--nmax", "600")
_LATTICE_DIGESTS = {
    ("return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "600"):
        "34b8c629b7ec2041a8d5aaeb768906239af3f1d451d1cac372ab7100b2727319",
    ("return", "--model", "hadamard", "--nmax", "600"):
        "baf68ce17b51ec20bb1403c71e26a12c0687386ad90c728b324a7deb1d2d4863",
    ("return", *_CRW):
        "8d67e017043b9308a3b87455d24b735e96dd90f876ea760deec78c72dc408d6f",
    ("return", "--model", "rw", "--p", "0.4", "--nmax", "600"):
        "72fbb838e28bd1c2fb535e66d61c830e6fd7519f35396e062c8e1c4959386b44",
    ("dist", *_CRW):
        "66dfc142ca428d62bcd15e788d4d714584503092bd9e5a75b5b8e43660a6d08c",
    ("dist", *_CRW, "--format", "json"):
        "f056551c1676c916f5f8c5cd8822f5a268ff0511963e92048f3ea41f2be43698",
}


@pytest.mark.parametrize(
    "argv", list(_LATTICE_DIGESTS), ids=lambda argv: "-".join((argv[0], argv[2], argv[-1]))
)
def test_lattice_output_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _LATTICE_DIGESTS[argv]


# sha256 of the stdout of requests the pins above leave out, recorded before
# the emitters filled each block of rows with one `%`: every format of the
# lattice commands, `genfunc` in JSON, and walks whose edge slots underflow
# to exact zeros long before nmax.
_FORMAT_DIGESTS = {
    ("dist", "--model", "hadamard", "--nmax", "600", "--format", "json"):
        "05348f0056a9f856cf5ce2e0103448b8392932535d3ead2e906f5fbbd572880e",
    ("return", *_CRW, "--format", "json"):
        "154fcbe7a0d1a9a478a21d7d65b8090851cb24cde9031297853318b6cfef4009",
    ("return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "600", "--format", "gnuplot"):
        "4c91a8fb7636a34dc829e7c1519071aac2fe2316408bb772b499789b853981b3",
    ("dist", *_CRW, "--format", "gnuplot"):
        "9417046e0ff0a2e12460e36a010d0f176271dc560b175911b9de0acb18fa8b22",
    ("genfunc", "--model", "qw", "--alpha-sq", "0.3", "--z-start", "-0.85", "--z-stop", "0.98", "--z-count", "5",
     "--format", "json"):
        "e80da280af83630cfe5e737ee808a938bb33824a4e14096d5733ca1e9e1efae7",
    ("dist", "--model", "crw", "--a", "0.2", "--d", "0.4", "--phi1", "0.3", "--nmax", "2000"):
        "4021a4d9823789183dc4585d700c959f00f47756b8dfc3265a44e74dc1da75e6",
    ("return", "--model", "crw", "--a", "0.2", "--d", "0.4", "--phi1", "0.3", "--nmax", "2000"):
        "6577a8978db82b8710d5402bf84b17d4e9a685db76f2a858058b93b03d5ac48d",
    ("return", "--model", "crw", "--a", "0.05", "--d", "0.4", "--nmax", "2000"):
        "d82fb3270ba40d30462dbeaa2f6a8db99b172b94f75079bdcf0953e2c2024d47",
    ("return", "--model", "qw", "--alpha-sq", "0.01", "--nmax", "2000"):
        "05d789803cca3db06b61d0d9c6933fabe6187292342ce6a0c54ae0c22a77af2c",
}


@pytest.mark.parametrize(
    "argv",
    list(_FORMAT_DIGESTS),
    ids=[
        "dist-hadamard-json", "return-crw-json", "return-qw-gnuplot", "dist-crw-gnuplot", "genfunc-qw-json",
        "dist-crw-underflow", "return-crw-underflow", "return-crw-drift", "return-qw-underflow",
    ],
)
def test_formats_and_underflowing_walks_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _FORMAT_DIGESTS[argv]


# ---------------------------------------------------------------------------
# a NaN from any route fails the comparison gate


def test_nan_generating_function_fails_the_genfunc_gate(capsys, monkeypatch):
    monkeypatch.setattr(genfunc, "gf_rw", lambda p, z: np.full_like(z, math.nan))
    code, out, _ = run_cli(capsys, "genfunc", "--model", "rw", "--p", "0.5", "--z-count", "3")
    assert code == 1
    _, rows = csv_rows(out)
    assert len(rows) == 3
    assert all(math.isnan(row[1]) and math.isnan(row[3]) for row in rows)


def test_nan_return_value_fails_the_return_gate(capsys, monkeypatch):
    # The NaN sits after the first entry, where a builtin max would drop it.
    series_qw = qw.return_series_qw

    def with_nan(alpha_sq, nmax):
        values = series_qw(alpha_sq, nmax)
        values[2] = math.nan
        return values

    monkeypatch.setattr(qw, "return_series_qw", with_nan)
    code, out, _ = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "6")
    assert code == 1
    _, rows = csv_rows(out)
    assert math.isnan(rows[2][3])
    assert all(row[3] <= 1e-10 for i, row in enumerate(rows) if i != 2)


# ---------------------------------------------------------------------------
# dist command


def test_dist_hadamard_two_steps(capsys):
    code, out, _ = run_cli(capsys, "dist", "--model", "hadamard", "--nmax", "2")
    assert code == 0
    _, rows = csv_rows(out)
    probs = {row[0]: row[1] for row in rows}
    assert probs[-2] == pytest.approx(0.25, abs=1e-13)
    assert probs[0] == pytest.approx(0.5, abs=1e-13)
    assert probs[2] == pytest.approx(0.25, abs=1e-13)
    assert sum(p for p in probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_dist_symmetric_crw(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--model", "crw", "--a", "0.5", "--d", "0.5", "--nmax", "2"
    )
    assert code == 0
    _, rows = csv_rows(out)
    probs = {row[0]: row[1] for row in rows}
    assert probs[-2] == pytest.approx(0.25, abs=1e-14)
    assert probs[0] == pytest.approx(0.5, abs=1e-14)


def test_dist_mass_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--model", "rw", "--p", "0.3", "--nmax", "61"
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert sum(row[1] for row in rows) == pytest.approx(1.0, abs=1e-9)


def test_dist_qw_wrong_parity_rows_are_exact_zeros(capsys):
    code, out, _ = run_cli(capsys, "dist", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "41")
    assert code == 0
    _, rows = csv_rows(out)
    assert [row[0] for row in rows] == list(range(-41, 42))
    wrong_parity = [row[1] for row in rows if (row[0] + 41) % 2 == 1]
    assert len(wrong_parity) == 41
    assert all(p == 0 for p in wrong_parity)
    assert sum(row[1] for row in rows) == pytest.approx(1.0, abs=1e-12)


def test_dist_rejects_oversized_time(capsys):
    code, _, err = run_cli(capsys, "dist", "--model", "hadamard", "--nmax", "100001")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "100001"),
        ("return", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "-1"),
        ("dist", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "100001"),
        ("dist", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "-2"),
    ],
    ids=["return-long", "return-negative", "dist-long", "dist-negative"],
)
def test_lattice_commands_bound_nmax_before_any_walk(capsys, monkeypatch, argv):
    # `return` and `dist` share the bound 0 <= nmax <= 1e5: past it the
    # lattice walk would run for minutes without a word.
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started before --nmax was checked")

    for module, name in [
        (qw, "simulate_return"), (qw, "return_series_qw"), (qw, "distribution"),
        (crw, "simulate_return_crw"), (crw, "return_series_crw"), (crw, "evolve_crw"),
    ]:
        monkeypatch.setattr(module, name, no_walk)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"--nmax must lie in [0, 1e5], got {argv[-1]}" in err


@pytest.mark.parametrize("count", ["0", "-3", "100001", "100000000"])
@pytest.mark.parametrize("model", [("qw", "--alpha-sq", "0.3"), ("polya2d",)], ids=["qw", "polya2d"])
def test_genfunc_bounds_z_count_before_any_grid(capsys, monkeypatch, model, count):
    # 1 <= z-count <= 1e5: past it a scan allocates and sums without a word.
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid or a route ran before --z-count was checked")

    for module, name in [
        (cli.np, "linspace"), (genfunc, "gf_qw"), (genfunc, "polya2d_gf"), (genfunc, "polya2d_series"),
        (genfunc, "truncation_for"), (genfunc, "series_sum"), (qw, "return_series_qw"),
    ]:
        monkeypatch.setattr(module, name, no_grid)
    code, out, err = run_cli(capsys, "genfunc", "--model", *model, "--z-count", count)
    assert (code, out) == (2, "")
    assert f"--z-count must lie in [1, 1e5], got {count}" in err


@pytest.mark.parametrize(
    "model",
    [("qw", "--alpha-sq", "0.3"), ("hadamard",), ("crw", "--a", "0.7", "--d", "0.6"), ("rw", "--p", "0.5"), ("polya2d",)],
    ids=["qw", "hadamard", "crw", "rw", "polya2d"],
)
def test_genfunc_bounds_the_series_length_before_any_route(capsys, monkeypatch, model):
    # |z| = 0.99999999 asks for about 4e9 terms: the sweep once filled
    # memory, or died of an uncaught MemoryError under a memory limit.
    class RouteReached(Exception):
        pass

    reached = []

    def route(arg):
        reached.append(arg)
        raise RouteReached

    name = model[0]
    bind = cli.MODELS[name].bind
    stubbed = dataclasses.replace(
        cli.MODELS[name], bind=lambda **values: dataclasses.replace(bind(**values), closed=route, gf=route)
    )
    monkeypatch.setitem(cli.MODELS, name, stubbed)
    code, out, err = run_cli(
        capsys, "genfunc", "--model", *model, "--z-start", "0.5", "--z-stop", "-0.99999999", "--z-count", "3"
    )
    assert (code, out, reached) == (2, "", [])
    assert "|z| = 0.99999999 needs a series of N = " in err and "above the bound 5e7" in err
    # Each model's default tolerance at |z| = 0.999999 (3.0e7 to 3.9e7 terms) reaches its routes.
    with pytest.raises(RouteReached):
        main(["genfunc", "--model", *model, "--z-start", "0.5", "--z-stop", "0.999999", "--z-count", "2"])
    assert len(reached) == 1


def test_genfunc_accepts_the_largest_and_smallest_z_count(monkeypatch):
    class GridBuilt(Exception):
        pass

    seen = []

    def grid(start, stop, count):
        seen.append(count)
        raise GridBuilt

    monkeypatch.setattr(cli.np, "linspace", grid)
    for count in ("100000", "1"):
        with pytest.raises(GridBuilt):
            main(["genfunc", "--model", "rw", "--p", "0.4", "--z-count", count])
    assert seen == [100000, 1]


def test_return_accepts_the_largest_and_smallest_nmax(capsys, monkeypatch):
    # The bound is inclusive: --nmax 100000 reaches the walk (stubbed here).
    seen = []
    monkeypatch.setattr(qw, "return_series_qw", lambda alpha_sq, nmax: seen.append(nmax) or np.zeros(nmax + 1))
    monkeypatch.setattr(qw, "simulate_return", lambda coin, phi, nmax: np.zeros(nmax + 1))
    for nmax in ("100000", "0"):
        code, _, _ = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", nmax)
        assert code == 0
    assert seen == [100000, 0]


# ---------------------------------------------------------------------------
# verify command


def test_verify_specfun_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "specfun")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "landen" in out


def test_verify_qw_suite_reports_oracle_triangle(capsys):
    code, out, _ = run_cli(capsys, "verify", "qw")
    assert code == 0
    assert "oracle-triangle" in out
    assert "[FAIL]" not in out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# output formats


def test_csv_output_round_trips_exactly(capsys):
    code, out, _ = run_cli(capsys, "return", "--model", "qw", "--alpha-sq", "0.37", "--nmax", "12")
    assert code == 0
    columns, rows = csv_rows(out)
    stream = io.StringIO()
    emit_csv(Table(columns=columns, data=list(zip(*rows))), stream)
    assert stream.getvalue() == out


def test_json_output_carries_meta(capsys):
    code, out, _ = run_cli(
        capsys,
        "return", "--model", "hadamard", "--nmax", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["model"] == "hadamard"
    assert payload["meta"]["command"] == "return"
    assert "version" in payload["meta"]
    assert payload["rows"][4]["r_closed"] == pytest.approx(0.125, abs=1e-14)


def test_gnuplot_output_two_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "genfunc", "--model", "rw", "--p", "0.5",
        "--z-start", "0.2", "--z-stop", "0.4", "--z-count", "2", "--format", "gnuplot",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# z gf_closed")
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "return", "--model", "hadamard", "--nmax", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    _, rows = csv_rows(target.read_text())
    assert rows[4][1] == pytest.approx(0.125, abs=1e-14)


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "4"),
        ("dist", "--model", "hadamard", "--nmax", "4"),
    ],
    ids=["return", "dist"],
)
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, target):
    # Exit 1 means a comparison failed; a path that cannot be opened is no comparison.
    path = tmp_path / "missing" / "x.csv" if target == "missing-parent" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("joined", [True, False], ids=["stderr-joined", "stderr-separate"])
def test_closed_output_pipe_is_no_comparison_failure(tmp_path, joined):
    """A reader that stops after one line closes the pipe under a ~1 MB table.
    The run exits 2, also when the error line meets the same closed pipe."""
    argv = ("return", "--model", "qw", "--alpha-sq", "0.5", "--nmax", "20000")
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err, subprocess.Popen(
        [sys.executable, "-m", "walkers_return", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if joined else err,
        env=child_env(),
    ) as child:
        assert child.stdout.readline() == b"n,r_closed,r_simulated,abs_err\n"
        child.stdout.close()
        assert child.wait(timeout=120) == 2
    if not joined:
        assert err_path.read_text().startswith("error: ")


# ---------------------------------------------------------------------------
# tolerance handling


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_tol_flag_is_usage_error(capsys, value):
    code, _, err = run_cli(capsys, "return", "--model", "hadamard", "--nmax", "4", "--tol", value)
    assert code == 2
    assert "--tol must be a finite positive number" in err


# ---------------------------------------------------------------------------
# one spelling per value

_MODEL_OPTIONS = ["--model", "--alpha-sq", "--a", "--d", "--phi1", "--p"]


def _commands():
    parser = cli.build_parser()
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices


def _option_strings(command):
    return [option for action in _commands()[command]._actions for option in action.option_strings]


@pytest.mark.parametrize(
    "command, options",
    [
        ("return", [*_MODEL_OPTIONS, "--nmax", "--tol", "--format", "--out"]),
        ("genfunc", [*_MODEL_OPTIONS, "--z-start", "--z-stop", "--z-count", "--tol", "--format", "--out"]),
        ("dist", [*_MODEL_OPTIONS, "--nmax", "--format", "--out"]),
        ("verify", []),
    ],
)
def test_each_command_has_one_option_per_value(command, options):
    assert _option_strings(command) == ["-h", "--help", *options]


@pytest.mark.parametrize(
    "argv",
    [
        ("return", "--model", "crw", "--a", "0.7", "--b", "0.4", "--nmax", "6"),
        ("genfunc", "--model", "hadamard", "--z-count", "2", "--gnuplot"),
        ("dist", "--model", "hadamard", "--nmax", "4", "--tol", "1e-8"),
    ],
    ids=["b", "gnuplot", "dist-tol"],
)
def test_removed_spellings_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_help_text_renders():
    # argparse %-formats each help text, so a bad one fails only on --help.
    cli.build_parser().format_help()
    for command, parser in _commands().items():
        text = " ".join(parser.format_help().split())
        if command == "verify":
            continue
        (model,) = [action for action in parser._actions if action.option_strings == ["--model"]]
        assert model.help.split(" | ") == ["qw", "hadamard", "crw", "rw", "polya2d"]
        for flag in {flag for row in cli.MODELS.values() for flag in row.flags}:
            assert f"{flag.option} {flag.dest.upper()} {flag.help}" in text


def test_environment_sets_no_tolerance(capsys, monkeypatch):
    argv = ("return", "--model", "hadamard", "--nmax", "8", "--format", "json")
    monkeypatch.delenv("WALKERS_RETURN_TOL", raising=False)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    monkeypatch.setenv("WALKERS_RETURN_TOL", "1e-30")
    assert run_cli(capsys, *argv) == plain


# ---------------------------------------------------------------------------
# each model reads only its own flags


@pytest.mark.parametrize(
    "argv, stray",
    [
        (("dist", "--model", "hadamard", "--alpha-sq", "0.9", "--nmax", "2", "--format", "json"), "--alpha-sq"),
        (("return", "--model", "qw", "--alpha-sq", "0.3", "--a", "0.2", "--d", "0.5", "--p", "0.9", "--nmax", "2"), "--a, --d, --p"),
        (("genfunc", "--model", "crw", "--a", "0.7", "--d", "0.6", "--alpha-sq", "0.3", "--z-count", "2"), "--alpha-sq"),
        (("genfunc", "--model", "polya2d", "--p", "0.5", "--z-count", "2"), "--p"),
    ],
    ids=["hadamard-alpha-sq", "qw-crw-and-rw-flags", "crw-alpha-sq", "polya2d-p"],
)
def test_a_flag_the_model_does_not_read_is_usage_error(capsys, argv, stray):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"model {argv[2]!r} does not read {stray}" in err


@pytest.mark.parametrize("command", ["dist", "return"])
def test_rw_rejects_the_crw_initial_weight(capsys, command):
    # An rw walk does not depend on the last step: --phi1 would change nothing.
    argv = (command, "--model", "rw", "--p", "0.3", "--nmax", "200", "--format", "json")
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--phi1", "0.1")
    assert (code, out) == (2, "")
    assert "model 'rw' does not read --phi1" in err


def test_crw_initial_weight_defaults_to_one_half(capsys):
    argv = ("return", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "8", "--format", "json")
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert json.loads(default[1])["meta"]["params"]["phi1_hat"] == 0.5
    assert run_cli(capsys, *argv, "--phi1", "0.5") == default
    # A given 0 is a value, not a flag left out.
    for phi1 in ("0", "1"):
        code, out, _ = run_cli(capsys, *argv, "--phi1", phi1)
        assert code == 0
        assert json.loads(out)["meta"]["params"]["phi1_hat"] == float(phi1)


# ---------------------------------------------------------------------------
# one parser per process


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """A mixed request sequence run in one process gives, request by request,
    the stdout, --out bytes, stderr and exit code of a fresh interpreter."""
    out = str(tmp_path / "table.txt")
    hadamard = ("return", "--model", "hadamard", "--nmax", "8")
    sequence = [
        ({}, ("return", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "6", "--tol", "1e-30")),
        ({}, ("return", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "6")),
        ({}, ("return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "5", "--out", out)),
        ({}, ("genfunc", "--model", "qw", "--alpha-sq", "0.3", "--z-count", "3", "--format", "json")),
        ({"WALKERS_RETURN_TOL": "1e-30"}, hadamard),
        ({}, hadamard),
        ({}, ("dist", "--model", "crw", "--a", "0.6", "--d", "0.7", "--nmax", "4", "--format", "gnuplot", "--out", out)),
        ({}, ("genfunc", "--model", "polya2d", "--z-count", "2", "--format", "gnuplot")),
        ({}, ("verify", "specfun")),
        ({}, ("genfunc", "--model", "rw", "--p", "0.5", "--z-stop", "1.5")),
        ({}, ("dist", "--model", "qw", "--nmax", "many")),
        ({}, ("--version",)),
        ({}, ("dist", "--model", "hadamard", "--nmax", "3", "--format", "json", "--out", out)),
    ]
    # Usage text wraps at the terminal width: fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("WALKERS_RETURN_TOL", raising=False)
    base_env = child_env()

    def written(argv):
        if "--out" not in argv:
            return None
        path = Path(out)
        data = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        return data

    in_process = []
    for env, argv in sequence:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, written(argv)))
        for key in env:
            monkeypatch.delenv(key)

    codes = [result[0] for result in in_process]
    assert codes == [1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0]
    for (env, argv), expected in zip(sequence, in_process):
        child = subprocess.run(
            [sys.executable, "-m", "walkers_return", *argv],
            env=dict(base_env, **env),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr, written(argv)) == expected, argv
