"""Self-test of the independent checks: clean outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Runs small requests of every kind the workloads send, checks their outputs,
then checks copies in which one value is moved by 1e-6 or replaced by NaN
(one copy per corrupted cell, for the first, middle and last row of every
column) and a copy with its last row missing.  Every corrupted copy must
fail its check; NaN matters because `max(0.0, nan)` is 0.0, so a check
written as a running maximum lets NaN through.  Exits 0 when the checks
behave as intended, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

from run import OUT, Program

import checks
from workloads import GENFUNC_TOL, RETURN_TOL, Request

NUDGE = 1e-6


def requests(out_dir: Path) -> list[Request]:
    qw, crw = {"alpha_sq": 0.3}, {"a": 0.7, "d": 0.6, "phi1": 0.3}
    flags = {"qw": ["--alpha-sq", "0.3"], "crw": ["--a", "0.7", "--d", "0.6", "--phi1", "0.3"],
             "hadamard": [], "rw": ["--p", "0.35"], "polya2d": []}
    params = {"qw": qw, "crw": crw, "hadamard": {"alpha_sq": 0.5}, "rw": {"p": 0.35}, "polya2d": {}}
    made = []
    for model in ("qw", "crw", "hadamard"):
        made.append(Request("return", model, params[model],
                            ("return", "--model", model, *flags[model], "--nmax", "60", "--tol", repr(RETURN_TOL[model])),
                            nmax=60, tol=RETURN_TOL[model]))
    for model, fmt in (("qw", "csv"), ("hadamard", "json"), ("crw", "csv")):
        out = out_dir / f"dist-{model}.{fmt}"
        made.append(Request("dist", model, params[model],
                            ("dist", "--model", model, *flags[model], "--nmax", "50", "--format", fmt, "--out", str(out)),
                            out=out, fmt=fmt, nmax=50))
    for model, stop in (("qw", 0.98), ("crw", 0.98), ("hadamard", 0.97), ("rw", 0.97), ("polya2d", 0.97)):
        tol = GENFUNC_TOL[model]
        made.append(Request("genfunc", model, params[model],
                            ("genfunc", "--model", model, *flags[model], "--z-start", "-0.45", "--z-stop", repr(stop),
                             "--z-count", "5", "--tol", repr(tol)),
                            zgrid=(-0.45, stop, 5), tol=tol))
    made += [Request("verify", suite=suite, seed=7) for suite in ("specfun", "crw")]
    return made


def table_checker(request, text):
    """(rows, function checking a list of rows) for one table output."""
    if request.command == "dist" and request.fmt == "json":
        meta, rows = checks.parse_dist_json(text)
        return rows, lambda r, report: checks.check_dist(r, request, report, meta)
    rows = checks.parse_csv(text)
    check = {"return": checks.check_return, "dist": checks.check_dist, "genfunc": checks.check_genfunc}[request.command]
    return rows, lambda r, report: check(r, request, report)


def corruptions(rows):
    """(label, corrupted copy) for every nudged or NaN cell, plus a truncated copy."""
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        for j in range(len(rows[i])):
            for label, value in (("+1e-6", rows[i][j] + NUDGE), ("NaN", math.nan)):
                copy = [list(row) for row in rows]
                copy[i][j] = value
                yield f"row {i} col {j} {label}", copy
    yield "last row dropped", [list(row) for row in rows[:-1]]


def fails(check, data) -> bool:
    report = checks.Report()
    check(data, report)
    return not report.ok


def main() -> int:
    program = Program()
    out_dir = OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    clean = caught = 0
    problems = []
    for request in requests(out_dir):
        ok, output = program.execute(request)
        if request.out is not None:
            output = request.out.read_text(encoding="utf-8")
        if not ok:
            problems.append(f"{request.argv or request.suite}: the program failed: {output}")
            continue
        if request.command == "verify":
            data = list(output)
            check = lambda r, report, request=request: checks.check_verify(r, request, report)  # noqa: E731
            variants = []
            for i in sorted({0, len(data) - 1}):
                for label, value in (("+1e-6", data[i].residual + NUDGE), ("NaN", math.nan)):
                    copy = list(data)
                    copy[i] = dataclasses.replace(data[i], residual=value)
                    variants.append((f"check {data[i].name} residual {label}", copy))
        else:
            data, check = table_checker(request, output)
            variants = list(corruptions(data))
        name = " ".join(request.argv[:3]) if request.argv else f"verify {request.suite}"
        if fails(check, data):
            problems.append(f"{name}: clean output fails its check")
        else:
            clean += 1
        for label, copy in variants:
            if fails(check, copy):
                caught += 1
            else:
                problems.append(f"{name}: {label} passes its check")

    f = program.package.polya3d_constants()[1]
    polya = checks.check_polya3d
    for label, value, should_fail in (("clean", f, False), ("+1e-6", f + NUDGE, True), ("NaN", math.nan, True)):
        if fails(polya, value) != should_fail:
            problems.append(f"polya3d {label}: check {'passes' if should_fail else 'fails'}")
        elif should_fail:
            caught += 1
        else:
            clean += 1

    print(f"clean outputs passing: {clean}; corrupted copies caught: {caught}; problems: {len(problems)}")
    for line in problems:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
