"""Independent checks of the program's outputs.

Reference values come from `scipy.special` (Legendre polynomials, log-gamma,
the complete elliptic integral K) and from properties every correct output
must have; nothing here calls the program's own `specfun`.  Every
comparison is written so that a NaN fails it.

Two references need a word:

* the correlated walk's closed form uses T_j = delta_-^j P_j(delta_+/delta_-),
  whose Legendre argument lies outside [-1, 1], so P_j alone overflows
  long before j = 2000.  The explicit sum
  P_j(y) = sum_k C(j,k)^2 ((y-1)/2)^(j-k) ((y+1)/2)^k turns it into
  T_j = sum_k C(j,k)^2 (bc)^(j-k) (ad)^k, a sum of positive terms that is
  evaluated in the log domain (log-factorials from `gammaln`);
* the quantum and correlated generating functions are compared with the
  series of those reference values summed until the tail is below 1e-14.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import special

# Agreement today (see README.md) is 1e-13 or better for every column
# compared here except gf_qw, whose quadrature is run to 1e-10; each bound
# leaves a margin and still catches a value moved by 1e-6.
CLOSED_TOL = 1e-11
DIST_MASS_TOL = 1e-9
DIST_ORIGIN_TOL = 1e-11
SERIES_TOL = 1e-11
GF_TOL = {"qw": 1e-8, "hadamard": 1e-11, "crw": 1e-11, "rw": 1e-11, "polya2d": 1e-11}
TAIL_RTOL = 1e-9
REFERENCE_TAIL = 1e-14

# Watson's value of the 3-D Polya recurrence probability.
POLYA3D_F = 0.3405373296
POLYA3D_TOL = 1e-9


class Report:
    """Counts passed checks and keeps a line for each failed one."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        if bool(ok):
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def _within(a, b, tol: float) -> bool:
    """True when every |a - b| <= tol; NaN anywhere makes it False."""
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def _unit_interval(values) -> bool:
    values = np.asarray(values, float)
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


# ---------------------------------------------------------------------------
# reference values


def qw_returns(alpha_sq: float, nmax: int) -> np.ndarray:
    """r_0..r_nmax of the quantum walk from scipy's Legendre polynomials."""
    k = 2.0 * alpha_sq - 1.0
    r = np.zeros(nmax + 1)
    r[0] = 1.0
    j = np.arange(1, nmax // 2 + 1)
    p_hi = special.eval_legendre(j, k)
    p_lo = special.eval_legendre(j - 1, k)
    r[2 * j] = (p_lo * p_lo - 2.0 * k * p_hi * p_lo + p_hi * p_hi) / (2.0 * (k + 1.0))
    return r


def _log_binom(n, k):
    return special.gammaln(n + 1.0) - special.gammaln(k + 1.0) - special.gammaln(n - k + 1.0)


def crw_returns(a: float, d: float, phi1: float, nmax: int) -> np.ndarray:
    """r_0..r_nmax of the correlated walk given as the CLI's --a/--d/--phi1."""
    b = 1.0 - d  # the CLI stores b = 1 - d and derives d back from it
    d = 1.0 - b
    c = 1.0 - a
    s = a * c * phi1 + b * d * (1.0 - phi1)
    k_plus, k_minus = s + a * d, s - a * d
    delta_minus = a * d - b * c
    jmax = nmax // 2
    log_bc, log_ad = math.log(b * c), math.log(a * d)
    log_factorial = special.gammaln(np.arange(jmax + 1) + 1.0)
    k = np.arange(jmax + 1)
    t = np.empty(jmax + 1)
    for lo in range(0, jmax + 1, 128):  # blocks of rows j, each a log-sum-exp over k <= j
        j = np.arange(lo, min(lo + 128, jmax + 1))[:, None]
        inside = k <= j
        kk = np.where(inside, k, 0)
        log_c = log_factorial[j] - log_factorial[kk] - log_factorial[j - kk]
        terms = np.where(inside, 2.0 * log_c + (j - kk) * log_bc + kk * log_ad, -np.inf)
        top = terms.max(axis=1, keepdims=True)
        t[lo : lo + len(j)] = np.exp(top[:, 0]) * np.exp(terms - top).sum(axis=1)
    r = np.zeros(nmax + 1)
    r[0] = 1.0
    j = np.arange(1, jmax + 1)
    r[2 * j] = (k_minus * delta_minus * t[j - 1] + k_plus * t[j]) / (2.0 * a * d)
    return r


def rw_returns(p: float, nmax: int) -> np.ndarray:
    """Uncorrelated walk: r_2j = C(2j, j) (p(1-p))^j."""
    r = np.zeros(nmax + 1)
    j = np.arange(nmax // 2 + 1, dtype=float)
    r[0::2] = np.exp(_log_binom(2.0 * j, j) + j * math.log(p * (1.0 - p)))
    return r


def polya2d_returns(nmax: int) -> np.ndarray:
    """Simple 2-D walk: r_2j = (C(2j, j) / 4^j)^2."""
    r = np.zeros(nmax + 1)
    j = np.arange(nmax // 2 + 1, dtype=float)
    r[0::2] = np.exp(2.0 * (_log_binom(2.0 * j, j) - j * math.log(4.0)))
    return r


def model_returns(model: str, params: dict, nmax: int) -> np.ndarray:
    if model == "qw":
        return qw_returns(params["alpha_sq"], nmax)
    if model == "hadamard":
        return qw_returns(0.5, nmax)
    if model == "crw":
        return crw_returns(params["a"], params["d"], params["phi1"], nmax)
    if model == "rw":
        return rw_returns(params["p"], nmax)
    if model == "polya2d":
        return polya2d_returns(nmax)
    raise ValueError(f"no reference for model {model!r}")


def truncation(z: float, tol: float) -> int:
    """Smallest N with |z|^(N+1) / (1 - |z|) <= tol / 10."""
    az = abs(z)
    if az == 0.0:
        return 0
    return max(0, math.ceil(math.log(0.1 * tol * (1.0 - az)) / math.log(az) - 1.0))


def series(r: np.ndarray, z: float, nterms: int) -> float:
    return math.fsum(r[:nterms] * np.power(z, np.arange(nterms)))


def closed_gf(model: str, params: dict, z: float, r: np.ndarray) -> float:
    """Generating function from scipy closed forms or the long reference series."""
    if model == "hadamard":
        return (1.0 + z * z) * special.ellipk(z**4) / math.pi + 0.5
    if model == "rw":
        p = params["p"]
        return 1.0 / math.sqrt(1.0 - 4.0 * p * (1.0 - p) * z * z)
    if model == "polya2d":
        return 2.0 / math.pi * special.ellipk(z * z)
    return series(r, z, truncation(z, 10.0 * REFERENCE_TAIL) + 1)


# ---------------------------------------------------------------------------
# table parsing


def parse_csv(text: str) -> list[list[float]]:
    """Data rows of a CSV table (the header row skipped)."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return [[float(cell) for cell in row] for row in reader]


def parse_dist_json(text: str) -> tuple[dict, list[list[float]]]:
    doc = json.loads(text)
    return doc["meta"], [[float(row["x"]), float(row["probability"])] for row in doc["rows"]]


# ---------------------------------------------------------------------------
# checks per command


def check_return(rows, request, report: Report) -> None:
    """Columns n, r_closed, r_simulated, abs_err of one `return` table."""
    tag = f"return {request.model}"
    arr = np.asarray(rows, float)
    nmax = request.nmax
    report.expect(arr.shape == (nmax + 1, 4), f"{tag}: table shape {arr.shape}")
    if arr.shape != (nmax + 1, 4):
        return
    n, closed, simulated, abs_err = arr.T
    ref = model_returns(request.model, request.params, nmax)
    report.expect(np.array_equal(n, np.arange(nmax + 1)), f"{tag}: n column is not 0..{nmax}")
    report.expect(_within(closed, ref, CLOSED_TOL), f"{tag}: r_closed differs from the scipy Legendre form")
    report.expect(_within(simulated, ref, request.tol), f"{tag}: r_simulated differs from the scipy Legendre form")
    odd = n % 2 == 1
    report.expect(np.all(closed[odd] == 0.0) and np.all(simulated[odd] == 0.0), f"{tag}: odd-time return is not exactly 0")
    report.expect(_unit_interval(closed) and _unit_interval(simulated), f"{tag}: r_n outside [0, 1]")
    report.expect(np.array_equal(abs_err, np.abs(closed - simulated)), f"{tag}: abs_err is not |r_closed - r_simulated|")


def check_dist(rows, request, report: Report, meta: dict | None = None) -> None:
    """Columns x, probability of one `dist` table at time request.nmax."""
    tag = f"dist {request.model}"
    arr = np.asarray(rows, float)
    n = request.nmax
    report.expect(arr.shape == (2 * n + 1, 2), f"{tag}: table shape {arr.shape}")
    if arr.shape != (2 * n + 1, 2):
        return
    x, prob = arr.T
    report.expect(np.array_equal(x, np.arange(-n, n + 1)), f"{tag}: x column is not -{n}..{n}")
    report.expect(_unit_interval(prob), f"{tag}: probability outside [0, 1]")
    report.expect(abs(math.fsum(prob) - 1.0) <= DIST_MASS_TOL, f"{tag}: probabilities do not sum to 1")
    report.expect(np.all(prob[(x + n) % 2 == 1] == 0.0), f"{tag}: wrong-parity site is not exactly 0")
    r_n = model_returns(request.model, request.params, n)[n]
    report.expect(_within(prob[n], r_n, DIST_ORIGIN_TOL), f"{tag}: p(x=0) differs from the reference r_{n}")
    if meta is not None:
        report.expect(meta.get("time") == n, f"{tag}: meta time is not {n}")


def check_genfunc(rows, request, report: Report) -> None:
    """Columns z, gf_closed, gf_series, abs_err, tail_bound of one scan."""
    model, tol = request.model, request.tol
    start, stop, count = request.zgrid
    tag = f"genfunc {model} z={start}..{stop}"
    arr = np.asarray(rows, float)
    report.expect(arr.shape == (count, 5), f"{tag}: table shape {arr.shape}")
    if arr.shape != (count, 5):
        return
    z, closed, summed, abs_err, tail = arr.T
    report.expect(np.array_equal(z, np.linspace(start, stop, count)), f"{tag}: z column is not the requested grid")
    zmax = float(np.max(np.abs(np.linspace(start, stop, count))))
    r = model_returns(model, request.params, truncation(zmax, 10.0 * REFERENCE_TAIL) + 1)
    for i, zi in enumerate(np.linspace(start, stop, count)):
        zi = float(zi)
        nterms = truncation(zi, tol) + 1
        expected_tail = abs(zi) ** nterms / (1.0 - abs(zi))
        report.expect(_within(tail[i], expected_tail, TAIL_RTOL * expected_tail), f"{tag}: tail_bound at z={zi}")
        report.expect(_within(summed[i], series(r, zi, nterms), SERIES_TOL), f"{tag}: gf_series at z={zi}")
        report.expect(_within(closed[i], closed_gf(model, request.params, zi, r), GF_TOL[model]), f"{tag}: gf_closed at z={zi}")
    report.expect(np.array_equal(abs_err, np.abs(closed - summed)), f"{tag}: abs_err is not |gf_closed - gf_series|")
    report.expect(bool(np.all(abs_err <= tol + tail)), f"{tag}: closed form and series disagree")


def check_verify(results, request, report: Report) -> None:
    """Every CheckResult of one suite passes with a finite residual."""
    report.expect(len(results) > 0, f"verify {request.suite}: no checks ran")
    for r in results:
        report.expect(
            r.passed and math.isfinite(r.residual) and r.residual <= r.tolerance,
            f"verify {request.suite}: {r.name} residual={r.residual!r} tol={r.tolerance!r}",
        )


def check_polya3d(f: float, report: Report) -> None:
    report.expect(abs(f - POLYA3D_F) <= POLYA3D_TOL, f"polya3d F={f!r} differs from Watson's {POLYA3D_F}")


def check_output(request, output, report: Report) -> None:
    """Dispatch one request's output (text, or CheckResults) to its check."""
    if request.command == "verify":
        check_verify(output, request, report)
    elif request.command == "dist" and request.fmt == "json":
        meta, rows = parse_dist_json(output)
        check_dist(rows, request, report, meta)
    else:
        rows = parse_csv(output)
        {"return": check_return, "dist": check_dist, "genfunc": check_genfunc}[request.command](
            rows, request, report
        )
