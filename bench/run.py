"""End-to-end benchmark of walkers-return: one closed-loop client, one process.

Usage (from the root of a checkout; the program is imported from ./src):

    python3 bench/run.py --workload long-horizon --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a fixed list of requests (see workloads.py) sent one after
another, each as soon as the previous one returns: `cli.main(argv)` or
`verify.run_suite(suite, seed)` called in-process.  After one untimed
warm-up pass the request list is repeated for --seconds; every request of
every pass must succeed and reproduce the warm-up output exactly, and the
warm-up outputs go through the independent checks of checks.py.

Every timing is reported in reference-scaled seconds: raw seconds times
NOMINAL_S / (the reference kernel's time measured beside it); see
refkernel.py.  The raw seconds are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracing.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# One process, no extra threads: numpy's BLAS must not start a pool.  Set
# before anything imports numpy; inherited by the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

import refkernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A kernel slice runs between requests once this long has passed since the
# last one, so each segment of a pass is scaled by the machine speed
# measured around it (the speed drifts on a scale of about half a second).
SLICE_GAP_S = 0.25
SETUP_RUNS = 25

# A fresh interpreter times the import and parser build, then times the
# reference kernel itself: the kernel in the same process, right after,
# tracks the machine's speed far better than one timed in this process.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import walkers_return.cli\n"
    "walkers_return.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import refkernel\n"
    "print(repr(elapsed), *(repr(refkernel.time_kernel()) for _ in range(3)))\n"
)


class Program:
    """The package under test, imported from the checkout's src/."""

    def __init__(self) -> None:
        init = SRC / "walkers_return" / "__init__.py"
        if not init.is_file():
            raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a checkout of walkers-return")
        sys.path.insert(0, str(SRC))
        import walkers_return
        import walkers_return.cli
        import walkers_return.verify

        if SRC.resolve() not in Path(walkers_return.__file__).resolve().parents:
            raise SystemExit(f"error: walkers_return was imported from {walkers_return.__file__}, not {SRC}")
        self.package = walkers_return
        self.cli = walkers_return.cli
        self.verify = walkers_return.verify

    def execute(self, request):
        """Run one request; returns (succeeded, output).  Failures are counted, not raised."""
        try:
            if request.command == "verify":
                results = self.verify.run_suite(request.suite, seed=request.seed)
                return all(r.passed for r in results), results
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = self.cli.main(list(request.argv))
            return status == 0, buffer.getvalue()
        except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
            return False, f"{type(exc).__name__}: {exc}"


def collect_output(request, output):
    """What a request produced: --out file contents, captured stdout or CheckResults."""
    if request.out is not None:
        return request.out.read_text(encoding="utf-8") if request.out.is_file() else None
    return output


def fingerprint(request, output):
    if request.command == "verify":
        return tuple((r.name, r.residual, r.tolerance) for r in output)
    return output


class Pass:
    """One pass over the request list with its raw and scaled timings."""

    def __init__(self, n: int) -> None:
        self.raw = [0.0] * n
        self.factor = [1.0] * n
        self.ok = [False] * n
        self.outputs = [None] * n

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def scaled_s(self) -> float:
        return sum(r * f for r, f in zip(self.raw, self.factor))

    def scaled(self, i: int) -> float:
        return self.raw[i] * self.factor[i]


class Runner:
    def __init__(self, program: Program, requests) -> None:
        self.program = program
        self.requests = requests
        self.kernel_s = refkernel.time_kernel()
        self.kernel_samples = [self.kernel_s]

    def _slice(self) -> float:
        """Time a kernel slice; returns the scale factor of the segment it closes."""
        k = refkernel.time_kernel()
        self.kernel_samples.append(k)
        factor = refkernel.NOMINAL_S / (0.5 * (self.kernel_s + k))
        self.kernel_s = k
        return factor

    def run_pass(self, tracer=None) -> Pass:
        gc.collect()
        result = Pass(len(self.requests))
        if tracer is not None:
            tracer.install()
        try:
            segment_start = 0
            last_slice = time.perf_counter()
            for i, request in enumerate(self.requests):
                if tracer is not None:
                    tracer.request = i
                start = time.perf_counter()
                result.ok[i], result.outputs[i] = self.program.execute(request)
                result.raw[i] = time.perf_counter() - start
                if tracer is not None:
                    tracer.request = -1
                if time.perf_counter() - last_slice >= SLICE_GAP_S or i == len(self.requests) - 1:
                    factor = self._slice()
                    for j in range(segment_start, i + 1):
                        result.factor[j] = factor
                    segment_start = i + 1
                    last_slice = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i, request in enumerate(self.requests):
            result.outputs[i] = collect_output(request, result.outputs[i])
        return result


def measure_setup(importtime: bool) -> list[tuple[float, float, str]]:
    """(raw seconds, scale factor, stderr) of SETUP_RUNS fresh interpreters, run one at a time."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += ["-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR)]
    runs = []
    for i in range(SETUP_RUNS + 1):
        child = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
        if i > 0:  # the first interpreter also writes the bytecode caches
            elapsed, *kernel = map(float, child.stdout.split())
            runs.append((elapsed, refkernel.NOMINAL_S / statistics.median(kernel), child.stderr))
    return runs


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy import s, package import s excluding numpy) from -X importtime output.

    Lines are "import time: self | cumulative | name", the name indented by
    nesting depth; the package's import is the outermost walkers_return entry.
    """
    numpy_s = package_s = 0.0
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]) * 1e-6, fields[2][1:]
        if name.strip() == "numpy" and not numpy_s:
            numpy_s = cumulative
        elif name.startswith("walkers_return"):
            package_s += cumulative
    return numpy_s, package_s - numpy_s


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def thread_count() -> int:
    """OS threads of this process (1 means no pool was started)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    program = Program()
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    requests = workloads.build(workload, seed, out_dir)
    for request in requests:  # a table left by an earlier run must not pass for this run's
        if request.out is not None:
            request.out.unlink(missing_ok=True)
    setup_runs = measure_setup(importtime=trace)

    runner = Runner(program, requests)
    warmup = runner.run_pass()
    warmup.ok = [ok and output is not None for ok, output in zip(warmup.ok, warmup.outputs)]
    reference = [fingerprint(r, o) if ok else None for r, ok, o in zip(requests, warmup.ok, warmup.outputs)]

    tracer = tracing.Tracer(program.package) if trace else None
    passes, traced, snapshots = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = trace and len(passes) > len(traced)
        result = runner.run_pass(tracer if use_tracer else None)
        for request, ok, output, ref in zip(requests, result.ok, result.outputs, reference):
            attempted += 1
            if not ok or ref is None or fingerprint(request, output) != ref:
                failed += 1
        if use_tracer:
            traced.append(result)
            snapshots.append(snapshot(tracer, result, requests))
            if len(traced) == 1:
                tracer.write_spans(OUT / f"spans-{workload}.csv")
            tracer.reset()
        else:
            passes.append(result)
        result.outputs = None  # checked; keeping them would grow the peak RSS with the pass count
        if time.perf_counter() >= deadline and (not trace or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = thread_count()

    # Imported only now: scipy must not count in the peak RSS measured above.
    import checks

    report = checks.Report()
    for request, ok, output in zip(requests, warmup.ok, warmup.outputs):
        if ok:
            checks.check_output(request, output, report)
    if workload == "cross-check":
        checks.check_polya3d(program.package.polya3d_constants()[1], report)
    if trace:
        report.expect(all(s["counts"] == snapshots[0]["counts"] for s in snapshots), "per-layer counts differ between traced passes")

    raw_pass = median([p.raw_s for p in passes])
    pass_s = median([p.scaled_s for p in passes])
    lines = [
        f"workload {workload}  seed {seed}  passes {len(passes)} untraced + {len(traced)} traced"
        f"  operations attempted {attempted}  failed {failed}  threads {threads}",
        f"  pass_s       {pass_s:10.4f} s   raw {raw_pass:.4f} s   (median of {len(passes)} passes,"
        f" quartiles {quartiles([p.scaled_s for p in passes])})",
        f"  kernel       {median(runner.kernel_samples):10.4f} s   nominal {refkernel.NOMINAL_S} s"
        f"   ({len(runner.kernel_samples)} slices)",
    ]
    if trace:
        numpy_s = [parse_importtime(err)[0] * f for _, f, err in setup_runs]
        package_s = [parse_importtime(err)[1] * f for _, f, err in setup_runs]
        metrics = layer_metrics(snapshots, passes, requests)
        metrics["setup.numpy_import_s"] = (median(numpy_s), "s")
        metrics["setup.package_import_s"] = (median(package_s), "s")
        metrics["trace.overhead_s"] = (median([p.scaled_s for p in traced]) - pass_s, "s")
    else:
        setup_s = median([raw * f for raw, f, _ in setup_runs])
        lines.insert(1, f"  setup_s      {setup_s:10.4f} s   raw {median([r for r, _, _ in setup_runs]):.4f} s"
                        f"   (median of {len(setup_runs)} fresh interpreters)")
        lines.insert(3, f"  peak_rss_mb  {peak_rss_mb:10.2f} MB")
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    lines.append(f"  independent checks: {report.passed} passed, {len(report.failures)} failed")
    lines.extend(f"  CHECK FAILED: {line}" for line in report.failures[:20])
    if trace:
        lines.extend(f"  {name:34s} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    return {
        "lines": lines,
        "result": {
            "correct": report.ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def snapshot(tracer, result: Pass, requests) -> dict:
    """Counts and scaled times of one traced pass."""
    scale = result.scaled_s / result.raw_s if result.raw_s else 1.0
    cli_bytes = sum(
        len(out.encode("utf-8")) for r, out in zip(requests, result.outputs) if r.command != "verify" and out
    )
    checks_run = sum(len(out) for r, out in zip(requests, result.outputs) if r.command == "verify" and out)
    counts = {
        "calls": dict(tracer.calls),
        "calls_via": dict(tracer.calls_via),
        "work": dict(tracer.work),
        "cli_bytes": cli_bytes,
        "checks": checks_run,
    }
    return {
        "counts": counts,
        "self_s": {k: v * scale for k, v in tracer.self_s.items()},
        "total_s": {k: v * scale for k, v in tracer.total_s.items()},
    }


_ELLIPTIC = ("ellipK", "ellipE", "ellipK_from_complement", "script_K", "script_E")
_EMIT = ("emit_csv", "emit_json", "emit_gnuplot")


def layer_metrics(snapshots, passes, requests) -> dict:
    counts = snapshots[0]["counts"]
    calls, via, work = counts["calls"], counts["calls_via"], counts["work"]

    def self_s(*names):
        return median([sum(s["self_s"].get(n, 0.0) for n in names) for s in snapshots])

    def rate(steps, name):
        seconds = median([s["total_s"].get(name, 0.0) for s in snapshots])
        return steps / seconds if seconds > 0 else 0.0

    qw_steps = work.get("qw.step.site_steps", 0)
    crw_steps = work.get("crw.crw_step.site_steps", 0)
    metrics = {
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.emit.self_s": (self_s(*(f"cli.{n}" for n in _EMIT)), "s"),
        "cli.emit.rows": (sum(work.get(f"cli.{n}.rows", 0) for n in _EMIT), "count"),
        "cli.emit.bytes": (counts["cli_bytes"], "B"),
        "qw.simulate_return.self_s": (self_s("qw.simulate_return"), "s"),
        "qw.simulate_return.calls": (calls.get("qw.simulate_return", 0), "count"),
        "qw.evolve.self_s": (self_s("qw.evolve"), "s"),
        "qw.site_steps": (qw_steps, "count"),
        "qw.site_steps_per_s": (rate(qw_steps, "qw.step"), "1/s"),
        "qw.return_closed_qw.self_s": (self_s("qw.return_closed_qw"), "s"),
        "qw.return_closed_qw.calls": (calls.get("qw.return_closed_qw", 0), "count"),
        "qw.return_series_qw.self_s": (self_s("qw.return_series_qw"), "s"),
        "qw.return_lemma1.self_s": (self_s("qw.return_lemma1"), "s"),
        "qw.return_lemma1.calls": (calls.get("qw.return_lemma1", 0), "count"),
        "qw.xi_bruteforce.self_s": (self_s("qw.xi_bruteforce"), "s"),
        "crw.simulate_return_crw.self_s": (self_s("crw.simulate_return_crw"), "s"),
        "crw.evolve_crw.self_s": (self_s("crw.evolve_crw"), "s"),
        "crw.site_steps": (crw_steps, "count"),
        "crw.site_steps_per_s": (rate(crw_steps, "crw.crw_step"), "1/s"),
        "crw.return_closed_crw.self_s": (self_s("crw.return_closed_crw"), "s"),
        "crw.return_closed_crw.calls": (calls.get("crw.return_closed_crw", 0), "count"),
        "crw.return_series_crw.self_s": (self_s("crw.return_series_crw"), "s"),
        "crw.return_sum_form_crw.self_s": (self_s("crw.return_sum_form_crw"), "s"),
        "specfun.legendre_eval.calls": (calls.get("specfun.legendre_eval", 0), "count"),
        "specfun.legendre_eval.degree_sum": (work.get("specfun.legendre_eval.degree_sum", 0), "count"),
        "specfun.legendre_eval.self_s": (self_s("specfun.legendre_eval"), "s"),
        "specfun.scaled_legendre_pair.degree_sum": (work.get("specfun.scaled_legendre_pair.degree_sum", 0), "count"),
        "specfun.elliptic.calls": (sum(calls.get(f"specfun.{n}", 0) for n in _ELLIPTIC), "count"),
        "specfun.elliptic.self_s": (self_s(*(f"specfun.{n}" for n in _ELLIPTIC)), "s"),
        "specfun.binom.calls": (calls.get("specfun.binom", 0), "count"),
        "genfunc.gf_qw.self_s": (self_s("genfunc.gf_qw"), "s"),
        "genfunc.integrate.calls": (calls.get("genfunc.integrate", 0), "count"),
        "genfunc.integrate.self_s": (self_s("genfunc.integrate"), "s"),
        "genfunc.integrand_evals": (
            via.get(("genfunc", "specfun.script_E"), 0) + via.get(("genfunc", "specfun.ellipK_from_complement"), 0),
            "count",
        ),
        "genfunc.series_sum.self_s": (self_s("genfunc.series_sum"), "s"),
        "genfunc.series_terms": (work.get("genfunc.series_sum.terms", 0), "count"),
        "genfunc.polya2d_series.self_s": (self_s("genfunc.polya2d_series"), "s"),
        "genfunc.polya3d_constants.self_s": (self_s("genfunc.polya3d_constants"), "s"),
    }
    for suite in workloads.VERIFY_SUITES:
        times = [p.scaled(i) for p in passes for i, r in enumerate(requests) if r.suite == suite]
        metrics[f"verify.{suite}.s"] = (median(times), "s")
    metrics["verify.checks"] = (counts["checks"], "count")
    return metrics


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"workload {workload}: exit {child.returncode}")
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
