"""The names and signatures the traced benchmark run relies on.

`bench/tracing.py` wraps `qw.step` and `crw.crw_step` by name in the package
namespaces and counts site steps from their `(field, step matrix)` arguments,
2t + 1 per call even where the call advances a stack of walkers, whether they
share one 2x2 matrix or each has its own in a (walkers, 2, 2) stack; the
lattice loops, `evolve` and `return_values` alike, must reach every step
through those names at call time.  It counts the rows of each emitted table
from `len(table.rows)`.
"""

import math
import sys
from pathlib import Path

import pytest

import walkers_return
import walkers_return.cli
import walkers_return.verify
from walkers_return.verify import DEFAULT_SEED, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

# Sum over t < 40 of the 2t + 1 sites a step at time t advances.
SITE_STEPS_40 = 1600


@pytest.fixture
def tracer():
    tracer = tracing.Tracer(walkers_return)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize(
    "model_argv, work_key",
    [
        (["--model", "qw", "--alpha-sq", "0.3"], "qw.step.site_steps"),
        (["--model", "crw", "--a", "0.7", "--d", "0.6", "--phi1", "0.3"], "crw.crw_step.site_steps"),
    ],
)
def test_traced_return_counts_every_site_step(tracer, tmp_path, model_argv, work_key):
    argv = ["return", *model_argv, "--nmax", "40", "--out", str(tmp_path / "table.csv")]
    assert walkers_return.cli.main(argv) == 0
    assert tracer.work[work_key] == SITE_STEPS_40


def test_traced_dist_counts_every_site_step(tracer, tmp_path):
    # `dist --model crw` walks the dense field through `crw.evolve_crw`.
    argv = ["dist", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "40", "--out", str(tmp_path / "table.csv")]
    assert walkers_return.cli.main(argv) == 0
    assert tracer.work["crw.crw_step.site_steps"] == SITE_STEPS_40


@pytest.mark.parametrize(
    "argv, emitter, rows",
    [
        (["return", "--model", "qw", "--alpha-sq", "0.3", "--nmax", "40"], "emit_csv", 41),
        (["dist", "--model", "crw", "--a", "0.7", "--d", "0.6", "--nmax", "40"], "emit_csv", 81),
        (["dist", "--model", "hadamard", "--nmax", "40", "--format", "json"], "emit_json", 81),
    ],
)
def test_traced_emit_counts_every_row(tracer, tmp_path, argv, emitter, rows):
    # The tracer counts `len(table.rows)`, which must stay the row count
    # for a table stored by columns.
    assert walkers_return.cli.main([*argv, "--out", str(tmp_path / "table")]) == 0
    assert tracer.work[f"cli.{emitter}.rows"] == rows
    assert tracer.calls[f"cli.{emitter}"] == 1


# Site steps the tracer counts for each suite at the default seed: 2t + 1
# once per step call, also for a call that advances a stack of walkers.  A
# step sequence to time n counts the sum over t < n of 2t + 1 = n^2, once per
# stack or single walk:
#   qw  = 10^2 (hadamard) + 5 * 60^2 (random coins, 5 stacks of 50)
#         + 60^2 (state independence) + 80^2 (oracle triangle)
#         + 60^2 (coin phases) + 1000^2 (unitarity) + 30^2 (norm)
#         + 0^2 + 1^2 + 2^2 + 37^2 + 200^2 (dist vs lattice) = 1073974
#   crw = 80^2 (closed vs simulation) + 60^2 (random-walk reduction)
#         + 30^2 (mass) = 10900
TRACED_SUITE_STEPS = {"qw": 1073974, "crw": 10900}


@pytest.mark.parametrize(
    "suite, work_key, site_steps",
    [("qw", "qw.step.site_steps", 2355974), ("crw", "crw.crw_step.site_steps", 344500)],
)
def test_traced_suite_walks_every_lattice_step(tracer, suite, work_key, site_steps):
    # The suites' lattice work is pinned, so no faster oracle may skip a step.
    # Every walker of a stack advances the step's 2t + 1 sites, which the
    # wrapper below counts on top of the tracer's per-call count.
    module_name, step, _ = work_key.split(".")
    module = getattr(walkers_return, module_name)
    traced = getattr(module, step)
    walked = 0

    def count_walkers(field, matrix_source):
        nonlocal walked
        walked += math.prod(field.packed.shape[:-2]) * (2 * field.time + 1)
        return traced(field, matrix_source)

    setattr(module, step, count_walkers)
    try:
        results = run_suite(suite, seed=DEFAULT_SEED)
    finally:
        setattr(module, step, traced)
    assert all(result.passed for result in results)
    assert walked == site_steps
    assert tracer.work[work_key] == TRACED_SUITE_STEPS[suite]
