"""The benchmark's self-test runs clean against this checkout.

It sends every request kind the workloads send, so a command-line change
that breaks a workload's argv fails here before any benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    child = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stdout + child.stderr
