"""The test settings of pyproject.toml: a failing hypothesis test fails alone.

Warnings are errors there, and hypothesis' pytest plugin warns while it
reports a failing @given test; that warning once aborted the session with an
INTERNALERROR, so every test after the failing one went unrun.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    path = tmp_path / "test_given.py"
    path.write_text(_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in run.stdout, output
