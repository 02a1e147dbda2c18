"""tools/codelines.py, the code-line count of src/walkers_return/, counts what it says."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

# 7 code lines: the import, the constant's two lines, the def and the
# return statement's three.  The docstrings, the comments and the blank
# lines count 0.
_FIXTURE = '''"""A module docstring,
over two lines."""

# A comment line.
import math

TEXT = """a string that is
not a docstring"""


def area(r):
    """A function docstring."""

    return (
        math.pi * r * r  # a trailing comment
    )
'''


def test_a_fixture_counts_its_code_lines_only():
    assert codelines.code_lines(_FIXTURE) == 7
    assert codelines.code_lines("") == 0
    assert codelines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_the_checkout_prints_every_module_and_their_total():
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tools" / "codelines.py")], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in result.stdout.splitlines()]
    modules = sorted(path.name for path in codelines.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows] == modules + ["total"]
    counts = [int(count) for _, count in rows]
    assert all(count > 0 for count in counts)
    assert counts[-1] == sum(counts[:-1])
    assert counts[:-1] == [codelines.code_lines((codelines.PACKAGE / name).read_text(encoding="utf-8")) for name in modules]
