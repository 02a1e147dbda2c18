"""Print the code lines of each module of src/walkers_return/ and their total.

Usage, from anywhere:

    python3 tools/codelines.py

A code line is a physical line that holds a token other than a comment, a
docstring or whitespace: a statement wrapped over three lines counts 3, a
blank line, a comment line or a docstring line 0.  Docstrings are the
string literals that open a module, class or function body, found with
`ast`; the tokens come from `tokenize`.  It has no options, reads only
src/ and writes nothing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "walkers_return"

# Tokens that never make a line a code line.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python text `source`."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:14s} {count:5d}")
    print(f"{'total':14s} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
