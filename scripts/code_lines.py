"""Print the code lines and the raw lines of each Python module under a
source tree, and their totals, code lines first.

A code line is a line that holds a token other than a comment; a token that
spans lines, such as a multi-line string, holds every line it spans. The
docstrings of modules, classes and functions are not code lines, so neither
a reworded docstring nor a deleted comment changes the count:

    python scripts/code_lines.py src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in one module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    root = Path(argv[1])
    totals = [0, 0]
    print("  code     raw  module")
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        counts = code_lines(text), len(text.splitlines())
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{counts[0]:6d}  {counts[1]:6d}  {path.relative_to(root)}")
    print(f"{totals[0]:6d}  {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
