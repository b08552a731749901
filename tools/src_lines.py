"""Line counts of the bll package: raw lines and code lines per module of
src/bll, and their totals.

A code line is a line that holds a token other than a comment, a line
break, an indentation change or part of a module, class or function
docstring; a token spanning several lines (a multi-line string) holds each
of them.  Blank lines, comment lines and docstrings therefore count as raw
lines only.

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """The line numbers that module, class and function docstrings occupy."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(raw, code) line counts of one Python source file."""
    source = Path(path).read_text()
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main():
    root = Path(__file__).resolve().parent.parent / "src" / "bll"
    total_raw = total_code = 0
    print(f"{'module':<24}{'raw':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<24}{raw:>8}{code:>8}")
    print(f"{'total':<24}{total_raw:>8,}{total_code:>8,}")


if __name__ == "__main__":
    main()
