"""Count code lines: lines that hold a token outside comments and
docstrings.

A docstring is the string literal that opens a module, class or
function body. Blank lines, comment lines, docstring lines and the
lines that only continue a docstring or a comment hold no token and are
not counted; a line that holds both code and a comment is. A string
that is not a docstring counts on every line it spans.

    python tools/code_lines.py src/cogflow            # total, all .py files
    python tools/code_lines.py -v src/cogflow/blend.py  # per file, then total
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NO_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) of each docstring's first character."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_source(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NO_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    parser.add_argument("-v", "--verbose", action="store_true", help="print each file's count")
    args = parser.parse_args(argv)
    total = 0
    for file in python_files(args.paths):
        count = count_source(file.read_text(encoding="utf-8"))
        if args.verbose:
            print(f"{count:6d} {file}")
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
