#!/usr/bin/env python3
"""Count the lines of each bayerkit module: code lines and ``wc -l`` lines.

A code line holds at least one token that is not a comment and not part of a
docstring; blank lines, comment lines and docstring lines are not counted.
This is the figure by which a change's size is judged: a change that only
trims docstrings or comments leaves it where it was. The ``wc -l`` column
counts every line, as ``wc -l`` does.

Usage: python scripts/count_lines.py [DIR]   (default: src/bayerkit)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code other than a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path, default=root / "src" / "bayerkit")
    args = ap.parse_args()
    code_total = wc_total = 0
    print(f"{'module':<16} {'code':>6} {'wc -l':>6}")
    for path in sorted(args.dir.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, wc = code_lines(source), source.count("\n")
        code_total += code
        wc_total += wc
        print(f"{path.name:<16} {code:>6} {wc:>6}")
    print(f"{'total':<16} {code_total:>6} {wc_total:>6}")


if __name__ == "__main__":
    main()
