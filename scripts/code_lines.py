"""Print the code lines of each module of a package directory, then their total.

A code line holds at least one token of code. Blank lines, comment lines and
the lines of docstrings (a module's, a class's or a function's first
statement, when it is a string) do not count; a multi-line string that is a
value does.

Usage: python scripts/code_lines.py [DIR]   (default: the checkout's src/popsynth)
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "popsynth"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args(argv)
    counts = {p.name: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(args.dir.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
