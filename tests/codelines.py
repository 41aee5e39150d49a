"""Count the code lines of Python source files.

    python tests/codelines.py src/systolic/*.py

A code line is a physical line that holds a token of code: docstrings,
comments and blank lines do not count, and a statement spread over several
lines counts each of them.  Docstrings are found with `ast` (the first
statement of a module, class or function, when it is a string), the tokens
with `tokenize`.  Prints each file's count, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one source text."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in skip)
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
