"""Count the code lines of each module of src/sdgqc, and their total.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and the lines of docstrings (module, class and
function docstrings, found by their AST ranges) do not count.  Uses only
the standard library and imports nothing from sdgqc.

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sdgqc")

#: tokens that never make a line a code line
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
#: the nodes that can carry a docstring
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> None:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            total += count
            print(f"{name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
