"""Count code lines under a path: ``python benchmarks/count_code_lines.py src``.

A code line carries at least one token that is not a comment, and is not part
of a docstring.  Blank lines, comment-only lines and docstrings are free, so
the number moves only when code does — it is the figure ROADMAP north-star 2
("the same behaviour from the least code") is about.  CI prints it for
``src/`` on every run; nothing gates on it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    source = path.read_bytes()
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        ):
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    root = Path(argv[1])
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    print(sum(code_lines(path) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
