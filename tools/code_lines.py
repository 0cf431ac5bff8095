"""Count the lines of the ``ratespde`` package, per file and in total.

Prints, for every module of ``src/ratespde/``, its length in lines (what
``wc -l`` reports) and its code lines: the non-blank lines outside
comments and docstrings.  A line counts as code when a token other than
a comment, a line break or an indentation change starts, ends or spans
it, and that token is not part of a docstring (a string that is the
first statement of a module, class or function body).

Run from the repository root:

    python3 tools/code_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in ``tree`` covers."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Non-blank lines of ``path`` outside comments and docstrings."""
    with tokenize.open(path) as f:
        source = f.read()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path("src/ratespde")
    total_wc = total_code = 0
    print(f"{'file':<28}{'wc -l':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        wc = path.read_bytes().count(b"\n")
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<28}{wc:>8}{code:>8}")
    print(f"{'total':<28}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
