"""Print the size of each ``src/cellforest/*.py`` module and the totals.

Two counts per file: physical lines, and code lines, which leave out blank
lines, comment-only lines and the lines of docstrings (a string literal that
opens a module, class or function body, found with ``ast``). A line counts
as code when ``tokenize`` finds a token on it other than a comment, a line
break or an indent. Run from anywhere: ``python tools/src_size.py``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cellforest"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main() -> int:
    total_physical = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        physical, code = sizes(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>7}{code:>7}")
    print(f"{'total':<16}{total_physical:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
