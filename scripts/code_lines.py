"""Count the lines of each module in ``src/exigraph/``.

Prints, per module and in total, the physical lines (as ``wc -l`` counts
them) and the code lines: lines that are not blank, not only a comment
and not part of a docstring.  A docstring is a string literal that is
the first statement of a module, class or function.

    python scripts/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "exigraph"
# tokens that are layout or comment, not code
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple[int, int]:
    """(physical lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = count(path)
        total = [total[0] + lines, total[1] + code]
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")


if __name__ == "__main__":
    main()
