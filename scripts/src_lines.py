#!/usr/bin/env python3
"""Line counts of the library: every line, and code-only lines.

For each module of ``src/pltlf``, and in total, prints the number of
lines and the number of code lines: lines that are not blank, not a
comment alone and not part of a docstring.  A docstring is a string
expression standing as a statement: the first statement of a module,
class or function, and any other bare string.

    python3 scripts/src_lines.py
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pltlf"


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by string expressions used as statements."""
    lines = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(text))
    quiet = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in quiet:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        n, c = len(text.splitlines()), code_lines(text)
        total += n
        code += c
        print(f"{path.name:<16}{n:>7}{c:>7}")
    print(f"{'total':<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main()
