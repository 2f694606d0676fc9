#!/usr/bin/env python3
"""Size of the package's code: code lines per module and settable parameters.

    python3 scripts/code_size.py [package_dir]

``package_dir`` defaults to ``src/rtfdoa`` of this checkout. Prints one
``<module> <code lines>`` line per module, then ``total <code lines>``,
then ``settable_parameters <count>``.

A code line is a line that holds a token other than a comment, an
indent, a dedent or a line break (``tokenize``), and that is not part of
a docstring (``ast``: a string constant that opens a module, class or
function body). A settable parameter is a function or lambda parameter
with a default value, positional or keyword-only.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    """Lines holding code, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(tree))


def settable_parameters(tree: ast.Module) -> int:
    """Parameters with a default value."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "rtfdoa"
    total = settable = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = code_lines(source, tree)
        total += lines
        settable += settable_parameters(tree)
        print(f"{path.name} {lines}")
    print(f"total {total}")
    print(f"settable_parameters {settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
