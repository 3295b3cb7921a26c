"""Count the code lines of each module of the package.

    python3 scripts/code_lines.py [SRC_DIR]

A code line holds a token other than a comment and lies outside every
module, class and function docstring; blank lines, comment-only lines and
docstring lines do not count.  A token that spans lines, such as a
multi-line string that is not a docstring, counts on every line it spans.
Prints one ``module count`` line per module of ``SRC_DIR`` (by default
``src/streamista`` of this checkout), sorted by name, then ``total``.
"""

import argparse
import ast
import io
from pathlib import Path
import tokenize

ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code: layout and comments
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set:
    """The line numbers of the module, class and function docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "streamista")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
