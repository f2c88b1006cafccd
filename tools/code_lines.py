"""Code lines of each `src/hones` module and their total.

Usage, from the root of a checkout:

  python3 tools/code_lines.py [CHECKOUT] [--base BASE]

CHECKOUT defaults to this checkout.  With --base, each line holds the
module's count in the checkout BASE, in CHECKOUT and their difference, for
every module of either tree (0 where a tree lacks it).

A code line is a source line that holds a token other than a comment or a
docstring: blank lines, comment-only lines and the lines of a module, class
or function docstring do not count.  A statement that spans lines counts
each of them, and so does a string that is not a docstring.  The figures
are a pure function of the source, so they compare two trees exactly.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines of the Python `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def module_counts(checkout):
    """The code lines of each `src/hones` module of `checkout`, by file name."""
    return {path.name: code_lines(path.read_text()) for path in (Path(checkout) / "src" / "hones").glob("*.py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--base", help="a checkout to compare with: print its count, CHECKOUT's and the delta")
    args = parser.parse_args(argv)
    head = module_counts(args.checkout)
    if args.base is None:
        for name, count in sorted(head.items()) + [("total", sum(head.values()))]:
            print(f"{count:6d}  {name}")
        return 0
    base = module_counts(args.base)
    rows = [(name, base.get(name, 0), head.get(name, 0)) for name in sorted(base.keys() | head.keys())]
    print("  base    head   delta  module")
    for name, b, h in rows + [("total", sum(base.values()), sum(head.values()))]:
        print(f"{b:6d}  {h:6d}  {h - b:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
