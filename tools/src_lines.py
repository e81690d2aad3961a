"""Count the lines of each module of a checkout's `src/ss3m`, by kind.

    python3 tools/src_lines.py [CHECKOUT]

CHECKOUT is a repository root (default: the current directory). For each
module, and in total, it prints four counts:

  * lines: every line of the file;
  * code: the lines that hold a token of code (a string that is not a
    docstring counts as code on every line it spans);
  * docstring: the lines a module, class or function docstring spans,
    blank lines inside it included;
  * comment: the lines that hold a comment and no code.

Blank lines outside a docstring count only under lines. Comparing code
across two checkouts tells code that was removed from docstrings and
comments that were trimmed.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{"lines", "code", "docstring", "comment"} for one module's text."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return {"lines": len(source.splitlines()), "code": len(code),
            "docstring": len(docstring), "comment": len(comment - code)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=".")
    args = parser.parse_args(argv)
    kinds = ("lines", "code", "docstring", "comment")
    total = dict.fromkeys(kinds, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in kinds))
    for path in sorted((Path(args.checkout) / "src" / "ss3m").glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in kinds:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in kinds))
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in kinds))


if __name__ == "__main__":
    main()
