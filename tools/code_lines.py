"""Count code lines: lines that are not blank, not comment-only and not
inside a module, class or function docstring.

    python tools/code_lines.py src/qvint

Prints the count of every .py file under each path given, largest first,
then the total.  Comment-only lines are found with tokenize, so a "#" inside
a string is not taken for one.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of the module and every class
    and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    skipped = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped)


def main(paths: list) -> int:
    files = sorted(f for path in map(Path, paths)
                   for f in ([path] if path.is_file() else path.rglob("*.py")))
    counts = {f: code_lines(f.read_text(encoding="utf-8")) for f in files}
    for f, count in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{count:6d}  {f}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
