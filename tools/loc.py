"""Line counts of each module of the package.

    python3 tools/loc.py [DIR]

For every ``*.py`` file under ``DIR`` (default ``src/netlasso`` of this
checkout) it prints the total lines and how they split into code,
docstring, comment and blank lines, then the sums.  A line inside a
docstring (module, class or function) counts as docstring, a blank one
too; a line holding only a comment counts as comment; any other
non-blank line counts as code.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")


def count(source):
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    comment = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    blank -= docstring
    return {"total": len(lines), "code": len(code),
            "docstring": len(docstring), "comment": len(comment),
            "blank": len(blank)}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parents[1] / "src" / "netlasso"
    sums = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        for c in COLUMNS:
            sums[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}"
                                           for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{sums[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
