"""Count code lines: the size measure that ROADMAP's re-anchors quote.

A Python line counts when it holds a token that is not a comment and is
not part of a docstring (the string that opens a module, class or
function body). A C line counts when it is neither blank nor inside a
comment alone. Prints one count per file and, for more than one file,
their total.

    python3 tools/code_lines.py src/coopsim/*.py
    python3 tools/code_lines.py src/coopsim/_loops.c
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def python_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, _BODIES) and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def c_lines(text: str) -> int:
    count, in_comment = 0, False
    for line in text.splitlines():
        rest, code = line, False
        while rest:
            if in_comment:
                end = rest.find("*/")
                if end < 0:
                    break
                rest, in_comment = rest[end + 2:], False
                continue
            start = min((i for i in (rest.find("/*"), rest.find("//")) if i >= 0),
                        default=-1)
            code = code or bool(rest[:start if start >= 0 else len(rest)].strip())
            if start < 0 or rest.startswith("//", start):
                break
            rest, in_comment = rest[start + 2:], True
        count += code
    return count


def count(path: Path) -> int:
    text = path.read_text()
    return python_lines(text) if path.suffix == ".py" else c_lines(text)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = {name: count(Path(name)) for name in argv}
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    if len(counts) > 1:
        print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
