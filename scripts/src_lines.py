"""Line census of Python modules: code, docstring, comment and blank lines.

    python scripts/src_lines.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py``; the default is
``src``.  Prints one row per module and a total.  Every physical line counts
once, in the first class that fits: code (any token that is not a comment
or a docstring, so a multi-line string that is not a docstring is code),
then docstring (a string ``ast`` finds as a module, class or function
docstring), then comment, then blank.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def census(source: str) -> dict[str, int]:
    """The number of lines of ``source`` in each class."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = {name: set() for name in CLASSES[:3]}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        kind = ("comment" if tok.type == tokenize.COMMENT
                else "docstring" if tok.type == tokenize.STRING and tok.start in docstrings else "code")
        lines[kind].update(range(tok.start[0], tok.end[0] + 1))
    counts, seen = {}, set()
    for name in CLASSES[:3]:
        counts[name] = len(lines[name] - seen)
        seen |= lines[name]
    counts["blank"] = len(source.splitlines()) - len(seen)
    return counts


def main(paths: list[str]) -> int:
    modules = sorted({m for p in map(Path, paths or ["src"]) for m in ([p] if p.is_file() else p.rglob("*.py"))})
    if not modules:
        sys.exit(f"no Python modules under {' '.join(paths or ['src'])}")
    width = max(len(str(m)) for m in modules)
    print(f"{'module':<{width}}" + "".join(f"{name:>11}" for name in CLASSES))
    total = dict.fromkeys(CLASSES, 0)
    for module in modules:
        counts = census(module.read_text(encoding="utf-8"))
        print(f"{str(module):<{width}}" + "".join(f"{counts[name]:>11}" for name in CLASSES))
        total = {name: total[name] + counts[name] for name in CLASSES}
    print(f"{'total':<{width}}" + "".join(f"{total[name]:>11}" for name in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
