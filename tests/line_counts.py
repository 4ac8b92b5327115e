"""Lines of code, docstring, comment and blank per file, as a Markdown table.

Usage: python tests/line_counts.py FILE...

A Python file's docstrings are the string statements that open a module,
class or function body, found with :mod:`ast`; its comment lines hold a
comment and nothing else, found with :mod:`tokenize`.  Any other file (a
shell script) has no docstrings, and its comment lines are those whose text
starts with ``#``.  Every other non-blank line is code, so the four columns
sum to the file's lines.  A change's net lines of code can then be read
apart from its docstring churn.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str, text: str) -> dict[str, int]:
    """The lines of ``text``, the contents of ``path``, by kind."""
    lines = text.splitlines()
    if path.endswith(".py"):
        docstrings = _docstring_lines(ast.parse(text, path))
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = {t.start[0] for t in tokens if t.type == tokenize.COMMENT and t.line.lstrip().startswith("#")}
    else:
        docstrings = set()
        comments = {n for n, line in enumerate(lines, 1) if line.lstrip().startswith("#")}
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(lines, 1):
        if n in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif n in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(paths: list[str]) -> int:
    total = dict.fromkeys(KINDS, 0)
    print("| file | " + " | ".join(KINDS) + " | total |")
    print("|---" * (len(KINDS) + 2) + "|")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            counts = count(path, f.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"| {path} | " + " | ".join(str(counts[k]) for k in KINDS) + f" | {sum(counts.values())} |")
    print("| **total** | " + " | ".join(str(total[k]) for k in KINDS) + f" | {sum(total.values())} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
