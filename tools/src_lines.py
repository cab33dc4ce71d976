#!/usr/bin/env python3
"""Line counts of the package source: total and code-only.

*Total* is every physical line of every ``.py`` file under ``src/``.
*Code-only* drops blank lines, comment-only lines and docstring lines:
a line counts when some token other than a comment or a line break
starts, ends or spans it (found with :mod:`tokenize`), and it does not
lie inside a module, class or function docstring (found with :mod:`ast`).
A string literal that is not a docstring is code.

Run from anywhere; a change that claims fewer lines quotes this tool's
output on the parent tree and on the change:

    python tools/src_lines.py            # src/: <total> lines, <code> code-only (<files> files)
    python tools/src_lines.py --json     # {"code": ..., "files": ..., "total": ...}
    python tools/src_lines.py path/to/dir_or_file.py
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Tokens that never make a line code.
_LAYOUT = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                     tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                     tokenize.ENDMARKER})


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> tuple[int, int]:
    """``(total, code_only)`` line counts of one module's text."""
    total = len(source.splitlines())
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return total, len(code - docstring_lines(ast.parse(source)))


def count_paths(root: pathlib.Path) -> dict[str, int]:
    """Summed counts over one file or every ``.py`` file below a directory."""
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total = code = 0
    for path in files:
        file_total, file_code = count_source(path.read_text())
        total += file_total
        code += file_code
    return {"files": len(files), "total": total, "code": code}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", type=pathlib.Path, default=SRC,
                        help="file or directory to count (default: src/)")
    parser.add_argument("--json", action="store_true",
                        help="print the counts as one JSON object")
    args = parser.parse_args(argv)
    counts = count_paths(args.path)
    if args.json:
        print(json.dumps(counts, sort_keys=True))
    else:
        label = "src/" if args.path == SRC else str(args.path)
        print(f"{label}: {counts['total']} lines, {counts['code']} code-only "
              f"({counts['files']} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
