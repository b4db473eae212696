#!/usr/bin/env python3
"""Statements of the package that the tier-1 tests never run.

    python scripts/line_coverage.py [PYTEST_ARGS...]

Runs the tier-1 collection (pytest with the repository's own settings,
plus any arguments given) in this process under sys.settrace and
threading.settrace, recording every line that runs in
src/hypertree_spectra/*.py.  Then it lists, as path:line and the source
line, each statement of those files that never ran, and exits 1 if it
lists any, 0 if none, or pytest's own exit code if the tests fail.

Statements are those of the files' syntax trees, except docstrings,
def and class lines, imports and the bodies of
`if __name__ == "__main__":`; a compound statement counts as run if a
line of its header ran.  Code that the tests run in a subprocess is not
seen.  Uses the standard library only, besides pytest, and imports the
package from the src/ directory beside this script.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypertree_spectra"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) header lines of every counted statement of tree."""
    out = []

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            docstring = (
                i == 0
                and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            )
            if not (docstring or isinstance(node, SKIPPED)):
                inner = [
                    child.lineno
                    for name in ("body", "orelse", "finalbody", "handlers")
                    for child in getattr(node, name, [])
                ]
                last = min(inner, default=node.end_lineno + 1) - 1
                out.append((node.lineno, max(node.lineno, last)))
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
                visit(node.orelse)
                continue
            for name in ("body", "orelse", "finalbody"):
                visit(getattr(node, name, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)
    visit(tree.body)
    return out


def main(argv: list[str]) -> int:
    # as tier-1 runs: src/ on the path, also of the tests' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"the tests failed (pytest exit code {int(code)})", file=sys.stderr)
        return int(code)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = ran.get(str(path), set())
        for first, last in statements(ast.parse(source)):
            if not lines.intersection(range(first, last + 1)):
                text = source.splitlines()[first - 1].strip()
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text}")
    print(f"{len(missed)} statements of src/hypertree_spectra never ran")
    print("\n".join(missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
