"""scripts/line_coverage.py's statement table: which lines a statement
may have run on, and which statements it leaves out."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "line_coverage.py"
_SPEC = importlib.util.spec_from_file_location("line_coverage", _PATH)
line_coverage = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_coverage)

SOURCE = '''"""Module docstring."""
import os
X = (1,
     2)


def f(x):
    """Docstring."""
    if (x >
            0):
        return x
    try:
        pass
    except ValueError:
        raise
    for i in range(x): continue


if __name__ == "__main__":
    f(1)
'''


def test_statements_are_headers_without_docstrings_defs_imports_or_main():
    assert line_coverage.statements(ast.parse(SOURCE)) == [
        (3, 4),  # a statement over two lines
        (9, 10),  # an if's header, up to its body
        (11, 11),
        (12, 12),
        (13, 13),
        (15, 15),
        (16, 16),  # a for with its body on the same line
        (16, 16),
        (19, 19),  # the main guard's test runs at import; its body is left out
    ]
