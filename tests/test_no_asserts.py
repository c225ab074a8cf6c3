"""No ``assert`` statement in the package.

``python -O`` strips assert statements, so a check written as one would
vanish there; the package raises instead.  Its source is read with ``ast``
and any assert fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ansatzkit"


def test_package_has_no_assert_statements():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
