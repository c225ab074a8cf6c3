"""Imports sit at module level, except where a module cycle needs them.

Two cycles are real: ``sequences`` is imported by ``optext``, which prints
a ``ShiftOperator``, and ``closure`` is imported by ``optext``, whose claim
parser builds ``ClaimTerm`` objects.  Every other import inside a function
only hides a dependency, so the package source is read with ``ast`` and any
new one fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ansatzkit"

ALLOWED = {
    ("sequences", "ShiftOperator.__str__", "optext"),
    ("optext", "parse_claim_terms", "closure"),
}


def _function_imports(tree, module):
    """(module, enclosing qualified name, imported module) for each import
    inside a function body, however deeply nested."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    name = getattr(child, "module", None) or child.names[0].name
                    found.add((module, ".".join(scope), name))
            else:
                visit(child, scope, in_function)

    visit(tree, [], False)
    return found


def test_only_the_two_cycles_import_inside_functions():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _function_imports(ast.parse(path.read_text()), path.stem)
    assert found == ALLOWED
