"""Imports sit at module level, except where a module cycle or the import
time of the package needs them.

One cycle is left: ``sequences`` is imported by ``optext``, which prints
a ``ShiftOperator``.  ``oeis.fetch`` imports ``urllib``'s request
machinery only for a download: it is over a quarter of the
package's import time, which every CLI call pays.  Every other import
inside a function only hides a dependency, so the package source is read
with ``ast`` and any new one fails here.

The factor lists of an ``ExpPolyFraction`` are read and combined only in
``exppoly``, so their rules are written once: no other module reads them
or their expansions.  Likewise only ``polynomials`` reaches the p-adic
root search ``_zx_roots``, so every natural-root decision takes the sign
bound of ``_zx_largest_natural_root`` first.  The integers of a field
element and of its modulus are read only in ``fields`` and ``exppoly``:
every other module takes coordinates or the one sign rule,
``canonical_sign``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ansatzkit"

ALLOWED = {
    ("sequences", "ShiftOperator.__str__", "optext"),
    ("oeis", "fetch", "urllib.error"),
    ("oeis", "fetch", "urllib.request"),
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


FRACTION_INTERNALS = {"num_factors", "den_factors", "expanded_num", "expanded_den"}


def test_only_exppoly_reads_fraction_factor_lists():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "exppoly":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in FRACTION_INTERNALS:
                found.add((path.stem, node.lineno, node.attr))
    assert not found


ELEMENT_INTERNALS = {"nums", "int_low"}


def test_only_fields_and_exppoly_read_element_integers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("fields", "exppoly"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ELEMENT_INTERNALS:
                found.add((path.stem, node.lineno, node.attr))
    assert not found


def test_only_polynomials_reaches_the_root_search():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "polynomials":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:  # a Name's id or an Attribute's attr
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if "_zx_roots" in names:
                found.add((path.stem, node.lineno))
    assert not found


def test_importing_the_package_skips_the_download_machinery():
    script = "import sys, ansatzkit, ansatzkit.cli; print('urllib.request' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
