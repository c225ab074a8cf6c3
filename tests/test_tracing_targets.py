"""Every layer the benchmark's tracer wraps exists in the library.

``perfbench/tracing.py`` replaces its ``TARGETS`` by name; a renamed or
deleted function would only show when a traced run crashes.  The list is
read from the file's source, without importing or writing anything there.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS list")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for prefix, module_name, path in targets:
        module = importlib.import_module(f"ansatzkit.{module_name}")
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name, None)
            found = owner is not None and callable(vars(owner).get(attr))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(prefix)
    assert missing == []
