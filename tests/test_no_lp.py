"""The adaptive eval candidates need no LP.

``eval_oracle.adaptive_superset`` reads its box off the axis support values,
so nothing in ``src/`` calls ``linprog``.  ``eval_oracle`` still imports it
for the benchmark's probe binding.  This scan finds every other use of the
name (a name, an attribute, an import or a string), so the LP cannot come
back, and dropping that import and the scipy dependency stays a two-line
change.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "newtonpoly"
PROBE_IMPORT = ("eval_oracle", "from scipy.optimize import")


def _uses(name):
    """(module, kind) for every node in ``src/`` that mentions ``name``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and any(name in (a.name, a.asname) for a in node.names):
                found.append((path.stem, f"from {'.' * node.level}{node.module or ''} import"))
            elif isinstance(node, ast.Import) and any(name in (a.name, a.asname) for a in node.names):
                found.append((path.stem, "import"))
            elif isinstance(node, ast.Name) and node.id == name:
                found.append((path.stem, "name"))
            elif isinstance(node, ast.Attribute) and node.attr == name:
                found.append((path.stem, "attribute"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and name in node.value:
                found.append((path.stem, "string"))
    return found


def test_linprog_is_only_imported_for_the_probe():
    assert _uses("linprog") in ([], [PROBE_IMPORT])


def test_the_scan_sees_every_kind_of_use():
    # eval_oracle imports and calls box_points, reconstruct calls
    # ev.support_estimate, and a docstring names adaptive_superset
    assert ("eval_oracle", "from .polytope import") in _uses("box_points")
    assert {("eval_oracle", "name"), ("reconstruct", "attribute")} <= set(_uses("support_estimate"))
    assert ("reconstruct", "string") in _uses("adaptive_superset")
