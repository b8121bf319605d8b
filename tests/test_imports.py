"""Every module-level import in the package is used.

No linter runs on this tree, so this test is the check. ``__init__.py``
only re-exports, and ``from __future__`` imports switch on behaviour, so
neither is checked. A name counts as used when the module reads it: as a
name anywhere in its code, or inside a string that parses as an
expression (a quoted annotation such as ``"Dpi"``).
"""

import ast
import types
from pathlib import Path

import pytest

import hsdiag

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hsdiag"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def read_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in imported_names(tree) if name not in read_names(tree)]
    assert unused == [], f"{path.name} imports names it never reads: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse('import os\nimport time\nfrom typing import Any\nx: "Any" = os.sep  # time\n')
    names = read_names(tree)
    assert [n for n in imported_names(tree) if n not in names] == ["time"]


def test_no_exported_name_is_a_module():
    # importing a name from a submodule binds the submodule in the package
    # too; ``from hsdiag import *`` must not bind it
    modules = [name for name in hsdiag.__all__ if isinstance(getattr(hsdiag, name), types.ModuleType)]
    assert modules == []
