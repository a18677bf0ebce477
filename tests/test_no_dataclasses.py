"""No module of the package imports `dataclasses`.

Importing it pulls in `inspect`, `ast`, `dis` and `tokenize`, and each
decorated class compiles its generated methods at import, which every CLI
verb would pay at start-up. The package's records are named tuples instead.
This reads the sources, so it also covers modules that no CLI test imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivergrass"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_modules(tree: ast.AST) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_the_guard_sees_the_package():
    assert "typing" in _imported_modules(ast.parse((PACKAGE / "quiver.py").read_text()))
    assert "dataclasses" in _imported_modules(ast.parse("from dataclasses import dataclass"))
    assert "dataclasses" in _imported_modules(ast.parse("def f():\n    import dataclasses\n"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_does_not_import_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "dataclasses" not in _imported_modules(tree), (
        f"{path.name} imports dataclasses; define its records as typing.NamedTuple"
    )
