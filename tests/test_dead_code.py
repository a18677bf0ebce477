"""Every module-level private helper in the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivergrass"


def _references(node: ast.AST) -> set:
    """Names read, attributes taken and names imported under one node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _private_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


# One entry per top-level statement of every module: (module, statement).
STATEMENTS = [
    (path.name, node)
    for path in sorted(PACKAGE.glob("*.py"))
    for node in ast.parse(path.read_text(encoding="utf-8")).body
]
REFS = [_references(node) for _, node in STATEMENTS]
PRIVATE = [
    (module, name, k)
    for k, (module, node) in enumerate(STATEMENTS)
    for name in _private_names(node)
]


def _used_outside(name: str, k: int) -> bool:
    # A helper that only calls itself is not used.
    return any(name in refs for j, refs in enumerate(REFS) if j != k)


def test_the_guard_sees_the_package():
    assert ("weyl.py", "_int_mul") in {(m, n) for m, n, _ in PRIVATE}


@pytest.mark.parametrize(
    "module, name, k", PRIVATE, ids=[f"{m}:{n}" for m, n, _ in PRIVATE]
)
def test_private_helper_is_referenced(module, name, k):
    assert _used_outside(name, k), (
        f"{module} defines {name}, which nothing else in the package uses"
    )
