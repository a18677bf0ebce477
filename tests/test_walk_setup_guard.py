"""A representation becomes an F_p walk in one place, `grassmann._CountSetup`.

So only the modules whose answer is itself an F_p representation refer to
`reduce_mod`, the arrow maps are split and packed by one call each, and
every walk takes its slots from a set-up.
Enumeration turns its leaves into `Subrep`s in one place, `grassmann._subreps`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivergrass"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _refers_to(node: ast.AST, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
            or (isinstance(node, ast.FunctionDef) and node.name == name))


def _call_sites(name: str) -> list:
    """(module, enclosing definitions) of every call to `name`."""
    out = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and _refers_to(node.func, name):
            out.append((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, tree in TREES.items():
        visit(tree, module, ())
    return out


def test_the_guard_sees_the_package():
    assert {"grassmann", "geomrep", "demazure", "repmod"} <= set(TREES)


def test_only_three_modules_refer_to_reduce_mod():
    # repmod defines it; graded_submodules reduces the ambient of the Subreps
    # it returns; acceptance criteria 3 and 8 enumerate over an F_p ambient.
    referring = {m for m, tree in TREES.items()
                 if any(_refers_to(node, "reduce_mod") for node in ast.walk(tree))}
    assert referring == {"repmod", "grassmann", "acceptance"}


def test_the_set_up_alone_splits_and_packs_arrow_maps():
    assert _call_sites("sparse_columns") == [("grassmann", "_CountSetup.__init__")]
    assert _call_sites("_columns_mod") == [("grassmann", "_CountSetup.columns")]


def test_every_walk_takes_its_slots_from_a_set_up():
    # `_leaves(*setup.slots(p), target, cap, combine)`, the set-up being
    # `self` inside `_CountSetup` or a `_CountSetup(...)` built at the call.
    calls = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _refers_to(node.func, "_leaves")]
    assert len(calls) >= 3
    for call in calls:
        first = call.args[0]
        assert isinstance(first, ast.Starred), ast.unparse(call)
        slots = first.value
        assert isinstance(slots, ast.Call) and isinstance(slots.func, ast.Attribute), \
            ast.unparse(call)
        setup = slots.func.value
        assert slots.func.attr == "slots" and (
            (isinstance(setup, ast.Name) and setup.id == "self")
            or (isinstance(setup, ast.Call) and _refers_to(setup.func, "_CountSetup"))
        ), ast.unparse(call)


def test_enumeration_builds_its_subreps_in_one_place():
    assert [scope for module, scope in _call_sites("Subrep") if module == "grassmann"] == [
        "_subreps"]
