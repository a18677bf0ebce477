"""A representation becomes an F_p walk in one place, `grassmann._CountSetup`.

So only the modules whose answer is itself an F_p representation refer to
`reduce_mod`, the arrow maps are split and packed in the set-up alone, and
every walk takes a set-up.  A hull and its set-up come from one place,
`grassmann._hull`.
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
    # `linalg` lays out the lanes of its own `Subspace`s.
    assert [site for site in _call_sites("_lanes") if site[0] != "linalg"] == [
        ("grassmann", "_CountSetup.slots")]


def test_every_walk_takes_its_slots_from_a_set_up():
    # `_leaves(setup, p, target, cap, combine)` reads `setup.slots(p)` itself,
    # and nothing else reads a set-up's slots.
    (leaves,) = [node for node in ast.walk(TREES["grassmann"])
                 if isinstance(node, ast.FunctionDef) and node.name == "_leaves"]
    assert [arg.arg for arg in leaves.args.args] == ["setup", "p", "target", "cap", "combine"]
    assert _call_sites("slots") == [("grassmann", "_leaves")]
    assert len(_call_sites("_leaves")) >= 3


def test_a_hull_and_its_set_up_come_from_one_place():
    # `grassmann._hull` builds a key's model and its set-up together.
    assert [site for site in _call_sites("injective_hull") if site[0] == "grassmann"] == [
        ("grassmann", "_hull")]
    # Elsewhere a set-up walks a stage or a quotient, never a model's module,
    # and a module that builds one builds no hull.
    outside = [node for module, tree in TREES.items() if module != "grassmann"
               for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _refers_to(node.func, "_CountSetup")]
    assert outside
    for call in outside:
        (rep,) = call.args
        assert not (isinstance(rep, ast.Attribute) and rep.attr == "rep"), ast.unparse(call)
    for module in {m for m, _ in _call_sites("_CountSetup")} - {"grassmann"}:
        assert not any(_refers_to(node, name) for node in ast.walk(TREES[module])
                       for name in ("injective_hull", "vertex_injective")), module


def test_enumeration_builds_its_subreps_in_one_place():
    assert [scope for module, scope in _call_sites("Subrep") if module == "grassmann"] == [
        "_subreps"]
