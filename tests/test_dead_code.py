"""Every module-level definition in the package, private or public and
exported or not, is used somewhere in it, and so is every public method of a
package class, unless an allowlist below says why it stays."""

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


def _defined_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_names(node: ast.stmt) -> list:
    return [n for n in _defined_names(node) if n.startswith("_") and not n.startswith("__")]


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
    assert {"total_points", "passed"} <= RECORD_FIELDS


@pytest.mark.parametrize(
    "module, name, k", PRIVATE, ids=[f"{m}:{n}" for m, n, _ in PRIVATE]
)
def test_private_helper_is_referenced(module, name, k):
    assert _used_outside(name, k), (
        f"{module} defines {name}, which nothing else in the package uses"
    )


# Public names that nothing in the package uses, each with why it is kept.
PUBLIC_ALLOWLIST = {
    "demazure.stabilization_sigma": "the shortest Demazure word whose stage counts are "
                                    "already stable (ROADMAP item 4); the Demazure tests "
                                    "check it",
    "grassmann.count_submodules": "the public count of an F_p Rep; the brute-force tests and "
                                  "the benchmark's `count` workload call it",
    "hull.framed_point": "the paper's framed point, Gr_v(I(w)) = L(v, w) stability, under "
                         "test: Demazure stages give stable points",
    "hull.vertex_projective": "the projective P(i), the vertex counterpart of "
                              "`vertex_injective`; tests check P(i) = I(theta i) and "
                              "that `projective_sum` is the block sum of these",
    "repmod.socle_filtration": "the socle series, the Loewy-length certificate of a "
                               "truncated injective that ROADMAP item 1 needs",
}


# Every public top-level definition of every module, exported or not:
# (module, name, statement index).
PUBLIC = [
    (module[:-3], name, k)
    for k, (module, node) in enumerate(STATEMENTS)
    for name in _defined_names(node)
    if not name.startswith("_")
]


def test_the_allowlist_names_public_definitions():
    assert set(PUBLIC_ALLOWLIST) <= {f"{m}.{n}" for m, n, _ in PUBLIC}


@pytest.mark.parametrize(
    "module, name, k", PUBLIC, ids=[f"{m}.{n}" for m, n, _ in PUBLIC]
)
def test_public_name_is_used_or_allowlisted(module, name, k):
    if f"{module}.{name}" in PUBLIC_ALLOWLIST:
        assert not _used_outside(name, k), (
            f"{module}.{name} is used in the package; take it off the allowlist"
        )
    else:
        assert _used_outside(name, k), (
            f"{module} defines {name}, which nothing else in the package uses"
        )


# Public methods of package classes: (module, class, method, statement index).
METHODS = [
    (module, node.name, item, k)
    for k, (module, node) in enumerate(STATEMENTS)
    if isinstance(node, ast.ClassDef)
    for item in node.body
    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
]

# Public methods that nothing in the package reads, each with why it is kept.
METHOD_ALLOWLIST = {
    "palg.PathAlgebra.multiply": "the product of the preprojective algebra; tests check its "
                                 "associativity, which certifies the rewriting normal form",
}


def _attributes(node: ast.AST) -> set:
    """Attribute names taken under one node."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _called_attributes(node: ast.AST) -> set:
    """Attribute names called under one node, as in `x.name(...)`."""
    return {sub.func.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)}


ATTRS = [_attributes(node) for _, node in STATEMENTS]
CALLED = [_called_attributes(node) for _, node in STATEMENTS]

# Field names of the package's records (annotated names in a class body).
RECORD_FIELDS = {
    item.target.id
    for _, node in STATEMENTS
    if isinstance(node, ast.ClassDef)
    for item in node.body
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
}


def _is_property(item: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)


def _method_used(method: ast.FunctionDef, k: int) -> bool:
    """Whether the package reads the method as an attribute outside its own body.

    A bare name does not count: a local variable named like the method is
    no use of it.  Nor does reading a record's field: a plain method named
    like a field of a package record counts only where it is called,
    `x.name(...)`, so `report.total_points` is no use of a `total_points()`.
    """
    name = method.name
    if name in RECORD_FIELDS and not _is_property(method):
        found, taken = CALLED, _called_attributes
    else:
        found, taken = ATTRS, _attributes
    siblings = [item for item in STATEMENTS[k][1].body if getattr(item, "name", None) != name]
    return (any(name in attrs for j, attrs in enumerate(found) if j != k)
            or any(name in taken(item) for item in siblings))


def test_the_method_allowlist_names_methods():
    assert set(METHOD_ALLOWLIST) <= {f"{m[:-3]}.{c}.{f.name}" for m, c, f, _ in METHODS}


@pytest.mark.parametrize(
    "module, cls, item, k", METHODS, ids=[f"{m[:-3]}.{c}.{f.name}" for m, c, f, _ in METHODS]
)
def test_public_method_is_used_or_allowlisted(module, cls, item, k):
    name = item.name
    used = _method_used(item, k)
    if f"{module[:-3]}.{cls}.{name}" in METHOD_ALLOWLIST:
        assert not used, f"{cls}.{name} is used in the package; take it off the allowlist"
    else:
        assert used, f"{module} defines {cls}.{name}, which nothing else in the package reads"
