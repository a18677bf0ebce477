"""Tests for injective/projective module construction and extension maps."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

import quivergrass.hull as hull
import quivergrass.linalg as linalg
from quivergrass.acceptance import _is_hull_of
from quivergrass.errors import (
    NoSolutionError,
    NonUniqueError,
    NotDiagonalizableError,
    NotNilpotentError,
    NotSubmoduleError,
    ShapeMismatchError,
    ValidationError,
)
from quivergrass.fields import QQ
from quivergrass.hull import (
    arrow_weights,
    eigen_grading,
    extend_to_injective,
    framed_point,
    identity_framing,
    induced_automorphism,
    injective_hull,
    is_stable,
    projective_sum,
    vertex_injective,
    vertex_projective,
)
from quivergrass.linalg import Mat, col_space
from quivergrass.quiver import double, kronecker_quiver, line_quiver, star_quiver
from quivergrass.repmod import (
    full_subrep,
    is_nilpotent,
    make_rep,
    make_subrep,
    radical_filtration,
    restrict,
    socle,
    socle_filtration,
    sub_generated,
)
from quivergrass.weyl import apply_involution, diagram_involution, orbit_maximum

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
A4 = line_quiver(4)
D4 = star_quiver(3)
KR = kronecker_quiver()


def mat(rows, cols):
    return Mat.from_rows(QQ, rows, cols)


def sdims(s):
    return {v: b.cols for v, b in s.bases.items()}


def block_sum(dq, reps):
    """The block-diagonal sum over Q of representations of dq, in order."""
    dims = {v: sum(r.dim(v) for r in reps) for v in dq.vertices}
    maps = {a.name: [[0] * dims[a.src] for _ in range(dims[a.dst])] for a in dq.arrows}
    off = {v: 0 for v in dq.vertices}
    for r in reps:
        for a in dq.arrows:
            for i, row in enumerate(r.map(a.name).a):
                maps[a.name][off[a.dst] + i][off[a.src]:off[a.src] + len(row)] = row
        off = {v: off[v] + r.dim(v) for v in dq.vertices}
    return make_rep(QQ, dq, dims, maps, preprojective=False)


def indicator(q, i):
    return {v: (1 if v == i else 0) for v in q.vertices}


def test_vertex_injective_a2_frozen_matrices():
    m1 = vertex_injective(A2, "1")
    assert m1.rep.dims == {"1": 1, "2": 1}
    assert m1.rep.map("a1") == mat([[0]], 1)
    assert m1.rep.map("a1*") == mat([[1]], 1)
    m2 = vertex_injective(A2, "2")
    assert m2.rep.map("a1") == mat([[1]], 1)
    assert m2.rep.map("a1*") == mat([[0]], 1)


def test_each_constructor_call_builds_a_model_of_its_own():
    # The shared hull of a key lives behind `grassmann._hull`; the public
    # constructors still hand every caller a model it owns.
    for build in (lambda: injective_hull(A2, {"1": 1, "2": 1}),
                  lambda: vertex_injective(A2, "1")):
        first, second = build(), build()
        assert first is not second and first.rep is not second.rep
        assert first.rep.dims == second.rep.dims
        assert all(first.rep.map(a.name) == second.rep.map(a.name)
                   for a in first.quiver.arrows)


def test_hull_frozen_q11():
    m = injective_hull(A2, {"1": 1, "2": 1})
    assert m.rep.dims == {"1": 2, "2": 2}
    assert m.rep.map("a1") == mat([[0, 0], [0, 1]], 2)
    assert m.rep.map("a1*") == mat([[1, 0], [0, 0]], 2)
    assert m.pi["1"] == mat([[1, 0]], 2)
    assert m.pi["2"] == mat([[0, 1]], 2)
    assert [lab[1].length for lab in m.labels["1"]] == [0, 1]
    assert [lab[1].length for lab in m.labels["2"]] == [1, 0]
    assert m.full and m.trunc == 2


def test_vertex_injective_socle_is_vertex_simple():
    for q in (A2, A3, D4):
        for i in q.vertices:
            m = vertex_injective(q, i)
            assert sdims(socle(m.rep)) == indicator(q, i)
            assert socle(m.rep) == m.socle_subrep()


def test_dims_match_weyl_orbit_maximum():
    for q in (A2, A3, D4):
        for i in q.vertices:
            m = vertex_injective(q, i)
            assert m.rep.dims == orbit_maximum(q, indicator(q, i))


def test_hull_socle_dims_match_w():
    cases = [
        (A2, {"1": 2, "2": 1}),
        (A3, {"1": 1, "2": 0, "3": 1}),
        (D4, {"0": 1, "1": 1, "2": 0, "3": 0}),
    ]
    for q, w in cases:
        m = injective_hull(q, w)
        assert sdims(socle(m.rep)) == w
        assert sdims(m.socle_subrep()) == w


def test_socle_filtration_certificate():
    m = vertex_injective(KR, "1")
    stages = socle_filtration(m.rep)
    assert len(stages) == m.trunc + 1
    assert sdims(stages[-1]) == m.rep.dims
    m3 = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    stages3 = socle_filtration(m3.rep)
    assert sdims(stages3[-1]) == m3.rep.dims
    assert len(stages3) - 1 <= m3.trunc


def test_a1_hull_is_semisimple():
    m = injective_hull(A1, {"1": 2})
    assert m.rep.dims == {"1": 2}
    assert m.trunc == 1 and m.full
    assert sdims(socle(m.rep)) == {"1": 2}


@pytest.mark.parametrize("q", [A3, KR], ids=["finite", "affine"])
@pytest.mark.parametrize("trunc", [0, -3])
def test_truncation_below_one_is_rejected(q, trunc):
    w = {v: 1 for v in q.vertices}
    with pytest.raises(ValidationError, match="positive integer"):
        injective_hull(q, w, trunc)
    with pytest.raises(ValidationError, match="positive integer"):
        projective_sum(q, w, trunc)


def test_double_input_accepted():
    m = vertex_injective(double(A2), "1")
    assert m.rep.dims == {"1": 1, "2": 1}


def test_projective_frozen_and_dual_to_injective():
    p1 = vertex_projective(A2, "1")
    assert p1.dims == {"1": 1, "2": 1}
    assert p1.map("a1") == mat([[1]], 1)
    assert p1.map("a1*") == mat([[0]], 1)
    assert _is_hull_of(p1, vertex_injective(A2, "2"))
    assert _is_hull_of(vertex_projective(A2, "2"), vertex_injective(A2, "1"))
    assert _is_hull_of(vertex_projective(A3, "1"), vertex_injective(A3, "3"))


def test_projective_sum_matches_hull():
    p = projective_sum(A2, {"1": 1, "2": 1})
    m = injective_hull(A2, {"1": 1, "2": 1})
    assert p.dims == m.rep.dims
    assert _is_hull_of(p, m)


# Every nonzero 0/1 framing of A2, A3 and A4, and every vertex framing of D4.
FRAMINGS = [
    (label, q, dict(zip(q.vertices, bits)))
    for label, q in (("A2", A2), ("A3", A3), ("A4", A4))
    for bits in product((0, 1), repeat=len(q.vertices))
    if any(bits)
] + [("D4", D4, {x: int(x == v) for x in D4.vertices}) for v in D4.vertices]


@pytest.mark.parametrize(
    "q, w", [(q, w) for _, q, w in FRAMINGS],
    ids=[f"{label}-{''.join(map(str, w.values()))}" for label, _, w in FRAMINGS],
)
def test_projective_sum_is_the_hull_of_the_twisted_framing(q, w):
    # P(w) is isomorphic to I(theta w), theta the diagram involution.
    tw = apply_involution(q, diagram_involution(q), w)
    assert _is_hull_of(projective_sum(q, w), injective_hull(q, tw))


SUMS = [(label, q, w, None) for label, q, w in FRAMINGS] + [
    ("A3", A3, {"1": 0, "2": 0, "3": 0}, None),
    ("A3", A3, {"1": 2, "2": 0, "3": 1}, 2),
    ("A4", A4, {"1": 1, "2": 0, "3": 2, "4": 1}, 3),
    ("D4", D4, {v: 1 for v in D4.vertices}, None),
    ("D4", D4, {v: 1 for v in D4.vertices}, 2),
    ("KR", KR, {"1": 0, "2": 0}, 3),
    ("KR", KR, {"1": 1, "2": 1}, 3),
    ("KR", KR, {"1": 2, "2": 1}, 2),
]


@pytest.mark.parametrize(
    "q, w, trunc", [(q, w, t) for _, q, w, t in SUMS],
    ids=[f"{label}-{''.join(map(str, w.values()))}-{t}" for label, _, w, t in SUMS],
)
def test_projective_sum_is_the_block_sum_of_its_vertex_projectives(q, w, trunc):
    p = projective_sum(q, w, trunc)
    pieces = [vertex_projective(q, v, trunc) for v in q.vertices for _ in range(w[v])]
    want = block_sum(p.quiver, pieces)
    assert p.dims == want.dims
    assert all(p.map(a.name) == want.map(a.name) for a in p.quiver.arrows)


def test_is_hull_of_rejects_the_untwisted_framing_and_other_dimensions():
    w = {"1": 1, "2": 0, "3": 0}
    m = injective_hull(A3, w)
    p = projective_sum(A3, w)
    assert p.dims == m.rep.dims
    assert not _is_hull_of(p, m)
    # The socle of the hull, a proper submodule with the same socle.
    assert not _is_hull_of(make_rep(QQ, m.quiver, w, {}, preprojective=False), m)
    assert not _is_hull_of(projective_sum(A3, {"1": 1, "2": 1, "3": 1}), m)


def test_extension_identity():
    m = injective_hull(A2, {"1": 1, "2": 1})
    res = extend_to_injective(m.rep, m.pi, m)
    for v in m.quiver.vertices:
        assert res.gamma[v] == Mat.identity(QQ, m.rep.dim(v))
    assert res.injective


def test_extension_socle_inclusion():
    m = injective_hull(A2, {"1": 1, "2": 1})
    v_rep = make_rep(QQ, m.quiver, {"1": 1, "2": 1}, {}, preprojective=False)
    tau = {"1": mat([[1]], 1), "2": mat([[1]], 1)}
    res = extend_to_injective(v_rep, tau, m)
    soc = m.socle_subrep()
    for v in m.quiver.vertices:
        assert res.gamma[v] == soc.bases[v]
    assert res.injective


def test_extension_p1_fills_q2():
    p1 = vertex_projective(A2, "1")
    m = injective_hull(A2, {"1": 0, "2": 1})
    tau = {"1": Mat.zeros(QQ, 0, 1), "2": mat([[1]], 1)}
    res = extend_to_injective(p1, tau, m)
    assert res.injective
    for v in m.quiver.vertices:
        assert col_space(res.gamma[v]).cols == m.rep.dim(v)


def test_extension_noninjective_tau_branch():
    m = injective_hull(A2, {"1": 1, "2": 1})
    v_rep = make_rep(QQ, m.quiver, {"1": 2, "2": 0}, {}, preprojective=False)
    tau = {"1": mat([[1, 1]], 2), "2": Mat.zeros(QQ, 1, 0)}
    res = extend_to_injective(v_rep, tau, m)
    assert not res.injective
    assert res.gamma["1"] == mat([[1, 1], [0, 0]], 2)


def test_extension_rejects_non_nilpotent():
    dq = double(KR)
    cyc = make_rep(
        QQ, dq, {"1": 1, "2": 1},
        {"a": mat([[1]], 1), "b": mat([[0]], 1),
         "a*": mat([[0]], 1), "b*": mat([[1]], 1)},
    )
    m = vertex_injective(KR, "1")
    tau = {"1": mat([[1]], 1), "2": Mat.zeros(QQ, 0, 1)}
    with pytest.raises(NotNilpotentError):
        extend_to_injective(cyc, tau, m)


def test_extension_validates_tau_shape():
    m = injective_hull(A2, {"1": 1, "2": 1})
    v_rep = make_rep(QQ, m.quiver, {"1": 1, "2": 1}, {}, preprojective=False)
    with pytest.raises(ValidationError):
        extend_to_injective(v_rep, {"1": mat([[1, 0]], 2), "2": mat([[1]], 1)}, m)


def test_projection_change_moves_gamma_by_socle_fixing_automorphism():
    # Solutions under two admissible projections differ by the unique
    # automorphism carrying one projection to the other; the raw image
    # subspace itself genuinely depends on the projection.
    m = injective_hull(A2, {"1": 1, "2": 1})
    p1 = vertex_projective(A2, "1")
    tau = {"1": mat([[0]], 1), "2": mat([[1]], 1)}
    res = extend_to_injective(p1, tau, m)

    pi2 = {"1": mat([[1, 5]], 2), "2": mat([[0, 1]], 2)}
    m2 = m.with_projection(pi2)
    res2 = extend_to_injective(p1, tau, m2)

    auto = extend_to_injective(m.rep, pi2, m).gamma
    for v in m.quiver.vertices:
        assert auto[v] @ res2.gamma[v] == res.gamma[v]
    assert res2.gamma["1"] == mat([[-5], [1]], 1)
    assert col_space(res.gamma["1"]) != col_space(res2.gamma["1"])


def test_a_framing_at_an_unknown_vertex_is_refused():
    with pytest.raises(ValidationError, match="unknown vertex '9'"):
        injective_hull(A2, {"9": 3})


def test_a_framing_with_a_non_integer_entry_is_refused():
    with pytest.raises(ValidationError, match="non-negative integer"):
        injective_hull(A2, {"1": 1.5})


@pytest.mark.parametrize("trunc", [True, 2.5, "3"], ids=["bool", "float", "str"])
def test_a_truncation_that_is_not_an_int_is_refused(trunc):
    with pytest.raises(ValidationError, match=f"positive integer, got {trunc!r}"):
        injective_hull(A2, {"1": 1, "2": 0}, trunc)


def test_with_projection_rejects_bad_socle_restriction():
    m = injective_hull(A2, {"1": 1, "2": 1})
    with pytest.raises(ValidationError):
        m.with_projection({"1": mat([[2, 0]], 2), "2": mat([[0, 1]], 2)})
    with pytest.raises(ValidationError):
        m.with_projection({"1": mat([[1, 0]], 2), "2": mat([[1]], 1)})


def test_framed_points_of_submodules():
    m = injective_hull(A2, {"1": 1, "2": 1})
    fp = framed_point(m.socle_subrep(), m)
    assert fp.stable
    assert fp.t["1"] == mat([[1]], 1) and fp.t["2"] == mat([[1]], 1)
    fp_full = framed_point(full_subrep(m.rep), m)
    assert fp_full.stable
    assert fp_full.x.dims == m.rep.dims


def test_framed_point_rejects_non_submodule():
    m = injective_hull(A2, {"1": 1, "2": 1})
    bases = {"1": mat([[0], [1]], 1), "2": Mat.zeros(QQ, 2, 0)}
    u = make_subrep(m.rep, bases, validate=False)
    with pytest.raises(NotSubmoduleError):
        framed_point(u, m)


def test_unstable_framed_pair():
    dq = double(A2)
    x = make_rep(QQ, dq, {"1": 1, "2": 0}, {}, preprojective=False)
    t = {"1": Mat.zeros(QQ, 0, 1), "2": Mat.zeros(QQ, 0, 0)}
    assert not is_stable(x, t)


def test_automorphism_identity_and_scaling_weights():
    m = injective_hull(A2, {"1": 1, "2": 1})
    g = identity_framing(m)
    triv = induced_automorphism(m, g, 1)
    for v in m.quiver.vertices:
        assert triv[v] == Mat.identity(QQ, 2)
    gam = induced_automorphism(m, g, 3)
    assert gam["1"] == mat([[1, 0], [0, 3]], 2)
    assert gam["2"] == mat([[3, 0], [0, 1]], 2)


def test_automorphism_twisted_relation_with_weights():
    m = injective_hull(A2, {"1": 1, "2": 1})
    g = {"1": mat([[2]], 1), "2": mat([[7]], 1)}
    z = Fraction(3, 2)
    weights = {"a1": 2}
    gam = induced_automorphism(m, g, z, weights)
    filled = arrow_weights(A2, weights)
    assert filled == {"a1": 2, "a1*": -2}
    for a in m.quiver.arrows:
        twist = z ** (-(filled[a.name] + 1))
        lhs = gam[a.dst] @ m.rep.map(a.name)
        rhs = (m.rep.map(a.name) @ gam[a.src]).scale(twist)
        assert lhs == rhs
    for v in m.quiver.vertices:
        assert m.pi[v] @ gam[v] == g[v] @ m.pi[v]


def test_automorphism_composition_law():
    m = injective_hull(A2, {"1": 1, "2": 1})
    g1 = {"1": mat([[2]], 1), "2": mat([[5]], 1)}
    g2 = {"1": mat([[7]], 1), "2": mat([[Fraction(1, 2)]], 1)}
    ga = induced_automorphism(m, g1, 3)
    gb = induced_automorphism(m, g2, Fraction(1, 3))
    gc = induced_automorphism(m, {v: g1[v] @ g2[v] for v in "12"}, 1)
    for v in m.quiver.vertices:
        assert ga[v] @ gb[v] == gc[v]


def test_arrow_weights_validates_bar_consistency():
    with pytest.raises(ValidationError):
        arrow_weights(A2, {"a1": 1, "a1*": 1})
    assert arrow_weights(A2, None) == {"a1": 0, "a1*": 0}


def test_eigen_grading_covers_and_arrows_shift():
    m = injective_hull(A2, {"1": 1, "2": 1})
    g = identity_framing(m)
    z = Fraction(2)
    gam = induced_automorphism(m, g, z)
    grading = eigen_grading(m, g, z, gamma=gam)
    for v in m.quiver.vertices:
        assert sum(b.cols for _, b in grading[v]) == m.rep.dim(v)
        assert [lam for lam, _ in grading[v]] == sorted(lam for lam, _ in grading[v])
    for a in m.quiver.arrows:
        for lam, basis in grading[a.src]:
            image = m.rep.map(a.name) @ basis
            assert gam[a.dst] @ image == image.scale(lam / z)


def test_eigen_grading_rejects_nondiagonal_framing():
    m = injective_hull(A2, {"1": 2, "2": 0})
    g = {"1": mat([[1, 1], [0, 1]], 2), "2": Mat.zeros(QQ, 0, 0)}
    with pytest.raises(NotDiagonalizableError):
        eigen_grading(m, g, 2)


def test_automorphism_rejects_zero_scale():
    m = injective_hull(A2, {"1": 1, "2": 1})
    with pytest.raises(ValidationError):
        induced_automorphism(m, identity_framing(m), 0)


# -- maps read off the path basis -------------------------------------------------

def test_eigen_grading_reads_arrow_weights():
    # With m(a1) = 1 the label of a path carries z^(sum of m(a) + 1) over its
    # arrows, not z^length.
    m = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    grading = eigen_grading(m, identity_framing(m), 2, {"a1": 1})
    spaces = {v: [(lam, b.cols) for lam, b in grading[v]] for v in m.quiver.vertices}
    assert spaces == {
        "1": [(1, 1), (4, 1), (8, 1)],
        "2": [(1, 2), (2, 1), (4, 1)],
        "3": [(1, 1), (2, 2)],
    }
    gam = induced_automorphism(m, identity_framing(m), 2, {"a1": 1})
    for v in m.quiver.vertices:
        for lam, basis in grading[v]:
            assert gam[v] @ basis == basis.scale(lam)
            assert basis == col_space(basis)


def test_eigen_grading_rejects_an_automorphism_off_the_path_diagonal():
    m = injective_hull(A2, {"1": 1, "2": 1})
    g = identity_framing(m)
    gam = induced_automorphism(m, g, 2)
    gam["1"] = mat([[1, 1], [0, 2]], 2)
    with pytest.raises(NotDiagonalizableError, match="not diagonal on the path basis"):
        eigen_grading(m, g, 2, gamma=gam)
    gam["1"] = Mat.identity(QQ, 1)
    with pytest.raises(ShapeMismatchError):
        eigen_grading(m, g, 2, gamma=gam)


def test_model_with_a_socle_beyond_its_socle_copy_is_not_unique():
    # The arrow maps of I(1) replaced by zero: the socle is then the whole
    # space, and a map from S(2) into the extra socle is invisible to pi.
    m = vertex_injective(A2, "1")
    flat = make_rep(QQ, m.quiver, m.rep.dims, {}, preprojective=False)
    fake = hull.InjectiveModel(m.base, m.w, m.trunc, m.full, flat, m.labels, m.pi,
                               m.socle_cols)
    v_rep = make_rep(QQ, m.quiver, {"1": 1, "2": 1}, {}, preprojective=False)
    tau = {"1": mat([[1]], 1), "2": Mat.zeros(QQ, 0, 1)}
    with pytest.raises(NonUniqueError,
                       match="^homogeneous intertwining system has a nonzero kernel$"):
        extend_to_injective(v_rep, tau, fake)


def test_truncated_kronecker_hull_does_not_take_a_longer_truncation():
    # Paths of length 2 and 3 survive in the truncation-4 hull but are zero
    # in the truncation-2 one, so no module map extends the socle identity.
    w = {"1": 1, "2": 0}
    short, long_ = injective_hull(KR, w, 2), injective_hull(KR, w, 4)
    with pytest.raises(NoSolutionError, match="^intertwining system is unsolvable$"):
        extend_to_injective(long_.rep, long_.pi, short)
    res = extend_to_injective(short.rep, short.pi, long_)
    assert res.injective


def test_socle_certificate_is_checked_once_per_model(monkeypatch):
    calls = []
    real = hull.socle
    monkeypatch.setattr(hull, "socle", lambda rep: calls.append(rep) or real(rep))
    m = injective_hull(A2, {"1": 1, "2": 1})
    p1 = vertex_projective(A2, "1")
    tau = {"1": mat([[0]], 1), "2": mat([[1]], 1)}
    m2 = m.with_projection({"1": mat([[1, 5]], 2), "2": mat([[0, 1]], 2)})
    extend_to_injective(p1, tau, m)
    extend_to_injective(p1, tau, m2)
    induced_automorphism(m2, identity_framing(m2), 3)
    m3 = m.with_projection({"1": mat([[1, -1]], 2), "2": mat([[0, 1]], 2)})
    extend_to_injective(p1, tau, m3)
    assert calls == [m.rep]
    injective_hull(A2, {"1": 1, "2": 1})
    assert calls == [m.rep]


def test_extension_and_automorphism_eliminate_no_system(monkeypatch):
    # Every elimination left is per vertex (the socle certificate and the
    # ranks of the answer), none over the unknowns of an intertwining system.
    widths = []
    real = linalg.echelon

    def counted(field, rows, width):
        rows = list(rows)
        widths.append(max((j + 1 for r in rows for j in r), default=0))
        return real(field, rows, width)

    monkeypatch.setattr(linalg, "echelon", counted)
    m = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    m2 = m.with_projection(_ones_off_the_socle(m))
    assert extend_to_injective(m.rep, m2.pi, m).injective
    assert extend_to_injective(m.rep, m.pi, m2).injective
    induced_automorphism(m2, identity_framing(m2), 2, {"a2": 1})
    eigen_grading(m, identity_framing(m), 3)
    assert widths
    assert max(widths) <= max(m.rep.dims.values())


def _ones_off_the_socle(model):
    """The admissible projection with every entry off the socle columns 1."""
    pi = {}
    for v in model.quiver.vertices:
        keep = set(model.socle_cols[v])
        pi[v] = Mat.from_rows(QQ, [[x if c in keep else 1 for c, x in enumerate(row)]
                                   for row in model.pi[v].a], model.rep.dim(v))
    return pi


def _cyclic_kronecker_rep():
    dq = double(KR)
    return make_rep(
        QQ, dq, {"1": 1, "2": 1},
        {"a": mat([[1]], 1), "b": mat([[0]], 1),
         "a*": mat([[0]], 1), "b*": mat([[1]], 1)},
    )


def test_non_nilpotent_rep_with_zero_tau_is_rejected():
    # g = 0 commutes with every arrow and projects to tau = 0; it is not
    # injective, so nilpotency is still checked.
    m = vertex_injective(KR, "1")
    tau = {"1": Mat.zeros(QQ, 1, 1), "2": Mat.zeros(QQ, 0, 1)}
    with pytest.raises(NotNilpotentError):
        extend_to_injective(_cyclic_kronecker_rep(), tau, m)


def test_non_nilpotent_rep_is_rejected_before_a_bad_tau_shape():
    m = vertex_injective(KR, "1")
    tau = {"1": mat([[1, 0]], 2), "2": Mat.zeros(QQ, 0, 1)}
    with pytest.raises(NotNilpotentError):
        extend_to_injective(_cyclic_kronecker_rep(), tau, m)
    v_rep = make_rep(QQ, m.quiver, {"1": 1, "2": 1}, {}, preprojective=False)
    with pytest.raises(ValidationError, match="tau shape"):
        extend_to_injective(v_rep, tau, m)



def test_non_nilpotent_kernel_of_a_nonzero_map_is_rejected():
    # V = cyclic ⊕ S_1: the map is the socle inclusion on S_1 and zero on the
    # cyclic summand, so it is nonzero, its kernel is the cyclic summand, and
    # the nilpotency test on the kernel alone must still fail.
    v_rep = block_sum(double(KR), [_cyclic_kronecker_rep(),
                                   make_rep(QQ, double(KR), {"1": 1, "2": 0}, {},
                                            preprojective=False)])
    m = vertex_injective(KR, "1")
    tau = {"1": mat([[0, 1]], 2), "2": Mat.zeros(QQ, 0, 1)}
    with pytest.raises(NotNilpotentError):
        extend_to_injective(v_rep, tau, m)


def test_a_map_whose_kernel_is_not_nilpotent_is_still_rejected():
    # V = (a1 a1* cycle on vertices 1, 2) ⊕ S_3 ⊕ S_3 into I(3): the map
    # exists, sending the first S_3 onto the socle, and its kernel is the
    # cycle ⊕ the second S_3, whose radical series stalls at the cycle.
    m = vertex_injective(A3, "3")
    v_rep = make_rep(QQ, m.quiver, {"1": 1, "2": 1, "3": 2},
                     {"a1": [[1]], "a1*": [[1]]}, preprojective=False)
    tau = {"1": Mat.zeros(QQ, 0, 1), "2": Mat.zeros(QQ, 0, 1), "3": mat([[1, 0]], 2)}
    g = hull._map_into(v_rep, m, tau)
    assert {v: linalg.kernel(g[v]).cols for v in g} == {"1": 1, "2": 1, "3": 1}
    with pytest.raises(NotNilpotentError):
        extend_to_injective(v_rep, tau, m)


def _random_rep(draw, dq, one_sided):
    """A rep of dq with dimensions 0..2 and entries -1..1; one-sided, it is
    zero on the reversed arrows, so nilpotent."""
    small = st.integers(-1, 1)
    dims = {v: draw(st.integers(0, 2)) for v in dq.vertices}
    maps = {a.name: [[draw(small) if a.name in dq.base or not one_sided else 0
                      for _ in range(dims[a.src])] for _ in range(dims[a.dst])]
            for a in dq.arrows}
    return make_rep(QQ, dq, dims, maps, preprojective=False)


@st.composite
def submodule_cases(draw):
    """(V, K): V random on the original arrows of doubled A3 or Kronecker and
    zero on their reverses (so nilpotent), half the time summed with a rep
    that is often not nilpotent (random on every arrow of A3, or the cyclic
    Kronecker rep); K generated in V by random vectors."""
    q = draw(st.sampled_from([A3, KR]))
    dq = double(q)
    reps = [_random_rep(draw, dq, True)]
    if draw(st.booleans()):
        reps.append(_cyclic_kronecker_rep() if q is KR else _random_rep(draw, dq, False))
    v_rep = block_sum(dq, reps)
    small = st.integers(-1, 1)
    vectors = {v: [[draw(small) for _ in range(v_rep.dim(v))]
                   for _ in range(draw(st.integers(0, 2)))] for v in dq.vertices}
    return v_rep, sub_generated(v_rep, vectors)


@settings(max_examples=120, deadline=None)
@given(submodule_cases())
def test_nilpotency_read_inside_v_matches_the_restricted_rep(case):
    v_rep, k = case
    alone = restrict(v_rep, k)
    inside = radical_filtration(v_rep, k)
    assert inside[0] is k
    dims = [s.total_dim() for s in inside]
    assert dims == [s.total_dim() for s in radical_filtration(alone)]
    assert dims == oracles.radical_series_dims(
        _arrows(v_rep), _plain(v_rep)[1], v_rep.dims,
        {v: [list(c) for c in zip(*k.bases[v].a)] for v in v_rep.quiver.vertices})
    assert is_nilpotent(v_rep, k) == is_nilpotent(alone)


def test_path_map_builds_one_mat_per_vertex_and_none_per_row(monkeypatch):
    m = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    built = []
    real = linalg.Mat.__init__

    def counted(self, field, rows, cols, entries):
        built.append(rows)
        real(self, field, rows, cols, entries)

    monkeypatch.setattr(linalg.Mat, "__init__", counted)
    g = hull._path_map(m.rep, m, m.pi)
    monkeypatch.undo()
    assert sorted(built) == sorted(m.rep.dims.values())
    assert all(g[v] == Mat.identity(QQ, m.rep.dim(v)) for v in m.quiver.vertices)


# -- against the dense intertwining system solved by hand -------------------------

Z_VALUES = [Fraction(2), Fraction(3), Fraction(-1, 2)]


def lists(m):
    return [list(r) for r in m.a]


def _plain(rep):
    return dict(rep.dims), {a.name: lists(rep.map(a.name)) for a in rep.quiver.arrows}


def _arrows(rep):
    return [(a.name, a.src, a.dst) for a in rep.quiver.arrows]


_HULLS = {}


@st.composite
def _models(draw, hulls):
    """(model, canonical): a hull drawn from (quiver, truncation) pairs and a
    framing w of zeros and ones, under its canonical projection or a random
    admissible one."""
    q, trunc = draw(st.sampled_from(hulls))
    w = {v: draw(st.integers(0, 1)) for v in q.vertices}
    key = (q, tuple(w.values()), trunc)
    if key not in _HULLS:
        _HULLS[key] = injective_hull(q, w, trunc)
    model = _HULLS[key]
    canonical = draw(st.booleans())
    if not canonical:
        small = st.integers(-2, 2).map(Fraction)
        pi = {}
        for v in q.vertices:
            keep = set(model.socle_cols[v])
            rows = [[x if c in keep else draw(small) for c, x in enumerate(row)]
                    for row in lists(model.pi[v])]
            pi[v] = Mat(QQ, len(rows), model.rep.dim(v), rows)
        model = model.with_projection(pi)
    return model, canonical


@st.composite
def extension_cases(draw):
    """(V, tau, model): V nilpotent and satisfying the preprojective relation.

    V is one of: random maps on the original arrows and zero on their
    reverses; a submodule of the model's hull generated by random vectors;
    for the Kronecker hull truncated at 2, the hull truncated at 3, whose
    paths of length 2 need not map into the model at all.
    """
    model, _ = draw(_models([(A2, None), (A3, None), (A4, None), (KR, 2), (KR, 3)]))
    dq = model.quiver
    small = st.integers(-2, 2).map(Fraction)
    longer = (model.base, model.trunc) == (KR, 2) and draw(st.booleans())
    kind = "longer" if longer else draw(st.sampled_from(["one-sided", "submodule"]))
    if kind == "one-sided":
        dims = {v: draw(st.integers(0, 2)) for v in dq.vertices}
        maps = {a.name: [[draw(small) if a.name in dq.base else Fraction(0)
                          for _ in range(dims[a.src])] for _ in range(dims[a.dst])]
                for a in dq.arrows}
        v_rep = make_rep(QQ, dq, dims, maps)
    elif kind == "longer":
        v_rep = injective_hull(KR, model.w, 3).rep
    else:
        ambient = model.rep
        vectors = {v: [[draw(small) for _ in range(ambient.dim(v))]]
                   for v in draw(st.lists(st.sampled_from(dq.vertices), min_size=1,
                                          max_size=2, unique=True))}
        v_rep = restrict(ambient, sub_generated(ambient, vectors))
    tau = {v: Mat(QQ, model.w[v], v_rep.dim(v),
                  [[draw(small) for _ in range(v_rep.dim(v))] for _ in range(model.w[v])])
           for v in dq.vertices}
    return v_rep, tau, model


@settings(max_examples=80, deadline=None)
@given(extension_cases())
def test_extension_matches_the_system_solved_by_hand(case):
    v_rep, tau, model = case
    expected, unique = oracles.intertwiner_by_hand(
        _arrows(v_rep), _plain(v_rep), _plain(model.rep), {},
        {v: lists(model.pi[v]) for v in model.quiver.vertices},
        {v: lists(tau[v]) for v in model.quiver.vertices},
    )
    assert unique
    if expected is None:
        with pytest.raises(NoSolutionError):
            extend_to_injective(v_rep, tau, model)
        return
    res = extend_to_injective(v_rep, tau, model)
    assert {v: lists(res.gamma[v]) for v in model.quiver.vertices} == expected
    assert res.injective == all(linalg.rank(res.gamma[v]) == v_rep.dim(v)
                                for v in model.quiver.vertices)


@st.composite
def nilpotency_cases(draw):
    """(V, tau, model): V = N ⊕ R over doubled A2-A4, N random on the
    original arrows and zero on their reverses (so nilpotent), R random on
    every arrow (so often not). tau is random on N and zero on R, so that
    a map exists iff one exists for N and its kernel holds R, or random on
    the whole of V."""
    model, _ = draw(_models([(A2, None), (A3, None), (A4, None)]))
    dq = model.quiver
    small = st.integers(-1, 1)
    n_rep = _random_rep(draw, dq, True)
    v_rep = block_sum(dq, [n_rep, _random_rep(draw, dq, False)])
    whole = draw(st.booleans())
    tau = {v: Mat(QQ, model.w[v], v_rep.dim(v),
                  [[draw(small) if whole or c < n_rep.dim(v) else 0
                    for c in range(v_rep.dim(v))] for _ in range(model.w[v])])
           for v in dq.vertices}
    return v_rep, tau, model


@settings(max_examples=80, deadline=None)
@given(nilpotency_cases())
def test_nilpotency_verdict_matches_the_whole_rep(case):
    v_rep, tau, model = case
    rejected = False
    try:
        extend_to_injective(v_rep, tau, model)
    except NotNilpotentError:
        rejected = True
    except NoSolutionError:
        pass
    assert rejected == (not is_nilpotent(v_rep))


@settings(max_examples=40, deadline=None)
@given(_models([(A2, None), (A3, None), (KR, 2)]), st.sampled_from(Z_VALUES), st.data())
def test_induced_automorphism_matches_the_system_solved_by_hand(case, z, data):
    model, canonical = case
    dq = model.quiver
    m = {name: data.draw(st.integers(-1, 2)) for name in dq.base}
    weights = dict(m)
    weights.update({name + "*": -k for name, k in m.items()})
    units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)])
    g = {v: Mat(QQ, model.w[v], model.w[v],
                [[data.draw(units) if r == c else Fraction(0) for c in range(model.w[v])]
                 for r in range(model.w[v])])
         for v in dq.vertices}
    pi = {v: lists(model.pi[v]) for v in dq.vertices}
    rhs = {v: [[sum(g[v].a[r][k] * pi[v][k][c] for k in range(model.w[v]))
                for c in range(model.rep.dim(v))] for r in range(model.w[v])]
           for v in dq.vertices}
    twists = {name: z ** -(k + 1) for name, k in weights.items()}
    expected, unique = oracles.intertwiner_by_hand(
        _arrows(model.rep), _plain(model.rep), _plain(model.rep), twists, pi, rhs)
    assert unique and expected is not None
    gamma = induced_automorphism(model, g, z, m)
    assert {v: lists(gamma[v]) for v in dq.vertices} == expected
    if canonical:
        grading = eigen_grading(model, g, z, m, gamma=gamma)
        for v in dq.vertices:
            assert sum(b.cols for _, b in grading[v]) == model.rep.dim(v)
            for lam, basis in grading[v]:
                assert gamma[v] @ basis == basis.scale(lam)
