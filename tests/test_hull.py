"""Tests for injective/projective module construction and extension maps."""

from fractions import Fraction

import pytest

import quivergrass.hull as hull
from quivergrass.errors import (
    DimensionMismatchError,
    NoSolutionError,
    NonUniqueError,
    NotDiagonalizableError,
    NotNilpotentError,
    NotSubmoduleError,
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
    is_isomorphic,
    make_rep,
    make_subrep,
    semisimple_rep,
    socle,
    socle_filtration,
)
from quivergrass.weyl import orbit_maximum

A1 = line_quiver(1)
A2 = line_quiver(2)
A3 = line_quiver(3)
D4 = star_quiver(3)
KR = kronecker_quiver()


def mat(rows, cols):
    return Mat.from_rows(QQ, rows, cols)


def sdims(s):
    return {v: b.cols for v, b in s.bases.items()}


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


def test_double_input_accepted():
    m = vertex_injective(double(A2), "1")
    assert m.rep.dims == {"1": 1, "2": 1}


def test_projective_frozen_and_dual_to_injective():
    p1 = vertex_projective(A2, "1")
    assert p1.dims == {"1": 1, "2": 1}
    assert p1.map("a1") == mat([[1]], 1)
    assert p1.map("a1*") == mat([[0]], 1)
    assert is_isomorphic(p1, vertex_injective(A2, "2").rep)
    assert is_isomorphic(vertex_projective(A2, "2"), vertex_injective(A2, "1").rep)
    assert is_isomorphic(vertex_projective(A3, "1"), vertex_injective(A3, "3").rep)


def test_projective_sum_matches_hull():
    p = projective_sum(A2, {"1": 1, "2": 1})
    m = injective_hull(A2, {"1": 1, "2": 1})
    assert p.dims == m.rep.dims
    assert is_isomorphic(p, m.rep)


def test_extension_identity():
    m = injective_hull(A2, {"1": 1, "2": 1})
    res = extend_to_injective(m.rep, m.pi, m)
    for v in m.quiver.vertices:
        assert res.gamma[v] == Mat.identity(QQ, m.rep.dim(v))
    assert res.injective


def test_extension_socle_inclusion():
    m = injective_hull(A2, {"1": 1, "2": 1})
    v_rep = semisimple_rep(QQ, m.quiver, {"1": 1, "2": 1})
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
    v_rep = semisimple_rep(QQ, m.quiver, {"1": 2, "2": 0})
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
    v_rep = semisimple_rep(QQ, m.quiver, {"1": 1, "2": 1})
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
    x = semisimple_rep(QQ, dq, {"1": 1, "2": 0})
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


# -- one elimination per intertwining solve ------------------------------------

@pytest.fixture
def hull_eliminations(monkeypatch):
    shapes = []
    real = hull.rref

    def counted(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(hull, "rref", counted)
    return shapes


def test_extension_eliminates_once(hull_eliminations):
    m = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    res = extend_to_injective(m.rep, m.pi, m)
    assert res.injective
    unknowns = sum(m.rep.dim(v) ** 2 for v in m.quiver.vertices)
    assert [cols for _, cols in hull_eliminations] == [unknowns + 1]


def test_induced_automorphism_eliminates_once(hull_eliminations):
    m = injective_hull(A3, {"1": 1, "2": 1, "3": 1})
    induced_automorphism(m, identity_framing(m), 2)
    assert len(hull_eliminations) == 1


def _one_vertex_system(target_dim, proj_rows, rhs_rows):
    """g: k -> k^target_dim on the one-vertex quiver, constrained by proj g = rhs."""
    dq = double(A1)
    source = semisimple_rep(QQ, dq, {"1": 1})
    target = semisimple_rep(QQ, dq, {"1": target_dim})
    proj = {"1": mat(proj_rows, target_dim)}
    rhs = {"1": mat(rhs_rows, 1)}
    return source, target, {}, proj, rhs


def test_intertwining_nonzero_kernel_is_reported_before_inconsistency():
    # g0 = 1 and g0 = 0 contradict each other, and g1 is free.
    system = _one_vertex_system(2, [[1, 0], [1, 0]], [[1], [0]])
    with pytest.raises(NonUniqueError,
                       match="^homogeneous intertwining system has a nonzero kernel$"):
        hull._solve_intertwining(*system)


def test_intertwining_inconsistency_with_zero_kernel():
    system = _one_vertex_system(1, [[1], [1]], [[1], [0]])
    with pytest.raises(NoSolutionError, match="^intertwining system is unsolvable$"):
        hull._solve_intertwining(*system)
