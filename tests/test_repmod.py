import random
from fractions import Fraction

import pytest

from oracles import generated_bases

from quivergrass.errors import (
    NotSubmoduleError,
    RelationViolatedError,
    ShapeMismatchError,
)
from quivergrass.fields import PrimeField, QQ
from quivergrass.linalg import Mat
from quivergrass.quiver import double, kronecker_quiver, line_quiver
from quivergrass.repmod import (
    is_nilpotent,
    make_rep,
    make_subrep,
    quotient,
    radical_filtration,
    reduce_mod,
    rep_to_obj,
    restrict,
    socle,
    socle_filtration,
    sub_generated,
    zero_subrep,
)

A2D = double(line_quiver(2))
KRD = double(kronecker_quiver())


def rep_q1():
    # dual of the length-filtered right module at vertex 1: spaces (1,1),
    # the original arrow acts by zero, the reversed one by the identity
    return make_rep(QQ, A2D, {"1": 1, "2": 1}, {"a1": [[0]], "a1*": [[1]]})


def rep_p1():
    # paths out of vertex 1: trivial path at vertex 1, the arrow at vertex 2
    return make_rep(QQ, A2D, {"1": 1, "2": 1}, {"a1": [[1]], "a1*": [[0]]})


def rep_q11():
    return make_rep(
        QQ,
        A2D,
        {"1": 2, "2": 2},
        {"a1": [[0, 0], [0, 1]], "a1*": [[1, 0], [0, 0]]},
    )


def sdims(s):
    return tuple(s.dims()[v] for v in s.ambient.quiver.vertices)


def test_make_rep_validates_relation():
    rep_q1()  # fine
    with pytest.raises(RelationViolatedError):
        make_rep(QQ, A2D, {"1": 1, "2": 1}, {"a1": [[1]], "a1*": [[1]]})


def test_make_rep_validates_shapes():
    with pytest.raises(ShapeMismatchError):
        make_rep(QQ, A2D, {"1": 1, "2": 2}, {"a1": [[1]], "a1*": [[0]]})


def test_zero_maps_always_valid():
    v = make_rep(QQ, A2D, {"1": 3, "2": 1}, {}, preprojective=False)
    assert sdims(socle(v)) == (3, 1)


def test_socle_and_radical_of_hull_pieces():
    q1 = rep_q1()
    assert sdims(socle(q1)) == (1, 0)
    p1 = rep_p1()
    assert sdims(socle(p1)) == (0, 1)


def test_socle_filtration_chain():
    v = rep_q11()
    chain = socle_filtration(v)
    assert [sdims(s) for s in chain] == [(0, 0), (1, 1), (2, 2)]
    # each stage is arrow-closed and contained in the next
    for a, b in zip(chain, chain[1:]):
        for vtx in A2D.vertices:
            assert a.bases[vtx].cols <= b.bases[vtx].cols


def test_semisimple_filtration_is_two_steps():
    v = make_rep(QQ, A2D, {"1": 1, "2": 2}, {}, preprojective=False)
    chain = socle_filtration(v)
    assert [sdims(s) for s in chain] == [(0, 0), (1, 2)]


def test_non_nilpotent_cycle():
    v = make_rep(
        QQ,
        KRD,
        {"1": 1, "2": 1},
        {"a": [[1]], "b": [[0]], "a*": [[0]], "b*": [[1]]},
    )
    assert not is_nilpotent(v)
    # socle chain stalls at zero, strictly below the module
    assert [sdims(s) for s in socle_filtration(v)] == [(0, 0)]


def test_nilpotent_chain_lengths_agree():
    for v in (rep_q1(), rep_q11(), make_rep(QQ, A2D, {"1": 2, "2": 0}, {}, preprojective=False)):
        assert is_nilpotent(v)
        assert len(socle_filtration(v)) == len(radical_filtration(v))


def test_quotient_by_socle():
    q1 = rep_q1()
    s = socle(q1)
    out, projs = quotient(q1, s)
    assert out.dims == {"1": 0, "2": 1}
    assert all(m.is_zero() for m in out.maps.values())
    # projection composed with inclusion of the subspace is zero
    for vtx in A2D.vertices:
        assert (projs[vtx] @ s.bases[vtx]).is_zero()


def test_quotient_dims_additive():
    v = rep_q11()
    chain = socle_filtration(v)
    for s in chain:
        out, _ = quotient(v, s)
        for vtx in A2D.vertices:
            assert out.dims[vtx] + s.bases[vtx].cols == v.dim(vtx)


def test_quotient_rejects_non_submodule():
    v = rep_q11()
    # the vertex-1 line through (0,1) maps onto a nonzero vertex-2 vector
    bad = make_subrep(v, {"1": [[0, 1]], "2": []}, validate=False)
    with pytest.raises(NotSubmoduleError):
        quotient(v, bad)


def test_sub_generated():
    q1 = rep_q1()
    # the degree-one dual vector generates everything
    s = sub_generated(q1, {"2": [[1]]})
    assert sdims(s) == (1, 1)
    # a socle vector generates only its line
    s2 = sub_generated(q1, {"1": [[1]]})
    assert sdims(s2) == (1, 0)
    s3 = sub_generated(q1, {})
    assert sdims(s3) == (0, 0)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_sub_generated_matches_a_textbook_closure(field, n):
    # Random maps (no relation imposed, about a third of the entries nonzero)
    # and zero to three random generators; the closure's canonical basis
    # columns must be the textbook RREF rows of the oracle's closure.
    p = field.p if field.char else None
    values = list(range(1, p)) if p else [Fraction(k, d) for k in (-2, -1, 1, 2) for d in (1, 2)]
    dq = double(line_quiver(n))
    rng = random.Random(2800 + 10 * n + (p or 0))
    for _ in range(25):
        dims = {v: rng.randint(0, 3) for v in dq.vertices}
        maps = {a.name: [[rng.choice(values) if rng.random() < 0.35 else 0
                          for _ in range(dims[a.src])] for _ in range(dims[a.dst])]
                for a in dq.arrows}
        v_rep = make_rep(field, dq, dims, maps, preprojective=False)
        gens = {v: [] for v in dq.vertices}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice([u for u in dq.vertices if dims[u]] or [None])
            if v is not None:
                gens[v].append([rng.choice([0] + values) for _ in range(dims[v])])
        # half the time, the generators at a vertex come as a Mat
        given = {v: Mat.from_rows(field, [[c[i] for c in cols] for i in range(dims[v])],
                                  len(cols))
                 if rng.random() < 0.5 else cols for v, cols in gens.items()}
        want = generated_bases([(a.name, a.src, a.dst) for a in dq.arrows], maps, dims,
                               gens, p)
        got = sub_generated(v_rep, given)
        for v in dq.vertices:
            assert [list(c) for c in zip(*got.basis(v).a)] == want[v]
            assert got.basis(v).cols == len(want[v])


def test_restrict_of_socle_is_semisimple():
    v = rep_q11()
    r = restrict(v, socle(v))
    assert r.dims == {"1": 1, "2": 1}
    assert all(m.is_zero() for m in r.maps.values())


def test_restrict_matches_ambient_action():
    v = rep_q11()
    chain = socle_filtration(v)
    s = chain[1]
    r = restrict(v, s)
    for a in A2D.arrows:
        # ambient action of the restricted matrix agrees on basis columns
        lhs = v.map(a.name) @ s.bases[a.src]
        rhs = s.bases[a.dst] @ r.map(a.name)
        assert lhs == rhs


def test_reduce_mod():
    v = rep_q11()
    vp = reduce_mod(v, 2)
    assert isinstance(vp.field, PrimeField)
    assert sdims(socle(vp)) == (1, 1)


def test_subrep_canonical_equality():
    v = rep_q11()
    a = make_subrep(v, {"1": [[1, 2]], "2": []}, validate=False)
    b = make_subrep(v, {"1": [[2, 4]], "2": []}, validate=False)
    assert a == b
    assert hash(a) == hash(b)


def test_zero_subrep_closed():
    v = rep_q11()
    s = zero_subrep(v)
    assert sdims(s) == (0, 0)


def test_rep_json_roundtrip():
    v = make_rep(
        QQ,
        A2D,
        {"1": 1, "2": 1},
        {"a1": [["1/2"]], "a1*": [[0]]},
        preprojective=False,
    )
    obj = rep_to_obj(v)
    assert obj["field"] == {"field": "Q"}
    w = make_rep(QQ, A2D, obj["dims"], obj["maps"], preprojective=False)
    assert w.dims == v.dims
    for a in A2D.arrows:
        assert w.map(a.name) == v.map(a.name)
