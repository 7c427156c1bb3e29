import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.form_ring import (
    alg_el_from_json,
    alg_el_to_json,
    center,
    hermitian_center,
    ofalin,
    ofaorth,
    ofasymp,
    rep_odd,
    rep_odd_kernel,
    unital,
    unital_involution,
    unital_mul,
    unital_one,
    x_central,
)
from ofa.coeff_ring import CapacityError, GaloisField, StructureError, ZMod, parse_ring
from ofa.odd_form_param import DeltaShape, member, to_pair
from ofa.quad_module import (CanonConstruction, QuadModule, QuadType, module_check,
                             naive_canon_check, split_module)


def _families(K):
    return [ofalin(2, K), ofasymp(4, K), ofaorth(4, K), ofaorth(3, K)]


def test_index_sets():
    K = ZMod(3)
    assert ofalin(2, K).indices == (-2, -1, 1, 2)
    assert ofasymp(4, K).indices == (-2, -1, 1, 2)
    assert ofaorth(3, K).indices == (-1, 0, 1)
    assert ofalin(1, K).rank == 2
    assert ofaorth(3, K).rank == 9
    with pytest.raises(StructureError):
        ofasymp(3, K)
    with pytest.raises(StructureError):
        ofalin(2, K).e(1, -1)  # crosses the block split


def test_matrix_units_multiply():
    K = ZMod(5)
    A = ofasymp(4, K)
    assert A.e(1, 2) * A.e(2, -1) == A.e(1, -1)
    assert not A.e(1, 2) * A.e(1, 2)
    B = ofaorth(3, K)
    assert B.e(1, 0) * B.e(0, -1) == B.e(1, -1, K.from_int(2))
    assert B.e(0, 0) * B.e(0, 0) == B.e(0, 0, K.from_int(2))
    assert B.e(1, 1) * B.e(1, 0) == B.e(1, 0)


def test_zero_index_associativity_exhaustive():
    # associativity across the doubled index on all basis triples
    K = ZMod(4)
    B = ofaorth(3, K)
    units = [B.e(i, j) for (i, j) in B.pairs]
    for x in units:
        for y in units:
            xy = x * y
            for z in units:
                assert (xy) * z == x * (y * z)


def test_involution():
    K = ZMod(9)
    rng = random.Random(3)
    for A in _families(K):
        for _ in range(20):
            a, b = A.sample(rng), A.sample(rng)
            assert a.bar().bar() == a
            assert (a * b).bar() == b.bar() * a.bar()
            assert (a + b).bar() == a.bar() + b.bar()


def test_symp_conj_signs():
    A = ofasymp(2, ZMod(5))
    assert A.e(1, -1).bar() == A.e(1, -1, A.K.from_int(4))
    assert A.e(1, 1).bar() == A.e(-1, -1)
    assert A.e(-1, 1).bar() == A.e(-1, 1, A.K.from_int(4))


def test_unit():
    K3 = ZMod(3)
    rng = random.Random(5)
    for A in [ofalin(2, K3), ofasymp(4, K3), ofaorth(4, K3), ofaorth(3, K3)]:
        one = A.unit()
        a = A.sample(rng)
        assert one * a == a and a * one == a
    with pytest.raises(StructureError):
        ofaorth(3, ZMod(4)).unit()
    with pytest.raises(StructureError):
        ofaorth(3, GaloisField(2, [1, 1, 1])).unit()


def test_rep_odd_is_multiplicative():
    from ofa.linalg import k_matmul
    K = ZMod(4)
    B = ofaorth(3, K)
    units = [B.e(i, j) for (i, j) in B.pairs]
    for x in units:
        for y in units:
            assert rep_odd(B, x * y) == k_matmul(K, rep_odd(B, x), rep_odd(B, y))
    # kernel: k*e(0,0) with 2k = 0
    z = B.e(0, 0, K.from_int(2))
    assert rep_odd(B, z) == rep_odd(B, B.zero())
    assert z != B.zero()


def test_x_central():
    K = ZMod(4)
    B = ofaorth(3, K)
    rng = random.Random(11)
    for k in K.elements():
        x = x_central(B, k)
        for _ in range(10):
            a = B.sample(rng)
            assert x * a == a * x
        for kp in K.elements():
            assert x * x_central(B, kp) == x_central(B, K.smul(2, K.mul(k, kp)))
        assert x.bar() == x


def test_degenerate_sizes_and_caps():
    K = ZMod(2)
    for A in [ofalin(0, K), ofasymp(0, K), ofaorth(0, K)]:
        assert A.rank == 0 and A.card() == 1
        assert list(A.elements()) == [A.zero()]
    B = ofaorth(1, K)
    assert B.pairs == ((0, 0),)
    assert B.e(0, 0) * B.e(0, 0) == B.zero()
    with pytest.raises(CapacityError):
        ofalin(7, K)
    with pytest.raises(CapacityError):
        ofaorth(11, K)


def _span(alg, gens):
    K = alg.K
    seen = {alg.zero()}
    frontier = [alg.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for k in K.elements():
                y = x + alg.kmul(k, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def test_center_symp():
    K = ZMod(3)
    A = ofasymp(4, K)
    zs = center(A)
    diag = A.el({(i, i): K.one() for i in A.indices})
    assert _span(A, zs) == _span(A, [diag])
    assert hermitian_center(A) and _span(A, hermitian_center(A)) == _span(A, [diag])


def test_center_orth_odd():
    K = ZMod(4)
    B = ofaorth(3, K)
    zs = center(B)
    expect = {x_central(B, k) for k in K.elements()}
    assert _span(B, zs) == expect


def test_hermitian_center_lin():
    K = ZMod(2)
    A = ofalin(1, K)
    got = hermitian_center(A)
    fix = A.e(1, 1) + A.e(-1, -1)
    assert _span(A, got) == _span(A, [fix])
    # the full center of the two-block algebra is bigger
    assert len(_span(A, center(A))) == 4


def test_unitalization():
    K = ZMod(4)
    B = ofaorth(3, K)
    rng = random.Random(7)
    one = unital_one(B)
    for _ in range(12):
        a = unital(B.sample(rng), K.from_int(rng.randrange(4)))
        b = unital(B.sample(rng), K.from_int(rng.randrange(4)))
        c = unital(B.sample(rng), K.from_int(rng.randrange(4)))
        assert unital_mul(one, a) == a and unital_mul(a, one) == a
        assert unital_mul(unital_mul(a, b), c) == unital_mul(a, unital_mul(b, c))
        assert unital_involution(unital_mul(a, b)) == unital_mul(
            unital_involution(b), unital_involution(a)
        )


def test_rep_odd_kernel():
    K2, K3, K4 = ZMod(2), ZMod(3), ZMod(4)
    assert [k.c for k in rep_odd_kernel(ofaorth(3, K2))] == [{(0, 0): (1,)}]
    assert rep_odd_kernel(ofaorth(3, K3)) == []
    assert [k.c for k in rep_odd_kernel(ofaorth(3, K4))] == [{(0, 0): (2,)}]


def test_alg_el_json_roundtrip():
    K = GaloisField(2, [1, 1, 1])
    A = ofasymp(2, K)
    a = A.e(1, -1, K.gen()) + A.e(-1, 1)
    assert alg_el_from_json(A, alg_el_to_json(a)) == a



# -- the odd form parameter law over both kinds of table -----------------------

def _nonsplit_orthogonal():
    """Rank 3 over F3 with q(e_0) = 2 and B(e_0, e_0) = 1: not the split
    table, so Theta's residue is not the preset's."""
    K = parse_ring("gf:3")
    one = K.one()
    return QuadModule(QuadType("orthogonal", K), 3,
                      {(1, -1): one, (-1, 1): one, (0, 0): one}, {0: K.from_int(2)})


def _tables():
    rings = [parse_ring(r) for r in ("zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")]
    out = []
    for K in rings:
        out += [DeltaShape(alg) for alg in (ofalin(1, K), ofasymp(2, K), ofaorth(2, K),
                                            ofaorth(3, K))]
        out += [CanonConstruction(split_module(kind, rank, K))
                for kind, rank in (("linear", 1), ("linear", 2), ("symplectic", 2),
                                   ("orthogonal", 2), ("orthogonal", 3))]
    return out + [CanonConstruction(_nonsplit_orthogonal())]


TABLES = _tables()


def test_nonsplit_table_is_a_module_with_its_own_residue():
    M = _nonsplit_orthogonal()
    assert module_check(M) == []
    C = CanonConstruction(M)
    ref = CanonConstruction(split_module("orthogonal", 3, M.K))
    p = C.S.e(0, 0)
    assert C.residue(p).key != ref.residue(ref.S.e(0, 0)).key
    assert naive_canon_check(M, seed=0, samples=20)["pass"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TABLES), st.integers(0, 2 ** 32 - 1))
def test_param_table_law(T, seed):
    rng = random.Random(seed)
    alg, K = T.alg, T.alg.K
    x, y, z = T.sample(rng), T.sample(rng), T.sample(rng)
    assert T.read(*T.to_pair(x)) == x
    zero = T.read(alg.zero(), alg.zero())
    assert zero == (K.zero(),) * T.dim
    assert T.add(T.add(x, y), z) == T.add(x, T.add(y, z))
    assert T.add(x, zero) == x == T.add(zero, x)
    assert T.add(x, T.neg(x)) == zero == T.add(T.neg(x), x)
    # the unital action: 1 acts trivially, and (x.(a+k)).(b+l) = x.((a+k)(b+l))
    assert T.act(x, alg.zero(), K.one()) == x
    a, b = alg.sample(rng), alg.sample(rng)
    k, l = rng.choice(list(K.elements())), rng.choice(list(K.elements()))
    ab = unital_mul(unital(a, k), unital(b, l))
    assert T.act(T.act(x, a, k), b, l) == T.act(x, ab.body, ab.scalar)
    if isinstance(T, DeltaShape):
        assert member(T, *to_pair(T, x)) == x
