import random

import pytest

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
from ofa.coeff_ring import CapacityError, GaloisField, StructureError, ZMod


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

