import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofa.coeff_ring import (
    CapacityError, GaloisField, PolyQuotient, Product, RingHom, SlotRing, StructureError,
    TensorTower, ZMod, _mixed_radix, hom_compose, identity_hom, parse_ring, ring_from_json,
    ring_to_json, tensor_square,
)


def test_zmod_basics():
    K = ZMod(6)
    assert K.card == 6
    assert K.one() == (1,)
    assert K.add((4,), (5,)) == (3,)
    assert K.mul((4,), (5,)) == (2,)
    assert K.neg((2,)) == (4,)
    assert K.from_int(7) == (1,)
    assert ZMod(5).from_int(7) == (2,)
    assert list(K.elements()) == [(i,) for i in range(6)]
    with pytest.raises(StructureError):
        ZMod(1)


def test_zmod_units_and_idempotents():
    K = ZMod(4)
    assert K.try_invert((3,)) == (3,)
    assert K.try_invert((2,)) is None
    assert K.units() == [(1,), (3,)]
    # inventory of idempotents mod 6, found by hand from e*e = e
    K6 = ZMod(6)
    idems = K6.idempotents()
    assert set(idems) == {(0,), (1,), (3,), (4,)}
    # e*f := e + f - 2ef makes the idempotents an elementary abelian 2-group
    def circ(e, f):
        t = K6.add(e, f)
        return K6.sub(t, K6.smul(2, K6.mul(e, f)))
    for e in idems:
        assert circ(e, e) == (0,)
        for f in idems:
            assert circ(e, f) in idems


def test_gf4_arithmetic():
    F4 = GaloisField(2, [1, 1, 1])
    assert F4.card == 4
    x = F4.gen()
    assert F4.mul(x, x) == F4.add(x, F4.one())
    assert F4.rpow(x, 3) == F4.one()
    # every nonzero element invertible
    for a in F4.elements():
        assert F4.is_zero(a) or F4.is_unit(a)


def test_gf9_oracle():
    # x^2 + 1 over F3: x*x = -1 = 2 and x*(2x) = 2*2 = 1, so inv(x) = 2x
    F9 = GaloisField(3, [1, 0, 1])
    x = F9.gen()
    assert F9.mul(x, x) == (2, 0)
    two_x = F9.smul(2, x)
    assert F9.mul(x, two_x) == F9.one()
    assert F9.try_invert(x) == two_x


def test_gf_rejects_reducible():
    with pytest.raises(StructureError):
        GaloisField(2, [1, 0, 1])  # x^2+1 = (x+1)^2 over F2
    with pytest.raises(StructureError):
        GaloisField(4, [1, 1, 1])


def _unit_scan_irreducible(p, coeffs):
    """Reference: F_p[x]/(f) is a field exactly when every nonzero element
    is a unit."""
    R = PolyQuotient(ZMod(p), [(c,) for c in coeffs])
    return all(R.try_invert(a) is not None for a in R.elements() if a != R.zero())


@pytest.mark.parametrize("p,top", [(2, 4), (3, 4), (5, 2)])
def test_gf_trial_division_matches_the_unit_scan(p, top):
    checked = 0
    for deg in range(1, top + 1):
        for low in itertools.product(range(p), repeat=deg):
            coeffs = list(low) + [1]
            try:
                GaloisField(p, coeffs)
                field = True
            except StructureError as e:
                assert str(e) == "gf modulus gf:%d:%s is reducible" % (
                    p, ",".join(map(str, coeffs)))
                field = False
            assert field == _unit_scan_irreducible(p, coeffs), coeffs
            checked += 1
    assert checked == sum(p ** d for d in range(1, top + 1))


def test_gf_check_at_the_cap():
    import time

    t = time.perf_counter()
    F = GaloisField(2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])  # x^10 + x^3 + 1
    assert time.perf_counter() - t < 1
    assert F.card == 1 << 10
    with pytest.raises(CapacityError):
        GaloisField(2, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])


def test_polyquot_over_z4():
    R = PolyQuotient(ZMod(4), [(1,), (1,), (1,)])
    assert R.card == 16
    x = R.gen()
    # x^2 = -x-1 = 3x+3, so x(x+1) = x^2+x = 3
    assert R.mul(x, R.add(x, R.one())) == (3, 0)
    assert R.uniform_modulus() == 4
    with pytest.raises(StructureError):
        PolyQuotient(ZMod(4), [(1,), (2,)])  # not monic


def test_product_ring():
    F9 = GaloisField(3, [1, 0, 1])
    P = Product([ZMod(2), F9])
    assert P.card == 18
    assert P.rank == 3
    a = P.join([(1,), (2, 1)])
    b = P.join([(1,), (0, 2)])
    assert P.mul(a, b) == P.join([(1,), F9.mul((2, 1), (0, 2))])
    assert P.split(P.one()) == ((1,), (1, 0))
    assert P.try_invert(P.join([(0,), (1, 0)])) is None


def test_elements_deterministic():
    R = PolyQuotient(ZMod(3), [(2,), (1,)])
    assert list(R.elements()) == list(R.elements())
    assert len(list(R.elements())) == R.card
    assert R.deg == 1 and R.gen() == (1,)  # x = -2 = 1 in the degree-1 quotient


def test_ring_hom_checks():
    red = RingHom(ZMod(4), ZMod(2), [(1,)], name="red", check=False)
    assert red.is_ring_hom()
    bad = RingHom(ZMod(2), ZMod(4), [(1,)], name="bad", check=False)
    assert not bad.is_ring_hom()  # 2*1 != 0 mod 4
    with pytest.raises(StructureError):
        RingHom(ZMod(2), ZMod(4), [(1,)], name="bad")
    ident = identity_hom(ZMod(6))
    assert ident((5,)) == (5,)


def test_tensor_square_gf4():
    F4 = GaloisField(2, [1, 1, 1])
    EE, i1, i2 = tensor_square(F4)
    assert EE.card == 16
    assert i1.is_ring_hom() and i2.is_ring_hom()
    # both inclusions restrict to the same map on the prime subring
    assert i1(F4.one()) == i2(F4.one()) == EE.one()
    x = F4.gen()
    assert i1(x) != i2(x)
    # i2 image of x is the outer generator, a root of the lifted modulus
    y = i2(x)
    lhs = EE.add(EE.add(EE.mul(y, y), y), EE.one())
    assert EE.is_zero(lhs)


def test_tensor_tower_faces_compatible():
    E = PolyQuotient(ZMod(4), [(1,), (1,), (1,)])
    t = TensorTower(E)
    assert t.EE.card == 256 and t.EEE.card == 65536
    assert hom_compose(t.i12, t.i1).table == hom_compose(t.i13, t.i1).table
    assert hom_compose(t.i12, t.i2).table == hom_compose(t.i23, t.i1).table
    assert hom_compose(t.i23, t.i2).table == hom_compose(t.i13, t.i2).table
    j1, j2, j3 = t.face_maps()
    x = E.gen()
    assert len({j1(x), j2(x), j3(x)}) == 3


def test_parse_ring():
    assert parse_ring("zmod:6").name == "zmod:6"
    assert parse_ring("gf:5").name == "zmod:5"
    assert parse_ring("gf:4").card == 4
    assert parse_ring("gf:8").card == 8
    assert parse_ring("gf:9").card == 9
    assert parse_ring("gf:3:1,0,1").name == "gf:3:1,0,1"
    assert parse_ring("polyquot:zmod:4:1,1,1").card == 16
    P = parse_ring("prod:(zmod:2;gf:9)")
    assert P.card == 18
    nested = parse_ring("prod:(zmod:2;prod:(zmod:3;zmod:5))")
    assert nested.card == 30
    for bad in ["", "zmod:", "gf:6", "gf:4,", "polyquot:zmod:4", "prod:(zmod:2", "zmod:4:junk"]:
        with pytest.raises(StructureError):
            parse_ring(bad)


def test_parse_polyquot_over_prime_power_field():
    # a coefficient list after gf:q belongs to gf only when q is prime
    R = parse_ring("polyquot:gf:4:1,0,1")
    assert R.card == 16 and R.base.card == 4
    with pytest.raises(StructureError):
        parse_ring("gf:4:1,1,1")


def test_names_over_a_base_of_rank_above_one_parse_back():
    # the name writes base coordinates "(c0.c1)" for each coefficient
    for desc, name in (
        ("polyquot:gf:4:1,0,1", "polyquot:gf:2:1,1,1:(1.0),(0.0),(1.0)"),
        ("polyquot:prod:(zmod:2;zmod:3):1,1", "polyquot:prod:(zmod:2;zmod:3):(1.1),(1.1)"),
    ):
        R = parse_ring(desc)
        assert R.name == name
        back = parse_ring(name)
        assert back == R and ring_to_json(back) == ring_to_json(R)
    x = parse_ring("polyquot:gf:4:(0.1),1")  # x + w over GF(4), w the generator
    assert x.mcoeffs == ((0, 1), (1, 0)) and x.card == 4
    for bad in ("polyquot:gf:4:(1.0.1),1", "polyquot:gf:4:(2.0),1",
                "polyquot:gf:4:(1.0,1", "polyquot:gf:4:(),1"):
        with pytest.raises(StructureError):
            parse_ring(bad)


_LEAVES = st.sampled_from(
    [ZMod(2), ZMod(3), ZMod(4), ZMod(6), GaloisField(2, [1, 1, 1]),
     GaloisField(3, [1, 0, 1]), GaloisField(2, [1, 1, 0, 1])]
)


@st.composite
def _polyquot(draw, bases):
    base = draw(bases)
    deg = draw(st.integers(1, 2))
    coord = st.tuples(*[st.integers(0, m - 1) for m in base.moduli])
    low = draw(st.lists(coord, min_size=deg, max_size=deg))
    return PolyQuotient(base, low + [base.one()])


def _extend(children):
    return st.one_of(
        _polyquot(children),
        st.lists(children, min_size=1, max_size=3).map(Product),
    )


_RINGS = st.recursive(_LEAVES, _extend, max_leaves=3).filter(lambda K: K.card <= 1 << 16)


@settings(max_examples=150, deadline=None)
@given(_RINGS)
def test_ring_names_parse_back(K):
    back = parse_ring(K.name)
    assert back == K and back.name == K.name
    assert ring_to_json(back) == ring_to_json(K)
    assert ring_from_json(json.loads(json.dumps(ring_to_json(K)))) == K
    assert back.moduli == K.moduli and back.one() == K.one()


@settings(max_examples=100, deadline=None)
@given(_RINGS, st.data())
def test_ring_axioms(K, data):
    """mul is associative, commutative and distributes over add, one and
    neg behave, try_invert returns inverses, and SlotRing.contract, the
    coefficient kernel of the numpy engines, agrees with K.mul."""
    elem = st.tuples(*[st.integers(0, m - 1) for m in K.moduli])
    xs = data.draw(st.lists(st.tuples(elem, elem, elem), min_size=1, max_size=8))
    one, zero = K.one(), K.zero()
    for a, b, c in xs:
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, b) == K.mul(b, a)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.mul(one, a) == a and K.add(a, K.neg(a)) == zero
        inv = K.try_invert(a)
        assert inv is None or K.mul(a, inv) == one
    # K rows (rk, N): the slot axis first, the batch last
    X, Y = (np.array([t[k] for t in xs], dtype=np.int64).T for k in (0, 1))
    got = SlotRing(K).contract(lambda p, q: X[p] * Y[q]).T.tolist()
    assert [tuple(z) for z in got] == [K.mul(a, b) for a, b, _ in xs]


def _stacked_reference(S, X, Y):
    """sum over (a, b) of S[a, b, c] X[..., a] @ Y[..., b], in int64."""
    X, Y = X.astype(np.int64), Y.astype(np.int64)
    rk = S.shape[0]
    out = np.zeros(np.broadcast_shapes(X.shape[:1], Y.shape[:1]) + (X.shape[1], Y.shape[2], rk),
                   dtype=np.int64)
    for a, b, c in itertools.product(range(rk), repeat=3):
        out[..., c] += int(S[a, b, c]) * (X[..., a] @ Y[..., b])
    return out


# rank 1 to 3, products and a modulus whose products have weights 2 and 3
_MATMUL_RINGS = st.one_of(
    st.sampled_from([ZMod(3), ZMod(4), GaloisField(2, [1, 1, 1]), GaloisField(2, [1, 1, 0, 1]),
                     Product([ZMod(2), ZMod(3)]), Product([ZMod(4), ZMod(2), ZMod(3)]),
                     Product([GaloisField(2, [1, 1, 1]), ZMod(3)]),
                     PolyQuotient(ZMod(5), [(2,), (3,), (1,)])]),
    _RINGS.filter(lambda K: K.rank <= 3))
# long batches: 8192 and 8193 rows
_BLOCK = 8192


@settings(max_examples=120, deadline=None)
@given(_MATMUL_RINGS, st.sampled_from([np.int16, np.int32, np.int64]),
       st.tuples(*[st.integers(1, 6)] * 3), st.sampled_from([None] * 4 + [0, 1, 2]),
       st.sampled_from([0, 1, 2, 7, _BLOCK, _BLOCK + 1]), st.sampled_from([0, 1, 2]),
       st.booleans(), st.integers(0, 2 ** 16))
@example(GaloisField(2, [1, 1, 1]), np.int16, (3, 3, 3), None, _BLOCK + 1, 0, True, 0)
@example(GaloisField(2, [1, 1, 1]), np.int16, (3, 3, 3), None, _BLOCK + 1, 2, True, 0)
@example(ZMod(3), np.int64, (4, 4, 4), None, 7, 0, False, 1)
@example(Product([ZMod(2), ZMod(3)]), np.int16, (2, 5, 6), 0, 0, 1, False, 2)
@example(PolyQuotient(ZMod(5), [(2,), (3,), (1,)]), np.int16, (2, 3, 4), None, 1, 0, True, 0)
def test_matmul_raw_matches_the_stacked_reference(K, dtype, shape, empty, N, side, top, seed):
    """SlotRing.matmul_raw against the int64 stacked matmul: N = 0 against
    a broadcast 1, N = 1, a few rows and 8192 and 8193 rows; d, e, f
    from 1 to 6, or one of them 0, as in the products of rank-0 presets.
    The operands are drawn batch first, as the reference takes them, and
    handed over batch last, (d, e, rk, N).  Entries reach the largest
    magnitude M at which every partial sum fits the dtype (with top set,
    every entry is M)."""
    ring = SlotRing(K)
    d, e, f = (0 if t == empty else n for t, n in enumerate(shape))
    weight = int(ring.S.sum(axis=(0, 1)).max())
    M = math.isqrt(np.iinfo(dtype).max // (max(e, 1) * weight))
    rng = np.random.default_rng(seed)
    # side 1 or 2 gives X or Y one row, which broadcasts
    nx, ny = (1 if side == 1 else N), (1 if side == 2 else N)
    if N == 0 and side == 0:
        nx = 1
    X, Y = (np.full(sz, M, dtype=dtype) if top else rng.integers(-M, M + 1, sz).astype(dtype)
            for sz in ((nx, d, e, K.rank), (ny, e, f, K.rank)))
    want = np.moveaxis(_stacked_reference(ring.S, X, Y), 0, -1)
    got = ring.matmul_raw(*(np.ascontiguousarray(np.moveaxis(A, 0, -1)) for A in (X, Y)))
    assert got.dtype == dtype and got.shape == want.shape
    assert (got == want).all()


_RADICES = st.lists(st.sampled_from([1, 2, 3, 5, 256, 257]), max_size=4).filter(
    lambda sizes: math.prod(sizes) <= 1 << 17)


@settings(max_examples=80, deadline=None)
@given(_RADICES, st.data())
@example([256], None)
@example([257, 2], None)
@example([], None)
def test_mixed_radix_columns_are_product_tuples(sizes, data):
    """Column t of _mixed_radix(sizes, stop, start) is the (start + t)-th
    itertools.product tuple, in the narrowest unsigned dtype that holds
    max(sizes) - 1: uint8 up to radix 256, uint16 at 257."""
    total = math.prod(sizes)
    if data is None:
        start, stop = max(0, total - 300), total
    else:
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, min(total, start + 300)))
    got = _mixed_radix(sizes, stop, start)
    want = itertools.islice(itertools.product(*map(range, sizes)), start, stop)
    assert got.shape == (len(sizes), stop - start)
    assert got.dtype == (np.uint16 if 257 in sizes else np.uint8)
    assert got.T.tolist() == [list(w) for w in want]
    assert _mixed_radix(sizes, start, start).shape == (len(sizes), 0)


def test_capacity_guard():
    big = ZMod(2 ** 20)
    with pytest.raises(CapacityError):
        big.idempotents()
