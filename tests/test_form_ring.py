import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.form_ring import (
    El,
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
from ofa.coeff_ring import (CapacityError, GaloisField, StructureError, ZMod, _basis, _mixed_radix,
                            parse_ring)
from ofa.clifford import CliffordAlg
from dict_law import dict_law
from ofa.odd_form_param import DeltaShape, member, to_pair
from test_coeff_ring import _RINGS
from test_quad_module import _FlippedAug
from ofa.quad_module import (CanonConstruction, QuadModule, QuadType, canon_algebra,
                             module_check, naive_canon_check, split_module)


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
    """The span of rep_odd_kernel is the kernel of rep_odd, found by
    enumerating ofaorth(3), with |K[2]|^3 elements: the offsets of the
    rep_odd lift in unitary enumeration.  rep_odd is additive, so its
    values on the Z-basis give it on every element at once."""
    for name in ("zmod:2", "zmod:3", "zmod:4", "gf:4"):
        K = parse_ring(name)
        B = ofaorth(3, K)
        gens = [B.e(i, j, b) for (i, j) in B.pairs for b in _basis(K)]
        R = np.array([np.ravel(rep_odd(B, g)) for g in gens])
        X = _mixed_radix(list(K.moduli) * B.rank, K.card ** B.rank).T.astype(np.int64)
        zero = ((X @ R) % np.tile(K.moduli, len(R[0]) // K.rank) == 0).all(axis=1)
        kernel = {sum((B.smul(x, g) for x, g in zip(row, gens)), B.zero())
                  for row in X[zero].tolist()}
        offsets = rep_odd_kernel(B)
        span, fresh = {B.zero()}, {B.zero()}
        while fresh:
            fresh = {x + g for x in fresh for g in offsets} - span
            span |= fresh
        assert span == kernel, name
        torsion = [k for k in K.elements() if K.is_zero(K.smul(2, k))]
        assert len(span) == len(torsion) ** 3, name


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
    assert dict_law(C).residue(p).key != dict_law(ref).residue(ref.S.e(0, 0)).key
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


ONE_ROW_TABLES = TABLES + [
    DeltaShape(mk(r, parse_ring(name))) for name in ("zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")
    for mk, r in ((ofasymp, 0), (ofalin, 0), (ofaorth, 1))]
FLIPPED = [_FlippedAug(split_module(kind, rank, parse_ring(name)))
           for kind, rank, name in (("orthogonal", 2, "gf:3"), ("orthogonal", 3, "zmod:4"),
                                    ("linear", 2, "gf:3"), ("symplectic", 2, "gf:4"))]


def _outcome(f, *args):
    try:
        return f(*args)
    except AssertionError as exc:
        return "AssertionError", str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ONE_ROW_TABLES + FLIPPED), st.integers(0, 2 ** 32 - 1))
def test_one_row_calls_match_the_dict_law(T, seed):
    """to_pair, read, add, neg, phi and act on single elements, which run as
    one-row batches, give the dict law's answers: read on members and on
    drawn pairs (most off the table), and on a corrupted table the same
    AssertionError, naming the same pair."""
    rng = random.Random(seed)
    alg, ref = T.alg, dict_law(T)
    x, y, a = T.sample(rng), T.sample(rng), alg.sample(rng)
    k = rng.choice(list(alg.K.elements()))
    assert T.to_pair(x) == ref.to_pair(x)
    for p, r in (ref.to_pair(x), (alg.sample(rng), alg.sample(rng))):
        assert T.read(p, r) == ref.read(p, r)
    for name, args in (("add", (x, y)), ("neg", (x,)), ("phi", (a,)), ("act", (x, a, k))):
        assert _outcome(getattr(T, name), *args) == _outcome(getattr(ref, name), *args), name


def test_one_row_calls_refuse_as_the_dict_law():
    """The corrupted tables do make the law leave them, on both sides."""
    rng, refused = random.Random(0), 0
    for T in FLIPPED:
        ref = dict_law(T)
        for _ in range(10):
            x, y = T.sample(rng), T.sample(rng)
            got = _outcome(T.add, x, y)
            assert got == _outcome(ref.add, x, y)
            refused += got[0] == "AssertionError"
    assert refused > 0


def test_an_element_of_another_algebra_is_refused():
    """to_array, which every single-element call goes through, names both
    algebras instead of dropping the keys its algebra lacks."""
    K = parse_ring("gf:3")
    small, big, lin = ofasymp(2, K), ofasymp(4, K), ofalin(1, K)
    with pytest.raises(StructureError, match="%s given to %s" % (big.tag, small.tag)):
        small.to_array([big.e(2, 2)])
    with pytest.raises(StructureError, match="%s given to %s" % (small.tag, lin.tag)):
        DeltaShape(lin).read(small.e(1, 1), small.zero())
    assert (small.to_array([small.e(1, 1)]) != 0).sum() == 1


def _coords(rows):
    """Coordinate rows (dim, rk, N) as a list of N coordinate tuples."""
    return [tuple(tuple(v) for v in row) for row in np.moveaxis(rows, -1, 0).tolist()]


def _lengths(rng, *axes):
    """A batch length: a random one from 1 to 5, or the length of one of
    the axes beside the batch axis, where an op that reads the batch
    along a wrong axis keeps its shapes."""
    return rng.choice(sorted({rng.randrange(1, 6), *axes} - {0}))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(TABLES), st.integers(0, 2 ** 32 - 1))
def test_param_table_rows_match_the_per_element_law(T, seed):
    """to_pair, read, add, neg, phi and act on coordinate rows give the
    per-element results of the dict law row by row; read's mask is its
    membership, also on pairs off the table."""
    rng = random.Random(seed)
    alg, kel, ref = T.alg, list(T.alg.K.elements()), dict_law(T)
    d, rk = len(alg.indices), alg.K.rank
    N = _lengths(rng, d, rk, T.dim, d * d)
    xs, ys = [T.sample(rng) for _ in range(N)], [T.sample(rng) for _ in range(N)]
    els = [alg.sample(rng) for _ in range(N)]
    ks = [rng.choice(kel) for _ in range(N)]
    X, Y = (np.moveaxis(np.array(v).reshape(N, T.dim, rk), 0, -1) for v in (xs, ys))
    A = alg.to_array(els)
    P, R = T.to_pair_rows(X)
    assert list(zip(alg.from_array(P), alg.from_array(R))) == [ref.to_pair(x) for x in xs]
    for (got, ok), want in (
            (T.read_rows(P, R), xs),
            (T.add_rows(X, Y), [ref.add(x, y) for x, y in zip(xs, ys)]),
            (T.neg_rows(X), [ref.neg(x) for x in xs]),
            (T.phi_rows(A), [ref.phi(a) for a in els]),
            (T.act_rows(X, A, np.array(ks).T),
             [ref.act(x, a, k) for x, a, k in zip(xs, els, ks)])):
        assert ok.all() and _coords(got) == want
    ps, rs = [alg.sample(rng) for _ in range(N)], [alg.sample(rng) for _ in range(N)]
    got, ok = T.read_rows(alg.to_array(ps), alg.to_array(rs))
    want = [ref.read(p, r) for p, r in zip(ps, rs)]
    assert ok.tolist() == [w is not None for w in want]
    assert [g for g, o in zip(_coords(got), ok) if o] == [w for w in want if w is not None]


def _row_algebras(K, rng):
    """The presets and the tensor squares of split and of random tables,
    whose contraction weights are any elements of K."""
    out = [ofalin(2, K), ofasymp(2, K), ofaorth(3, K), ofaorth(4, K)]
    kel = list(K.elements())
    for kind, rank in (("linear", 2), ("symplectic", 2), ("orthogonal", 3)):
        qt, labels = QuadType(kind, K), split_module(kind, rank, K).labels
        gram = {}
        for a in labels:
            for b in labels:
                if kind != "linear":
                    gram[(a, b)] = rng.choice(kel)
                elif a * b < 0:
                    l, z = rng.choice(kel), K.zero()
                    gram[(a, b)] = qt.R.join((l, z) if a > 0 else (z, l))
        out += [canon_algebra(split_module(kind, rank, K)),
                canon_algebra(QuadModule(qt, rank, gram, {}))]
    return out


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.integers(0, 2 ** 32 - 1))
def test_batch_product_and_involution_match_the_sparse_ones(K, seed):
    """mul_rows is X C Y with C the contract weights, conj_rows one gather
    and the signs of invol, kmul_rows the row-wise K scaling: each agrees
    with mul, conj and kmul."""
    rng = random.Random(seed)
    kel = list(K.elements())
    for alg in _row_algebras(K, rng):
        d = len(alg.indices)
        N = _lengths(rng, d, K.rank, d * d)
        xs, ys = [alg.sample(rng) for _ in range(N)], [alg.sample(rng) for _ in range(N)]
        ks = [rng.choice(kel) for _ in range(N)]
        X, Y = alg.to_array(xs), alg.to_array(ys)
        assert alg.from_array(alg.mul_rows(X, Y)) == [alg.mul(x, y) for x, y in zip(xs, ys)]
        assert alg.from_array(alg.conj_rows(X)) == [alg.conj(x) for x in xs]
        assert alg.from_array(alg.kmul_rows(np.array(ks).T, X)) == [
            alg.kmul(k, x) for k, x in zip(ks, xs)]


def test_el_repr_pinned():
    # El.__repr__ reaches reports through the axioms_check witnesses and
    # the clif0_relation_check labels: zero is "0", a term is v*e(i,j),
    # terms in key order
    K = parse_ring("prod:(zmod:2;zmod:3)")
    alg = ofasymp(2, K)
    assert repr(alg.zero()) == "0"
    x = alg.el({(1, -1): (1, 2), (-1, 1): (0, 1), (1, 1): (1, 0)})
    assert repr(x) == "(0, 1)*e(-1,1) + (1, 2)*e(1,-1) + (1, 0)*e(1,1)"
    assert repr(ofaorth(3, ZMod(4)).e(0, -1, (3,))) == "(3,)*e(0,-1)"


def _sparse_algebras(K):
    """Split presets at n = 1, 2 and Clifford algebras of rank up to 4."""
    return ([f(r, K) for f, r in ((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4),
                                  (ofaorth, 2), (ofaorth, 3), (ofaorth, 4), (ofaorth, 5))]
            + [CliffordAlg(r, K) for r in range(5)])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")),
       st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_sparse_arithmetic_property(name, which, seed):
    K = parse_ring(name)
    algs = _sparse_algebras(K)
    A = algs[which]
    rng = random.Random(seed)
    kel = list(K.elements())

    def sparse():
        keys = rng.sample(A.basis, rng.randrange(min(len(A.basis), 6) + 1))
        return A.el({key: rng.choice(kel) for key in keys})

    x, y, z = sparse(), sparse(), sparse()
    k, m = rng.choice(kel), rng.choice(kel)
    zero = A.zero()
    assert A.add(A.add(x, y), z) == A.add(x, A.add(y, z))
    assert A.add(x, y) == A.add(y, x)
    assert A.add(x, zero) == x
    assert A.add(x, A.neg(x)) == zero and A.sub(x, x) == zero
    assert A.sub(x, y) == A.add(x, A.neg(y))
    assert A.kmul(k, A.add(x, y)) == A.add(A.kmul(k, x), A.kmul(k, y))
    assert A.kmul(K.add(k, m), x) == A.add(A.kmul(k, x), A.kmul(m, x))
    assert A.kmul(K.zero(), x) == zero
    assert A.smul(3, x) == A.add(x, A.add(x, x))
    for w in (A.add(x, y), A.neg(x), A.kmul(k, x)):
        assert not any(K.is_zero(v) for v in w.c.values())
    assert A.from_coords(A.coords(x)) == x
    assert len(A.coords(x)) == len(A.basis)
    # elements are equal only within one algebra
    for B in algs:
        if B is not A:
            assert El(B, dict(x.c)) != x and B.zero() != zero


def _betas_reference(els):
    """The array layout as unitary once built it: rows and columns in
    index order, the pairs walked in sorted order."""
    alg = els[0].alg
    d, rk = len(alg.indices), alg.K.rank
    pos = {i: t for t, i in enumerate(alg.indices)}
    keys = sorted(alg.pairs)
    B = np.zeros((len(els), d, d, rk), dtype=np.int64)
    B[:, [pos[i] for i, _ in keys], [pos[j] for _, j in keys]] = np.array(
        [[b.c.get(k, alg.K.zero()) for k in keys] for b in els],
        dtype=np.int64).reshape(len(els), len(keys), rk)
    return B


@settings(max_examples=120, deadline=None)
@given(_RINGS, st.sampled_from(((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4),
                                (ofaorth, 1), (ofaorth, 2), (ofaorth, 3), (ofaorth, 4),
                                (ofaorth, 5))),
       st.integers(0, 2 ** 32 - 1))
def test_array_codec_round_trip(K, preset, seed):
    """from_array(to_array(els)) == els, and to_array is the layout the
    unitary groups and the batch engine were built on."""
    mk, r = preset
    alg = mk(r, K)
    rng = random.Random(seed)
    els = [alg.zero()]
    for _ in range(rng.randrange(1, 8)):
        keys = rng.sample(alg.pairs, rng.randrange(len(alg.pairs) + 1))
        els.append(alg.el({key: tuple(rng.randrange(m) for m in K.moduli) for key in keys}))
    A = alg.to_array(els)
    # the batch axis last
    assert A.dtype == np.int64 and np.moveaxis(A, -1, 0).tolist() == _betas_reference(els).tolist()
    back = alg.from_array(A)
    assert back == els
    assert [e.c for e in back] == [dict(e.key) for e in els]
    assert list(alg.pairs) == sorted(alg.pairs)
    assert [alg.pos[i] for i in alg.indices] == list(range(len(alg.indices)))
