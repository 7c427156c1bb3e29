import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itertools
import random

from ofa.linalg import (
    GraphForm, KSolver, howell_card, howell_form, howell_reduce, howell_span,
    form_isometries, isometry_search, k_dets, k_mat_inv, k_mat_vec, k_matmul,
    k_identity, k_nullspace, k_solve, support_pool, vflat,
)
from ofa.coeff_ring import CapacityError, GaloisField, Product, StructureError, ZMod, parse_ring
from test_coeff_ring import _RINGS


def test_solve_mod():
    two = KSolver(ZMod(8), [[(2,)]])
    assert two.solve([(4,)]) in ([(2,)], [(6,)])
    assert two.solve([(3,)]) is None
    assert two.count([(4,)]) == 2 and two.count([(3,)]) == 0
    assert _span_by_closure([vflat(g) for g in two.nullspace()], (8,)) == {(0,), (4,)}
    assert KSolver(ZMod(2), [[(1,), (1,)]]).count([(1,)]) == 2


def test_ksolver_tall_and_wide():
    K = ZMod(4)
    tall = KSolver(K, [[(1,)], [(1,)]])  # x = b0, x = b1
    assert tall.solve([(3,), (3,)]) == [(3,)]
    assert tall.solve([(1,), (2,)]) is None
    wide = KSolver(K, [[(1,), (2,), (0,)]])
    x = wide.solve([(3,)])
    assert (x[0][0] + 2 * x[1][0]) % 4 == 3
    assert wide.count([(3,)]) == wide.null_count == 16


def test_k_solve_gf4():
    F4 = GaloisField(2, [1, 1, 1])
    x = F4.gen()
    M = [[x]]
    b = [F4.add(x, F4.one())]
    sol = k_solve(F4, M, b)
    assert F4.mul(x, sol[0]) == b[0]


def test_k_nullspace_zmod6():
    K = ZMod(6)
    gens = k_nullspace(K, [[(2,)]])
    reach = {(0,)}
    for _ in range(6):
        reach |= {K.add(a, g[0]) for a in reach for g in gens}
    assert reach == {(0,), (3,)}


def k_matrices(V, F, rk, sort=False):
    """Matrices over K as tuples, one per leaf f of F, column t the flat
    row V[f[t]].  Equal rows share one tuple, so a leaf costs one tuple,
    not one per entry: a lexsort on the narrowest dtype (a radix sort)
    numbers the distinct rows, and one tolist reads the leaves.  Row
    numbers follow the lex order of the rows, so with sort=True one more
    lexsort over them returns the list sorted() would."""
    L, n = F.shape
    A = V[F].reshape(L, n, n, rk).transpose(0, 2, 1, 3).reshape(L * n, n * rk)
    A = A.astype(np.min_scalar_type(A.max(initial=0)))
    order = np.lexsort(A.T[::-1]) if n else np.arange(0)
    S = A[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    idx = np.empty(len(S), dtype=np.int64)
    idx[order] = np.cumsum(new) - 1
    idx = idx.reshape(L, n)
    if sort and n:
        idx = idx[np.lexsort(idx.T[::-1])]
    rows = [tuple(zip(*[iter(r)] * rk)) for r in S[new].tolist()]
    return [tuple(map(rows.__getitem__, m)) for m in idx.tolist()]


def mat_tuples(A):
    """The matrices of an (N, n, n, rk) int array, rows first, as tuples
    of rows of K elements."""
    return [tuple(tuple(map(tuple, row)) for row in m) for m in A.tolist()]


def k_det(spec, M):
    """Reference determinant: column expansion with a row-mask memo, one
    matrix of ring elements at a time."""
    n = len(M)
    memo = {}

    def go(mask, col):
        if col == n:
            return spec.one()
        hit = memo.get(mask)
        if hit is not None:
            return hit
        acc = spec.zero()
        sign = 1
        for i in range(n):
            if mask & (1 << i):
                a = M[i][col]
                if not spec.is_zero(a):
                    term = spec.mul(a, go(mask & ~(1 << i), col + 1))
                    acc = spec.add(acc, term) if sign > 0 else spec.sub(acc, term)
                sign = -sign
        memo[mask] = acc
        return acc

    return go((1 << n) - 1, 0)


def test_k_det():
    K = ZMod(5)
    M = [[(1,), (2,)], [(3,), (4,)]]
    assert k_det(K, M) == (3,)
    anti = [[(0,), (0,), (1,)], [(0,), (1,), (0,)], [(1,), (0,), (0,)]]
    assert k_det(K, anti) == (4,)
    assert k_det(K, []) == (1,)


def test_k_mat_inv():
    K = ZMod(4)
    M = [[(1,), (2,)], [(0,), (1,)]]
    X = k_mat_inv(K, M)
    assert X == (((1,), (2,)), ((0,), (1,)))
    assert k_matmul(K, M, X) == k_identity(K, 2)
    assert k_mat_inv(K, [[(2,), (0,)], [(0,), (1,)]]) is None


def test_product_split_solver():
    P = Product([ZMod(2), ZMod(3)])
    a = P.join([(1,), (2,)])
    b = P.join([(1,), (1,)])
    sol = k_solve(P, [[a]], [b])
    assert P.mul(a, sol[0]) == b
    bad = P.join([(0,), (1,)])
    assert k_solve(P, [[bad]], [b]) is None
    ks = KSolver(P, [[bad]])
    assert ks.count([P.join([(0,), (2,)])]) == 2  # 0*x=0 over Z2 frees x there
    gens = ks.nullspace()
    assert all(P.mul(bad, g[0]) == P.zero() for g in gens)


def test_empty_system():
    K = ZMod(3)
    with pytest.raises(StructureError):
        KSolver(K, [])
    ks = KSolver(K, [], ncols=2)
    assert ks.count([]) == 9  # no equations, both unknowns free
    gens = ks.nullspace()
    assert len(gens) == 2


def test_batched_consistency_matches_count():
    import random

    import numpy as np

    rng = random.Random(5)
    P = Product([ZMod(4), ZMod(3)])
    F4 = GaloisField(2, [1, 1, 1])
    for K, rows, cols in ((ZMod(4), 3, 2), (ZMod(6), 2, 3), (P, 3, 2), (F4, 2, 2)):
        kel = list(K.elements())
        M = [[kel[rng.randrange(len(kel))] for _ in range(cols)] for _ in range(rows)]
        M[0][0] = K.smul(2, M[0][0])  # keep some systems singular
        ks = KSolver(K, M)
        bs = [[kel[rng.randrange(len(kel))] for _ in range(rows)] for _ in range(60)]
        bs.append([K.zero()] * rows)
        mask = ks.consistent(np.array([[x for e in b for x in e] for b in bs]))
        counts = [ks.count(b) for b in bs]
        assert mask.tolist() == [c != 0 for c in counts]
        assert set(counts) <= {0, ks.null_count}
    empty = KSolver(ZMod(3), [], ncols=2)
    assert empty.consistent(np.zeros((4, 0), dtype=np.int64)).tolist() == [True] * 4


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["zmod:4", "zmod:6", "gf:4", "prod:(zmod:2;zmod:4)",
                             "prod:(zmod:2;zmod:3)"]),
       rows=st.integers(0, 3), cols=st.integers(0, 3), data=st.data())
def test_ksolver_matches_enumeration(name, rows, cols, data):
    """Solve, count, consistency, kernel and k_mat_inv against the fibres
    of x -> M x over all of K^cols."""
    K = parse_ring(name)
    kel = list(K.elements())
    pick = st.sampled_from(kel)
    M = [[data.draw(pick) for _ in range(cols)] for _ in range(rows)]
    fibres = {}
    for x in itertools.product(kel, repeat=cols):
        fibres.setdefault(k_mat_vec(K, M, x), []).append(tuple(x))
    ks = KSolver(K, M, ncols=cols)
    bs = [tuple(data.draw(pick) for _ in range(rows)) for _ in range(4)] + list(fibres)[:4]
    for b in bs:
        x = ks.solve(list(b))
        assert (x is not None) == (b in fibres)
        assert x is None or k_mat_vec(K, M, x) == b
        assert ks.count(list(b)) == len(fibres.get(b, []))
    mask = ks.consistent(np.array([vflat(b) for b in bs], dtype=np.int64))
    assert mask.tolist() == [ks.count(list(b)) > 0 for b in bs]
    kernel = _span_by_closure([vflat(g) for g in ks.nullspace()], K.moduli * cols)
    assert kernel == {tuple(vflat(x)) for x in fibres[(K.zero(),) * rows]}
    if rows == cols:
        assert (k_mat_inv(K, M) is not None) == (len(fibres) == len(kel) ** cols)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["zmod:4", "zmod:6", "gf:4", "prod:(zmod:2;zmod:4)",
                             "prod:(zmod:2;zmod:3)"]),
       rows=st.integers(0, 3), cols=st.integers(0, 3), ntargets=st.integers(0, 2),
       data=st.data())
def test_graph_batches_match_solve(name, rows, cols, ntargets, data):
    """GraphForm.image is x -> M x on flat rows, and solve_rows gives on
    every row the mask and the solution that solve gives, with and
    without targets; a form with no source tests span membership."""
    K = parse_ring(name)
    kel = list(K.elements())
    pick = st.sampled_from(kel)
    M = [[data.draw(pick) for _ in range(cols)] for _ in range(rows)]
    xs = [tuple(data.draw(pick) for _ in range(cols)) for _ in range(6)]
    X = np.array([vflat(x) for x in xs], dtype=np.int64).reshape(6, cols * K.rank)
    graph = KSolver(K, M, ncols=cols).graph
    assert graph.image(X).tolist() == [vflat(k_mat_vec(K, M, x)) for x in xs]
    mods = K.moduli * rows
    targets = [vflat(data.draw(pick) for _ in range(rows)) for _ in range(ntargets)]
    graph = GraphForm(graph.A.tolist(), mods, K.moduli * cols, targets)
    bs = [vflat(data.draw(pick) for _ in range(rows)) for _ in range(6)]
    bs += [vflat(k_mat_vec(K, M, x)) for x in xs[:3]]
    B = np.array(bs, dtype=np.int64).reshape(len(bs), len(mods))
    ok, sol = graph.solve_rows(B)
    want = [graph.solve(b) for b in bs]
    assert ok.tolist() == [w is not None for w in want]
    assert [s for s, w in zip(sol.tolist(), want) if w is not None] == [
        w for w in want if w is not None]
    span = _span_by_closure(targets, mods) if targets else {tuple([0] * len(mods))}
    assert GraphForm([], mods, [], targets).consistent(B).tolist() == [
        tuple(b) in span for b in bs]


def _reduce_reference(graph, b):
    """One right-hand side reduced as solve reduces it: every coordinate
    into range, then howell_reduce on [b | 0]."""
    v = list(b) + [0] * (len(graph.mods) - graph.k)
    return howell_reduce(graph.form, [x % m for x, m in zip(v, graph.mods)], graph.mods)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["zmod:4", "zmod:9", "gf:4", "prod:(zmod:2;zmod:4)"]),
       rows=st.integers(0, 20), cols=st.integers(0, 20), ntargets=st.integers(0, 3),
       n=st.sampled_from([0, 1, 4099]), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_reduction_matches_howell_reduce(name, rows, cols, ntargets, n, seed):
    """consistent and solve_rows against howell_reduce, column by column,
    on forms up to 40 coordinates wide whose rows are mostly zero, with
    right-hand sides off range and negative (theta_hits hands over r0 -
    residue); a batch of 4099 columns repeats 16 distinct ones.  Neither
    call may change B."""
    K = parse_ring(name)
    cols = min(cols, 40 // K.rank)
    rows = min(rows, 40 // K.rank - cols)
    rng = np.random.default_rng(seed)
    mods_out, mods_in = K.moduli * rows, K.moduli * cols
    mo = np.array(mods_out, dtype=np.int64)

    def sparse(count):
        return np.where(rng.random((count, len(mo))) < 0.7, 0,
                        rng.integers(0, 1 << 20, size=(count, len(mo))) % mo)

    graph = GraphForm(sparse(len(mods_in)).tolist(), mods_out, mods_in,
                      sparse(ntargets).tolist())
    X = rng.integers(0, 9, size=(8, len(mods_in)))
    pool = np.concatenate([sparse(8), graph.image(X)]) + mo * rng.integers(-3, 4, size=(16, len(mo)))
    ref = [_reduce_reference(graph, b) for b in pool.tolist()]
    pick = rng.integers(0, 16, size=n) if n > 1 else np.arange(n)
    B = pool[pick]
    want_ok = [not any(ref[i][:graph.k]) for i in pick]
    assert graph.consistent(B).tolist() == want_ok
    assert (B == pool[pick]).all(), "consistent changed its argument"
    ok, sol = graph.solve_rows(B)
    assert ok.tolist() == want_ok
    assert sol.shape == (n, len(mods_in)) and (B == pool[pick]).all()
    assert [s for s, i, w in zip(sol.tolist(), pick, want_ok) if w] == [
        [-x % m for x, m in zip(ref[i][graph.k:], mods_in)] for i, w in zip(pick, want_ok) if w]


def test_k_matrices_match_per_leaf_columns():
    """Column t of leaf r is the flat pool row V[F[r, t]], entries as
    rank-length tuples of Python ints, for every coordinate width."""
    rng = np.random.default_rng(3)
    for top, rk, n in ((4, 1, 4), (3, 2, 3), (300, 2, 2), (70000, 1, 3), (2 ** 40, 3, 2)):
        V = rng.integers(0, top, size=(50, n * rk))
        F = rng.integers(0, 50, size=(400, n))
        got = k_matrices(V, F, rk)
        assert len(got) == len(F)
        for M, f in zip(got, F):
            cols = V[f].reshape(n, n, rk).tolist()
            assert M == tuple(tuple(tuple(cols[t][s]) for t in range(n))
                              for s in range(n))
        assert type(got[0][0][0][0]) is int
    assert k_matrices(V, np.zeros((2, 0), dtype=np.int64), 1) == [(), ()]
    assert k_matrices(V, np.zeros((0, 2), dtype=np.int64), 3) == []


def test_k_matrices_sorted_matches_sorted():
    rng = np.random.default_rng(5)
    for rk, n in ((1, 3), (2, 2), (3, 1)):
        V = rng.integers(0, 3, size=(6, n * rk))
        F = rng.integers(0, 6, size=(300, n))  # duplicate leaves and rows
        assert k_matrices(V, F, rk, sort=True) == sorted(k_matrices(V, F, rk))
    assert k_matrices(V, np.zeros((2, 0), dtype=np.int64), 1, sort=True) == [(), ()]


def _span_by_closure(rows, mods):
    span = {tuple([0] * len(mods))}
    frontier = list(span)
    while frontier:
        fresh = []
        for x in frontier:
            for r in rows:
                y = tuple((a + b) % m for a, b, m in zip(x, r, mods))
                if y not in span:
                    span.add(y)
                    fresh.append(y)
        frontier = fresh
    return span


def test_howell_form_is_canonical_and_reduces_to_the_coset_minimum():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 4)
        if trial % 2:
            mods = tuple(rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(n))
        else:
            mods = (rng.choice((2, 4, 8, 9, 12)),) * n
        rows = [[rng.randrange(m) for m in mods] for _ in range(rng.randint(0, 3))]
        H = howell_form(rows, mods)
        span = _span_by_closure(rows, mods)
        members = howell_span(H, mods)
        assert len(members) == howell_card(H, mods) == len(span)
        assert set(map(tuple, members)) == span
        # the same subgroup from any generating set gives the same form
        assert howell_form([list(x) for x in span], mods) == H
        for c, h in H:
            assert not any(h[:c]) and mods[c] % h[c] == 0
        for _ in range(4):
            v = [rng.randrange(m) for m in mods]
            coset = (tuple((a + b) % m for a, b, m in zip(v, x, mods)) for x in span)
            assert tuple(howell_reduce(H, v, mods)) == min(coset)


def test_howell_kernel_is_the_preimage():
    rng = random.Random(12)
    for _ in range(100):
        mods_in = (rng.choice((2, 4, 8)),) * rng.randint(1, 3)
        mods_out = (mods_in[0],) * rng.randint(1, 3)
        images = [[rng.randrange(m) for m in mods_out] for _ in mods_in]
        targets = [[rng.randrange(m) for m in mods_out] for _ in range(rng.randint(0, 2))]
        T = _span_by_closure(targets, mods_out)
        want = {n for n in itertools.product(*map(range, mods_in))
                if tuple(sum(q * img[j] for q, img in zip(n, images)) % mods_out[j]
                         for j in range(len(mods_out))) in T}
        got = howell_span(GraphForm(images, mods_out, mods_in, targets).kernel, mods_in)
        assert set(map(tuple, got)) == want


@pytest.mark.parametrize("name", ["zmod:4", "zmod:8", "prod:(zmod:2;zmod:4)",
                                  "gf:4", "polyquot:zmod:4:1,1,1"])
def test_k_dets_match_k_det(name):
    K = parse_ring(name)
    rng = random.Random(13)
    els = list(K.elements())
    for n in range(7):
        mats = [[[rng.choice(els) for _ in range(n)] for _ in range(n)]
                for _ in range(40)]
        # a batch of 40 matrices, the batch axis last
        A = np.moveaxis(np.array(mats, dtype=np.int64).reshape(40, n, n, K.rank), 0, -1)
        assert [tuple(d) for d in k_dets(K, A).T.tolist()] == [k_det(K, M) for M in mats]


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.integers(0, 5), st.randoms(use_true_random=False))
def test_k_dets_multiplicative(K, n, rng):
    """det(AB) = det(A) det(B) on random stacks over random rings."""
    def mat():
        return [[tuple(rng.randrange(m) for m in K.moduli) for _ in range(n)]
                for _ in range(n)]

    A, B = [mat() for _ in range(6)], [mat() for _ in range(6)]
    AB = [k_matmul(K, a, b) for a, b in zip(A, B)]

    def dets(mats):
        stack = np.array(mats, dtype=np.int64).reshape(len(mats), n, n, K.rank)
        return [tuple(d) for d in k_dets(K, np.moveaxis(stack, 0, -1)).T.tolist()]

    assert dets(AB) == [K.mul(x, y) for x, y in zip(dets(A), dets(B))]


@pytest.mark.parametrize("name,n,size", [("zmod:4", 3, 8), ("zmod:8", 2, 24),
                                         ("prod:(zmod:2;zmod:4)", 2, 20)])
def test_isometry_search_keeps_the_invertible_leaves(name, n, size):
    """With the zero form every column choice is a leaf and the K-Gram is
    singular, so the search keeps exactly the leaves k_mat_inv inverts."""
    K = parse_ring(name)
    rk = K.rank
    ktab = np.array(list(K.elements()), dtype=np.int64).reshape(K.card, rk)
    V = support_pool(ktab, n, range(n))
    rng = random.Random(14)
    pools = [sorted(rng.sample(range(len(V)), size)) for _ in range(n)]
    B = np.zeros((n * rk, n * rk, rk), dtype=np.int64)
    G = np.zeros((n, n, rk), dtype=np.int64)
    F = isometry_search(K, V, B, G, pools)
    leaves = np.array(list(itertools.product(*pools)), dtype=np.int64)
    keep = [k_mat_inv(K, M) is not None for M in k_matrices(V, leaves, rk)]
    assert 0 < sum(keep) < len(leaves)
    assert F.tolist() == leaves[np.array(keep)].tolist()


def test_form_isometries_pools_one_block_per_support():
    """Columns with one support share its block; q keeps the column-t pool
    to the v with q(v) = q(e_t); each block alone meets the cap."""
    K = parse_ring("zmod:3")
    n = 3
    B = np.zeros((n, n, 1), dtype=np.int64)
    G = np.zeros((n, n, 1), dtype=np.int64)
    supports = [(0, 1), (0, 1), (2,)]

    def q(X):  # x0 x1 + x2^2, with q(e_0) = q(e_1) = 0 and q(e_2) = 1
        return (X[:, :1] * X[:, 1:2] + X[:, 2:] ** 2) % 3

    V, F = form_isometries(K, B, G, supports, q, cap=9)
    ktab = np.arange(3)[:, None]
    assert V.tolist() == np.concatenate([support_pool(ktab, n, (0, 1)),
                                         support_pool(ktab, n, (2,))]).tolist()
    qv = q(V)[:, 0]
    pools = [np.flatnonzero(qv[:9] == 0)] * 2 + [9 + np.flatnonzero(qv[9:] == 1)]
    assert F.tolist() == isometry_search(K, V, B, G, pools).tolist()
    assert len(F) and (qv[F] == [0, 0, 1]).all()
    with pytest.raises(CapacityError, match="^column pool of 9 vectors$"):
        form_isometries(K, B, G, supports, q, cap=8)
