"""The batch engine against the exact element arithmetic where its sums
are largest: the shared array law adds contractions unreduced and
reduces once, so every input entry here is m - 1.  The rings cover one
modulus just under RING_CAP, the mask path (a shared power-of-two
modulus: Z/2^20, F_2^10), mixed moduli, and the moduli on each side of
the int16 and int32 bounds of batch_dtype.  The tables are Delta over
the presets and Theta over tensor squares, of split modules (a C with
one weight per row) and of random Gram tables (a dense C)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.batch_delta import BatchOps, _torsion_list, decode_factor, herm_slots, slot_sizes
from ofa.coeff_ring import (RING_CAP, GaloisField, PolyQuotient, Product, SlotRing, ZMod,
                            parse_ring)
from ofa.form_ring import (ParamTable, UnitalEl, ofalin, ofaorth, ofasymp, unital,
                           unital_involution, unital_mul)
from ofa.odd_form_param import DeltaShape
from ofa.quad_module import CanonConstruction, QuadModule, QuadType, split_module
from test_coeff_ring import _RINGS
from dict_law import dict_law

# F_2^10 = F_2[x]/(x^10 + x^3 + 1), written as a PolyQuotient
LIMIT_RINGS = [ZMod(1048573), ZMod(1 << 20),
               PolyQuotient(ZMod(2), [(c,) for c in (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)]),
               Product([ZMod(4), ZMod(3)])]
PRESETS = [(ofasymp, 2), (ofaorth, 3), (ofaorth, 4)]


def theta_split(spec, K):
    """Theta over the split module of spec, "kind:rank"."""
    kind, rank = spec.split(":")
    return CanonConstruction(split_module(kind, int(rank), K))


def theta_dense(spec, K):
    """Theta over a module of spec's labels whose Gram entries are drawn
    at random, every one nonzero: its C is dense."""
    kind, rank = spec.split(":")
    qt, rng = QuadType(kind, K), random.Random(spec)
    labels = split_module(kind, int(rank), K).labels

    def draw():
        return tuple(rng.randrange(1, m) for m in K.moduli)

    gram = {}
    for a in labels:
        for b in labels:
            if kind != "linear":
                gram[(a, b)] = draw()
            elif a * b < 0:
                l, z = draw(), K.zero()
                gram[(a, b)] = qt.R.join((l, z) if a > 0 else (z, l))
    return CanonConstruction(QuadModule(qt, int(rank), gram, {}))


THETAS = [(mk, spec) for mk in (theta_split, theta_dense)
          for spec in ("linear:2", "symplectic:2", "orthogonal:3")]


def _table(mk, r, K):
    T = mk(r, K)
    return T if isinstance(T, ParamTable) else DeltaShape(T)


def _arr(ops, els):
    """The elements as a (d, d, rk, N) batch, written entry by entry."""
    M = np.zeros((ops.d, ops.d, ops.rk, len(els)), dtype=ops.dtype)
    for t, el in enumerate(els):
        for (i, j), v in el.c.items():
            M[ops.pos[i], ops.pos[j], :, t] = v
    return M


def _pair_arrays(ops, pairs):
    return (_arr(ops, [p for p, _ in pairs]), _arr(ops, [r for _, r in pairs]))


def _check_against_exact(T, rng, n):
    """Entry 0 of every batch has each entry m - 1; n more entries are
    random.  The 1 + n distinct entries repeat to batches as long as d,
    rk, dim and d * d, so that an op that reads the batch along a wrong
    axis keeps its shapes, and to one more batch: on an int16 table 8193
    long, so that the narrowest sums run over a long batch, else 1 + n.
    The exact values are computed once per distinct entry.  The pair law
    is checked on pairs, which a table off its module (a random Gram
    table) need not keep; the read against the per-element read of the
    dict law, members or not."""
    alg, K, ref = T.alg, T.alg.K, dict_law(T)
    ops = BatchOps(T)
    top = tuple(m - 1 for m in K.moduli)

    def deltas():
        return [tuple([top] * T.dim)] + [T.sample(rng) for _ in range(n)]

    def algs():
        return [alg.from_coords([top] * alg.rank)] + [alg.sample(rng) for _ in range(n)]

    def scalars():
        return [top] + [tuple(rng.randrange(m) for m in K.moduli) for _ in range(n)]

    us, vs, als, bes, ks, ls = deltas(), deltas(), algs(), algs(), scalars(), scalars()
    up, vp = [ref.to_pair(x) for x in us], [ref.to_pair(x) for x in vs]
    mods = np.array(K.moduli)
    ual = [UnitalEl(a, k) for a, k in zip(als, ks)]
    ube = [UnitalEl(b, k) for b, k in zip(bes, ls)]
    xs = [UnitalEl(b, K.zero()) for b in bes]
    # each coordinate of us as its index in K.elements(), one row per slot
    uidx = np.array([[np.ravel_multi_index(c, K.moduli) for c in x] for x in us],
                    dtype=np.int64).reshape(len(us), T.dim).T
    exact = {
        "materialize": up,
        "dadd": [(p + p2, r - p.bar() * p2 + r2) for (p, r), (p2, r2) in zip(up, vp)],
        "act": [(unital_mul(unital(p), al).body,
                 unital_mul(unital_mul(unital_involution(al), unital(r)), al).body)
                for (p, r), al in zip(up, ual)],
        "dneg": [(-p, r.bar()) for p, r in up],
        "phi": [(alg.zero(), a - a.bar()) for a in als]}
    exact = {name: _pair_arrays(ops, pairs) for name, pairs in exact.items()}
    residue = _arr(ops, [ref.residue(p) for p, _ in up])
    read = [ref.read(p, r) for p, r in up]
    prods = [unital_mul(a, b) for a, b in zip(ual, ube)]
    singles = {
        "dmul": _arr(ops, [alg.mul(a, b) for a, b in zip(als, bes)]),
        "conj": _arr(ops, [alg.conj(a) for a in als]),
        "ualmul body": _arr(ops, [p.body for p in prods]),
        "ualmul scalar": np.array([p.scalar for p in prods], dtype=np.int64).T,
        "sandwich": _arr(ops, [unital_mul(unital_mul(unital_involution(a), x), a).body
                               for a, x in zip(ual, xs)]),
        "twosided": _arr(ops, [unital_mul(unital_mul(unital_involution(b), x), a).body
                               for a, b, x in zip(ual, ube, xs)]),
        "mul_right_ual": _arr(ops, [unital_mul(x, a).body for a, x in zip(ual, xs)])}
    U0, V0 = _pair_arrays(ops, up), _pair_arrays(ops, vp)
    A0, B0 = _arr(ops, als), _arr(ops, bes)
    kv0, lv0 = np.array(ks, dtype=ops.dtype).T, np.array(ls, dtype=ops.dtype).T
    assert (A0[alg.apos[:, 0], alg.apos[:, 1], :, 0] == mods - 1).all()
    assert (U0[0][alg.apos[:, 0], alg.apos[:, 1], :, 0] == mods - 1).all()
    longest = 8193 if ops.dtype == np.int16 else 1 + n
    for rows in sorted({ops.d, ops.rk, T.dim, ops.d ** 2, longest} - {0}):
        tile = np.arange(rows) % (1 + n)
        U, V = (tuple(X[..., tile] for X in P) for P in (U0, V0))
        A, B, kv, lv = (X[..., tile] for X in (A0, B0, kv0, lv0))

        def same(got, want):
            assert got.shape[-1] == rows and (got == want[..., tile]).all(), (alg.tag, rows)

        for name, out in (("materialize", ops.materialize("delta", uidx[:, tile])),
                          ("dadd", ops.dadd(U, V)), ("act", ops.act(U, (A, kv))),
                          ("dneg", ops.dneg(U)), ("phi", ops.phi(A))):
            same(out[0], exact[name][0])
            same(out[1], exact[name][1])
        same(ops.reduce(T.residue_rows(U[0])), residue)
        got, ok = ops.dread(*U)
        assert ok.tolist() == [read[i] is not None for i in tile]
        assert [tuple(map(tuple, g)) for g, o in zip(np.moveaxis(got, -1, 0).tolist(), ok)
                if o] == [read[i] for i in tile if read[i] is not None]
        body, scal = ops.ualmul((A, kv), (B, lv))
        for name, out in (("dmul", ops.dmul(A, B)), ("conj", ops.conj(A)),
                          ("ualmul body", body), ("ualmul scalar", scal),
                          ("sandwich", ops.sandwich((A, kv), B)),
                          ("twosided", ops.twosided((B, lv), (A, kv), B)),
                          ("mul_right_ual", ops.mul_right_ual(B, (A, kv)))):
            same(out, singles[name])


@pytest.mark.parametrize("K", LIMIT_RINGS, ids=lambda K: K.name)
@pytest.mark.parametrize("mk, r", PRESETS + THETAS,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_unreduced_sums_at_the_limit(K, mk, r):
    assert K.card <= RING_CAP
    T = _table(mk, r, K)
    assert (T.alg.row_tables().C is None) == (mk is not theta_dense)
    _check_against_exact(T, random.Random(5), 3)


def test_reduce_takes_the_mask_only_on_one_power_of_two():
    for K, masked in ((ZMod(1 << 20), True), (LIMIT_RINGS[2], True), (ZMod(8), True),
                      (ZMod(1048573), False), (ZMod(6), False), (ZMod(12), False),
                      (Product([ZMod(4), ZMod(2)]), False), (LIMIT_RINGS[3], False)):
        ring = SlotRing(K)
        assert (ring._mask is not None) == masked, K.name
        X = np.arange(-3 * 2 ** 21, 3 * 2 ** 21, 997, dtype=np.int64)
        X = np.stack([X] * ring.rk)
        assert (ring.reduce(X) == X % np.array(K.moduli, dtype=np.int64)[:, None]).all(), K.name


@settings(max_examples=60, deadline=None)
@given(_RINGS, st.sampled_from([(ofasymp, 2), (ofaorth, 3), (ofaorth, 2), (ofalin, 1),
                                (ofasymp, 0), (ofalin, 0), (theta_split, "linear:1"),
                                (theta_split, "orthogonal:3"), (theta_dense, "symplectic:2"),
                                (theta_dense, "orthogonal:2")]),
       st.integers(0, 2 ** 16))
def test_unreduced_sums_on_random_rings(K, preset, seed):
    assert SlotRing(K).ktab.tolist() == [list(k) for k in K.elements()]
    mk, r = preset
    _check_against_exact(_table(mk, r, K), random.Random(seed), 2)


# orth 3 over Z/m: batch_dtype bounds its sums by 6 (m - 1)^2 + 4 (m - 1);
# the largest the law takes is umul_rows's 5 (m - 1)^2 on row 0, the
# action and ualmul
@pytest.mark.parametrize("m, dtype", [(74, np.int16), (75, np.int32),
                                      (18919, np.int32), (18920, np.int64)])
def test_batch_dtype_on_each_side_of_a_bound(m, dtype):
    sh = DeltaShape(ofaorth(3, ZMod(m)))
    _check_against_exact(sh, random.Random(3), 3)
    assert BatchOps(sh).dtype == dtype


@pytest.mark.parametrize("K", [ZMod(3), GaloisField(2, [1, 1, 1]),
                               Product([ZMod(2), ZMod(3)])], ids=lambda K: K.name)
@pytest.mark.parametrize("mk, r", [(ofasymp, 2), (ofaorth, 3), (ofasymp, 0), (ofalin, 0)] + THETAS,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_every_op_returns_the_batch_dtype(K, mk, r):
    """An int64 modulus or constant would widen every later array.  On a
    Theta table the pairs are any two algebra elements, and the ops that
    meet its residue, which quad_module computes in int64, are left out."""
    T = _table(mk, r, K)
    ops, alg = BatchOps(T), T.alg
    assert ops.dtype == alg.row_tables().dtype == np.int16
    rng = np.random.default_rng(1)

    def idx(kind):
        sizes = slot_sizes(ops.shape, kind)
        return np.array([rng.integers(q, size=5) for q in sizes], dtype=np.int64).reshape(
            len(sizes), 5)

    def fac(kind):
        return ops.materialize(kind, idx(kind))

    delta = isinstance(T, DeltaShape)
    ui = idx("delta")
    u, v = (ops.materialize("delta", ui), fac("delta")) if delta else (
        (fac("alg"), fac("alg")), (fac("alg"), fac("alg")))
    a, b, al, be, k = fac("alg"), fac("alg"), fac("ualg"), fac("ualg"), fac("scalar")
    ints = {
        "materialize": [fac(kind) for kind in ("alg", "ualg", "scalar", "herm")],
        "kmul": ops.kmul(k, k), "kscale": ops.kscale(k, a), "dmul": ops.dmul(a, b),
        "conj": ops.conj(a), "dadd": ops.dadd(u, v), "dneg": ops.dneg(u),
        "dzero_like": ops.dzero_like(u),
        "phi": ops.phi(a), "pi": ops.pi(u), "rho": ops.rho(u), "act": ops.act(u, al),
        "kact": ops.kact(k, u), "aadd": ops.aadd(a, b), "asub": ops.asub(a, b),
        "aneg": ops.aneg(a), "ual_add": ops.ual_add(al, be),
        "ualmul": ops.ualmul(al, be), "scalar_ual": ops.scalar_ual(k),
        "ual_one_like": ops.ual_one_like(u), "ual_zero_like": ops.ual_zero_like(u),
        "ual_neg_one_like": ops.ual_neg_one_like(u), "mul_right_ual": ops.mul_right_ual(a, al),
        "sandwich": ops.sandwich(al, a), "twosided": ops.twosided(be, al, a),
    }
    bools = {
        "deq": ops.deq(u, v), "dis0": ops.dis0(u),
        "aeq": ops.aeq(a, b), "ais0": ops.ais0(a), "both": ops.both(ops.ais0(a), ops.ais0(b)),
    }
    if delta:
        # batch_dtype bounds a Delta span by M: its weights are +-1
        assert set(np.abs(T.row_tables()[3].vals).tolist()) <= {1}
        ints["materialize"] += [fac("delta"), fac("aug")]
        ints["dread"] = ops.dread(*u)[0]
        bools.update(dread=ops.dread(*u)[1], read_back_ok=ops.read_back_ok(ui, *u),
                     daug=ops.daug(u))
        public = {n for n in dir(BatchOps) if not n.startswith("_") and callable(getattr(ops, n))}
        assert public - {"evaluate"} == set(ints) | set(bools)
    # the shared law's raw forms, which the ops above sum
    ints.update(mul_raw=alg.mul_rows(a, b, raw=True), conj_raw=alg.conj_rows(a, raw=True),
                kmul_raw=alg.kmul_rows(k, a, raw=True),
                umul_bar=alg.umul_rows(a, b, k, bar=True), pair_add=T.pair_add(u, v),
                pair_act=T.pair_act(u, *al))

    def arrays(x):
        if isinstance(x, (tuple, list)):
            return [y for z in x for y in arrays(z)]
        return [x]

    for name, out in ints.items():
        assert {x.dtype for x in arrays(out)} == {ops.dtype}, name
    for name, out in bools.items():
        assert out.dtype == bool, name


# The involution's signs, the herm layout and the Delta layout are read
# off the algebra's tables; the references below are the rules by preset
# kind and eps(i) eps(j) that they replace.
SIGN_RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:9", "gf:4", "prod:(zmod:2;zmod:3)")
SIGN_PRESETS = ((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4),
                (ofaorth, 2), (ofaorth, 3), (ofaorth, 4), (ofaorth, 5))


def _eps(alg, i):
    return -1 if alg.kind == "symp" and i < 0 else 1


def _herm_slots_by_kind(alg):
    K = alg.K
    slots = []
    for (i, j) in alg.pairs:
        mir = (-j, -i)
        if (i, j) < mir:
            slots.append(("rep", i, j, K.card))
        elif (i, j) == mir:
            if alg.kind == "symp":
                slots.append(("tors", i, j, len(_torsion_list(K))))
            else:
                slots.append(("free", i, j, K.card))
    return slots


def _decode_factor_by_kind(shape, kind, row):
    """The per-kind decoder of the axiom witnesses, element by element."""
    alg = shape.alg
    K = alg.K
    klist = list(K.elements())
    if kind == "delta":
        return tuple(klist[t] for t in row)
    if kind == "alg":
        return alg.from_coords([klist[t] for t in row])
    if kind == "ualg":
        return UnitalEl(alg.from_coords([klist[t] for t in row[:-1]]), klist[row[-1]])
    if kind == "scalar":
        return klist[row[0]]
    if kind == "aug":
        return shape.el(d=dict(zip(shape.d_keys, (klist[t] for t in row))))
    assert kind == "herm"
    tors = _torsion_list(K)
    coeffs = {}
    for (stype, i, j, _), t in zip(_herm_slots_by_kind(alg), row):
        v = tors[t] if stype == "tors" else klist[t]
        if K.is_zero(v):
            continue
        coeffs[(i, j)] = K.add(coeffs.get((i, j), K.zero()), v)
        if stype == "rep":
            w = v if _eps(alg, i) * _eps(alg, j) > 0 else K.neg(v)
            slot = (-j, -i)
            coeffs[slot] = K.add(coeffs.get(slot, K.zero()), w)
    return alg.el(coeffs)


@pytest.mark.parametrize("name", SIGN_RINGS)
def test_signs_from_the_involution_table_match_the_kind_rules(name):
    """E, the herm layout and the Delta layout on 8 presets over 6 rings."""
    K = parse_ring(name)
    for mk, r in SIGN_PRESETS:
        alg = mk(r, K)
        sh = DeltaShape(alg)
        ops, t = BatchOps(sh), alg.row_tables()
        idx, pos = alg.indices, ops.pos
        E = np.ones((ops.d, ops.d), dtype=np.int64)
        for i in idx:
            for j in idx:
                if _eps(alg, i) * _eps(alg, j) < 0:
                    E[pos[i], pos[j]] = -1
        E = E[::-1, ::-1].T
        if (E == 1).all() or np.all(ops.m == 2):
            assert t.E is None, alg.tag
        else:
            assert t.E.dtype == ops.dtype and t.E.tolist() == E[:, :, None, None].tolist()
        assert herm_slots(alg) == _herm_slots_by_kind(alg), alg.tag
        assert sh.q_pairs == tuple(p for p in alg.pairs if p[0] != 0), alg.tag
        assert sh.u_idx == (idx if 0 in idx else ()), alg.tag
        pos_block = [("f", i, j) for i in idx if i > 0 for j in idx if j > 0]
        upper = [("f", i, j) for (i, j) in alg.pairs if i + j > 0]
        assert sh.d_keys == tuple({"lin": pos_block, "orth": upper}.get(
            alg.kind, upper + [("v", i) for i in idx])), alg.tag


@pytest.mark.parametrize("name", SIGN_RINGS)
def test_decode_through_materialize_matches_the_per_kind_decoder(name):
    """Random rows of all six factor kinds on 8 presets over 6 rings; every
    herm factor is fixed by the involution."""
    K = parse_ring(name)
    rng = np.random.default_rng(len(name))
    for mk, r in SIGN_PRESETS:
        sh = DeltaShape(mk(r, K))
        ops = BatchOps(sh)
        for kind in ("delta", "alg", "ualg", "scalar", "aug", "herm"):
            for _ in range(4):
                row = [int(rng.integers(q)) for q in slot_sizes(sh, kind)]
                got = decode_factor(ops, kind, row)
                assert got == _decode_factor_by_kind(sh, kind, row), (sh.tag, kind, row)
                if kind == "herm":
                    assert sh.alg.conj(got) == got
