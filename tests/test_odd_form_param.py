import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.cli import family_algebra
from ofa.cli import main as cli_main
from ofa.coeff_ring import (CapacityError, GaloisField, Product, StructureError, ZMod,
                            _distinct_rows, _mixed_radix, _pack_words, parse_ring)
from ofa.form_ring import ofalin, ofaorth, ofasymp, x_central
from ofa.odd_form_param import (
    AXIOMS,
    DeltaShape,
    act_scalar,
    aug_member,
    axioms_check,
    central_u,
    delta_from_json,
    delta_to_json,
    gen_q,
    gen_u,
    gen_v,
    member,
    render,
    special_check,
    to_pair,
)
from ofa import odd_form_param as ofp
from dict_law import dict_law, draw_reference, walk


def act(sh, x, a):
    """x . a for a in the algebra (no scalar part)."""
    return sh.act(x, a, sh.alg.K.zero())


def pi(sh, x):
    return to_pair(sh, x)[0]


def rho(sh, x):
    return to_pair(sh, x)[1]


def test_dimensions():
    K = ZMod(2)
    assert DeltaShape(ofalin(1, K)).dim == 3
    assert DeltaShape(ofalin(2, K)).dim == 12
    assert DeltaShape(ofasymp(2, K)).dim == 7
    assert DeltaShape(ofasymp(4, K)).dim == 26
    assert DeltaShape(ofaorth(2, K)).dim == 5
    assert DeltaShape(ofaorth(4, K)).dim == 22
    assert DeltaShape(ofaorth(3, K)).dim == 12
    assert DeltaShape(ofaorth(5, K)).dim == 35
    assert DeltaShape(ofaorth(2, K)).card() == 32


def test_generator_pairs():
    K = ZMod(3)
    sh = DeltaShape(ofaorth(3, K))
    alg = sh.alg
    q1 = gen_q(sh, 1)
    assert pi(sh, q1) == alg.e(1, 1) and not rho(sh, q1)
    u1 = gen_u(sh, 1)
    assert pi(sh, u1) == alg.e(0, 1)
    assert rho(sh, u1) == -alg.e(-1, 1)
    sy = DeltaShape(ofasymp(2, K))
    v1 = gen_v(sy, 1)
    assert not pi(sy, v1)
    assert rho(sy, v1) == sy.alg.e(-1, 1)


def test_q_merge_is_free():
    K = ZMod(2)
    sh = DeltaShape(ofaorth(2, K))
    x = sh.el(q={(1, -1): K.one()})
    assert sh.add(x, x) == sh.zero()
    K3 = ZMod(3)
    sh3 = DeltaShape(ofaorth(2, K3))
    y = sh3.el(q={(1, -1): K3.one()})
    assert sh3.add(y, y) == sh3.el(q={(1, -1): K3.from_int(2)})


def test_phi_symp_diagonal():
    K = ZMod(3)
    sh = DeltaShape(ofasymp(2, K))
    out = sh.phi(sh.alg.e(-1, 1))
    assert out == sh.el(d={("v", 1): K.from_int(2)})
    assert rho(sh, out) == sh.alg.e(-1, 1, K.from_int(2))


def test_phi_hermitian_vanishes():
    K = ZMod(3)
    sh = DeltaShape(ofaorth(2, K))
    assert sh.phi(sh.alg.e(1, -1)) == sh.zero()
    lin = DeltaShape(ofalin(2, K))
    a = lin.alg.e(1, 2)
    assert rho(lin, lin.phi(a)) == lin.alg.sub(a, lin.alg.conj(a))


def test_neg_roundtrip():
    K = ZMod(4)
    sh = DeltaShape(ofaorth(3, K))
    u1 = gen_u(sh, 1)
    assert sh.add(u1, sh.neg(u1)) == sh.zero()
    assert rho(sh, sh.neg(u1)) == sh.alg.conj(rho(sh, u1))
    rng = random.Random(0)
    for _ in range(25):
        x = sh.sample(rng)
        assert sh.add(x, sh.neg(x)) == sh.zero()


def test_ultrashort_action():
    K = ZMod(3)
    sh = DeltaShape(ofaorth(5, K))
    assert act(sh, gen_u(sh, 1), sh.alg.e(1, 2)) == gen_u(sh, 2)
    # the doubled index: u_0 . e_{0k} lands on u_k scaled by 2
    assert act(sh, gen_u(sh, 0), sh.alg.e(0, 2)) == sh.act(
        gen_u(sh, 2), sh.alg.zero(), K.from_int(2))


def test_v_action_signs():
    K = ZMod(3)
    sh = DeltaShape(ofasymp(4, K))
    got = act(sh, gen_v(sh, 1), sh.alg.e(1, -2))
    assert got == act_scalar(sh, K.neg(K.one()), gen_v(sh, -2))


def test_action_by_zero():
    K = ZMod(4)
    sh = DeltaShape(ofaorth(3, K))
    rng = random.Random(1)
    for _ in range(10):
        assert sh.act(sh.sample(rng), sh.alg.zero(), K.zero()) == sh.zero()


def test_aug_membership_and_scalar_domain():
    K = ZMod(3)
    sh = DeltaShape(ofaorth(3, K))
    assert not aug_member(sh, gen_u(sh, 0))
    assert aug_member(sh, sh.phi(sh.alg.e(1, -1)))
    with pytest.raises(StructureError):
        act_scalar(sh, K.one(), gen_q(sh, 1))
    sy = DeltaShape(ofasymp(2, K))
    assert aug_member(sy, gen_v(sy, 1))


def test_central_u():
    for K in [ZMod(3), ZMod(4)]:
        sh = DeltaShape(ofaorth(3, K))
        alg = sh.alg
        for k in K.elements():
            uk = central_u(sh, k)
            assert pi(sh, uk) == x_central(alg, k)
            assert rho(sh, uk) == x_central(alg, K.neg(K.mul(k, k)))
            for kp in K.elements():
                lhs = act(sh, uk, x_central(alg, kp))
                assert lhs == central_u(sh, K.smul(2, K.mul(k, kp)))


def test_member_rejects_off_span():
    K = ZMod(3)
    sh = DeltaShape(ofaorth(2, K))
    assert member(sh, sh.alg.zero(), sh.alg.e(-1, 1)) is None
    p, r = to_pair(sh, gen_q(sh, 1))
    assert member(sh, p, r) == gen_q(sh, 1)


def test_special_check():
    assert special_check(DeltaShape(ofalin(1, ZMod(2))))["pass"]
    assert special_check(DeltaShape(ofasymp(2, ZMod(3))))["pass"]
    rep = special_check(DeltaShape(ofaorth(3, ZMod(2))))
    assert rep["pass"] and rep["mode"] == "exhaustive"
    big = special_check(DeltaShape(ofaorth(3, ZMod(4))), count=300, seed=4)
    assert big["pass"] and big["mode"] == "sampled"


def _special_reference(shape, count=10000, seed=0):
    """special_check as an element-by-element loop of member(to_pair(x)),
    both read by the dict law, over every element or over the samples of
    walk."""
    ref = dict_law(shape)
    card = shape.card()
    if card <= ofp.EXH_DELTA_CAP:
        seen = set()
        ok = True
        for x in shape.elements():
            p, r = ref.to_pair(x)
            seen.add((p.key, r.key))
            if ref.read(p, r) != x:
                ok = False
                break
        return {"pass": ok and len(seen) == card, "mode": "exhaustive",
                "checked": card, "distinct": len(seen)}
    kel = list(shape.alg.K.elements())
    for col in walk(seed, [len(kel)] * shape.dim, count):
        x = tuple(kel[i] for i in col)
        p, r = ref.to_pair(x)
        if ref.read(p, r) != x:
            return {"pass": False, "mode": "sampled", "checked": count,
                    "witness": render(shape, x)}
    return {"pass": True, "mode": "sampled", "checked": count, "flagged": True}


def _n1_algebras(K):
    return [ofalin(1, K), ofasymp(2, K), ofaorth(2, K), ofaorth(3, K)]


def test_special_check_matches_reference_loop():
    cases = [(alg, {}) for alg in _n1_algebras(ZMod(2))]
    cases += [(alg, {"count": 200, "seed": 5})
              for alg in _n1_algebras(GaloisField(2, [1, 1, 1]))]
    cases.append((ofaorth(3, Product([ZMod(2), ZMod(3)])), {"count": 200, "seed": 3}))
    # rank 0: one element, of zero coordinates
    cases += [(mk(0, ZMod(3)), {}) for mk in (ofasymp, ofalin)]
    modes = set()
    for alg, kw in cases:
        sh = DeltaShape(alg)
        got = json.dumps(special_check(sh, **kw), sort_keys=True)
        assert got == json.dumps(_special_reference(sh, **kw), sort_keys=True), alg.tag
        modes.add(json.loads(got)["mode"])
    assert modes == {"exhaustive", "sampled"}


@pytest.mark.parametrize("ring", ["zmod:2", "zmod:3", "zmod:4", "zmod:9", "gf:4",
                                  "zmod:1048573", "prod:(zmod:2;zmod:3)"])
def test_sampled_special_check_draws_the_loops_indices(monkeypatch, ring):
    """The sampled batch is walk's samples, one column each, per
    coordinate an index into K.elements(): over one modulus and mixed
    ones, small and large."""
    from ofa.batch_delta import BatchOps

    seen = []
    real = BatchOps.materialize

    def spy(self, kind, idx):
        seen.append(idx.copy())
        return real(self, kind, idx)

    monkeypatch.setattr(BatchOps, "materialize", spy)
    monkeypatch.setattr(ofp, "EXH_DELTA_CAP", 0)
    K = parse_ring(ring)
    sh = DeltaShape(ofaorth(3, K))
    for seed in (0, 3, 11):
        seen.clear()
        assert special_check(sh, count=300, seed=seed)["mode"] == "sampled"
        want = walk(seed, [K.card] * sh.dim, 300)
        # one row of indices per coordinate slot, one column per draw
        assert seen[0].T.tolist() == want, (ring, seed)


def test_count_distinct_matches_unique():
    """The distinct count special_check takes from the row words of
    coeff_ring, on batch-last (width, n) rows, across the word boundaries
    of m = 2 (62 entries a word) and for n = 0 and 1."""
    def distinct(rows, m):
        return len(_distinct_rows(_pack_words(rows, m))[0])

    rng = np.random.default_rng(2)
    for m in (2, 3, 16, 1048573):
        for width in (0, 1, 7, 40) + ((61, 62, 63, 64, 65, 124, 128) if m == 2 else ()):
            for n in (0, 1, 500):
                rows = rng.integers(m, size=(width, 300))[:, rng.integers(300, size=n)]
                want = len(set(map(tuple, rows.T.tolist())))
                assert distinct(rows, m) == want, (m, width, n)
            # two columns that differ at entry t only
            for t in range(width):
                pair = np.zeros((width, 2), dtype=np.int64)
                pair[t, 1] = m - 1
                assert distinct(pair, m) == 2, (m, width, t)


@pytest.mark.parametrize("read", ["read_back_ok", "dread"])
def test_special_check_reports_first_failure(monkeypatch, read):
    from ofa.batch_delta import BatchOps

    k = 5
    real = getattr(BatchOps, read)

    def fail_from_row_k(self, *args):
        out = real(self, *args)
        ok = out[1] if isinstance(out, tuple) else out
        ok[k:k + 3] = False
        return out

    monkeypatch.setattr(BatchOps, read, fail_from_row_k)
    rep = special_check(DeltaShape(ofaorth(3, ZMod(2))))
    assert rep == {"pass": False, "mode": "exhaustive", "checked": 4096,
                   "distinct": k + 1}
    sh = DeltaShape(ofaorth(3, ZMod(4)))
    kel = list(sh.alg.K.elements())
    samples = [tuple(kel[i] for i in col) for col in walk(4, [len(kel)] * sh.dim, 50)]
    rep = special_check(sh, count=50, seed=4)
    assert rep == {"pass": False, "mode": "sampled", "checked": 50,
                   "witness": render(sh, samples[k])}


def test_axioms_exhaustive_small():
    rep = axioms_check(DeltaShape(ofaorth(2, ZMod(2))), seed=11)
    assert rep["pass"]
    assert all(r["mode"] == "exhaustive" for r in rep["axioms"][:4])


def test_axioms_symp_z3():
    rep = axioms_check(DeltaShape(ofasymp(2, ZMod(3))), seed=12, count=600)
    assert rep["pass"]


def test_axioms_sampled_orth_odd_z4():
    sh = DeltaShape(ofaorth(3, ZMod(4)))
    rep = axioms_check(sh, strategy="sampled", count=400, seed=13)
    assert rep["pass"]
    assert all(r["mode"] == "sampled" for r in rep["axioms"])


def test_axioms_gf4():
    K = GaloisField(2, [1, 1, 1])
    rep = axioms_check(DeltaShape(ofalin(1, K)), seed=14, count=500)
    assert rep["pass"]


def test_axioms_witness_decodes_failing_row(monkeypatch):
    from ofa.batch_delta import BatchOps

    monkeypatch.setattr(BatchOps, "evaluate",
                        lambda self, kinds, fn, idx: (False, min(3, idx.shape[1] - 1)))
    sh = DeltaShape(ofaorth(2, ZMod(3)))
    rep = axioms_check(sh, seed=1)
    rows = {r["axiom"]: r for r in rep["axioms"]}
    assert not rep["pass"]
    assert rows["add-zero"]["witness"] == [render(sh, list(sh.elements())[3])]
    assert rows["rho-phi"]["witness"] == [repr(list(sh.alg.elements())[3])]


def test_axioms_capacity_and_seed_errors():
    sh = DeltaShape(ofaorth(3, ZMod(3)))
    with pytest.raises(CapacityError):
        axioms_check(sh, strategy="exhaustive", seed=1)
    with pytest.raises(StructureError):
        axioms_check(DeltaShape(ofasymp(2, ZMod(3))), strategy="exhaustive")


def test_axioms_batch_engine_nonuniform():
    K = Product([ZMod(2), ZMod(3)])
    sh = DeltaShape(ofasymp(2, K))
    rep = axioms_check(sh, strategy="sampled", count=40, seed=7)
    assert rep["pass"]
    # 216^2 tuples, within the one tuple cap on a mixed-moduli ring
    rep = axioms_check(DeltaShape(ofalin(1, K)), seed=7)
    row = {r["axiom"]: r for r in rep["axioms"]}["pi-additive"]
    assert rep["pass"] and row["mode"] == "exhaustive" and row["tuples"] == 216 ** 2


def _np_els(ops, els):
    """The elements as a (d, d, rk, N) batch, written entry by entry."""
    M = np.zeros((ops.d, ops.d, ops.rk, len(els)), dtype=np.int64)
    for t, el in enumerate(els):
        for (i, j), v in el.c.items():
            M[ops.pos[i], ops.pos[j], :, t] = v
    return M


def test_batch_matches_exact():
    from ofa.batch_delta import BatchOps

    for alg in [ofasymp(2, ZMod(3)), ofaorth(3, ZMod(4)),
                ofalin(2, ZMod(2)), ofaorth(4, GaloisField(2, [1, 1, 1])),
                ofasymp(2, Product([ZMod(2), ZMod(3)])),
                ofaorth(3, Product([ZMod(4), ZMod(3)]))]:
        sh = DeltaShape(alg)
        ops, ref = BatchOps(sh), dict_law(sh)
        rng = random.Random(17)
        # batches as long as the axes they sit beside, so that an op that
        # reads the batch along a wrong axis keeps its shapes; then 40
        for n in sorted({ops.d, ops.rk, sh.dim, ops.d ** 2, 40}):
            _check_batch(sh, ops, ref, rng, n)


def _check_batch(sh, ops, ref, rng, n):
    """dadd, act and dneg on a batch of n against the dict law."""
    alg = sh.alg
    us = [sh.sample(rng) for _ in range(n)]
    vs = [sh.sample(rng) for _ in range(n)]
    als = [alg.sample(rng) for _ in range(n)]
    ks = [tuple(rng.randrange(m) for m in alg.K.moduli) for _ in range(n)]
    pairs = [ref.to_pair(x) for x in us]
    U = (_np_els(ops, [p for p, _ in pairs]), _np_els(ops, [r for _, r in pairs]))
    vpairs = [ref.to_pair(x) for x in vs]
    V = (_np_els(ops, [p for p, _ in vpairs]), _np_els(ops, [r for _, r in vpairs]))
    sums = [ref.to_pair(ref.add(u, v)) for u, v in zip(us, vs)]
    S = ops.dadd(U, V)
    assert (S[0] == _np_els(ops, [p for p, _ in sums])).all()
    assert (S[1] == _np_els(ops, [r for _, r in sums])).all()
    A = _np_els(ops, als)
    kv = np.array(ks, dtype=np.int64).T
    acted = [ref.to_pair(ref.act(u, a, k)) for u, a, k in zip(us, als, ks)]
    G = ops.act(U, (A, kv))
    assert (G[0] == _np_els(ops, [p for p, _ in acted])).all()
    assert (G[1] == _np_els(ops, [r for _, r in acted])).all()
    negs = [ref.to_pair(ref.neg(u)) for u in us]
    Ng = ops.dneg(U)
    assert (Ng[0] == _np_els(ops, [p for p, _ in negs])).all()
    assert (Ng[1] == _np_els(ops, [r for _, r in negs])).all()


def test_json_roundtrip():
    K = GaloisField(2, [1, 1, 1])
    sh = DeltaShape(ofaorth(3, K))
    rng = random.Random(3)
    for _ in range(10):
        x = sh.sample(rng)
        assert delta_from_json(sh, delta_to_json(sh, x)) == x


def _walked_deltas(sh, seed, name, count, col):
    """The Delta factors of column col of an axiom's sampled draw, element
    by element from walk: each coordinate an index into K.elements()."""
    from ofa.batch_delta import slot_sizes

    axnum, kinds = next((t, kinds) for t, (n, kinds, _) in enumerate(AXIOMS) if n == name)
    sizes = [s for kind in kinds for s in slot_sizes(sh, kind)]
    klist, row = list(sh.alg.K.elements()), walk([seed, axnum], sizes, count)[col]
    assert set(kinds) == {"delta"}
    return [render(sh, tuple(klist[t] for t in row[k * sh.dim:(k + 1) * sh.dim]))
            for k in range(len(kinds))]


def test_axioms_witness_strings_pinned(monkeypatch):
    """A failing row renders its Delta factors as sorted q, u, then d
    entries; the strings are pinned as the reports print them, and the
    Delta witnesses are the walked elements of the failing column."""
    from ofa.batch_delta import BatchOps

    monkeypatch.setattr(BatchOps, "evaluate",
                        lambda self, kinds, fn, idx: (False, min(3, idx.shape[1] - 1)))
    sh = DeltaShape(ofasymp(2, ZMod(3)))
    rep = axioms_check(sh, strategy="sampled", count=50, seed=5)
    rows = {r["axiom"]: r for r in rep["axioms"]}
    assert rows["commutator"]["witness"] == [
        "q-1*(1,)e(-1,1) + q1*(2,)e(1,1) + (1,)phi(e(1,1)) + (1,)v-1 + (2,)v1",
        "q-1*(2,)e(-1,-1) + q1*(2,)e(1,-1) + q1*(1,)e(1,1) + (2,)v1"]
    assert rows["commutator"]["witness"] == _walked_deltas(sh, 5, "commutator", 50, 3)
    sh = DeltaShape(ofaorth(3, ZMod(3)))
    rep = axioms_check(sh, strategy="sampled", count=50, seed=5)
    rows = {r["axiom"]: r for r in rep["axioms"]}
    assert rows["commutator"]["witness"] == [
        "q-1*(1,)e(-1,0) + q1*(2,)e(1,-1) + q1*(1,)e(1,0) + q1*(1,)e(1,1) + u-1*(2,)"
        " + u0*(2,) + (2,)phi(e(0,1)) + (1,)phi(e(1,0))",
        "q-1*(2,)e(-1,0) + q1*(2,)e(1,-1) + q1*(1,)e(1,0) + u-1*(2,) + u0*(1,) + u1*(2,)"
        " + (1,)phi(e(0,1)) + (1,)phi(e(1,0))"]
    assert rows["commutator"]["witness"] == _walked_deltas(sh, 5, "commutator", 50, 3)
    assert rows["aug-action-scale"]["witness"] == [
        "(0,)", "(1,)phi(e(0,1)) + (1,)phi(e(1,0)) + (2,)phi(e(1,1))",
        "((2,)*e(-1,-1) + (1,)*e(-1,0) + (1,)*e(-1,1) + (1,)*e(0,0)"
        " + (2,)*e(1,0)) + (2,)"]


def test_special_check_witness_string_pinned(monkeypatch):
    from ofa.batch_delta import BatchOps

    real = BatchOps.read_back_ok

    def fail_from_row_5(self, *args):
        ok = real(self, *args)
        ok[5:8] = False
        return ok

    monkeypatch.setattr(BatchOps, "read_back_ok", fail_from_row_5)
    sh = DeltaShape(ofaorth(3, ZMod(4)))
    rep = special_check(sh, count=50, seed=4)
    assert rep == {
        "pass": False, "mode": "sampled", "checked": 50,
        "witness": "q-1*(3,)e(-1,-1) + q-1*(3,)e(-1,0) + q1*(1,)e(1,-1) + q1*(2,)e(1,1)"
                   " + u-1*(3,) + u0*(1,) + u1*(2,) + (3,)phi(e(0,1)) + (2,)phi(e(1,0))"}
    # the walked element of the failing column, coordinate by coordinate
    klist = list(sh.alg.K.elements())
    assert rep["witness"] == render(sh, tuple(klist[t] for t in walk(4, [4] * sh.dim, 50)[5]))


def test_special_check_refuses_a_count_past_the_byte_cap(monkeypatch):
    """The sampled batch is sized before BatchOps is built or a digit is
    drawn: past _SAMPLE_CAP_BYTES, special_check refuses with the bytes
    its index matrix would take, as axioms_check does."""
    def fail(*args):
        raise AssertionError("built or drawn")

    monkeypatch.setattr(ofp, "_draw", fail)
    monkeypatch.setattr(ofp, "BatchOps", fail)
    sh = DeltaShape(ofaorth(3, ZMod(4)))
    count = 10 ** 15
    with pytest.raises(CapacityError) as info:
        special_check(sh, count=count, seed=0)
    assert str(info.value) == "sampled index matrix of %d bytes for count %d, over %d" % (
        8 * sh.dim * count, count, ofp._SAMPLE_CAP_BYTES)


def test_slot_layout_is_sorted():
    """Each named section is laid out in sorted key order, with the
    "f" keys before the "v" keys, so render and the JSON form, which walk
    the coordinates in order, list every section sorted."""
    for K in (ZMod(2), ZMod(3)):
        for alg in (ofalin(1, K), ofalin(2, K), ofasymp(2, K), ofasymp(4, K),
                    ofaorth(2, K), ofaorth(3, K), ofaorth(4, K), ofaorth(5, K)):
            sh = DeltaShape(alg)
            for keys in (sh.q_pairs, sh.u_idx, sh.d_keys):
                assert list(keys) == sorted(keys), sh.tag


def test_render_and_json_pinned():
    sh = DeltaShape(ofasymp(2, ZMod(3)))
    x = sh.el(q={(-1, -1): (2,)}, d={("v", 1): (1,), ("f", 1, 1): (2,), ("v", -1): (1,)})
    assert render(sh, x) == "q-1*(2,)e(-1,-1) + (2,)phi(e(1,1)) + (1,)v-1 + (1,)v1"
    assert json.dumps(delta_to_json(sh, x)) == (
        '{"q": [[-1, -1, [2]]], "u": [], '
        '"d": [["f", 1, 1, [2]], ["v", -1, [1]], ["v", 1, [1]]]}')
    assert render(sh, sh.zero()) == "0."
    odd = DeltaShape(ofaorth(3, ZMod(3)))
    y = odd.el(q={(1, 0): (2,), (-1, -1): (1,)}, u={0: (2,), -1: (2,)},
               d={("f", 1, 1): (1,), ("f", 0, 1): (1,)})
    assert render(odd, y) == ("q-1*(1,)e(-1,-1) + q1*(2,)e(1,0) + u-1*(2,) + u0*(2,)"
                              " + (1,)phi(e(0,1)) + (1,)phi(e(1,1))")
    assert json.dumps(delta_to_json(odd, y)) == (
        '{"q": [[-1, -1, [1]], [1, 0, [2]]], "u": [[-1, [2]], [0, [2]]], '
        '"d": [["f", 0, 1, [1]], ["f", 1, 1, [1]]]}')
    with pytest.raises(StructureError, match="no u slot 2"):
        odd.el(u={2: (1,)})


JSON_SHAPES = [DeltaShape(alg) for name in ("zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")
               for alg in (ofalin(1, parse_ring(name)), ofasymp(2, parse_ring(name)),
                           ofaorth(2, parse_ring(name)), ofaorth(3, parse_ring(name)))]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(JSON_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_delta_json_roundtrip_property(sh, seed):
    x = sh.sample(random.Random(seed))
    data = json.loads(json.dumps(delta_to_json(sh, x)))
    assert delta_from_json(sh, data) == x


# sha256 of the report bytes of the benchmark's four axiom sweeps at seed 3
# (stdout of the CLI) and of its three specialness checks (the sorted-key
# JSON of special_check).  The pass flags alone do not pin the layout of
# the array law: a residue that reads a wrong entry can still pass every
# axiom over F_4 and Z/2, but not these witnesses and counts.
AXIOM_REPORTS = (
    ("axioms --family symp --n 1 --ring zmod:4 --seed 3",
     "5b900a086e0b4ef86e8335d8311c9cacacb823163b58825677ade88cc9ca801c"),
    ("axioms --family orth-odd --n 1 --ring gf:4 --mode sampled --count 5000 --seed 3",
     "4322fb9b1bb74237fe4f3702412ff6db3b506ea91927375998bda995d19d60ca"),
    ("axioms --family symp --n 2 --ring zmod:3 --mode sampled --count 5000 --seed 3",
     "9c85d0cecbb59cf8fdf0e6dc043e81cd6331582036f70d5b1b5ef7713f8791bd"),
    ("axioms --family orth-odd --n 1 --ring prod:(zmod:2;zmod:3) --mode sampled "
     "--count 50 --seed 3",
     "0bc826c95cffc4366764e05db5975577daacc86fa9da32abc8f97cab846917d7"),
)
SPECIAL_REPORTS = (
    (("orth-odd", 1, "zmod:2", {}),
     "93c2ce7816e92d4badc60a08d57eb2990b2515c252b613e56a9d664f5c72e6db"),
    (("symp", 1, "gf:4", {}),
     "79f39bb12814242fd97aec24ad21c1b9f784a18207dd106fea866f430388196d"),
    (("orth-odd", 2, "zmod:3", {"count": 2500, "seed": 3}),
     "d99604440c45715e25fb0711c5b386c3f13154910f154c958e54022212406a61"),
)


@pytest.mark.parametrize("argv,digest", AXIOM_REPORTS)
def test_axioms_report_bytes_pinned(argv, digest, capsys):
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("call,digest", SPECIAL_REPORTS)
def test_special_check_report_pinned(call, digest):
    family, n, ring, kw = call
    rep = special_check(DeltaShape(family_algebra(family, n, parse_ring(ring))), **kw)
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("family,n,ring", [("orth-odd", 1, "gf:4"), ("symp", 1, "zmod:4"),
                                           ("orth-odd", 1, "prod:(zmod:2;zmod:3)")])
def test_sampled_sweep_draws_one_row_per_slot(monkeypatch, family, n, ring):
    """The sampled index matrix of every axiom is the reference kernel's
    draw at [seed, axiom number], one row per slot, in _mixed_radix's
    dtype: --seed picks the same tuples."""
    from ofa.batch_delta import BatchOps, slot_sizes

    seen = []
    real = BatchOps.evaluate

    def spy(self, kinds, fn, idxmat):
        seen.append(idxmat)
        return real(self, kinds, fn, idxmat)

    monkeypatch.setattr(BatchOps, "evaluate", spy)
    sh = DeltaShape(family_algebra(family, n, parse_ring(ring)))
    count = 257
    assert axioms_check(sh, strategy="sampled", count=count, seed=7)["pass"]
    mixed = False
    for axnum, ((name, kinds, _), got) in enumerate(zip(AXIOMS, seen)):
        sizes = [s for kind in kinds for s in slot_sizes(sh, kind)]
        mixed |= len(set(sizes)) > 1
        want, _ = draw_reference([7, axnum], sizes, count)
        assert got.dtype == _mixed_radix(sizes, 0).dtype and got.tolist() == want, (sh.tag, name)
    assert len(seen) == len(AXIOMS)
    # symp 1 over Z/4 mixes herm slots of sizes 4 and 2
    assert mixed == (ring == "zmod:4")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_special_check_peak_stays_at_the_rows_width():
    """The distinct-pair count packs the batch-last rows without a word
    per bit: under 5 MB on symp 1 over F_4 (16,384 elements), against
    18 MB when each row of 16 one-bit entries took 64 uint64 fields."""
    sh = DeltaShape(family_algebra("symp", 1, parse_ring("gf:4")))
    assert _traced_peak(lambda: special_check(sh)) < 5e6


def test_exhaustive_sweep_peak_stays_at_the_digits_width():
    """The exhaustive sweep on symp 1 over Z/4 holds its digits narrow and
    batch last: under 9 MB, against 10.7 MB with (N, n) int64 digits."""
    sh = DeltaShape(family_algebra("symp", 1, parse_ring("zmod:4")))
    assert _traced_peak(lambda: axioms_check(sh, seed=3)) < 9e6
