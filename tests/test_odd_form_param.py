import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.coeff_ring import CapacityError, GaloisField, Product, StructureError, ZMod, parse_ring
from ofa.form_ring import ofalin, ofaorth, ofasymp, x_central
from ofa.odd_form_param import (
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


def _special_reference(shape, cap=1 << 16, count=10000, seed=0):
    """special_check as an element-by-element loop of member(to_pair(x))."""
    card = shape.card()
    if card <= cap:
        seen = set()
        ok = True
        for x in shape.elements():
            p, r = to_pair(shape, x)
            seen.add((p.key, r.key))
            if member(shape, p, r) != x:
                ok = False
                break
        return {"pass": ok and len(seen) == card, "mode": "exhaustive",
                "checked": card, "distinct": len(seen)}
    rng = random.Random(seed)
    for _ in range(count):
        x = shape.sample(rng)
        p, r = to_pair(shape, x)
        if member(shape, p, r) != x:
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
    modes = set()
    for alg, kw in cases:
        sh = DeltaShape(alg)
        got = json.dumps(special_check(sh, **kw), sort_keys=True)
        assert got == json.dumps(_special_reference(sh, **kw), sort_keys=True), alg.tag
        modes.add(json.loads(got)["mode"])
    assert modes == {"exhaustive", "sampled"}


@pytest.mark.parametrize("read", ["read_back_ok", "read_aug_ok"])
def test_special_check_reports_first_failure(monkeypatch, read):
    from ofa.batch_delta import BatchOps

    k = 5
    real = getattr(BatchOps, read)

    def fail_from_row_k(self, *args):
        ok = real(self, *args)
        ok[k:k + 3] = False
        return ok

    monkeypatch.setattr(BatchOps, read, fail_from_row_k)
    rep = special_check(DeltaShape(ofaorth(3, ZMod(2))))
    assert rep == {"pass": False, "mode": "exhaustive", "checked": 4096,
                   "distinct": k + 1}
    sh = DeltaShape(ofaorth(3, ZMod(4)))
    rng = random.Random(4)
    samples = [sh.sample(rng) for _ in range(k + 1)]
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
                        lambda self, kinds, fn, idx: (False, min(3, len(idx) - 1)))
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
    M = np.zeros((len(els), ops.d, ops.d, ops.rk), dtype=np.int64)
    for t, el in enumerate(els):
        for (i, j), v in el.c.items():
            M[t, ops.pos[i], ops.pos[j]] = v
    return M


def test_batch_matches_exact():
    from ofa.batch_delta import BatchOps

    for alg in [ofasymp(2, ZMod(3)), ofaorth(3, ZMod(4)),
                ofalin(2, ZMod(2)), ofaorth(4, GaloisField(2, [1, 1, 1])),
                ofasymp(2, Product([ZMod(2), ZMod(3)])),
                ofaorth(3, Product([ZMod(4), ZMod(3)]))]:
        sh = DeltaShape(alg)
        ops = BatchOps(sh)
        rng = random.Random(17)
        us = [sh.sample(rng) for _ in range(40)]
        vs = [sh.sample(rng) for _ in range(40)]
        als = [alg.sample(rng) for _ in range(40)]
        ks = [tuple(rng.randrange(m) for m in alg.K.moduli) for _ in range(40)]
        pairs = [to_pair(sh, x) for x in us]
        U = (_np_els(ops, [p for p, _ in pairs]), _np_els(ops, [r for _, r in pairs]))
        vpairs = [to_pair(sh, x) for x in vs]
        V = (_np_els(ops, [p for p, _ in vpairs]), _np_els(ops, [r for _, r in vpairs]))
        sums = [to_pair(sh, sh.add(u, v)) for u, v in zip(us, vs)]
        S = ops.dadd(U, V)
        assert (S[0] == _np_els(ops, [p for p, _ in sums])).all()
        assert (S[1] == _np_els(ops, [r for _, r in sums])).all()
        A = _np_els(ops, als)
        kv = np.array(ks, dtype=np.int64)
        acted = [to_pair(sh, sh.act(u, a, k)) for u, a, k in zip(us, als, ks)]
        G = ops.act(U, (A, kv))
        assert (G[0] == _np_els(ops, [p for p, _ in acted])).all()
        assert (G[1] == _np_els(ops, [r for _, r in acted])).all()
        negs = [to_pair(sh, sh.neg(u)) for u in us]
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


def test_axioms_witness_strings_pinned(monkeypatch):
    """A failing row renders its Delta factors as sorted q, u, then d
    entries; the strings are pinned as the reports print them."""
    from ofa.batch_delta import BatchOps

    monkeypatch.setattr(BatchOps, "evaluate",
                        lambda self, kinds, fn, idx: (False, min(3, len(idx) - 1)))
    rep = axioms_check(DeltaShape(ofasymp(2, ZMod(3))), strategy="sampled",
                       count=50, seed=5)
    rows = {r["axiom"]: r for r in rep["axioms"]}
    assert rows["commutator"]["witness"] == [
        "q-1*(2,)e(-1,-1) + (2,)phi(e(1,1)) + (1,)v-1 + (1,)v1",
        "q-1*(2,)e(-1,-1) + q-1*(2,)e(-1,1) + q1*(1,)e(1,-1) + q1*(2,)e(1,1)"
        " + (1,)phi(e(1,1))"]
    rep = axioms_check(DeltaShape(ofaorth(3, ZMod(3))), strategy="sampled",
                       count=50, seed=5)
    rows = {r["axiom"]: r for r in rep["axioms"]}
    assert rows["commutator"]["witness"] == [
        "q-1*(2,)e(-1,-1) + q1*(2,)e(1,0) + q1*(1,)e(1,1) + u-1*(1,) + u0*(2,)"
        " + u1*(2,) + (1,)phi(e(0,1)) + (2,)phi(e(1,0)) + (1,)phi(e(1,1))",
        "q-1*(1,)e(-1,1) + q1*(1,)e(1,-1) + q1*(2,)e(1,0) + u1*(2,)"
        " + (2,)phi(e(0,1)) + (1,)phi(e(1,1))"]
    assert rows["aug-action-scale"]["witness"] == [
        "(2,)", "(1,)phi(e(1,1))",
        "((2,)*e(-1,-1) + (2,)*e(-1,0) + (2,)*e(0,0) + (1,)*e(1,-1)"
        " + (2,)*e(1,0) + (2,)*e(1,1)) + (0,)"]


def test_special_check_witness_string_pinned(monkeypatch):
    from ofa.batch_delta import BatchOps

    real = BatchOps.read_back_ok

    def fail_from_row_5(self, *args):
        ok = real(self, *args)
        ok[5:8] = False
        return ok

    monkeypatch.setattr(BatchOps, "read_back_ok", fail_from_row_5)
    rep = special_check(DeltaShape(ofaorth(3, ZMod(4))), count=50, seed=4)
    assert rep == {
        "pass": False, "mode": "sampled", "checked": 50,
        "witness": "q-1*(3,)e(-1,-1) + q-1*(1,)e(-1,0) + q-1*(3,)e(-1,1)"
                   " + q1*(2,)e(1,-1) + q1*(1,)e(1,0) + q1*(2,)e(1,1) + u-1*(3,)"
                   " + u0*(2,) + u1*(1,) + (2,)phi(e(0,1))"}


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
