import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.cli import family_algebra
from ofa.cli import main as cli_main
from ofa.coeff_ring import CapacityError, Product, StructureError, ZMod, parse_ring
from ofa.form_ring import ofalin, ofaorth, ofasymp
from ofa.linalg import k_det, k_mat_inv, k_matrices
from ofa.odd_form_param import (
    DeltaShape,
    act_scalar,
    aug_member,
    gen_q,
    gen_u,
    gen_v,
    member,
)
from ofa.unitary import (
    HyperbolicPair,
    act_projective,
    act_projective_delta,
    classical_pair,
    conjugate,
    delta0_member,
    det_linear,
    dickson_even,
    dickson_odd,
    dilation,
    dilation0,
    embed_odd,
    enumerate_unitary,
    generate_subgroup,
    group_order,
    gu_member,
    hyperbolic_family_standard,
    hyperbolic_family_validate,
    hyperbolic_pair_check,
    idem_op,
    odd_embed_target,
    pair_sum,
    parabolic_p,
    rep_matrix,
    sigma_linear,
    sl_member,
    so_odd_split,
    transvection_short,
    transvection_ultrashort,
    u_identity,
    u_inv,
    u_is_member,
    u_make,
    u_mul,
    u_try,
    unitary_from_json,
    unitary_to_json,
)

F2 = ZMod(2)
F3 = ZMod(3)
Z4 = ZMod(4)


def sh(mk, r, K):
    return DeltaShape(mk(r, K))


def test_identity_and_membership():
    s = sh(ofasymp, 2, F3)
    e = u_identity(s)
    assert u_is_member(s, e.beta, e.gamma)
    assert u_try(s, s.alg.zero()).key == e.key


def test_membership_rejects_non_unitary():
    s = sh(ofaorth, 2, F2)
    assert u_try(s, s.alg.e(1, 1)) is None
    with pytest.raises(StructureError):
        u_make(s, s.alg.e(1, 1))


def test_group_laws_exhaustive_symp2():
    s = sh(ofasymp, 2, F3)
    G = enumerate_unitary(s)
    assert len(G) == 24
    e = u_identity(s)
    for g in G:
        assert u_mul(g, u_inv(g)).key == e.key
        assert u_mul(u_inv(g), g).key == e.key
    rng = random.Random(0)
    for _ in range(30):
        a, b, c = (rng.choice(G) for _ in range(3))
        assert u_mul(u_mul(a, b), c).key == u_mul(a, u_mul(b, c)).key


def test_group_orders():
    assert group_order(sh(ofalin, 2, F2)) == 6
    assert group_order(sh(ofalin, 2, F3)) == 48
    assert group_order(sh(ofasymp, 2, F3)) == 24
    assert group_order(sh(ofaorth, 2, F3)) == 4
    assert group_order(sh(ofasymp, 4, F2)) == 720
    assert group_order(sh(ofaorth, 4, F2)) == 72
    assert group_order(sh(ofaorth, 4, F3)) == 1152


def _loop_keys(shape):
    """Reference: u_try on every element of the algebra."""
    out = []
    for beta in shape.alg.elements():
        g = u_try(shape, beta)
        if g is not None:
            out.append(g)
    return sorted(g.key for g in out)


def _keys(shape, betas):
    import ofa.unitary as un

    bo = un.BatchOps(shape)
    return sorted(g.key for g in un._members(bo, betas(bo)))


REF_RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:6", "zmod:8", "zmod:9",
             "gf:4", "prod:(zmod:2;zmod:3)")


def test_enumeration_strategies_agree():
    """The column search, the full beta scan and a per-element u_try loop
    list the same betas."""
    import ofa.unitary as un

    cases = [(mk, r, parse_ring(name)) for name in REF_RINGS
             for mk, r in ((ofalin, 1), (ofasymp, 2), (ofaorth, 2))]
    cases += [(mk, r, K) for K in (F2, F3)
              for mk, r in ((ofalin, 2), (ofasymp, 4), (ofaorth, 4))]
    cases += [(mk, 0, F3) for mk in (ofalin, ofasymp, ofaorth)]
    checked = 0
    for mk, r, K in cases:
        s = sh(mk, r, K)
        if s.alg.card() > un._ENUM_CAP:
            continue
        col = _keys(s, un._column_betas)
        assert col == _keys(s, un._scan_betas), s.tag
        if s.alg.card() <= 1 << 13:
            assert col == _loop_keys(s), s.tag
        assert col == [g.key for g in enumerate_unitary(s, verify=False)]
        checked += 1
    # symp 4 and orth 4 over F3 are past the scan cap
    assert checked == len(cases) - 2
    # the odd orthogonal preset keeps the beta scan
    odd = [sh(ofaorth, 1, parse_ring(name)) for name in REF_RINGS]
    for s in odd + [sh(ofaorth, 3, F2)]:
        assert [g.key for g in enumerate_unitary(s)] == _loop_keys(s), s.tag


def _so_direct_3(K):
    """Reference: 3x3 matrices preserving the split odd quadratic form,
    det 1, by a scalar column search."""
    vecs = list(itertools.product(K.elements(), repeat=3))

    def qval(v):
        return K.add(K.mul(v[1], v[1]), K.mul(v[0], v[2]))

    def bval(v, w):
        out = K.smul(2, K.mul(v[1], w[1]))
        return K.add(out, K.add(K.mul(v[0], w[2]), K.mul(v[2], w[0])))

    targets_q = {t: qval(tuple(K.one() if s == t else K.zero() for s in range(3)))
                 for t in range(3)}
    gram = [[K.zero()] * 3 for _ in range(3)]
    for s in range(3):
        es = tuple(K.one() if a == s else K.zero() for a in range(3))
        for t in range(3):
            et = tuple(K.one() if a == t else K.zero() for a in range(3))
            gram[s][t] = bval(es, et)
    out = []
    cols = [None, None, None]

    def rec(t):
        if t == 3:
            M = [[cols[b][a] for b in range(3)] for a in range(3)]
            if k_mat_inv(K, M) is None or k_det(K, M) != K.one():
                return
            out.append(tuple(tuple(row) for row in M))
            return
        for v in vecs:
            if qval(v) != targets_q[t]:
                continue
            if any(bval(cols[s], v) != gram[s][t] for s in range(t)):
                continue
            cols[t] = v
            rec(t + 1)

    rec(0)
    return out


def test_so3_matches_scalar_search():
    import ofa.unitary as un

    for K in (F2, F3, Z4, parse_ring("gf:4")):
        vecs, F = un._isometries(un.BatchOps(sh(ofaorth, 3, K)))
        flat = vecs.reshape(len(vecs), -1)
        so = {M for M in k_matrices(flat, F, K.rank)
              if k_det(K, [list(r) for r in M]) == K.one()}
        ref = _so_direct_3(K)
        assert len(set(ref)) == len(ref)
        assert so == set(ref), K.name


def test_column_search_capacity():
    import ofa.unitary as un

    # Sp(4, Z/8) has about 7.5e8 elements: the frontier guard trips
    with pytest.raises(CapacityError, match="frontier"):
        un._isometries(un.BatchOps(sh(ofasymp, 4, ZMod(8))))
    with pytest.raises(CapacityError, match="column pool"):
        un._isometries(un.BatchOps(sh(ofasymp, 4, ZMod(9))))


PINNED = (
    ("group enumerate --family lin --n 2 --ring zmod:3",
     "b5956f20105d6d058db0ac32a947d4534514555b3d019e04551ac4050aea213a"),
    ("group enumerate --family symp --n 1 --ring gf:4",
     "527a56861b35aa949f45a2900bd91d33f363845b4d5d622ee5fe681c9518c6c3"),
    ("group enumerate --family orth-even --n 1 --ring zmod:4",
     "bce1276cf82052532f6a624abd5b5d6e4f4ba160adb770b8ed355700e0310525"),
    ("group invariants --family orth-even --n 2 --ring gf:2",
     "48fb2c2e5a2b2a43d97edec99f108cee224f2010208c22842875329e6fa230ad"),
    ("group order --family symp --n 0 --ring gf:2",
     "b5d1a97d5462e2c2047ebe09dd527dba0f30928872e63be6e5372f3fde20a74d"),
    ("so-odd-split --n 1 --ring gf:4",
     "a9294e536296c6d54ecda85b0d2b608f49e09b388392c93e3e892ca563dd5494"),
    # gamma has u-coordinates here, so the report reads them back on demand
    ("group enumerate --family orth-odd --n 1 --ring zmod:2",
     "7103e4f619b08aab68f14ea3689efc3c6b1d04f04aa3763d56bb2b7ff45719b2"),
    ("parabolic --family symp --n 1 --ring gf:3",
     "dff9b1a4ff98229bf909582f391e7e47c01e6b94057647ca9a52a6826dc273ab"),
    ("group invariants --family orth-odd --n 1 --ring zmod:3",
     "735253a3a623c2a70adca2e79558a4a2f56b0153ec20897f902fe1f074c01e13"),
)


@pytest.mark.parametrize("argv,digest", PINNED)
def test_report_bytes_pinned(argv, digest, capsys):
    import ofa.unitary as un

    un._GROUP_CACHE.clear()
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_group_cache_serves_default_calls(monkeypatch):
    import ofa.unitary as un

    s = sh(ofasymp, 4, F2)
    un._GROUP_CACHE.pop(s.tag, None)
    runs = []
    real = un._members
    monkeypatch.setattr(un, "_members", lambda *a: runs.append(1) or real(*a))
    assert group_order(s) == group_order(s) == 720
    assert len(runs) == 1
    # an unverified entry does not serve a verifying call
    un._GROUP_CACHE.pop(s.tag, None)
    enumerate_unitary(s, verify=False)
    enumerate_unitary(s, verify=True)
    enumerate_unitary(s, verify=True)
    enumerate_unitary(s, verify=False)
    assert len(runs) == 3


def test_enumeration_reads_no_delta_per_element(monkeypatch):
    """The batch mask is the only membership check: no survivor goes
    through member or u_try again."""
    import ofa.unitary as un

    def refuse(*a):
        raise AssertionError("Delta read on one element")

    monkeypatch.setattr(un, "member", refuse)
    monkeypatch.setattr(un, "u_try", refuse)
    un._GROUP_CACHE.clear()
    assert group_order(sh(ofasymp, 4, F2)) == 720
    assert group_order(sh(ofaorth, 3, Z4)) == 96


LAW_SHAPES = (sh(ofalin, 2, F3), sh(ofasymp, 2, parse_ring("gf:4")), sh(ofaorth, 2, Z4),
              sh(ofaorth, 3, Z4), sh(ofasymp, 4, F2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAW_SHAPES), st.lists(st.integers(0, 1 << 20), min_size=3, max_size=3))
def test_group_law_on_pairs(s, picks):
    """Elements store beta only; the gamma read on demand obeys the pair law
    (g h).gamma = g.gamma . h.alpha + h.gamma, inverts as
    g^-1.gamma = -(g.gamma . g^-1.alpha), and the identity has gamma 0."""
    G = enumerate_unitary(s)
    g, h, k = (G[i % len(G)] for i in picks)
    one = s.alg.K.one()
    assert (g * h).gamma == s.add(s.act(g.gamma, h.beta, one), h.gamma)
    gi = g.inv()
    assert gi.gamma == member(s, s.alg.conj(g.beta), g.beta)
    assert gi.gamma == s.neg(s.act(g.gamma, gi.beta, one))
    assert ((g * h) * k).key == (g * (h * k)).key
    assert u_identity(s).gamma == s.zero()


def test_verify_catches_a_missing_inverse(monkeypatch):
    import ofa.unitary as un

    s = sh(ofasymp, 2, F3)
    un._GROUP_CACHE.pop(s.tag, None)
    G = enumerate_unitary(s, verify=False)
    e = u_identity(s)
    victim = next(g for g in G if u_mul(g, g).key != e.key)
    real = un._members
    monkeypatch.setattr(un, "_members", lambda *a: [
        g for g in real(*a) if g.key != victim.key])
    un._GROUP_CACHE.pop(s.tag, None)
    assert len(enumerate_unitary(s, verify=False)) == 23
    un._GROUP_CACHE.pop(s.tag, None)
    with pytest.raises(AssertionError, match="no inverse"):
        enumerate_unitary(s, verify=True)
    un._GROUP_CACHE.pop(s.tag, None)


def test_transvection_short():
    s = sh(ofaorth, 4, F3)
    alg = s.alg
    assert transvection_short(s, 1, 2, alg.zero()).key == u_identity(s).key
    t = transvection_short(s, 1, 2, alg.e(1, 2))
    assert u_is_member(s, t.beta, t.gamma)
    x, y = alg.e(1, 2, (1,)), alg.e(1, 2, (2,))
    lhs = u_mul(transvection_short(s, 1, 2, x), transvection_short(s, 1, 2, y))
    assert lhs.key == transvection_short(s, 1, 2, alg.add(x, y)).key
    with pytest.raises(StructureError):
        transvection_short(s, 1, -1, alg.e(1, -1))
    with pytest.raises(StructureError):
        transvection_short(s, 1, 2, alg.e(2, 1))


def test_transvection_short_inverse_symp4():
    s = sh(ofasymp, 4, F2)
    x = s.alg.e(1, 2)
    t = transvection_short(s, 1, 2, x)
    tm = transvection_short(s, 1, 2, s.alg.neg(x))
    assert u_mul(t, tm).key == u_identity(s).key


def test_transvection_ultrashort_symp():
    s = sh(ofasymp, 2, F3)
    for k in F3.elements():
        u = s.act(gen_v(s, 1), s.alg.e(1, 1, k), F3.zero())
        t = transvection_ultrashort(s, 1, u)
        assert u_is_member(s, t.beta, t.gamma)
        assert t.beta.coeff(-1, 1) == F3.mul(k, k)


def test_transvection_ultrashort_orthodd():
    s = sh(ofaorth, 3, F2)
    # the middle-index product doubles, so this parameter collapses to 0
    u = s.act(gen_u(s, 0), s.alg.e(0, 1), F2.zero())
    assert delta0_member(s, u)
    assert transvection_ultrashort(s, 1, u).key == u_identity(s).key
    u1 = s.act(gen_u(s, 1), s.alg.e(1, 1), F2.zero())
    t = transvection_ultrashort(s, 1, u1)
    assert t.beta.c
    assert u_is_member(s, t.beta, t.gamma)
    with pytest.raises(StructureError):
        transvection_ultrashort(s, 1, gen_q(s, 1))


def test_dilation():
    s = sh(ofalin, 1, F3)
    alg = s.alg
    assert dilation(s, 1, alg.e(1, 1)).key == u_identity(s).key
    g = dilation(s, 1, alg.e(1, 1, (2,)))
    assert g.beta == alg.el({(1, 1): (1,), (-1, -1): (1,)})
    with pytest.raises(StructureError):
        dilation(sh(ofalin, 1, Z4), 1, ofalin(1, Z4).e(1, 1, (2,)))


def test_dilation_subgroup_orth():
    s = sh(ofaorth, 2, F3)
    gens = [dilation(s, 1, s.alg.e(1, 1, c)) for c in F3.units()]
    assert len(generate_subgroup(gens)) == 2
    a, b = (s.alg.e(1, 1, (2,)),) * 2
    prod = s.alg.kmul((2,), s.alg.e(1, 1, (2,)))
    assert u_mul(dilation(s, 1, a), dilation(s, 1, b)).key == dilation(s, 1, prod).key


def test_dilation0():
    s = sh(ofaorth, 3, F3)
    for c in F3.elements():
        ok = F3.is_zero(F3.add(F3.mul(c, c), c))
        got = u_try(s, s.alg.e(0, 0, c))
        assert (got is not None) == ok
    assert dilation0(s, (2,)).beta == s.alg.e(0, 0, (2,))
    with pytest.raises(StructureError):
        dilation0(sh(ofaorth, 2, F3), (1,))


def test_det_linear_and_sl():
    s = sh(ofalin, 2, F3)
    G = enumerate_unitary(s)
    one = F3.one()
    assert det_linear(u_identity(s)) == (one, one)
    assert sum(1 for g in G if sl_member(g)) == 24
    rng = random.Random(1)
    for _ in range(25):
        a, b = rng.choice(G), rng.choice(G)
        da, db = det_linear(a), det_linear(b)
        assert det_linear(u_mul(a, b)) == (F3.mul(da[0], db[0]), F3.mul(da[1], db[1]))
    t = transvection_short(s, 1, 2, s.alg.e(1, 2))
    assert sl_member(t)


def test_dickson_even_det_route():
    s = sh(ofaorth, 2, F3)
    G = enumerate_unitary(s)
    assert dickson_even(u_identity(s)) == F3.zero()
    assert sorted(dickson_even(g) for g in G) == [(0,), (0,), (1,), (1,)]
    swap = s.alg.el({(1, -1): (1,), (-1, 1): (1,), (1, 1): (2,), (-1, -1): (2,)})
    g = u_make(s, swap)
    assert dickson_even(g) == F3.one()


def test_dickson_even_char2_kernel_index():
    s = sh(ofaorth, 2, F2)
    G = enumerate_unitary(s)
    assert len(G) == 2
    ds = sorted(dickson_even(g) for g in G)
    assert ds == [(0,), (1,)]


def test_dickson_homomorphism():
    s = sh(ofaorth, 4, F3)
    G = enumerate_unitary(s)
    rng = random.Random(2)
    for _ in range(20):
        a, b = rng.choice(G), rng.choice(G)
        assert dickson_even(u_mul(a, b)) == idem_op(
            F3, dickson_even(a), dickson_even(b)
        )
    s2 = sh(ofaorth, 4, F2)
    G2 = enumerate_unitary(s2)
    for _ in range(20):
        a, b = rng.choice(G2), rng.choice(G2)
        assert dickson_even(u_mul(a, b)) == idem_op(
            F2, dickson_even(a), dickson_even(b)
        )


def test_dickson_routes_agree():
    import ofa.unitary as un

    s = sh(ofaorth, 4, F3)
    G = enumerate_unitary(s)
    idlist = sorted(s.alg.indices)
    clif, z = un._clif_center_idem(4, F3)
    for g in G[::31]:
        M = un._block_matrix(s.alg, g.beta, idlist)
        gz = un._clif_transport(clif, M, idlist, z)
        w = clif.mul(clif.sub(gz, z), clif.sub(clif.one(), clif.smul(2, z)))
        assert w == clif.scalar(dickson_even(g))


def test_embed_odd():
    s = sh(ofaorth, 3, F2)
    G = enumerate_unitary(s)
    big = odd_embed_target(s)
    emb = {g.key: embed_odd(g) for g in G}
    assert len({e.key for e in emb.values()}) == len(G)
    rng = random.Random(3)
    for _ in range(15):
        a, b = rng.choice(G), rng.choice(G)
        assert embed_odd(u_mul(a, b)).key == u_mul(emb[a.key], emb[b.key]).key
    # image = elements fixing the difference vector of the two new columns
    K = F2
    idx = sorted(big.alg.indices)
    vec = {i: K.zero() for i in idx}
    vec[-2], vec[2] = K.one(), K.neg(K.one())

    def fixes(g):
        for i in idx:
            s_ = vec[i]
            for j in idx:
                s_ = K.add(s_, K.mul(g.beta.coeff(i, j), vec[j]))
            if s_ != vec[i]:
                return False
        return True

    fixers = {g.key for g in enumerate_unitary(big) if fixes(g)}
    assert fixers == {e.key for e in emb.values()}


def test_so_odd_split_reports():
    expect = {"zmod:2": 12, "zmod:3": 48, "zmod:4": 96}
    for K in (F2, F3, Z4):
        rep = so_odd_split(sh(ofaorth, 3, K))
        assert rep["pass"], rep
        assert rep["order"] == expect[K.name]
        assert rep["order"] == rep["so_order"] * rep["idempotents"]


def test_dickson_odd_values():
    s = sh(ofaorth, 3, F3)
    G = enumerate_unitary(s)
    ds = [dickson_odd(g) for g in G]
    assert ds.count(F3.zero()) == 24 and ds.count(F3.one()) == 24
    for g in G[:6]:
        det = rep_matrix(g)
        assert dickson_odd(g) in ((0,), (1,))


def test_sigma_linear():
    s1 = sh(ofalin, 1, F3)
    sig1 = sigma_linear(s1)
    assert sig1.on_alg(s1.alg.e(1, 1)) == s1.alg.e(-1, -1)
    s = sh(ofalin, 2, F3)
    sig = sigma_linear(s)
    alg = s.alg
    for (i, j) in alg.pairs:
        assert sig.on_alg(sig.on_alg(alg.e(i, j))) == alg.e(i, j)
    rng = random.Random(4)
    for _ in range(20):
        a, b = alg.sample(rng), alg.sample(rng)
        assert sig.on_alg(alg.mul(a, b)) == alg.mul(sig.on_alg(a), sig.on_alg(b))
        assert sig.on_alg(alg.conj(a)) == alg.conj(sig.on_alg(a))
    zp = alg.el({(i, i): (1,) for i in alg.indices if i > 0})
    zm = alg.el({(i, i): (1,) for i in alg.indices if i < 0})
    assert sig.on_alg(zp) == zm and sig.on_alg(zm) == zp
    G = enumerate_unitary(sh(ofalin, 2, F2))
    sig2 = sigma_linear(sh(ofalin, 2, F2))
    assert {sig2(g).key for g in G} == {g.key for g in G}


def test_act_projective_properties():
    s = sh(ofaorth, 4, F3)
    G = enumerate_unitary(s)
    rng = random.Random(5)
    alg = s.alg
    e = u_identity(s)
    u = s.sample(rng)
    assert act_projective_delta(e, u) == u
    for _ in range(8):
        g, h = rng.choice(G), rng.choice(G)
        a = alg.sample(rng)
        assert act_projective(g, alg.mul(a, a)) == alg.mul(
            act_projective(g, a), act_projective(g, a)
        )
        assert act_projective(g, h.beta) == conjugate(g, h).beta
        assert act_projective_delta(g, h.gamma) == conjugate(g, h).gamma
        v = s.sample(rng)
        assert act_projective_delta(g, act_projective_delta(h, v)) == act_projective_delta(
            u_mul(g, h), v)
    # augmentation part is preserved K-linearly
    for g in G[::200]:
        u0 = s.el(d={s.d_keys[1]: (1,)})
        gu = act_projective_delta(g, u0)
        assert aug_member(s, gu)
        assert act_projective_delta(g, act_scalar(s, (2,), u0)) == act_scalar(s, (2,), gu)


def test_hyperbolic_families():
    for shape in (sh(ofaorth, 4, F3), sh(ofasymp, 4, F2), sh(ofalin, 2, F3),
                  sh(ofaorth, 3, F2)):
        rep = hyperbolic_family_validate(hyperbolic_family_standard(shape))
        assert rep["pass"], (shape.tag, rep)


def test_pair_sum():
    s = sh(ofasymp, 4, F2)
    fam = hyperbolic_family_standard(s)
    ps = pair_sum(fam[0], fam[1])
    assert not hyperbolic_pair_check(ps)
    with pytest.raises(StructureError):
        pair_sum(fam[0], fam[0])


def test_invalid_pair_witness():
    s = sh(ofasymp, 4, F2)
    bad = HyperbolicPair(
        s,
        s.alg.e(-1, -1),
        s.alg.e(1, 1),
        gen_q(s, -1),
        s.add(gen_q(s, 1), s.el(d={("v", 1): (1,)})),
    )
    fails = hyperbolic_pair_check(bad)
    assert "rho(q) != 0" in fails
    rep = hyperbolic_family_validate([bad])
    assert not rep["pass"] and rep["witnesses"]


def test_classical_pair_symp_gu_order():
    pair = classical_pair(sh(ofasymp, 2, F3))
    G = enumerate_unitary(pair.big_shape)
    assert len(G) == 48
    members = [g for g in G if gu_member(g, pair)]
    assert len(members) == 48


def test_classical_pair_inner_members():
    pair = classical_pair(sh(ofasymp, 2, F3))
    inner = enumerate_unitary(sh(ofasymp, 2, F3))
    for h in inner[::5]:
        g = u_make(pair.big_shape, pair.iota(h.beta))
        assert gu_member(g, pair)
        assert pair.iota_delta(h.gamma) == g.gamma


def test_classical_pair_is_morphism():
    rng = random.Random(6)
    for small in (sh(ofasymp, 2, F3), sh(ofaorth, 2, F3), sh(ofalin, 1, F3)):
        pair = classical_pair(small)
        alg, big = small.alg, pair.big
        for _ in range(20):
            a, b = alg.sample(rng), alg.sample(rng)
            assert pair.iota(alg.mul(a, b)) == big.mul(pair.iota(a), pair.iota(b))
            assert pair.iota(alg.conj(a)) == big.conj(pair.iota(a))
            assert pair.image_member(pair.iota(a))
            assert pair.iota_inv(pair.iota(a)) == a
        for _ in range(10):
            u, v = small.sample(rng), small.sample(rng)
            assert pair.iota_delta(small.add(u, v)) == pair.big_shape.add(
                pair.iota_delta(u), pair.iota_delta(v)
            )


def test_classical_pair_sigma_action():
    pair = classical_pair(sh(ofasymp, 2, F3))
    sig = sigma_linear(pair.big_shape)
    for (i, j) in pair.small.pairs:
        assert pair.image_member(sig.on_alg(pair.iota(pair.small.e(i, j))))
    pairo = classical_pair(sh(ofaorth, 2, F3))
    sigo = sigma_linear(pairo.big_shape)
    for (i, j) in pairo.small.pairs:
        x = pairo.iota(pairo.small.e(i, j))
        assert sigo.on_alg(x) == x


def test_classical_pair_coeff_ggl():
    pair = classical_pair(sh(ofalin, 1, F3))
    assert isinstance(pair.bigK, Product)
    G = enumerate_unitary(pair.big_shape)
    assert len(G) == 4
    assert sum(1 for g in G if gu_member(g, pair)) == 4


def test_parabolic_borel_symp2():
    s = sh(ofasymp, 2, F2)
    P = parabolic_p(s)
    assert len(P) == 2
    G = enumerate_unitary(s)
    assert len(P) < len(G)
    keys = {g.key for g in G}
    assert all(g.key in keys for g in P)


def test_parabolic_lin2():
    P = parabolic_p(sh(ofalin, 2, F3))
    assert len(P) == 12
    assert sum(1 for g in P if sl_member(g)) == 6


def test_generate_subgroup_identity():
    s = sh(ofasymp, 2, F3)
    assert len(generate_subgroup([u_identity(s)])) == 1


def test_json_roundtrip():
    s = sh(ofaorth, 4, F3)
    G = enumerate_unitary(s)
    g = G[17]
    data = json.loads(json.dumps(unitary_to_json(g)))
    assert unitary_from_json(s, data).key == g.key
    data["beta"] = []
    with pytest.raises(StructureError):
        unitary_from_json(s, data)


def _parabolic_generators_reference(shape):
    """The standard family's generators taken whole: every nonzero short
    parameter, and T_j(x . e_j) for every x of Delta0 (the u and
    augmentation slots)."""
    alg = shape.alg
    K = alg.K
    ranks = list(range(1, alg.n + 1))
    gens = [u_identity(shape)]
    for i in ranks:
        for c in K.units():
            gens.append(dilation(shape, i, alg.e(i, i, c)))
    if 0 in alg.indices:
        for c in K.elements():
            g = u_try(shape, alg.e(0, 0, c))
            if g is not None:
                gens.append(g)
    span = sorted({s for i in ranks for s in (i, -i)})
    for i in span:
        for j in span:
            if i < j and i != -j and (i, j) in alg.pairset:
                for c in K.elements():
                    if not K.is_zero(c):
                        gens.append(transvection_short(shape, i, j, alg.e(i, j, c)))
    if alg.kind != "lin":
        nq = len(shape.q_pairs)
        for j in ranks:
            seen = set()
            for vec in itertools.product(K.elements(), repeat=shape.dim - nq):
                u = shape.act(shape.zero()[:nq] + vec, alg.e(j, j), K.zero())
                if u not in seen:
                    seen.add(u)
                    gens.append(transvection_ultrashort(shape, j, u))
    return gens


PARABOLIC_CASES = (
    [("symp", 1, r) for r in ("gf:2", "zmod:3", "zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")]
    + [("symp", 2, "gf:2"), ("orth-even", 2, "gf:2"), ("orth-even", 2, "gf:3"),
       ("orth-odd", 1, "zmod:2"), ("orth-odd", 1, "zmod:4"), ("orth-odd", 1, "gf:3"),
       ("lin", 2, "gf:3"),
       # 1 is the only unit here, so the dilations do not reach (1, 0)
       ("lin", 2, "prod:(zmod:2;zmod:2)")])


@pytest.mark.parametrize("family,n,ring", PARABOLIC_CASES)
def test_parabolic_closure_matches_whole_parameter_sets(family, n, ring):
    s = DeltaShape(family_algebra(family, n, parse_ring(ring)))
    ref = generate_subgroup(_parabolic_generators_reference(s))
    assert [g.key for g in parabolic_p(s)] == [g.key for g in ref]


def test_transvections_are_additive():
    """X_ij(x) X_ij(y) = X_ij(x + y) and T_j(u) T_j(v) = T_j(u + v), the
    laws that let the parabolic take its generators at generating sets."""
    gf4 = parse_ring("gf:4")
    for s in (sh(ofalin, 2, gf4), sh(ofaorth, 4, gf4)):
        alg = s.alg
        for (i, j) in ((1, 2), (-2, -1)):
            if (i, j) not in alg.pairset:
                continue
            X = {c: transvection_short(s, i, j, alg.e(i, j, c)) for c in gf4.elements()}
            for x in gf4.elements():
                for y in gf4.elements():
                    assert u_mul(X[x], X[y]).key == X[gf4.add(x, y)].key
    for s in (sh(ofasymp, 2, Z4), sh(ofasymp, 2, gf4), sh(ofasymp, 4, F2),
              sh(ofaorth, 3, F2), sh(ofaorth, 3, Z4), sh(ofaorth, 3, F3)):
        K, nq = s.alg.K, len(s.q_pairs)
        for j in range(1, s.alg.n + 1):
            us = {s.act(s.zero()[:nq] + vec, s.alg.e(j, j), K.zero())
                  for vec in itertools.product(K.elements(), repeat=s.dim - nq)}
            T = {u: transvection_ultrashort(s, j, u) for u in us}
            for u in us:
                for v in us:
                    assert u_mul(T[u], T[v]).key == T[s.add(u, v)].key, s.tag


def test_parabolic_past_the_old_delta0_pool():
    """Sp(4, F3) had a Delta0 pool of 3^10 elements; its Borel subgroup
    has order 3^4 (q - 1)^2 = 324."""
    assert len(parabolic_p(sh(ofasymp, 4, parse_ring("gf:3")))) == 324
    assert len(parabolic_p(sh(ofasymp, 4, Z4))) == 1024
    assert len(parabolic_p(sh(ofaorth, 5, F2))) == 32


UNITARY_JSON_SHAPES = LAW_SHAPES + (sh(ofaorth, 1, Z4), sh(ofasymp, 2, Z4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNITARY_JSON_SHAPES), st.integers(0, 1 << 20))
def test_unitary_json_roundtrip_property(s, pick):
    G = enumerate_unitary(s)
    g = G[pick % len(G)]
    data = json.loads(json.dumps(unitary_to_json(g)))
    assert unitary_from_json(s, data) == g
