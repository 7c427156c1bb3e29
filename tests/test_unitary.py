import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.cli import family_algebra
from ofa.cli import main as cli_main
from ofa.clifford import clif0_center
from ofa.coeff_ring import (CapacityError, Product, StructureError, ZMod, _basis, _mixed_radix,
                            _rows_in, _word_order, parse_ring)
from ofa.form_ring import alg_el_from_json, alg_el_to_json, ofalin, ofaorth, ofasymp, rep_odd
from ofa.linalg import k_mat_inv
from ofa.odd_form_param import (
    DeltaShape,
    act_scalar,
    aug_member,
    delta_from_json,
    delta_to_json,
    gen_q,
    gen_u,
    gen_v,
    member,
    to_pair,
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
    parabolic_generators,
    parabolic_p,
    sigma_linear,
    sl_member,
    so_odd_split,
    transvection_short,
    transvection_ultrashort,
    u_identity,
    u_inv,
    u_make,
    u_mul,
    u_try,
    unitary_from_json,
    unitary_to_json,
)
from test_batch_delta import _eps
from test_clifford import center_split_idempotent
from test_coeff_ring import _RINGS
from dict_law import dict_law
from test_linalg import k_det, k_matrices

F2 = ZMod(2)
F3 = ZMod(3)
Z4 = ZMod(4)


def sh(mk, r, K):
    return DeltaShape(mk(r, K))


def test_identity_and_membership():
    s = sh(ofasymp, 2, F3)
    e = u_identity(s)
    assert u_try(s, e.beta) == e
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


def _scan_betas(bo):
    """Reference: every beta of the algebra, in slices of the mixed-radix
    index."""
    import ofa.unitary as un

    q, rank = bo.K.card, bo.alg.rank
    total = q ** rank
    for lo in range(0, total, un._CHUNK):
        yield bo.materialize("alg", _mixed_radix([q] * rank, min(lo + un._CHUNK, total), lo))


def _keys(shape, betas):
    import ofa.unitary as un

    bo = un.BatchOps(shape)
    return sorted(g.key for g in un._elements(shape, un._survivors(bo, betas(bo))[0]))


REF_RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:6", "zmod:8", "zmod:9",
             "gf:4", "prod:(zmod:2;zmod:3)")
ODD_RINGS = ("zmod:2", "zmod:3", "zmod:4", "gf:4")
ODD_REF = [sh(ofaorth, r, parse_ring(name)) for name in ODD_RINGS for r in (1, 3)]


def test_enumeration_strategies_agree():
    """The column search (lifted along rep_odd on the odd preset), the
    full beta scan and a per-element u_try loop list the same betas."""
    import ofa.unitary as un

    cases = [(mk, r, parse_ring(name)) for name in REF_RINGS
             for mk, r in ((ofalin, 1), (ofasymp, 2), (ofaorth, 2), (ofaorth, 1))]
    cases += [(mk, r, K) for K in (F2, F3)
              for mk, r in ((ofalin, 2), (ofasymp, 4), (ofaorth, 4))]
    cases += [(mk, 0, F3) for mk in (ofalin, ofasymp, ofaorth)]
    cases += [(ofaorth, 3, parse_ring(name)) for name in ODD_RINGS]
    checked = 0
    for mk, r, K in cases:
        s = sh(mk, r, K)
        if s.alg.card() > un._ENUM_CAP:
            continue
        col = _keys(s, un._column_betas)
        assert col == _keys(s, _scan_betas), s.tag
        if s.alg.card() <= 1 << 13:
            assert col == _loop_keys(s), s.tag
        un._GROUP_CACHE.pop(s.tag, None)
        assert col == [g.key for g in enumerate_unitary(s)]
        checked += 1
    # symp 4 and orth 4 over F3 are past the scan cap
    assert checked == len(cases) - 2


def rep_matrix(g):
    """Reference: 1 + rep_odd(beta) as a matrix over the module basis."""
    K = g.shape.alg.K
    M = [list(row) for row in rep_odd(g.shape.alg, g.beta)]
    for s in range(len(M)):
        M[s][s] = K.add(M[s][s], K.one())
    return tuple(tuple(row) for row in M)


def test_rep_of_every_element_is_a_listed_isometry():
    """rep(g) keeps b and q for every g the full scan finds, so the column
    search lifted along rep_odd misses no member."""
    import ofa.unitary as un

    for s in ODD_REF:
        bo = un.BatchOps(s)
        vecs, F = un._isometries(bo)
        listed = set(k_matrices(vecs.reshape(len(vecs), -1), F, s.alg.K.rank))
        members = un._elements(s, un._survivors(bo, _scan_betas(bo))[0])
        assert members
        for g in members:
            assert rep_matrix(g) in listed, (s.tag, g)


def _so_odd_order(q, n):
    """|O(2n + 1, F_q)| = 2 |SO(2n + 1, q)|."""
    out = 2 * q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def test_odd_orders_past_the_beta_scan():
    """Classical orders out of reach of a scan over every beta: over F_q
    2 |SO(2n + 1, q)|; over Z/9 the order over F_3 times |3 Z/9|^3 (SO(3)
    has dimension 3); over Z/2 x Z/3 the product over the factors."""
    assert group_order(sh(ofaorth, 3, ZMod(5))) == _so_odd_order(5, 1) == 240
    assert group_order(sh(ofaorth, 3, ZMod(7))) == _so_odd_order(7, 1) == 672
    assert group_order(sh(ofaorth, 3, parse_ring("gf:9"))) == _so_odd_order(9, 1) == 1440
    assert group_order(sh(ofaorth, 3, ZMod(9))) == _so_odd_order(3, 1) * 3 ** 3 == 1296
    assert group_order(sh(ofaorth, 3, parse_ring("prod:(zmod:2;zmod:3)"))) == (
        _so_odd_order(2, 1) * _so_odd_order(3, 1))
    assert group_order(sh(ofaorth, 5, F2)) == _so_odd_order(2, 2) == 1440


@pytest.mark.parametrize("argv,msg", [
    ("group order --family orth-odd --n 1 --ring gf:16", "error: rep_odd lift of 16711680"),
    ("group order --family orth-odd --n 0 --ring zmod:5003", "error: column pool of 5003"),
    ("so-odd-split --n 2 --ring zmod:4", "error: column search frontier past 1048576"),
])
def test_odd_enumeration_refusals(argv, msg, capsys):
    import time

    t = time.perf_counter()
    assert cli_main(argv.split()) == 2
    assert time.perf_counter() - t < 10
    err = capsys.readouterr().err
    assert err.startswith(msg) and err.count("\n") == 1


def test_column_pool_cap_is_per_support_block(capsys):
    """The linear preset draws a column from the vectors on one sign of
    indices, q^n of them, and holds that block alone to the 4096 cap."""
    assert cli_main("group order --family lin --n 1 --ring zmod:4096".split()) == 0
    assert json.loads(capsys.readouterr().out)["report"]["order"] == 2048
    assert cli_main("group order --family lin --n 1 --ring zmod:4097".split()) == 2
    assert capsys.readouterr().err == "error: column pool of 4097 vectors\n"


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
    ("group invariants --family orth-odd --n 2 --ring gf:2",
     "20d46a92b0a703c99f760444685f84a43cbd3b09d91e883e8a4cb0a225794001"),
    ("parabolic --family orth-odd --n 1 --ring zmod:5",
     "4b42e5e3586ba3ce21c34791dfeb940ae4a44a40a4dcb994001d72d694919f0d"),
    # so-odd-split past rank 3: O(1, F3) has order 2 and SO(1) = 1; O(5, F2)
    # has order 1,440 and SO(5, 2) = Sp(4, 2) order 720
    ("so-odd-split --n 0 --ring gf:3",
     "82a8cb23be70d04a130672e115551eda79561d41ca36c501679721b269f6fb08"),
    ("so-odd-split --n 2 --ring gf:2",
     "22257f8db4b773f4b8a7e719dce5907e3629fcbfebf2faf9d9d01570788209ea"),
    # Sp(4, F3): a parabolic of 324 in 51,840; O(5, F3) of order 103,680
    ("parabolic --family symp --n 2 --ring gf:3",
     "68da95badcfd6d3b66ffa7e225b0c46b55d99d978dba234e12867fddde6cd157"),
    ("group order --family orth-odd --n 2 --ring gf:3",
     "2a0c24a3b9705a18bd2f88dbaefec065117d6dc46e56edcf014569185d44350a"),
    ("so-odd-split --n 2 --ring gf:3",
     "24debfb930132a535a1d2a5f3fd3e61dd647db1c2421586a25fa9690c2094a25"),
    # Dickson invariants where 2 is a nonzero non-unit, at rank 6, and over
    # a product ring
    ("group invariants --family orth-even --n 2 --ring zmod:4",
     "dc374d9614a14a901bf379272eb9cb565505a09b7b5e3323d2c980da716d2c78"),
    ("group invariants --family orth-even --n 3 --ring gf:2",
     "fe0b0e7487e5ff0a8586507e57cfed59a03da2980b8260ca0babe6f45d4ba37b"),
    ("group invariants --family orth-even --n 2 --ring prod:(zmod:2;zmod:3)",
     "8f41e6ae47ef0c33c8fccb6660b2064370a1b98be524f9b3ba2156831c8d3b8b"),
    # so-odd-split where 2 is a nonzero non-unit, and over a product ring
    ("so-odd-split --n 1 --ring zmod:4",
     "76195b161a3f7ec1a0eb0cee3b39744a564033153cb82db765e1e8b34031dc46"),
    ("so-odd-split --n 1 --ring prod:(zmod:2;zmod:3)",
     "b5558d0c863c3dd1d0164deb25000d6246626285f9b41f51636924ddfdd7cae0"),
    # 3,155,949 bytes, written from 510,383 compact bytes: eight blocks
    ("group enumerate --family orth-even --n 2 --ring gf:3",
     "14fdf048738a94b41ae929a254cc8f018baead24793610ab12004f67fc1753f4"),
)


@pytest.mark.parametrize("argv,digest", PINNED)
def test_report_bytes_pinned(argv, digest, capsys):
    import ofa.unitary as un

    un._GROUP_CACHE.clear()
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mk,r,ring", [(ofaorth, 3, "zmod:4"), (ofasymp, 2, "zmod:4"),
                                       (ofaorth, 3, "gf:8"), (ofaorth, 4, "zmod:2")])
def test_unitary_mask_matches_every_check_on_every_row(mk, r, ring):
    """The mask, which runs one product and then the Delta read on the rows
    that pass it, against all three checks on every row, both products
    included: on the whole beta scan, where most rows fail, and on the
    column search batches."""
    import ofa.unitary as un

    bo = un.BatchOps(sh(mk, r, parse_ring(ring)))
    sources = [un._column_betas(bo)]
    if bo.alg.card() <= un._ENUM_CAP:
        sources.append(_scan_betas(bo))
    for P in itertools.chain(*sources):
        Pb = bo.conj(P)
        z = bo.reduce(-(P + Pb))
        want = ((bo.dmul(Pb, P) == z).all(axis=(0, 1, 2))
                & (bo.dmul(P, Pb) == z).all(axis=(0, 1, 2)) & bo.dread(P, Pb)[1])
        assert (un._unitary_mask(bo, P) == want).all()


def test_group_cache_serves_default_calls(monkeypatch):
    import ofa.unitary as un

    s = sh(ofasymp, 4, F2)
    un._GROUP_CACHE.pop(s.tag, None)
    runs = []
    real = un._survivors
    monkeypatch.setattr(un, "_survivors", lambda *a: runs.append(1) or real(*a))
    assert group_order(s) == group_order(s) == 720
    assert len(runs) == 1


def test_enumeration_keys_the_group_rows_once(monkeypatch):
    """_verify looks bar beta up in the key words that _survivors sorted
    the group by: two whole-group _key_words calls (the rows and their
    bars), not three."""
    import ofa.unitary as un

    s = sh(ofasymp, 4, F2)
    un._GROUP_CACHE.pop(s.tag, None)
    sizes = []
    real = un._key_words
    monkeypatch.setattr(un, "_key_words", lambda alg, B: sizes.append(len(B)) or real(alg, B))
    assert group_order(s) == 720
    assert sorted(sizes) == [144, 720, 720]


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
    G = enumerate_unitary(s)
    e = u_identity(s)
    victim = next(g for g in G if u_mul(g, g).key != e.key)
    real = un._survivors

    def drop_victim(*a):
        B, words = real(*a)
        keep = [g.key != victim.key for g in un._elements(s, B)]
        return B[keep], words[keep]

    monkeypatch.setattr(un, "_survivors", drop_victim)
    bo = un.BatchOps(s)
    assert len(un._survivors(bo, un._column_betas(bo))[0]) == 23
    un._GROUP_CACHE.pop(s.tag, None)
    with pytest.raises(AssertionError, match="no inverse"):
        enumerate_unitary(s)
    un._GROUP_CACHE.pop(s.tag, None)


def _run_under_python_O(lines):
    """stdout lines of a python -O subprocess running lines, which import
    ofa from this tree."""
    import ofa.unitary as un

    src = os.path.dirname(os.path.dirname(un.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", "\n".join(lines)], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_verify_runs_under_python_O():
    """The verify pass raises by hand: python -O strips assert statements
    and must still see the dropped inverse."""
    out = _run_under_python_O([
        "import ofa.unitary as un",
        "from ofa.coeff_ring import ZMod",
        "from ofa.form_ring import ofasymp",
        "from ofa.odd_form_param import DeltaShape",
        "s = DeltaShape(ofasymp(2, ZMod(3)))",
        "e = un.u_identity(s)",
        "victim = next(g for g in un.enumerate_unitary(s) if (g * g).key != e.key)",
        "un._GROUP_CACHE.clear()",
        "real = un._survivors",
        "def drop_victim(*a):",
        "    B, words = real(*a)",
        "    keep = [g.key != victim.key for g in un._elements(s, B)]",
        "    return B[keep], words[keep]",
        "un._survivors = drop_victim",
        "print(__debug__)",
        "try:",
        "    un.enumerate_unitary(s)",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    assert out[0] == "False"
    assert out[1].startswith("no inverse of <unitary beta=")


def test_central_check_runs_under_python_O():
    """so_odd_split checks each expected central element by hand, so a
    refusing u_try still raises under python -O."""
    out = _run_under_python_O([
        "import ofa.unitary as un",
        "from ofa.coeff_ring import ZMod",
        "from ofa.form_ring import ofaorth",
        "from ofa.odd_form_param import DeltaShape",
        "un.u_try = lambda *a: None",
        "print(__debug__)",
        "try:",
        "    un.so_odd_split(DeltaShape(ofaorth(3, ZMod(2))))",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    assert out == ["False", "central element of k = (0,) is not unitary"]


@pytest.mark.parametrize("name", ("zmod:2", "zmod:3", "zmod:4", "zmod:9", "gf:4",
                                  "prod:(zmod:2;zmod:3)"))
def test_classical_pair_signs_are_the_involution_signs(name):
    """ClassicalPair reads its signs off the small algebra's involution
    table; the reference is eps(i) eps(j), on 8 presets over 6 rings (the
    odd orthogonal ones have no classical pair)."""
    K = parse_ring(name)
    for mk, r in ((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4),
                  (ofaorth, 2), (ofaorth, 3), (ofaorth, 4), (ofaorth, 5)):
        alg = mk(r, K)
        if 0 in alg.indices:
            with pytest.raises(StructureError):
                classical_pair(DeltaShape(alg))
            continue
        pair = classical_pair(DeltaShape(alg))
        for i, j in alg.pairs:
            assert pair._sign(i, j) == _eps(alg, i) * _eps(alg, j), (alg.tag, i, j)
            if pair.mode == "form":
                x = alg.e(i, j)
                assert pair.iota_inv(pair.iota(x)) == x


@pytest.mark.parametrize("name", ("zmod:2", "zmod:3", "zmod:4", "zmod:9", "gf:4",
                                  "prod:(zmod:2;zmod:3)"))
def test_split_form_reads_the_involution_and_contract_tables(name):
    """_split_form takes its signs from the involution table and its
    middle weight from contract; the reference is the kind rule eps(i)
    with the integer weight 2 at index 0, on 8 presets over 6 rings."""
    import ofa.unitary as un

    K = parse_ring(name)
    for mk, r in ((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4),
                  (ofaorth, 2), (ofaorth, 3), (ofaorth, 4), (ofaorth, 5)):
        alg = mk(r, K)
        bo = un.BatchOps(DeltaShape(alg))
        S, rk = bo.ring.S, bo.rk
        ref = np.zeros((bo.d, rk, bo.d, rk, rk), dtype=np.int64)
        for i in alg.indices:
            ref[bo.pos[i], :, bo.pos[-i]] = _eps(alg, i) * (2 if i == 0 else 1) * S
        D = bo.d * rk
        B, _ = un._split_form(bo)
        assert np.array_equal(B, bo.reduce(ref.reshape(D, D, rk, 1))[..., 0]), alg.tag


_ORDER_PRESETS = ((ofalin, 1), (ofalin, 2), (ofasymp, 2), (ofasymp, 4), (ofaorth, 1),
                  (ofaorth, 2), (ofaorth, 3))


@settings(max_examples=80, deadline=None)
@given(_RINGS, st.sampled_from(_ORDER_PRESETS), st.integers(0, 2 ** 16))
def test_key_words_order_rows_as_el_key(K, preset, seed):
    """Sorting rows by their key words with the row-word codec of
    coeff_ring is sorted(key=El.key), and its _rows_in finds exactly the
    listed rows, on random sparse elements: a zero entry with a later
    nonzero one, equal prefixes, repeats and the zero element all occur."""
    import ofa.unitary as un

    mk, r = preset
    alg = mk(r, K)
    rng = random.Random(seed)
    pairs = sorted(alg.pairs)
    els = [alg.zero()]
    for _ in range(rng.randrange(1, 24)):
        c = dict(rng.choice(els).c) if rng.random() < 0.5 else {}
        for key in rng.sample(pairs, rng.randrange(min(3, len(pairs)) + 1)):
            c[key] = tuple(rng.randrange(m) if rng.random() < 0.7 else 0 for m in K.moduli)
        els.append(alg.el(c))
    rng.shuffle(els)
    B = un._rows(alg.to_array(els))
    words = un._key_words(alg, B)
    assert (B[_word_order(words)].tolist()
            == un._rows(alg.to_array(sorted(els, key=lambda e: e.key))).tolist())
    k = rng.randrange(1, len(els) + 1)
    listed = {e.key for e in els[:k]}
    assert _rows_in(words[:k], words[::-1]).tolist() == [e.key in listed for e in els[::-1]]


def _element_json(s, g):
    """The JSON form of one element, written slot by slot from the shape's
    named slots: the reference for the rows writers."""
    K = s.alg.K
    gamma = {"q": [], "u": [], "d": []}
    keys = [("q", list(k)) for k in s.q_pairs] + [("u", [i]) for i in s.u_idx]
    keys += [("d", list(k)) for k in s.d_keys]
    for (name, key), v in zip(keys, g.gamma):
        if not K.is_zero(v):
            gamma[name].append(key + [list(v)])
    return {"beta": [{"i": i, "j": j, "c": list(v)} for (i, j), v in g.beta.key],
            "gamma": gamma}


@pytest.mark.parametrize("s", LAW_SHAPES + (sh(ofaorth, 3, F2), sh(ofaorth, 5, F2),
                                            sh(ofalin, 2, parse_ring("prod:(zmod:2;zmod:3)")),
                                            sh(ofaorth, 3, parse_ring("gf:4"))),
                         ids=lambda s: s.tag)
def test_batched_gamma_read_is_member(s):
    """group enumerate reads every gamma in one batch; each equals the dict
    law's read of (beta, bar beta), and the JSON is the element's beta and
    gamma as alg_el_to_json and delta_to_json write them, and as a slot by
    slot writer does.  Z/2 x Z/3 has unequal slot moduli and GF(4) two
    slots and u slots, so the element index is checked where its mixed
    radix matters."""
    import ofa.unitary as un

    G = enumerate_unitary(s)
    bo, ref = un.BatchOps(s), dict_law(s)
    X = un._law(G.betas)
    gammas, ok = bo.dread(X, bo.conj(X))
    assert ok.all()
    rows = un.group_to_json(G).objects()
    assert len(rows) == len(G)
    one = []
    for g, gamma, row in zip(G, un._rows(gammas).tolist(), rows):
        assert tuple(map(tuple, gamma)) == ref.read(g.beta, s.alg.conj(g.beta))
        one.append({"beta": alg_el_to_json(g.beta), "gamma": delta_to_json(s, g.gamma)})
        assert row == one[-1] == _element_json(s, g)
        assert row == unitary_to_json(g)
    assert json.dumps(rows) == json.dumps(one)


def test_transvection_short():
    s = sh(ofaorth, 4, F3)
    alg = s.alg
    assert transvection_short(s, 1, 2, alg.zero()).key == u_identity(s).key
    t = transvection_short(s, 1, 2, alg.e(1, 2))
    assert u_try(s, t.beta) == t
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
        assert u_try(s, t.beta) == t
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
    assert u_try(s, t.beta) == t
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
    assert det_linear([u_identity(s)]) == [(one, one)]
    assert sum(sl_member(G)) == 24
    rng = random.Random(1)
    pairs = [(rng.choice(G), rng.choice(G)) for _ in range(25)]
    da, db = det_linear([a for a, _ in pairs]), det_linear([b for _, b in pairs])
    dab = det_linear([u_mul(a, b) for a, b in pairs])
    for x, y, xy in zip(da, db, dab):
        assert xy == (F3.mul(x[0], y[0]), F3.mul(x[1], y[1]))
    t = transvection_short(s, 1, 2, s.alg.e(1, 2))
    assert sl_member([t]) == [True]


def test_dickson_even_det_route():
    s = sh(ofaorth, 2, F3)
    G = enumerate_unitary(s)
    assert dickson_even([u_identity(s)]) == [F3.zero()]
    assert sorted(dickson_even(G)) == [(0,), (0,), (1,), (1,)]
    swap = s.alg.el({(1, -1): (1,), (-1, 1): (1,), (1, 1): (2,), (-1, -1): (2,)})
    g = u_make(s, swap)
    assert dickson_even([g]) == [F3.one()]


def test_dickson_even_char2_kernel_index():
    s = sh(ofaorth, 2, F2)
    G = enumerate_unitary(s)
    assert len(G) == 2
    assert sorted(dickson_even(G)) == [(0,), (1,)]


def test_dickson_homomorphism():
    rng = random.Random(2)
    for K in (F3, F2):
        G = enumerate_unitary(sh(ofaorth, 4, K))
        pairs = [(rng.choice(G), rng.choice(G)) for _ in range(20)]
        da = dickson_even([a for a, _ in pairs])
        db = dickson_even([b for _, b in pairs])
        dab = dickson_even([u_mul(a, b) for a, b in pairs])
        assert dab == [idem_op(K, x, y) for x, y in zip(da, db)]


# The per-element Clifford-centre route that unitary._dickson replaced, kept
# as the reference: transport the splitting idempotent z of the centre of
# the even part along e_a -> sum_s M[s][a] e_s, one chain of products per
# word of z.
_CLIF_Z_CACHE = {}


def _clif_center_idem(r, K):
    key = (r, K.name)
    if key not in _CLIF_Z_CACHE:
        basis = clif0_center(r, K)
        _CLIF_Z_CACHE[key] = (basis[0].alg, center_split_idempotent(basis))
    return _CLIF_Z_CACHE[key]


def _clif_transport(clif, M, x):
    """Image of the even element x under e_a -> sum_s M[s][a] e_s, M a
    nested int list over the labels in order."""
    gens = {a: clif.el({(s,): tuple(M[p][q]) for p, s in enumerate(clif.labels)})
            for q, a in enumerate(clif.labels)}
    out = clif.zero()
    for word, v in x.c.items():
        term = clif.scalar(v)
        for a in word:
            term = clif.mul(term, gens[a])
        out = clif.add(out, term)
    return out


def test_dickson_routes_agree():
    import ofa.unitary as un

    s = sh(ofaorth, 4, F3)
    G = enumerate_unitary(s)[::31]
    clif, z = _clif_center_idem(4, F3)
    A = un._plus_one(F3, s.alg.to_array([g.beta for g in G]))
    for g, M, d in zip(G, un._rows(A).tolist(), dickson_even(G)):
        gz = _clif_transport(clif, M, z)
        w = clif.mul(clif.sub(gz, z), clif.sub(clif.one(), clif.smul(2, z)))
        assert w == clif.scalar(d)


def test_dickson_rejects_a_non_isometry():
    """e_-1 -> e_1, e_1 -> 2 e_-1 doubles B over F3; the spinor read gives
    d = 2, which is not idempotent."""
    import ofa.unitary as un

    A = np.array([[[[0], [2]], [[1], [0]]]], dtype=np.int64)
    with pytest.raises(StructureError, match="idempotent"):
        un._dickson(F3, un._law(A))


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


@pytest.mark.parametrize("r, ring", [(3, "zmod:2"), (3, "zmod:3"), (3, "zmod:4"),
                                     (3, "gf:4"), (5, "zmod:2")])
def test_embed_odd_images_are_members(r, ring):
    """embed_odd builds its image without checks; u_try accepts each one."""
    s = sh(ofaorth, r, parse_ring(ring))
    G = enumerate_unitary(s)
    assert G
    for g in G:
        e = embed_odd(g)
        got = u_try(e.shape, e.beta)
        assert got is not None and got.key == e.key, (ring, g)


def test_so_odd_split_reports():
    expect = {(3, "zmod:2"): 12, (3, "zmod:3"): 48, (3, "zmod:4"): 96,
              (5, "zmod:2"): _so_odd_order(2, 2)}
    for (r, name), order in expect.items():
        rep = so_odd_split(sh(ofaorth, r, parse_ring(name)))
        assert rep["pass"], rep
        assert rep["order"] == order
        assert rep["order"] == rep["so_order"] * rep["idempotents"]


def test_product_ring_invariants_match_zmod6():
    """Z/6 = Z/2 x Z/3 by CRT: the product ring gives the same Dickson
    classes, d over Z/6 read as (d mod 2, d mod 3), and so_odd_split
    passes on both."""
    P, Z6 = parse_ring("prod:(zmod:2;zmod:3)"), ZMod(6)
    for r, dickson in ((2, dickson_even), (3, dickson_odd)):
        on_p = dickson(enumerate_unitary(sh(ofaorth, r, P)))
        on_6 = dickson(enumerate_unitary(sh(ofaorth, r, Z6)))
        crt = sorted((d % 2, d % 3) for (d,) in on_6)
        assert sorted(on_p) == crt and len(set(crt)) == 4
    for K in (P, Z6):
        rep = so_odd_split(sh(ofaorth, 3, K))
        assert rep["pass"] and rep["idempotents"] == 4, rep


def _alpha_matrix(g, idlist):
    K = g.shape.alg.K
    return [[K.add(g.beta.coeff(s, t), K.one() if s == t else K.zero()) for t in idlist]
            for s in idlist]


def _dickson_reference(g):
    """Dickson invariant of one element of an even orthogonal preset, from
    its own matrix: det(alpha) = 1 - 2d where 2 is regular, else the
    action on the center of the even Clifford part."""
    from ofa.batch_delta import _torsion_list

    K = g.shape.alg.K
    idlist = sorted(g.shape.alg.indices)
    M = _alpha_matrix(g, idlist)
    if len(_torsion_list(K)) == 1:
        dt = k_det(K, M)
        return next(d for d in K.idempotents() if K.sub(K.one(), K.smul(2, d)) == dt)
    clif, z = _clif_center_idem(len(idlist), K)
    w = clif.mul(clif.sub(_clif_transport(clif, M, z), z),
                 clif.sub(clif.one(), clif.smul(2, z)))
    d = w.c.get((), K.zero())
    assert w == clif.scalar(d)
    return d


def _random_words(shape, count, rng):
    """Members of the group without enumerating it: products of eight
    parabolic generators each."""
    from ofa.unitary import parabolic_generators

    gens = parabolic_generators(shape)
    out = []
    for _ in range(count):
        g = u_identity(shape)
        for _ in range(8):
            g = u_mul(g, rng.choice(gens))
        out.append(g)
    return out


# rings where 2 is a nonzero non-unit, a product ring, F4 and rank 6: every
# 97th element, against the Clifford-centre reference
_SLICED = {(4, "zmod:8"), (4, "gf:4"), (4, "prod:(zmod:2;zmod:3)"), (6, "gf:2")}


@pytest.mark.parametrize("mk, r, ring", [
    (ofalin, 2, "gf:3"), (ofaorth, 4, "gf:2"), (ofaorth, 4, "gf:3"), (ofaorth, 4, "zmod:4"),
    (ofaorth, 3, "gf:2"), (ofaorth, 3, "gf:3"), (ofaorth, 5, "gf:2"), (ofaorth, 5, "gf:3"),
    (ofaorth, 4, "zmod:8"), (ofaorth, 4, "gf:4"), (ofaorth, 4, "prod:(zmod:2;zmod:3)"),
    (ofaorth, 6, "gf:2")],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_batched_invariants_match_the_per_element_reference(mk, r, ring):
    s = sh(mk, r, parse_ring(ring))
    K = s.alg.K
    if (r, ring) == (5, "gf:3"):
        # O(5, F3) has 103,680 elements: a sample of words
        G = _random_words(s, 300, random.Random(5))
    elif (r, ring) in _SLICED:
        G = enumerate_unitary(s)[::97]
    else:
        G = enumerate_unitary(s)
    if mk is ofalin:
        neg = [i for i in s.alg.indices if i < 0]
        pos = [i for i in s.alg.indices if i > 0]
        ref = [(k_det(K, _alpha_matrix(g, neg)), k_det(K, _alpha_matrix(g, pos))) for g in G]
        assert det_linear(G) == ref
        assert sl_member(G) == [d == (K.one(), K.one()) for d in ref]
    elif r % 2 == 0:
        assert dickson_even(G) == [_dickson_reference(g) for g in G]
    else:
        ds = dickson_odd(G)
        assert ds == [_dickson_reference(embed_odd(g)) for g in G]
        assert {K.zero(), K.one()} <= set(ds)


def test_dickson_odd_values():
    s = sh(ofaorth, 3, F3)
    G = enumerate_unitary(s)
    ds = dickson_odd(G)
    assert ds.count(F3.zero()) == 24 and ds.count(F3.one()) == 24
    assert dickson_odd(G[:6]) == ds[:6]


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


def test_actions_refuse_targets_of_another_shape():
    """A target from another algebra, or a coordinate tuple of the wrong
    length, is refused as a shape mismatch is, not multiplied or read."""
    s = sh(ofalin, 2, F3)
    g = enumerate_unitary(s)[5]
    with pytest.raises(StructureError, match="outside"):
        act_projective(g, ofasymp(2, F3).e(1, 1))
    for u in (s.zero()[1:], s.zero() + (F3.zero(),)):
        with pytest.raises(StructureError, match="coordinates"):
            act_projective_delta(g, u)
        with pytest.raises(StructureError, match="coordinates"):
            sigma_linear(s).on_delta(u)


def test_coordinate_reads_refuse_entries_off_the_ring():
    """A coordinate entry of the wrong width or out of range is refused by
    every one-row read of the pair law, as a tuple of the wrong length
    is: not reshaped into numpy's ValueError, nor read modulo its slot."""
    for s, bad in ((sh(ofalin, 2, F3), ((1, 2), (5,), (3,), (-1,))),
                   (sh(ofalin, 1, parse_ring("prod:(zmod:2;zmod:3)")), ((1,), (1, 3), (2, 0)))):
        g, zero, a, one = enumerate_unitary(s)[-1], s.zero(), s.alg.e(1, 1), s.alg.K.one()
        for c in bad:
            for u in ((c,) * s.dim, (c,) + zero[1:], zero[:-1] + (c,)):
                for call in (lambda: to_pair(s, u), lambda: s.add(u, zero),
                             lambda: s.add(zero, u), lambda: s.neg(u),
                             lambda: s.act(u, a, one), lambda: act_projective_delta(g, u)):
                    with pytest.raises(StructureError, match="bad element"):
                        call()


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
    assert sum(sl_member(P)) == 6


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


def test_json_readers_take_only_what_the_writers_write():
    """A float, a bool or a string where an int goes, an unknown key, a
    missing key, a list for an object and a short entry are each refused
    with StructureError, by every reader that meets them."""
    s = sh(ofaorth, 3, F3)
    g = enumerate_unitary(s)[17]
    data = json.loads(json.dumps(unitary_to_json(g)))
    beta, gamma = data["beta"], data["gamma"]
    assert beta and gamma["q"]
    readers = (lambda b, c: alg_el_from_json(s.alg, b), lambda b, c: delta_from_json(s, c),
               lambda b, c: unitary_from_json(s, {"beta": b, "gamma": c}))
    for v in (1.9, True, "1"):
        for field in ("i", "c"):
            bad = json.loads(json.dumps(beta))
            bad[0][field] = [v] if field == "c" else v
            for read in (readers[0], readers[2]):
                with pytest.raises(StructureError):
                    read(bad, gamma)
        for at in (0, -1):
            bad = json.loads(json.dumps(gamma))
            bad["q"][0][at] = [v] if at == -1 else v
            for read in readers[1:]:
                with pytest.raises(StructureError):
                    read(beta, bad)
    for payload in ({"x": 1}, {}, [1], {"q": [[1, 1]]}):
        for read in (lambda p: alg_el_from_json(s.alg, p), lambda p: delta_from_json(s, p),
                     lambda p: unitary_from_json(s, p)):
            with pytest.raises(StructureError):
                read(payload)
    with pytest.raises(StructureError):
        alg_el_from_json(s.alg, beta + beta[:1])
    with pytest.raises(StructureError):
        delta_from_json(s, dict(gamma, q=gamma["q"] + gamma["q"][:1]))
    other = json.loads(json.dumps(unitary_to_json(enumerate_unitary(s)[18])))["gamma"]
    with pytest.raises(StructureError, match="not unitary"):
        unitary_from_json(s, {"beta": beta, "gamma": other})


def _closure_reference(gens, cap=1 << 20):
    """The per-element closure that generate_subgroup batches: right
    multiplication by each generator, breadth first, keyed by El.key;
    the elements sorted by key."""
    if not gens:
        raise StructureError("empty generating set")
    e = u_identity(gens[0].shape)
    seen = {e.key: e}
    frontier = [e]
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = u_mul(g, s)
                if h.key not in seen:
                    seen[h.key] = h
                    fresh.append(h)
                    if len(seen) > cap:
                        raise CapacityError("closure exceeded %d elements" % cap)
        frontier = fresh
    return sorted(seen.values(), key=lambda g: g.key)


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
            if i < j and i != -j and (i, j) in alg.basis_set:
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
    ref = _closure_reference(_parabolic_generators_reference(s))
    assert [g.key for g in parabolic_p(s)] == [g.key for g in ref]


CLOSURE_SHAPES = (sh(ofasymp, 2, F3), sh(ofasymp, 2, Z4), sh(ofaorth, 3, Z4),
                  sh(ofaorth, 4, F2), sh(ofalin, 2, parse_ring("prod:(zmod:2;zmod:3)")))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLOSURE_SHAPES), st.lists(st.integers(0, 1 << 20), min_size=1,
                                                 max_size=4))
def test_closure_on_arrays_matches_the_per_element_closure(s, picks):
    """Random generators of small enumerated groups: the same elements in
    the same key order; a cap below the closure size refuses."""
    G = enumerate_unitary(s)
    gens = [G[p % len(G)] for p in picks]
    ref = _closure_reference(gens)
    got = generate_subgroup(gens)
    assert [g.key for g in got] == [g.key for g in ref]
    import ofa.unitary as un

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(un, "_CLOSURE_CAP", len(ref))
        assert len(generate_subgroup(gens)) == len(ref)
        if len(ref) > 1:
            mp.setattr(un, "_CLOSURE_CAP", len(ref) - 1)
            with pytest.raises(CapacityError,
                               match="^closure exceeded %d elements$" % (len(ref) - 1)):
                generate_subgroup(gens)
    other = u_identity(sh(ofaorth, 2, F3))  # a shape of none of the groups
    for mixed in (gens + [other], [other] + gens):
        with pytest.raises(StructureError, match="shape mismatch"):
            generate_subgroup(mixed)


# short transvections on the first two, ultrashort ones on the rest
ADDITIVE_SHAPES = (sh(ofalin, 2, parse_ring("gf:4")), sh(ofaorth, 4, parse_ring("gf:4")),
                   sh(ofasymp, 2, Z4), sh(ofasymp, 2, parse_ring("gf:4")), sh(ofasymp, 4, F2),
                   sh(ofaorth, 3, F2), sh(ofaorth, 3, Z4), sh(ofaorth, 3, F3))


def test_transvections_are_additive():
    """X_ij(x) X_ij(y) = X_ij(x + y) and T_j(u) T_j(v) = T_j(u + v), the
    laws that let the parabolic take its generators at generating sets."""
    gf4 = parse_ring("gf:4")
    for s in ADDITIVE_SHAPES[:2]:
        alg = s.alg
        for (i, j) in ((1, 2), (-2, -1)):
            if (i, j) not in alg.basis_set:
                continue
            X = {c: transvection_short(s, i, j, alg.e(i, j, c)) for c in gf4.elements()}
            assert all(X[c].gamma == _short_gamma(s, i, j, alg.e(i, j, c)) for c in X)
            for x in gf4.elements():
                for y in gf4.elements():
                    assert u_mul(X[x], X[y]).key == X[gf4.add(x, y)].key
    for s in ADDITIVE_SHAPES[2:]:
        K, nq = s.alg.K, len(s.q_pairs)
        for j in range(1, s.alg.n + 1):
            us = {s.act(s.zero()[:nq] + vec, s.alg.e(j, j), K.zero())
                  for vec in itertools.product(K.elements(), repeat=s.dim - nq)}
            T = {u: transvection_ultrashort(s, j, u) for u in us}
            assert all(T[u].gamma == _ultrashort_gamma(s, j, u) for u in us)
            for u in us:
                for v in us:
                    assert u_mul(T[u], T[v]).key == T[s.add(u, v)].key, s.tag


def _short_gamma(shape, i, j, x):
    """Reference gamma of X_ij(x): q_i . x - q_-j . bar(x) - phi(x)."""
    alg, zero = shape.alg, shape.alg.K.zero()
    return shape.add(shape.add(shape.act(gen_q(shape, i), x, zero),
                               shape.neg(shape.act(gen_q(shape, -j), alg.conj(x), zero))),
                     shape.neg(shape.phi(x)))


def _ultrashort_gamma(shape, i, u):
    """Reference gamma of T_i(u), (p, r) the pair of u:
    u - phi(r + p) + q_-i . (r - bar(p))."""
    alg = shape.alg
    p, r = to_pair(shape, u)
    return shape.add(shape.add(u, shape.neg(shape.phi(alg.add(r, p)))),
                     shape.act(gen_q(shape, -i), alg.sub(r, alg.conj(p)), alg.K.zero()))


def _dilation_gamma(shape, i, a):
    """Reference gamma of the dilation by the corner unit a = c e_ii:
    q_-i . (c^-1 - 1) e_-i-i + q_i . (a - e_ii) - phi(a - e_ii)."""
    alg, K = shape.alg, shape.alg.K
    am = alg.sub(a, alg.e(i, i))
    cinv = alg.e(-i, -i, K.try_invert(a.coeff(i, i)))
    return shape.add(shape.add(shape.act(gen_q(shape, -i), alg.sub(cinv, alg.e(-i, -i)), K.zero()),
                               shape.act(gen_q(shape, i), am, K.zero())),
                     shape.neg(shape.phi(am)))


def _generator_walk(shape):
    """(generator, reference gamma or None) in parabolic_generators'
    order over the standard family: the identity and the middle corners
    carry no reference."""
    import ofa.unitary as un

    alg, K = shape.alg, shape.alg.K
    ranks = range(1, alg.n + 1)
    walk = [(u_identity(shape), None)]
    walk += [(dilation(shape, i, alg.e(i, i, c)), _dilation_gamma(shape, i, alg.e(i, i, c)))
             for i in ranks for c in K.units()]
    if 0 in alg.indices:
        walk += [(g, None) for g in (u_try(shape, alg.e(0, 0, c)) for c in K.elements()) if g]
    span = sorted({s for i in ranks for s in (i, -i)})
    walk += [(transvection_short(shape, i, j, alg.e(i, j, b)),
              _short_gamma(shape, i, j, alg.e(i, j, b)))
             for i in span for j in span if i < j and i != -j and (i, j) in alg.basis_set
             for b in _basis(K)]
    if alg.kind != "lin":
        for j in ranks:
            seen = {shape.zero()}
            for x in un._delta_slot_generators(shape, range(len(shape.q_pairs), shape.dim)):
                u = shape.act(x, alg.e(j, j), K.zero())
                if u not in seen:
                    seen.add(u)
                    walk.append((transvection_ultrashort(shape, j, u),
                                 _ultrashort_gamma(shape, j, u)))
    return walk


@pytest.mark.parametrize("s", [DeltaShape(family_algebra(f, n, parse_ring(r)))
                               for f, n, r in PARABOLIC_CASES] + list(ADDITIVE_SHAPES),
                         ids=lambda s: s.tag)
def test_generators_from_beta_carry_the_reference_gamma(s):
    """The generators are admitted from their beta alone; the gamma each
    reads back is the one the hand-built formulas give."""
    gens, walk = parabolic_generators(s), _generator_walk(s)
    assert [g.key for g in gens] == [g.key for g, _ in walk]
    for g, (_, ref) in zip(gens, walk):
        assert ref is None or g.gamma == ref


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
