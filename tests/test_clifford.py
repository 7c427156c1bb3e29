import hashlib
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofa.clifford as cf
import ofa.coeff_ring as cr
from ofa.cli import main as cli_main
from ofa.coeff_ring import ZMod, GaloisField, StructureError, parse_ring
from ofa.form_ring import ofaorth
from ofa.linalg import k_det, k_identity
from ofa.clifford import (
    CliffEl,
    CliffordAlg,
    center_split_idempotent,
    clif0_center,
    clif0_image,
    clif0_relation_check,
    clif_from_json,
    clif_to_json,
    hermitian_basis,
    htr,
    is_even,
    reversal,
    spin_group,
    spin_member,
    try_invert,
    vector_rep,
)

F2 = ZMod(2)
F3 = ZMod(3)


def test_monomial_dims():
    for n in range(6):
        assert CliffordAlg(n, F2).dim == 2 ** n


def test_gram_relations():
    c = CliffordAlg(2, F3)
    e1, em1 = c.gen(1), c.gen(-1)
    assert c.add(c.mul(e1, em1), c.mul(em1, e1)) == c.one()
    assert c.mul(e1, e1) == c.zero()
    codd = CliffordAlg(3, F3)
    assert codd.mul(codd.gen(0), codd.gen(0)) == codd.one()


def test_mul_associative_sampled():
    import random

    rng = random.Random(5)
    c = CliffordAlg(3, F3)
    for _ in range(40):
        x, y, z = (c.from_coords([(rng.randrange(3),) for _ in range(c.dim)])
                   for _ in range(3))
        assert c.mul(c.mul(x, y), z) == c.mul(x, c.mul(y, z))


def test_reversal_antiautomorphism():
    import random

    rng = random.Random(7)
    c = CliffordAlg(3, F3)
    assert reversal(c.mul(c.gen(1), c.gen(-1))) == c.mul(c.gen(-1), c.gen(1))
    for _ in range(30):
        x = c.from_coords([(rng.randrange(3),) for _ in range(c.dim)])
        y = c.from_coords([(rng.randrange(3),) for _ in range(c.dim)])
        assert reversal(c.mul(x, y)) == c.mul(reversal(y), reversal(x))
        assert reversal(reversal(x)) == x


def test_invert():
    c = CliffordAlg(2, F3)
    u = c.add(c.one(), c.mul(c.gen(1), c.gen(-1)))
    v = try_invert(u)
    assert v is not None and c.mul(u, v) == c.one()
    assert try_invert(c.gen(1)) is None  # squares to q(e1) = 0, a zero divisor
    assert try_invert(c.add(c.gen(1), c.gen(-1))) is not None
    assert try_invert(c.zero()) is None


def test_spin_3_f3_order_and_kernel():
    sg = spin_group(3, F3)
    assert len(sg) == 24
    ident = k_identity(F3, 3)
    kernel = [u for u in sg if vector_rep(u) == ident]
    assert len(kernel) == 2
    alg = sg[0].alg
    assert alg.neg(alg.one()) in kernel and alg.one() in kernel
    for u in sg[::5]:
        m = vector_rep(u)
        assert k_det(F3, m) == F3.one()


def test_vector_rep_preserves_form():
    sg = spin_group(3, F3)
    labels = sg[0].alg.labels
    bmat = [[sg[0].alg.bform(a, b) for b in labels] for a in labels]
    for u in sg[::4]:
        m = vector_rep(u)
        for a in range(3):
            for b in range(3):
                val = F3.zero()
                for s in range(3):
                    for t in range(3):
                        val = F3.add(val, F3.mul(F3.mul(m[s][a], bmat[s][t]), m[t][b]))
                assert val == bmat[a][b]


def test_spin_membership_edges():
    c = CliffordAlg(3, F3)
    assert spin_member(c.one())
    assert vector_rep(c.one()) == k_identity(F3, 3)
    assert not spin_member(c.gen(1))     # odd degree
    assert spin_member(c.smul(2, c.one()))  # -1, central unit with rev fixed


def test_htr_values():
    alg = ofaorth(4, F3)
    assert htr(alg.add(alg.e(1, 1), alg.e(-1, -1))) == F3.one()
    assert htr(alg.add(alg.e(1, 2), alg.e(-2, -1))) == F3.zero()
    assert htr(alg.e(1, -1)) == F3.zero()
    odd = ofaorth(3, F3)
    assert htr(odd.e(0, 0)) == F3.one()
    with pytest.raises(StructureError):
        htr(alg.e(1, 2))


def test_htr_trace_identity():
    alg = ofaorth(4, F3)
    import random

    rng = random.Random(3)
    for _ in range(25):
        x = alg.sample(rng)
        y = alg.add(x, x.bar())
        tr = F3.zero()
        for i in alg.indices:
            tr = F3.add(tr, x.coeff(i, i))
        assert htr(y) == tr


def test_relation_check_even():
    for K in (F2, F3):
        for r in (2, 4):
            rep = clif0_relation_check(r, K)
            assert rep["pass"], rep
            assert rep["rel1"]["failed"] == 0 and rep["rel2"]["failed"] == 0
            assert rep["rel1"]["adjusted"] == 0 and rep["rel2"]["adjusted"] == 0


def test_relation_check_odd_reports():
    rep = clif0_relation_check(3, F3)
    assert rep["rel1"]["failed"] == 0 and rep["rel2"]["failed"] == 0
    assert rep["pass"]


def test_realization_doubles_middle_zero_products():
    # the presentation relations hold, but the realization is not
    # multiplicative across the doubled middle index of the odd preset
    alg = ofaorth(3, F3)
    clif = CliffordAlg(3, F3)
    x, y = alg.e(1, 0), alg.e(0, 1)
    prod_image = clif0_image(clif, alg.mul(x, y))
    image_prod = clif.mul(clif0_image(clif, x), clif0_image(clif, y))
    assert prod_image == clif.smul(2, image_prod)


def test_center_rank_two():
    for K in (F2, F3):
        for r in (2, 4):
            one, om = clif0_center(r, K)
            clif = one.alg
            assert is_even(om)
            for a in clif.labels:
                for b in clif.labels:
                    g = clif.word((a, b))
                    assert clif.mul(om, g) == clif.mul(g, om)
            z = center_split_idempotent([one, om])
            assert clif.mul(z, z) == z and z != clif.zero() and z != clif.one()


def test_hermitian_basis_shape():
    alg = ofaorth(4, F2)
    basis = hermitian_basis(alg)
    assert all(x == x.bar() for x in basis)
    assert len(basis) == 10  # dim of the fixed space of the involution on 16


def test_json_roundtrip():
    c = CliffordAlg(3, F3)
    x = c.add(c.word((1, 0, -1)), c.smul(2, c.one()))
    assert clif_from_json(c, clif_to_json(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from(("zmod:3", "zmod:4", "gf:4")),
       st.integers(0, 2 ** 32 - 1))
def test_json_roundtrip_property(r, name, seed):
    import json

    c = CliffordAlg(r, parse_ring(name))
    rng = random.Random(seed)
    kel = list(c.K.elements())
    x = c.from_coords([kel[rng.randrange(len(kel))] for _ in range(c.dim)])
    assert clif_from_json(c, json.loads(json.dumps(clif_to_json(x)))) == x


# ---- the product table and the batched spin scan against reference loops

RINGS = ("zmod:2", "zmod:3", "zmod:4", "gf:4", "prod:(zmod:2;zmod:3)")


def _ref_reduce(alg, word, coeff, out):
    """Word rewriting in K, one generator word at a time: the reference
    for the integer product table."""
    K = alg.K
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        if K.is_zero(c):
            continue
        spot = next((t for t in range(len(w) - 1) if w[t] >= w[t + 1]), None)
        if spot is None:
            acc = K.add(out.get(w, K.zero()), c)
            if K.is_zero(acc):
                out.pop(w, None)
            else:
                out[w] = acc
            continue
        a, b = w[spot], w[spot + 1]
        rest = w[:spot] + w[spot + 2:]
        if a == b:
            # q(e_a) = [a == 0]
            stack.append((rest, c if a == 0 else K.zero()))
        else:
            # B(e_a, e_b) = [a == -b] off the diagonal
            stack.append((w[:spot] + (b, a) + w[spot + 2:], K.neg(c)))
            stack.append((rest, c if a == -b else K.zero()))


def _ref_mul(x, y):
    alg, out = x.alg, {}
    for sx, cx in x.c.items():
        for sy, cy in y.c.items():
            _ref_reduce(alg, sx + sy, alg.K.mul(cx, cy), out)
    return CliffEl(alg, out)


def _ref_reversal(x):
    out = {}
    for s, c in x.c.items():
        _ref_reduce(x.alg, tuple(reversed(s)), c, out)
    return CliffEl(x.alg, out)


def _ref_spin_scan(r, K):
    """The per-element scan: spin_member on every even coefficient row."""
    alg = CliffordAlg(r, K)
    ebasis = alg.even_basis()
    out = []
    for vec in itertools.product(K.elements(), repeat=len(ebasis)):
        u = CliffEl(alg, {s: v for s, v in zip(ebasis, vec) if not K.is_zero(v)})
        if spin_member(u):
            out.append(u)
    return out


def _sparse(alg, rng, support):
    K = alg.K
    mons = rng.sample(alg.basis, min(support, alg.dim))
    return alg.el({s: tuple(rng.randrange(m) for m in K.moduli) for s in mons})


@pytest.mark.parametrize("ring", RINGS)
def test_table_products_match_word_rewriting(ring):
    K = parse_ring(ring)
    for r in range(7):
        alg = CliffordAlg(r, K)
        rng = random.Random(r)
        for _ in range(200):
            x, y = _sparse(alg, rng, 5), _sparse(alg, rng, 5)
            assert alg.mul(x, y) == _ref_mul(x, y), (r, x, y)
            assert reversal(x) == _ref_reversal(x), (r, x)
            if alg.labels:
                letters = [rng.choice(alg.labels) for _ in range(rng.randrange(6))]
                c = tuple(rng.randrange(m) for m in K.moduli)
                out = {}
                _ref_reduce(alg, letters, c, out)
                assert alg.word(letters, c) == CliffEl(alg, out), (r, letters)


@pytest.mark.parametrize("ring,r", [(ring, r) for ring in RINGS for r in range(4)]
                         + [("zmod:2", 4)])
def test_spin_group_matches_reference_loop(ring, r):
    K = parse_ring(ring)
    group = spin_group(r, K)
    assert list(group) == _ref_spin_scan(r, K)
    assert len(group.vectors) == len(group)
    for u, m in zip(group, group.vectors):
        assert m == vector_rep(u)


def test_degree_one_mask_rejects_norm_one_units():
    # up to rank 5 every even u with u ubar = 1 is spin, so the scans
    # above never exercise the last mask.  At rank 6 over Z/7 the central
    # z = 3 + vol has z zbar = 1 (vol^2 = 1, volbar = -vol), but
    # conjugation sends v to v (a^2 + b^2 - 2ab vol), which leaves V.
    K = ZMod(7)
    alg = CliffordAlg(6, K)
    vol = alg.one()
    for i in (1, 2, 3):
        vol = alg.mul(vol, alg.sub(alg.smul(2, alg.word((i, -i))), alg.one()))
    z = alg.add(alg.scalar((3,)), vol)
    assert alg.mul(z, reversal(z)) == alg.one() and not spin_member(z)
    cands = [alg.one(), z, alg.smul(-1, alg.one())]
    U = np.array([[list(u.coeff(s)) for s in alg.even_basis()] for u in cands])
    kept, mats = cf._SpinScan(alg, cr.SlotRing(K)).survivors(U)
    assert kept.tolist() == U[[0, 2]].tolist()
    assert mats.tolist() == [[[list(c) for c in row] for row in vector_rep(u)]
                             for u in (cands[0], cands[2])]


def _form_ok(alg, mats):
    """Whether every (N, d, d) int matrix over Z/p keeps B and q of the
    split lattice, q read off on the columns."""
    p = alg.K.card
    B = np.array([[alg.bform(a, b)[0] for b in alg.labels] for a in alg.labels])
    q = np.array([alg.qval(a)[0] for a in alg.labels])
    keeps_b = ((np.swapaxes(mats, 1, 2) @ B @ mats - B) % p == 0).all(axis=(1, 2))
    pos = {a: t for t, a in enumerate(alg.labels)}
    qcols = sum(mats[:, pos[a], :] * mats[:, pos[-a], :] for a in alg.labels if a > 0)
    if 0 in pos:
        qcols = qcols + mats[:, pos[0], :] ** 2
    keeps_q = ((qcols - q) % p == 0).all(axis=1)
    return bool((keeps_b & keeps_q).all())


def test_spin4_f3_isogeny_onto_omega():
    group = spin_group(4, F3)
    assert len(group) == 576
    eye = k_identity(F3, 4)
    assert sum(1 for m in group.vectors if m == eye) == 2
    images = sorted(set(group.vectors))
    assert len(images) == 288
    mats = np.array([[[c[0] for c in row] for row in m] for m in images])
    assert _form_ok(group[0].alg, mats)
    assert all(k_det(F3, m) == F3.one() for m in images)


def test_spin5_f2_injective_and_fast():
    t0 = time.perf_counter()
    group = spin_group(5, F2)
    elapsed = time.perf_counter() - t0
    assert len(group) == 720
    assert sum(1 for m in group.vectors if m == k_identity(F2, 5)) == 1
    assert len(set(group.vectors)) == 720
    mats = np.array([[[c[0] for c in row] for row in m] for m in group.vectors])
    assert _form_ok(group[0].alg, mats)
    assert elapsed < 5, elapsed


CLIFFORD_PINNED = (
    ("clifford spin --n 2 --ring gf:3",
     "9d8216a554e659bb4c4ba50d3f6a20683266e938af540360356ed3b1e714efd5"),
    ("clifford spin --n 3 --ring gf:3",
     "621f8f9aa858aa51fe262f1c3d664999c1173b36b7801e5c4b73564a4c48596c"),
    ("clifford spin --n 4 --ring gf:3",
     "f37a04dfbe4ebc434805bb5cf4d7c08dfc60b0a4f56d7b19cb14433cc9ce21ef"),
    ("clifford spin --n 3 --ring zmod:4",
     "a9a85604ab28fa097b3ad8b736c7a5d2704d1a210ec73cc73bfbbb7765aa2c36"),
    ("clifford relations --n 6 --ring zmod:3",
     "1a023f31f523d3feb459a182ec611f2b3d6ba190d791d44b9c2a1f4270b5a5cb"),
    ("clifford center --n 6 --ring zmod:3",
     "9816c785e3422611791bc5776b5b8237c524a304f4109ac13c0a2b5a48e40677"),
)


@pytest.mark.parametrize("argv,digest", CLIFFORD_PINNED)
def test_clifford_report_bytes_pinned(argv, digest, capsys):
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("ring,n,total", [("gf:2", 6, 2 ** 32), ("gf:3", 5, 3 ** 16)])
def test_spin_scan_capacity(ring, n, total, monkeypatch, capsys):
    # no numpy in reach: the cap must trip before any array is built
    monkeypatch.setattr(cf, "np", None)
    monkeypatch.setattr(cr, "np", None)
    assert cli_main(["clifford", "spin", "--n", str(n), "--ring", ring]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: even part scan over %d candidates\n" % total
