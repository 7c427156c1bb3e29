"""Quadratic modules, their form parameters, and the two ring constructions."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.cli import main as cli_main
from ofa.coeff_ring import (
    CapacityError,
    GaloisField,
    Product,
    SlotRing,
    StructureError,
    ZMod,
    const_hom,
    identity_hom,
    parse_ring,
)
from ofa.form_ring import ofaorth, ofasymp
from ofa.linalg import k_identity, k_mat_inv, k_matmul, unflat, vadd, vflat
from ofa.odd_form_param import DeltaShape, gen_q, gen_u, gen_v
from ofa import quad_module
from ofa.quad_module import (
    CanonConstruction,
    HeisElem,
    QuadModule,
    QuadType,
    canon_algebra,
    canon_preset_check,
    canon_relations_check,
    canonical_construction,
    canonical_morphism,
    classical_type,
    enumerate_module_unitary,
    extend_scalars_qm,
    _QuadraticMap,
    _hdet_poly,
    _span_rows,
    hdet,
    heis_add,
    heis_act,
    heis_elem,
    heis_elements,
    heis_neg,
    heis_zero,
    hyperbolic_space,
    iota_theta,
    lminmax_member,
    lparam_member,
    module_check,
    naive_canon_check,
    naive_construction,
    qm_from_json,
    qm_to_json,
    quad_type_check,
    semiregular,
    split_module,
    unitary_of_module,
)
from dict_law import dict_law, walk
from ofa.unitary import group_order
from test_linalg import k_det, mat_tuples

F2, F3, Z4 = ZMod(2), ZMod(3), ZMod(4)
F4 = GaloisField(2, [1, 1, 1])

KINDS = ("linear", "symplectic", "orthogonal")


def test_type_axioms():
    for kind in KINDS:
        for K in (F2, F3, Z4):
            assert quad_type_check(classical_type(kind, K), count=150, seed=1) == []


def test_split_table_oracles():
    M = split_module("orthogonal", 3, F3)
    one = F3.one()
    assert M.qvals[0] == one
    assert M.gram[(0, 0)] == F3.smul(2, one)
    assert M.gram[(1, -1)] == one and M.gram[(-1, 1)] == one
    S = split_module("symplectic", 4, F3)
    assert S.gram[(1, -1)] == one and S.gram[(-1, 1)] == F3.neg(one)
    L = split_module("linear", 2, F3)
    R = L.qtype.R
    assert L.gram[(1, -1)] == R.join((one, F3.zero()))
    assert L.gram[(-1, 1)] == R.join((F3.zero(), one))
    assert L.qtype.l_inv(L.gram[(1, -1)]) == L.gram[(-1, 1)]


def test_module_laws_split():
    for kind, rank, K in (
        ("linear", 2, F3),
        ("symplectic", 2, F2),
        ("symplectic", 4, F3),
        ("orthogonal", 3, F2),
        ("orthogonal", 4, F3),
        ("orthogonal", 3, Z4),
    ):
        assert module_check(split_module(kind, rank, K), count=60, seed=0) == []


def test_module_check_catches_bad_tables():
    qt = QuadType("orthogonal", F3)
    one = F3.one()
    gram = {(1, -1): one, (-1, 1): F3.neg(one)}
    M = QuadModule(qt, 2, gram, {})
    assert any("hermitian" in f for f in module_check(M, count=5, seed=0))
    gram2 = {(1, 1): one}
    M2 = QuadModule(qt, 2, gram2, {})
    assert any("diagonal" in f for f in module_check(M2, count=5, seed=0))


def test_linear_gram_side_split_enforced():
    qt = QuadType("linear", F3)
    one = F3.one()
    # component order is (positive-negative, negative-positive)
    with pytest.raises(StructureError):
        QuadModule(qt, 1, {(1, -1): qt.R.join((F3.zero(), one))}, {})


def test_q_form_values():
    M = split_module("orthogonal", 3, Z4)
    two = Z4.from_int(2)
    assert M.q_form(M.el({0: two})) == Z4.zero()  # scales by the square
    assert M.q_form(M.el({0: Z4.one(), 1: Z4.one()})) == Z4.one()
    m = M.el({1: Z4.one(), -1: Z4.one()})
    assert M.q_form(m) == Z4.one()  # the cross pairing contributes B(e1, e-1)
    assert M.qtype.tr_map(M.q_form(m)) == M.b_form(m, m)


def test_hyperbolic_space_equals_split():
    for kind in KINDS:
        for K in (F2, F3):
            for p in (1, 2):
                H = hyperbolic_space(kind, K, p)
                S = split_module(kind, 2 * p, K)
                assert H.gram == S.gram and H.qvals == S.qvals


def test_heis_group_laws():
    M = split_module("orthogonal", 3, F2)
    hs = heis_elements(M)
    rng = random.Random(0)
    for _ in range(60):
        a, b, c = (hs[rng.randrange(len(hs))] for _ in range(3))
        assert heis_add(M, heis_add(M, a, b), c) == heis_add(M, a, heis_add(M, b, c))
        assert heis_add(M, a, heis_neg(M, a)) == heis_zero(M)
        assert heis_add(M, a, heis_zero(M)) == a
    rels = list(M.qtype.R.elements())
    for _ in range(40):
        a, b = hs[rng.randrange(len(hs))], hs[rng.randrange(len(hs))]
        r = rels[rng.randrange(len(rels))]
        assert heis_act(M, heis_add(M, a, b), r) == heis_add(
            M, heis_act(M, a, r), heis_act(M, b, r)
        )


def test_form_parameter_sandwich():
    cases = [
        ("symplectic", 2, F2, (1, 8, 8)),
        ("orthogonal", 2, F2, (1, 4, 8)),
        ("linear", 1, F3, (3, 27, 27)),
        ("orthogonal", 3, F2, (1, 8, 16)),
    ]
    for kind, rank, K, counts in cases:
        M = split_module(kind, rank, K)
        hs = heis_elements(M)
        lmin = {h.key for h in hs if lminmax_member(M, h, "min")}
        lpar = [h for h in hs if lparam_member(M, h)]
        lmax = {h.key for h in hs if lminmax_member(M, h, "max")}
        keys = {h.key for h in lpar}
        assert (len(lmin), len(lpar), len(lmax)) == counts
        assert lmin <= keys <= lmax
        rels = list(M.qtype.R.elements())
        for a in lpar:
            assert lparam_member(M, heis_neg(M, a))
            for r in rels:
                assert lparam_member(M, heis_act(M, a, r))
            for b in lpar:
                assert lparam_member(M, heis_add(M, a, b))


def test_hdet_split_oracles():
    M = split_module("orthogonal", 3, F3)
    assert hdet(M) == F3.from_int(-1)
    assert semiregular(M)
    M2 = split_module("orthogonal", 3, F2)
    assert hdet(M2) == F2.one()
    assert semiregular(M2)
    # the bilinear determinant is singular mod 2; the halved one is not
    G = [[M2.gram.get((a, b), F2.zero()) for b in M2.labels] for a in M2.labels]
    assert k_det(F2, G) == F2.zero()
    M1 = QuadModule(
        QuadType("orthogonal", F3),
        1,
        {(0, 0): F3.from_int(2)},
        {0: F3.one()},
    )
    assert hdet(M1) == F3.one()  # rank one reduces to the q value


def test_hdet_double_is_det():
    rng = random.Random(7)
    for K in (F3, Z4, ZMod(5)):
        kel = list(K.elements())
        qt = QuadType("orthogonal", K)
        for _ in range(6):
            labels = (-1, 0, 1)
            q = {a: kel[rng.randrange(len(kel))] for a in labels}
            gram = {}
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    v = kel[rng.randrange(len(kel))]
                    gram[(a, b)] = v
                    gram[(b, a)] = v
            for a in labels:
                gram[(a, a)] = K.smul(2, q[a])
            M = QuadModule(qt, 3, gram, q)
            G = [[M.gram.get((a, b), K.zero()) for b in labels] for a in labels]
            assert K.smul(2, hdet(M)) == k_det(K, G)


def _int_det(A):
    """Exact determinant of an integer matrix by Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in A]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return 0
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    assert det.denominator == 1
    return int(det)


def test_hdet_poly_is_half_the_integer_det():
    assert [len(_hdet_poly(n)) for n in (1, 3, 5)] == [1, 5, 73]
    rng = random.Random(11)
    for n in (1, 3, 5):
        for _ in range(20):
            q = [rng.randrange(-9, 10) for _ in range(n)]
            b = {(i, j): rng.randrange(-9, 10) for i in range(n) for j in range(i + 1, n)}
            G = [[2 * q[i] if i == j else b[(min(i, j), max(i, j))] for j in range(n)]
                 for i in range(n)]
            point = q + [b[k] for k in sorted(b)]
            value = 0
            for monom, c in _hdet_poly(n):
                term = c
                for x, e in zip(point, monom):
                    term *= x ** e
                value += term
            assert 2 * value == _int_det(G)


def test_hdet_guards():
    with pytest.raises(StructureError):
        hdet(split_module("orthogonal", 4, F3))
    with pytest.raises(StructureError):
        hdet(split_module("symplectic", 2, F3))


def test_extend_scalars():
    M = split_module("symplectic", 2, F2)
    ME = extend_scalars_qm(M, const_hom(F4))
    assert module_check(ME, count=40, seed=0) == []
    assert ME.gram == split_module("symplectic", 2, F4).gram
    MO = extend_scalars_qm(split_module("orthogonal", 3, F2), const_hom(F4))
    assert MO.qvals == split_module("orthogonal", 3, F4).qvals
    MI = extend_scalars_qm(M, identity_hom(F2))
    assert MI.gram == M.gram and MI.qvals == M.qvals


def test_json_roundtrip():
    for kind, rank, K in (("orthogonal", 3, F3), ("linear", 2, F3), ("symplectic", 2, F2)):
        M = split_module(kind, rank, K)
        M2 = qm_from_json(qm_to_json(M))
        assert M2.gram == M.gram and M2.qvals == M.qvals and M2.rank == M.rank
    with pytest.raises(StructureError):
        QuadModule(QuadType("orthogonal", F3), 2, {(5, 5): F3.one()}, {})


def test_unitary_of_module_validation():
    M = split_module("orthogonal", 2, F3)
    ident = k_identity(F3, 2)
    assert unitary_of_module(M, ident) == ident
    swap = ((F3.zero(), F3.one()), (F3.one(), F3.zero()))
    assert unitary_of_module(M, swap) == swap
    with pytest.raises(StructureError):
        unitary_of_module(M, ((F3.one(), F3.one()), (F3.zero(), F3.one())))


def test_module_unitary_orders():
    assert len(enumerate_module_unitary(split_module("orthogonal", 3, F3))) == 48
    assert len(enumerate_module_unitary(split_module("symplectic", 2, F2))) == 6
    assert len(enumerate_module_unitary(split_module("symplectic", 2, F3))) == 24
    assert len(enumerate_module_unitary(split_module("orthogonal", 2, F3))) == 4
    assert len(enumerate_module_unitary(split_module("linear", 1, F3))) == 2
    assert len(enumerate_module_unitary(split_module("linear", 2, F2))) == 6


def test_adjoint_ring_structure():
    M = split_module("symplectic", 2, F3)
    N = naive_construction(M)
    ts = _t_elements(N)
    assert len(ts) == N.t_card() == 81
    # over a regular pairing each endomorphism has a unique adjoint
    assert len({y for _, y in ts}) == 81
    ident = k_identity(F3, 2)
    assert N.t_member(ident, ident)
    rng = random.Random(1)
    for _ in range(30):
        x1, y1 = ts[rng.randrange(len(ts))]
        x2, y2 = ts[rng.randrange(len(ts))]
        # composition pairs adjoints contravariantly
        assert N.t_member(k_matmul(F3, x2, x1), k_matmul(F3, y1, y2))
        assert N.t_member(y1, x1)  # the involution swaps the slots


def test_xi_counts_and_membership():
    M = split_module("symplectic", 2, F3)
    N = naive_construction(M)
    C = canonical_construction(M)
    assert N.xi_card() == C.card() == 2187
    count = 0
    for t, s in _xi_elements(N):
        assert N.xi_member(t, s)
        count += 1
        if count >= 50:
            break
    (x, y), (z, w) = next(_xi_elements(N))
    w2 = list(list(r) for r in w)
    w2[0][0] = F3.add(w2[0][0], F3.one())
    assert not N.xi_member((x, y), (z, tuple(tuple(r) for r in w2)))


def test_naive_unitary_matches_module_scan():
    for kind, rank, K in (
        ("symplectic", 2, F3),
        ("orthogonal", 2, F3),
        ("orthogonal", 3, F2),
        ("linear", 2, F2),
    ):
        M = split_module(kind, rank, K)
        assert mat_tuples(naive_construction(M).unitary_elements()) == mat_tuples(
            enumerate_module_unitary(M))


def test_tensor_square_ring():
    M = split_module("orthogonal", 3, F3)
    S = canon_algebra(M)
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = S.sample(rng), S.sample(rng), S.sample(rng)
        assert S.mul(S.mul(a, b), c) == S.mul(a, S.mul(b, c))
        assert S.conj(S.mul(a, b)) == S.mul(S.conj(b), S.conj(a))
        assert S.conj(S.conj(a)) == a
    # contracting through the middle label doubles
    assert S.mul(S.e(1, 0), S.e(0, -1)) == S.el({(1, -1): F3.from_int(2)})
    S2 = canon_algebra(split_module("orthogonal", 3, F2))
    assert S2.mul(S2.e(1, 0), S2.e(0, -1)) == S2.zero()


def test_theta_pair_roundtrip():
    M = split_module("orthogonal", 2, F2)
    C = canonical_construction(M)
    for th in C.elements():
        p, r = C.to_pair(th)
        assert C.read(p, r) == th
    rng = random.Random(3)
    for kind, rank, K in (("symplectic", 2, F3), ("linear", 2, F3), ("orthogonal", 3, F3)):
        Cx = canonical_construction(split_module(kind, rank, K))
        for _ in range(40):
            th = Cx.sample(rng)
            p, r = Cx.to_pair(th)
            assert Cx.read(p, r) == th


def test_theta_group_laws():
    M = split_module("symplectic", 2, F3)
    C = canonical_construction(M)
    rng = random.Random(4)
    z = C.read(C.S.zero(), C.S.zero())
    for _ in range(40):
        a, b, c = C.sample(rng), C.sample(rng), C.sample(rng)
        assert C.add(C.add(a, b), c) == C.add(a, C.add(b, c))
        assert C.add(a, C.neg(a)) == z
        assert C.add(z, a) == a


def test_theta_coordinates_of_an_ordered_sum_of_slot_boxes():
    """A Theta coordinate vector names the sum, in slot order, of one box
    per free slot t plus phi of its cross part.  So a sum of boxes
    u_t (x) e_t with l_t = canonical_l(m_t) reads back with a zero
    augmentation part: no l slot and no cross coordinate."""
    rng = random.Random(5)
    for kind, rank, K in (("symplectic", 2, F3), ("linear", 2, F3),
                          ("orthogonal", 2, F3), ("orthogonal", 3, F3)):
        M = split_module(kind, rank, K)
        C = canonical_construction(M)
        for _ in range(20):
            x = C.read(C.S.zero(), C.S.zero())
            p = C.S.zero()
            for t in C.n_labels:
                m = M.sample(rng)
                x = C.add(x, C.box(heis_elem(M, m, C.canonical_l(m)),
                                   {t: M.qtype.R.one()}))
                p = C.S.add(p, C.col(m, t))
            assert C.to_pair(x)[0] == p
            assert all(K.is_zero(c) for c in x[len(C.pi_pos):]), kind


def test_box_relations():
    for kind, rank, K in (
        ("linear", 2, F3),
        ("symplectic", 2, F3),
        ("orthogonal", 2, F3),
        ("orthogonal", 3, F2),
    ):
        assert canon_relations_check(split_module(kind, rank, K), count=60, seed=0) == []


def _relations_reference(C, count, seed):
    """The per-element loop canon_relations_check ran before its laws
    became array passes: each of walk's samples, chunk by chunk as
    relations_check draws them, through El dicts, box and the dict law.
    A sample's indices are, in order: per left factor one into K per
    label and, off the orthogonal kind, one more (into R for the
    symplectic l, into K for the linear d); a coin per free slot and an
    index into R per free slot (n keeps it where the coin is 1); r, k and
    l; one index into K per pair of S."""
    C = dict_law(C)
    M_, qt, K = C.M, C.qtype, C.K
    rels = list(qt.R.elements())
    kel = list(K.elements())
    nl, nt, nr = len(M_.labels), len(C.n_labels), len(rels)
    w = nl + (qt.kind != "orthogonal")
    sizes = ([len(kel)] * 2 * w + [2] * nt + [nr] * nt + [nr, len(kel), nr]
             + [len(kel)] * len(C.S.pairs))
    chunk = quad_module._CHUNK
    cols = [col for start in range(0, count, chunk)
            for col in walk([seed, start], sizes, min(chunk, count - start))]
    bad = set()
    for col in cols:
        nxt = iter(col).__next__

        def lpar():
            m = M_.el({a: kel[nxt()] for a in M_.labels})
            q = M_.q_form(m)
            if qt.kind == "symplectic":
                l = rels[nxt()]
            elif qt.kind == "orthogonal":
                l = K.neg(q)
            else:
                d = kel[nxt()]
                l = qt.R.join((d, K.sub(K.neg(q), d)))
            return HeisElem(M_, m, l)

        u, u2 = lpar(), lpar()
        coins = [nxt() for _ in C.n_labels]
        n = {t: rels[nxt()] for t in C.n_labels}
        n = {t: v for (t, v), coin in zip(n.items(), coins) if coin}
        r, k, l = rels[nxt()], kel[nxt()], rels[nxt()]
        s = C.S.from_coords([kel[nxt()] for _ in C.S.pairs])
        if C.box(heis_add(M_, u, u2), n) != C.add(C.box(u, n), C.box(u2, n)):
            bad.add("box additive on the left")
        rn = {t: qt.R.mul(r, v) for t, v in n.items()}
        if C.box(heis_act(M_, u, r), n) != C.box(u, rn):
            bad.add("box balanced over R")
        # phi of a sandwich matches the box of a trace-zero pair
        h = HeisElem(M_, {}, qt.l_sub(l, qt.l_inv(l)))
        x = C.S.zero()
        for t, rt in n.items():
            for s2, rs in n.items():
                x = C.S.add(x, C.f_embed(t, s2, qt.l_sand(rt, l, rs)))
        if C.box(h, n) != C.phi(x):
            bad.add("box of a trace-zero pair")
        nk = {t: qt.R.mul(v, qt.k_lift(k)) for t, v in n.items()}
        if C.act(C.box(u, n), C.S.zero(), k) != C.box(u, nk):
            bad.add("scalar action on a box")
        if C.act(C.phi(s), C.S.zero(), k) != C.phi(C.S.kmul(K.mul(k, k), s)):
            bad.add("scalar action on phi")
        if C.to_pair(C.phi(s))[0]:
            bad.add("phi lands in the augmentation part")
    return sorted(bad)


def _outcome(check, C, count, seed):
    """The failure list, or the exception and the text before its first
    colon: the per-element refusal names the pair, the batch one does not."""
    try:
        return check(C, count, seed)
    except (StructureError, AssertionError) as exc:
        return type(exc).__name__, str(exc).split(":")[0]


def _batched(C, count, seed):
    return C.relations_check(count, seed)


_REL_RINGS = ("zmod:3", "zmod:4", "gf:4", "prod:(zmod:2;zmod:3)", "zmod:9")


@pytest.mark.parametrize("kind,rank", [("linear", r) for r in (2, 3, 4, 5)]
                         + [("symplectic", 2), ("symplectic", 4)]
                         + [("orthogonal", r) for r in (2, 3, 4, 5)])
def test_relations_check_matches_the_per_element_loop(kind, rank):
    for name in _REL_RINGS:
        C = canonical_construction(split_module(kind, rank, parse_ring(name)))
        for seed in range(4):
            count = 2 + seed
            assert C.relations_check(count, seed) == _relations_reference(C, count, seed) == []


def _corrupted(M):
    """The module's construction with S multiplying through minus its
    contraction weights: every pair stays on the table, and over the
    symplectic kind the box stops being additive on the left."""
    C = canonical_construction(M)
    C.S.contract = {j: tuple((k, M.K.neg(f)) for k, f in row) for j, row in C.S.contract.items()}
    return C


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_REL_RINGS),
       st.sampled_from((("linear", 1), ("linear", 2), ("symplectic", 2), ("orthogonal", 1),
                        ("orthogonal", 2), ("orthogonal", 3))),
       st.sampled_from(("split", "random", "corrupted")),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_relations_check_matches_the_loop_on_drawn_seeds(name, shape, table, seed, count):
    """Equal outcomes on the same draws: the same failures, or the same
    refusal from the first sample that leaves the form parameter
    (StructureError) or the table (AssertionError).  Random tables are
    neither hermitian nor regular, so most refuse; which refusal comes
    first depends on the draws."""
    K, (kind, rank) = parse_ring(name), shape
    M = (_random_module(K, kind, rank, random.Random(seed)) if table == "random"
         else split_module(kind, rank, K))
    C = _corrupted(M) if table == "corrupted" else canonical_construction(M)
    assert _outcome(_batched, C, count, seed) == _outcome(_relations_reference, C, count, seed)


def test_relations_check_draws_as_the_loop_across_chunks(monkeypatch):
    """With chunks of three samples the batched check draws and passes
    over each chunk in turn and gets the answers of the loop, which walks
    the same chunks."""
    chunks = []
    real = quad_module._BoxRows.failures

    def spy(self, D):
        chunks.append(D.T.tolist())
        return real(self, D)

    monkeypatch.setattr(quad_module, "_CHUNK", 3)
    monkeypatch.setattr(quad_module._BoxRows, "failures", spy)
    for kind, rank, name in (("linear", 2, "gf:4"), ("symplectic", 2, "zmod:9"),
                             ("orthogonal", 3, "prod:(zmod:2;zmod:3)")):
        C = canonical_construction(split_module(kind, rank, parse_ring(name)))
        del chunks[:]
        assert C.relations_check(10, 7) == _relations_reference(C, 10, 7) == []
        assert [len(c) for c in chunks] == [3, 3, 3, 1]


def test_relations_check_fails_on_a_corrupted_product():
    """The batched check can fail: S multiplying through -C breaks the
    left additivity of the box on the symplectic kind, and both paths
    name that law."""
    for rank, name in ((2, "zmod:3"), (4, "zmod:3"), (2, "zmod:9"), (2, "gf:3")):
        C = _corrupted(split_module("symplectic", rank, parse_ring(name)))
        assert (C.relations_check(30, 0) == _relations_reference(C, 30, 0)
                == ["box additive on the left"])


class _NoCrossResidue(CanonConstruction):
    """A table whose residue drops -sum_{t<s} conj(col_t) col_s; on rows it
    runs this per-element residue, which the dict law reads too, so both
    paths read the same table."""

    def residue(self, p):
        r = self.S.zero()
        for t in self.n_labels:
            m = {i: p.coeff(i, self.jslot(i, t)) for i in self.M.labels}
            r = self.S.add(r, self.f_embed(t, t, self.canonical_l(m)))
        return r

    def residue_rows(self, P):
        return self.S.to_array([self.residue(p) for p in self.S.from_array(P)])


class _FlippedAug(CanonConstruction):
    """A table whose last augmentation basis element is negated while its
    read weight is kept."""

    def __init__(self, M):
        super().__init__(M)
        pos, u, b = self.aug[-1]
        self.aug = self.aug[:-1] + ((pos, u, self.S.neg(b)),)


@pytest.mark.parametrize("table", [_NoCrossResidue, _FlippedAug])
def test_a_corrupted_table_refuses_alike(table):
    """Every law is an identity of pairs and the read is one to one, so a
    corrupted residue or augmentation basis can only make a pair leave
    the table: both paths raise AssertionError there (or both pass, as
    the symplectic residue without its cross term does)."""
    refused = 0
    for kind, rank, K in (("orthogonal", 2, F3), ("orthogonal", 3, Z4), ("linear", 2, F3),
                          ("symplectic", 2, F3), ("symplectic", 4, F3)):
        C = table(split_module(kind, rank, K))
        got = _outcome(_batched, C, 50, 1)
        assert got == _outcome(_relations_reference, C, 50, 1), (kind, rank)
        refused += got == ("AssertionError", "the pair law left the table")
    assert refused >= 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_REL_RINGS),
       st.sampled_from((("linear", 2), ("symplectic", 2), ("orthogonal", 2), ("orthogonal", 3))),
       st.integers(0, 2 ** 32 - 1))
def test_residue_rows_match_the_residue(name, shape, seed):
    """The batch residue (diagonal terms through f_embed, cross terms as
    the upper positions of conj(P) P) is the per-element residue, on
    split and on random tables."""
    rng = random.Random(seed)
    K, (kind, rank) = parse_ring(name), shape
    for M in (split_module(kind, rank, K), _random_module(K, kind, rank, rng)):
        C = canonical_construction(M)
        ps = [C.S.sample(rng) for _ in range(4)]
        ref = dict_law(C)
        assert C.S.from_array(C.residue_rows(C.S.to_array(ps))) == [ref.residue(p) for p in ps]


def test_quadratic_map_is_exact_near_the_ring_cap():
    """A quadratic form in 12 coordinates mod 1048573 = 2^20 - 3: its
    second-degree sums pass 2^63 unless reduced before the second factor."""
    m, n = 1048573, 12
    rng = random.Random(2)
    c = {(i, j): rng.randrange(m) for i in range(n) for j in range(i, n)}

    def fn(row):
        return [sum(v * row[i] * row[j] for (i, j), v in c.items()) % m]

    Q = _QuadraticMap(fn, [m] * n, [m])
    rows = [[m - 1 - rng.randrange(4) for _ in range(n)] for _ in range(5)]
    # one argument per column, the batch axis last
    assert Q(np.array(rows).T).T.tolist() == [fn(row) for row in rows]
    C = canonical_construction(split_module("orthogonal", 2, parse_ring("zmod:%d" % m)))
    ps = [C.S.sample(rng) for _ in range(6)]
    ref = dict_law(C)
    assert C.S.from_array(C.residue_rows(C.S.to_array(ps))) == [ref.residue(p) for p in ps]


def test_generator_transport_odd_orthogonal():
    M = split_module("orthogonal", 3, F3)
    C = canonical_construction(M)
    shape = DeltaShape(ofaorth(3, F3))
    one = F3.one()
    qi = C.box(heis_elem(M, {1: one}, F3.zero()), {-1: one})
    assert iota_theta(C, shape, qi) == gen_q(shape, 1)
    ui = C.box(heis_elem(M, {0: one}, F3.neg(one)), {-1: one})
    assert iota_theta(C, shape, ui) == gen_u(shape, 1)


def test_generator_transport_symplectic():
    M = split_module("symplectic", 2, F3)
    C = canonical_construction(M)
    shape = DeltaShape(ofasymp(2, F3))
    vi = C.box(heis_elem(M, {}, F3.one()), {-1: F3.one()})
    assert iota_theta(C, shape, vi) == gen_v(shape, 1)


def test_preset_transport_exhaustive():
    for kind, rank, K in (
        ("linear", 1, F3),
        ("linear", 2, F2),
        ("symplectic", 2, F3),
        ("orthogonal", 2, F3),
        ("orthogonal", 3, F2),
    ):
        rep = canon_preset_check(split_module(kind, rank, K), count=50, seed=0)
        assert rep["pass"], rep
        assert rep["mode"] == "exhaustive"


def test_preset_transport_sampled():
    rep = canon_preset_check(split_module("orthogonal", 3, F3), count=60, seed=0)
    assert rep["pass"], rep
    assert rep["mode"] == "sampled"


def test_comparison_iso_small():
    expected = {
        ("linear", 1, "zmod:2"): (4, 8, 1),
        ("linear", 1, "zmod:3"): (9, 27, 2),
        ("symplectic", 2, "zmod:2"): (16, 128, 6),
        ("symplectic", 2, "zmod:3"): (81, 2187, 24),
        ("orthogonal", 2, "zmod:2"): (16, 32, 2),
        ("orthogonal", 2, "zmod:3"): (81, 243, 4),
    }
    for (kind, rank, kname), (tc, xc, uo) in expected.items():
        K = F2 if kname == "zmod:2" else F3
        rep = naive_canon_check(split_module(kind, rank, K), seed=0, samples=40)
        assert rep["pass"], rep
        assert rep["t_card"] == rep["s_card"] == tc
        assert rep["xi_card"] == rep["theta_card"] == xc
        assert rep["unitary_order"] == rep["naive_unitary_order"] == uo


def test_comparison_iso_linear_rank2():
    rep = naive_canon_check(split_module("linear", 2, F2), seed=0, samples=40)
    assert rep["pass"] and rep["theta_mode"] == "exhaustive"
    rep3 = naive_canon_check(split_module("linear", 2, F3), seed=0, samples=40)
    assert rep3["pass"] and rep3["theta_mode"] == "sampled+count"
    assert rep3["s_card"] == rep3["t_card"] == 6561
    assert rep3["xi_card"] == rep3["theta_card"] == 531441
    assert rep3["unitary_order"] == 48


def test_comparison_defect_odd_orthogonal_mod2():
    rep = naive_canon_check(split_module("orthogonal", 3, F2), seed=0, samples=40)
    assert not rep["pass"]
    assert rep["s_card"] == 512 and rep["t_card"] == 1024
    assert rep["theta_card"] == 4096 and rep["xi_card"] == 8192
    assert not rep["injective"] and not rep["surjective"]
    assert not rep["theta_surjective"] and rep["missing_witness"]
    # both unitary groups still agree with the module scan, but they see
    # only half of the full group attached to the split preset
    assert rep["unitary_match"] and rep["unitary_order"] == 6
    assert group_order(DeltaShape(ofaorth(3, F2))) == 12


def test_comparison_regular_odd_orthogonal_mod3():
    rep = naive_canon_check(split_module("orthogonal", 3, F3), seed=0, samples=40)
    assert rep["pass"], rep
    assert rep["unitary_order"] == 48
    assert group_order(DeltaShape(ofaorth(3, F3))) == 48


def test_capacity_guards(monkeypatch):
    monkeypatch.setattr(quad_module, "_SCAN_CAP", 10)
    with pytest.raises(CapacityError):
        enumerate_module_unitary(split_module("orthogonal", 4, F3))
    with pytest.raises(CapacityError):
        split_module("orthogonal", 4, F3).elements()


# -- per-element reference loops for the batch construction -------------------


def _bfs_span(K, gens, cap):
    """Additive closure by breadth-first search, one element at a time."""
    zero = tuple(K.zero() for _ in range(len(gens[0]))) if gens else ()
    seen = {zero}
    queue = [zero]
    while queue:
        v = queue.pop()
        for g in gens:
            w = vadd(K, v, g)
            if w not in seen:
                if len(seen) >= cap:
                    raise CapacityError("span closure past %d" % cap)
                seen.add(w)
                queue.append(w)
    return sorted(seen)


def test_span_rows_is_the_sorted_span():
    rng = random.Random(21)
    for K in (Z4, ZMod(8), Product([Z4, F2]), P23):
        kel = list(K.elements())
        for _ in range(25):
            d = rng.randint(1, 3)
            gens = [tuple(rng.choice(kel) for _ in range(d)) for _ in range(rng.randint(1, 3))]
            rows = _span_rows(np.tile(K.moduli, d), [vflat(g) for g in gens])
            vecs = [unflat(v, K.rank) for v in rows.tolist()]
            assert vecs == _bfs_span(K, gens, 4096), (K.name, gens)


def _ref_t_elements(N):
    d = len(N.entries)
    K = N.M.K
    gens = [tuple(g) for g in N.tsolver.nullspace()]
    vecs = _bfs_span(K, gens, quad_module._SCAN_CAP) if gens else [tuple(K.zero() for _ in range(2 * d))]
    return [(_mat_of(N, v[:d]), _mat_of(N, v[d:])) for v in vecs]


def _ref_unitary(N):
    K = N.M.K
    n = len(N.M.labels)
    ident = k_identity(K, n)
    out = []
    for x, y in _ref_t_elements(N):
        if k_matmul(K, x, y) != ident or k_matmul(K, y, x) != ident:
            continue
        ym1 = tuple(tuple(K.sub(y[i][j], ident[i][j]) for j in range(n)) for i in range(n))
        xm1 = tuple(tuple(K.sub(x[i][j], ident[i][j]) for j in range(n)) for i in range(n))
        if _q_rows_hold(N, ym1, xm1):
            out.append(y)
    return sorted(out)


# The per-element definitions that the batched checks of NaiveConstruction
# and CanonMorphism replace, kept as references (N a NaiveConstruction, F
# its CanonMorphism).


def _mat_of(N, half):
    K = N.M.K
    n = len(N.M.labels)
    g = [[K.zero()] * n for _ in range(n)]
    for (a, b), i in N.eidx.items():
        g[N.M.pos[a]][N.M.pos[b]] = half[i]
    return tuple(tuple(row) for row in g)


def _t_pair(N, row):
    """The adjoint pair (x, y) of one flat int row."""
    v = unflat(np.ravel(row).tolist(), N.M.K.rank)
    d = len(N.entries)
    return _mat_of(N, v[:d]), _mat_of(N, v[d:])


def _w_rhs(N, x, y):
    """The right-hand side of the w system at the adjoint pair (x, y)."""
    M = N.M
    K = M.K
    qt = M.qtype
    xy = k_matmul(K, x, y)
    rhs = []
    for tag, a, b, blk in N._wrow_tags:
        if tag == "adj":
            l = M.b_form(M.mat_col(xy, a), M.basis(b))
            rhs.append(K.neg(qt.l_blocks(l)[blk]))
        elif tag == "q":
            rhs.append(qt.a_neg(M.q_form(M.mat_col(y, a))))
        else:
            l = M.b_form(M.mat_col(y, a), M.mat_col(y, b))
            rhs.append(qt.a_neg(qt.phi_map(l)))
    return rhs


def _t_elements(N):
    return [_t_pair(N, v) for v in N.t_rows()]


def _wnull_vecs(N):
    return [unflat(v, N.M.K.rank) for v in N._wnull_rows().tolist()]


def _kernel_vectors(F):
    return [unflat(v, F.M.K.rank) for v in F.kernel_rows().tolist()]


def _ref_t_member(N, x, y):
    M = N.M
    for a in M.labels:
        for b in M.labels:
            lhs = M.b_form(M.basis(a), M.mat_col(y, b))
            rhs = M.b_form(M.mat_col(x, a), M.basis(b))
            if lhs != rhs:
                return False
    return True


def _q_rows_hold(N, y, w):
    """q(y m) + phi(B(m, w m)) = 0 on the basis, plus its polarization."""
    M = N.M
    qt = M.qtype
    if qt.kind == "symplectic":
        return True
    for a in M.labels:
        val = qt.a_add(
            M.q_form(M.mat_col(y, a)),
            qt.phi_map(M.b_form(M.basis(a), M.mat_col(w, a))),
        )
        if val != qt.a_zero():
            return False
    for ai, a in enumerate(M.labels):
        for b in M.labels[ai + 1:]:
            l = M.b_form(M.mat_col(y, a), M.mat_col(y, b))
            l = qt.l_add(l, M.b_form(M.basis(a), M.mat_col(w, b)))
            l = qt.l_add(l, M.b_form(M.basis(b), M.mat_col(w, a)))
            if qt.phi_map(l) != qt.a_zero():
                return False
    return True


def _ref_xi_member(N, t, s):
    (x, y), (z, w) = t, s
    K = N.M.K
    if not _ref_t_member(N, x, y) or not _ref_t_member(N, z, w):
        return False
    xy = k_matmul(K, x, y)
    n = len(N.M.labels)
    for i in range(n):
        for j in range(n):
            if not K.is_zero(K.add(K.add(xy[i][j], z[i][j]), w[i][j])):
                return False
    return _q_rows_hold(N, y, w)


def _xi_completion(N, xy, w0, dw):
    K = N.M.K
    n = len(N.M.labels)
    w = _mat_of(N, vadd(K, tuple(w0), dw))
    z = tuple(
        tuple(K.neg(K.add(xy[i][j], w[i][j])) for j in range(n))
        for i in range(n)
    )
    return (z, w)


def _fiber_base(N, t):
    """(xy, w0) for the adjoint pair (x, y) at row t of T, w0 one
    solution of its w system; None for an empty fiber."""
    w0 = N.wsolver.graph.solve(N._rhs_rows()[0][t].tolist())
    if w0 is None:
        return None
    x, y = _t_pair(N, N.t_rows()[t])
    return k_matmul(N.M.K, x, y), unflat(w0, N.M.K.rank)


def _xi_fiber(N, t):
    """All completions (z, w) of the adjoint pair at row t of T to a
    Xi element."""
    base = _fiber_base(N, t)
    if base is not None:
        for dw in _wnull_vecs(N):
            yield _xi_completion(N, *base, dw)


def _xi_draw(N, t, j):
    """The completion list(_xi_fiber(N, t))[j], built alone; None for an
    empty fiber."""
    base = _fiber_base(N, t)
    if base is None:
        return None
    return _xi_completion(N, *base, _wnull_vecs(N)[j])


def _xi_elements(N):
    for t, pair in enumerate(_t_elements(N)):
        for s in _xi_fiber(N, t):
            yield (pair, s)


def _preimages(F, t):
    """All S elements mapping to the adjoint pair t, as a list."""
    v0 = F._pre.solve(list(F.N.pair_vec(*t)))
    if v0 is None:
        return []
    out = []
    for dv in _kernel_vectors(F):
        coords = vadd(F.M.K, tuple(v0), dv)
        out.append(F.C.S.el(dict(zip(F.C.S.pairs, coords))))
    return out


def _theta_hit(F, C, t, s):
    """Whether some preimage pair (p, r) of (t, s) under F is in Theta."""
    ps = _preimages(F, t)
    rs = _preimages(F, s) if ps else []
    ref = dict_law(C)
    return any(ref.read(p, r) is not None for p in ps for r in rs)


def _pairs_of_rows(N, rows):
    """The Xi elements ((x, y), (z, w)) of flat rows [x|y|z|w]."""
    h = rows.shape[1] // 2
    return [(_t_pair(N, r[:h]), _t_pair(N, r[h:])) for r in rows]


P23 = Product([F2, F3])
BATCH_CASES = (
    ("symplectic", 2, Z4),
    ("symplectic", 2, F4),
    ("symplectic", 2, P23),
    ("orthogonal", 3, F2),
    ("orthogonal", 2, F4),
    ("linear", 1, P23),
)


def test_batch_construction_matches_reference_loops(monkeypatch):
    for kind, rank, K in BATCH_CASES:
        M = split_module(kind, rank, K)
        N = naive_construction(M)
        ref_ts = _ref_t_elements(N)
        assert _t_elements(N) == ref_ts, (kind, K.name)
        assert len(ref_ts) == N.t_card()
        ref_xi = sum(N.wsolver.count(_w_rhs(N, x, y)) for x, y in ref_ts)
        assert N.xi_card() == ref_xi, (kind, K.name)
        assert mat_tuples(N.unitary_elements()) == _ref_unitary(N), (kind, K.name)
        gens = [tuple(g) for g in N.wsolver.nullspace()]
        if gens:
            assert _wnull_vecs(N) == _bfs_span(K, gens, quad_module._SCAN_CAP)
        F = canonical_morphism(M)
        image = {F.f_s(s) for s in F.C.S.elements()}
        assert F.image_count() == len(image), (kind, K.name)
        # a cap below the Xi count keeps the theta check on its sampled
        # path; the default cap takes every module here with at most 65536
        # Xi elements on the exhaustive one
        for cap in (4096, 1 << 16):
            with monkeypatch.context() as mp:
                mp.setattr(quad_module, "_SCAN_CAP", cap)
                rep = naive_canon_check(M, seed=0, samples=10)
            assert rep["injective"] == (len(image) == F.C.S.card())
            assert rep["surjective"] == (len(image) == len(ref_ts))
            assert rep["theta_mode"] == ("exhaustive" if ref_xi <= cap else "sampled+count")
        gens = [tuple(g) for g in F._pre.nullspace()]
        if gens:
            assert _kernel_vectors(F) == _bfs_span(K, gens, quad_module._SCAN_CAP)


def _check_quadratic_maps(N):
    """_quad on all of T, in the dtype of SlotRing(K, n), against
    k_matmul and _w_rhs at each row's adjoint pair."""
    K = N.M.K
    T = N.t_rows()
    xy, rhs = N._quad(T)
    assert xy.dtype == rhs.dtype == SlotRing(K, len(N.M.labels)).dtype
    assert np.array_equal(N._quad(T, rhs=False)[0], xy)
    assert [a.shape for a in N._quad(T[:0])] == [(0, xy.shape[1]), (0, rhs.shape[1])]
    for row, got_xy, got_rhs in zip(T, xy.tolist(), rhs.tolist()):
        x, y = _t_pair(N, row)
        assert got_xy == vflat(N.vec_of(k_matmul(K, x, y))), N.M.tag
        assert got_rhs == vflat(_w_rhs(N, x, y)), N.M.tag
    return xy.dtype


def test_quadratic_maps_match_the_per_element_reference():
    """Every T row, on BATCH_CASES, lin 2 over F3, orth 3 over Z/2 and
    lin 1 over Z/81 and Z/82, on each side of the int16 bound of
    SlotRing(K, 2)."""
    cases = BATCH_CASES + (("linear", 2, F3), ("orthogonal", 3, F2))
    for kind, rank, K in cases:
        _check_quadratic_maps(naive_construction(split_module(kind, rank, K)))
    for m, dt in ((81, np.int16), (82, np.int32)):
        assert _check_quadratic_maps(naive_construction(split_module("linear", 1, ZMod(m)))) == dt


def test_quadratic_maps_match_the_reference_on_random_tables():
    """Off the split tables Q and phi(G) fill up and G is not hermitian:
    only these catch a Q read off the lower triangle of phi(G), which
    the split tables cannot tell from the upper one."""
    rng = random.Random(5)
    cases = [(kind, rank, K) for K in (F2, F3, Z4, F4)
             for kind, rank in (("linear", 1), ("symplectic", 2), ("orthogonal", 1),
                                ("orthogonal", 2))]
    for kind, rank, K in cases + [("linear", 2, F2), ("orthogonal", 3, F2)]:
        _check_quadratic_maps(naive_construction(_random_module(K, kind, rank, rng)))


def test_span_capacity_message_matches_reference(monkeypatch):
    M = split_module("symplectic", 2, Z4)  # T has 256 elements
    for cap in (0, 1, 2, 15, 16, 17, 255, 256):
        monkeypatch.setattr(quad_module, "_SCAN_CAP", cap)
        N = naive_construction(M)
        try:
            want = len(_ref_t_elements(N))
        except CapacityError as exc:
            want = str(exc)
        try:
            got = len(_t_elements(N))
        except CapacityError as exc:
            got = str(exc)
        assert got == want, cap
    monkeypatch.setattr(quad_module, "_SCAN_CAP", 100)
    with pytest.raises(CapacityError, match="span closure past 100"):
        naive_construction(M).xi_card()


@pytest.mark.parametrize("argv", ["--family symp --n 6 --ring gf:2",
                                  "--family lin --n 12 --ring gf:2"])
def test_naive_refusal_comes_before_the_quadratic_table(argv, monkeypatch, capsys):
    """T past the span cap is refused before the K tables of its two
    quadratic maps are built."""
    import ofa.quad_module as qm

    def refuse(*a):
        raise AssertionError("quadratic table built for a refused T")

    monkeypatch.setattr(qm.NaiveConstruction, "_tables", refuse)
    assert cli_main(["construct", "naive", *argv.split()]) == 2
    err = capsys.readouterr().err
    assert err == "error: span closure past %d\n" % qm._SCAN_CAP


def test_xi_member_answers_past_the_span_cap():
    """xi_member reads no T row, so it answers where T is past the span
    cap, as t_member does; reading T there still refuses."""
    M = split_module("symplectic", 6, F2)
    N = naive_construction(M)
    one = k_identity(F2, len(M.labels))
    zero = tuple(tuple((0,) for _ in r) for r in one)
    assert N.t_member(one, one)
    # z + xy + w is 3 = 1 on (1, 1), (1, 1); (1, 1), (1, 0) fails the w rows
    for t, s, member in (((one, one), (one, one), False), ((one, one), (one, zero), False),
                         ((zero, zero), (zero, zero), True)):
        assert N.xi_member(t, s) == _ref_xi_member(N, t, s) == member
    with pytest.raises(CapacityError, match="span closure past"):
        N.t_rows()


def test_xi_draw_is_the_fiber_element_the_rng_picks():
    """xi_rows reads the kept right-hand side batch by T row: each drawn
    row of it is _w_rhs of its adjoint pair, the rows of a whole fiber are
    the completions that solving _w_rhs for that pair alone gives, and
    xi_sample keeps the samples of walk whose fiber is nonempty."""
    for kind, rank, K in (("linear", 2, F3), ("orthogonal", 3, F2)):
        N = naive_construction(split_module(kind, rank, K))
        rows = N.t_rows()
        n = N.wsolver.null_count
        pick = random.Random(9)
        empty = 0
        for s in range(12):
            t = pick.randrange(len(rows))
            x, y = _t_pair(N, rows[t])
            assert N._rhs_rows()[0][t].tolist() == vflat(_w_rhs(N, x, y))
            w0 = N.wsolver.solve(_w_rhs(N, x, y))
            fiber = list(_xi_fiber(N, t))
            assert fiber == ([] if w0 is None else [
                _xi_completion(N, k_matmul(K, x, y), w0, dw) for dw in _wnull_vecs(N)])
            assert bool(N._rhs_rows()[1][t]) == bool(fiber)
            if fiber:
                got = N.xi_rows(np.full(n, t), np.arange(n))
                assert _pairs_of_rows(N, got) == [((x, y), f) for f in fiber]
                assert N._xi_mask(got).all()
            else:
                empty += 1
        for s in range(12):
            got = _pairs_of_rows(N, N.xi_rows(*N.xi_sample(s, 5)))
            want = []
            for t, j in walk(s, [len(rows), n], 5):
                draw = _xi_draw(N, t, j)
                if draw is not None:
                    want.append((_t_pair(N, rows[t]), draw))
            assert got == want
        assert kind == "linear" or empty  # the defect module has empty fibers


def test_membership_is_the_per_element_check():
    """t_member and xi_member, one-row calls of the batched checks, agree
    with the loops over basis vectors on Xi elements, on each one with one
    coordinate moved, and on random pairs of T elements."""
    rng = random.Random(11)
    for kind, rank, K in BATCH_CASES:
        N = naive_construction(split_module(kind, rank, K))
        kel = list(K.elements())
        ts = _t_elements(N)
        n = len(N.M.labels)
        cases = []
        for tix, nix in zip(*N.xi_sample(3, 30)):
            (t, s), = _pairs_of_rows(N, N.xi_rows([tix], [nix]))
            assert N.xi_member(t, s)
            cases.append((t, s))
            mats = [[list(r) for r in g] for g in t + s]
            a, b = N.entries[rng.randrange(len(N.entries))]
            g = mats[rng.randrange(4)]
            g[N.M.pos[a]][N.M.pos[b]] = K.add(g[N.M.pos[a]][N.M.pos[b]],
                                              kel[rng.randrange(1, len(kel))])
            x, y, z, w = (tuple(tuple(r) for r in g) for g in mats)
            cases.append(((x, y), (z, w)))
        cases += [(ts[rng.randrange(len(ts))], ts[rng.randrange(len(ts))]) for _ in range(30)]
        hits = 0
        for t, s in cases:
            for pair in (t, s):
                assert N.t_member(*pair) == _ref_t_member(N, *pair), (kind, K.name)
            got = N.xi_member(t, s)
            assert got == _ref_xi_member(N, t, s), (kind, K.name, t, s)
            hits += got
        assert 0 < hits < len(cases), (kind, K.name)
        assert N.t_member(k_identity(K, n), k_identity(K, n))


def _ref_theta_walk(N, F, seed, samples):
    """The sampled theta search of naive_canon_check, one element of
    walk's samples at a time: whether every drawn Xi element has a
    preimage in Theta, and the draws up to the first that has none."""
    ts = N.t_rows()
    draws = []
    for row, j in walk(seed, [len(ts), N.wsolver.null_count], samples):
        t = _t_pair(N, ts[row])
        s = _xi_draw(N, row, j)
        if s is not None:
            draws.append((t, s))
            if not _theta_hit(F, F.C, t, s):
                return False, draws
    return True, draws


def test_theta_check_matches_the_per_element_walk(monkeypatch):
    """The batched theta verdict against the per-element walk on every
    BATCH_CASES module, in both modes (the default cap, and a cap of 4096
    that samples all but the smallest): theta_surjective and
    missing_witness agree, on the exhaustive path the rows are the walk's
    Xi elements and their verdicts are the walk's, and the batched draws
    are the walk's draws up to where it stops.  Orthogonal rank 3 over
    F2, with |Ker(F)| = 2, has Xi elements outside the image of Theta in
    both modes."""
    modes = set()
    for kind, rank, K in BATCH_CASES:
        M = split_module(kind, rank, K)
        for cap in (1 << 16, 4096):
            monkeypatch.setattr(quad_module, "_SCAN_CAP", cap)
            F = canonical_morphism(M)
            N = F.N
            for seed in (0, 1):
                rep = naive_canon_check(M, seed=seed, samples=40)
                if N.xi_card() <= cap:
                    if seed == 0:
                        rows = N.xi_rows(*N.xi_all())
                        # every fourth row of the two 16384-row walks, whose
                        # verdicts COMPARE_PINNED holds from the whole walk
                        step = 1 if len(rows) <= 8192 else 4
                        elements = list(_xi_elements(N))[::step]
                        assert _pairs_of_rows(N, rows[::step]) == elements
                        ref = [_theta_hit(F, F.C, t, s) for t, s in elements]
                        assert F.theta_hits(rows[::step]).tolist() == ref, (kind, K.name)
                        hit = all(ref) if step == 1 else bool(F.theta_hits(rows).all())
                    assert rep["theta_surjective"] == hit
                else:
                    hit, draws = _ref_theta_walk(N, F, seed, 40)
                    rows = N.xi_rows(*N.xi_sample(seed, 40))
                    assert _pairs_of_rows(N, rows)[:len(draws)] == draws, (kind, K.name)
                    counts = rep["xi_card"] == rep["theta_card"]
                    assert rep["theta_surjective"] == (hit and counts and rep["injective"])
                assert rep.get("missing_witness", False) == (not hit), (kind, K.name, cap)
                modes.add((rep["theta_mode"], hit))
    assert modes == {("exhaustive", True), ("exhaustive", False),
                     ("sampled+count", True), ("sampled+count", False)}


def test_sampled_theta_verdict_needs_the_counts(monkeypatch):
    """lin 2 over F3 takes the sampled theta check (COMPARE_PINNED) and F
    is injective, so with a Xi count one past the true one every sampled
    Xi element still has its preimage and only the count comparison can
    make theta_surjective false."""
    M = split_module("linear", 2, F3)
    real = quad_module.NaiveConstruction.xi_card
    monkeypatch.setattr(quad_module.NaiveConstruction, "xi_card", lambda self: real(self) + 1)
    for seed in (0, 1):
        rep = naive_canon_check(M, seed=seed)
        assert rep["theta_mode"] == "sampled+count" and rep["injective"]
        assert rep["xi_card"] == rep["theta_card"] + 1 and "missing_witness" not in rep
        assert not rep["theta_surjective"] and not rep["pass"]


def test_theta_rows_take_r_up_to_the_kernel():
    """On two modules off the split tables, some Xi rows reach Theta only
    through a preimage r0 + k of s with k in Ker(F), not through r0: the
    span of the theta test must hold Ker(F).  Every row's verdict is the
    per-element walk's, and both verdicts occur."""
    one, two = Z4.one(), Z4.from_int(2)
    for M in (QuadModule(QuadType("orthogonal", Z4), 1, {(0, 0): two}, {0: Z4.neg(one)}),
              QuadModule(QuadType("orthogonal", F3), 2, {(1, 1): F3.from_int(2)},
                         {1: F3.one()})):
        F = canonical_morphism(M)
        rows = F.N.xi_rows(*F.N.xi_all())
        got = F.theta_hits(rows).tolist()
        assert got == [_theta_hit(F, F.C, t, s) for t, s in _pairs_of_rows(F.N, rows)]
        assert 0 < sum(got) < len(got) and len(F.kernel_rows()) > 1, M.tag


def test_compare_report_bytes_pinned():
    # sha256 of the sorted-key JSON report, as the per-element scan gave it
    M = split_module("linear", 2, F3)
    for seed in range(4):
        rep = naive_canon_check(M, seed=seed)
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "252dac13aba770d161ae0f09a4b0ad55ac42dc200d9ebd004f4c3a033d952be2"
        ), seed


COMPARE_PINNED = (
    # exhaustive theta search
    ("--family symp --n 1 --ring zmod:3", 0,
     "8aaa912bd8b132e1fd33c5c31b6b24840e9de86bc1c29a7ad62da952b0bc0c9e"),
    # exhaustive, fails, and the singular Gram needs the leaf filter
    ("--family orth-odd --n 1 --ring zmod:2", 1,
     "91ca0e3c8294ca8a05a61ed315496c38f222049c777ba76f4521364b88dfc82b"),
    # sampled theta search with the count check
    ("--family lin --n 2 --ring gf:3 --seed 0", 0,
     "2d370ed4f79e04f52ca34c77bf6e0522bb2c4492a6d9da2f28c9f58bc7641143"),
    # exhaustive over 16384 Xi elements, on rings where 2 is not a unit
    ("--family symp --n 1 --ring zmod:4 --seed 0", 0,
     "0a0f478d2485e276f77d182d226f3bf225fdd9ef55872a77880d6ded51c72e16"),
    ("--family symp --n 1 --ring gf:4 --seed 0", 0,
     "3c23a3b5b1739958470bc9b6f7864d5b582486a3d034c479594def5a7f93362e"),
)


@pytest.mark.parametrize("argv,code,digest", COMPARE_PINNED)
def test_construct_compare_stdout_pinned(argv, code, digest, capsys):
    assert cli_main(["construct", "compare", *argv.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_compare_leaves_numpy_ma_unimported():
    """construct compare sorts and counts rows without np.unique, whose
    row mode imports numpy.ma on first use; a fresh interpreter, so other
    tests' imports do not count."""
    src = os.path.dirname(os.path.dirname(quad_module.__file__))
    code = ("import contextlib, io, sys; from ofa.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['construct', 'compare', '--family', 'lin', '--n', '2',"
            " '--ring', 'gf:3'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]


# -- the module isometry search against the recursive column scan -------------


def _ref_module_unitary(M, cap=1 << 16):
    """Depth-first column search over dict columns, one k_mat_inv per leaf."""
    K = M.K
    qt = M.qtype
    pools = {}
    for b in M.labels:
        rows = [a for a in M.labels if M.entry_ok(a, b)]
        if K.card ** len(rows) > cap:
            raise CapacityError("column pool over %d" % (K.card ** len(rows)))
        pool = []
        for combo in itertools.product(K.elements(), repeat=len(rows)):
            cand = {a: c for a, c in zip(rows, combo) if not K.is_zero(c)}
            if M.q_form(cand) != M.qvals[b]:
                continue
            if M.b_form(cand, cand) != M.gram.get((b, b), qt.l_zero()):
                continue
            pool.append(cand)
        pools[b] = pool
    out = []
    cols = {}

    def place(idx):
        if idx == len(M.labels):
            g = tuple(tuple(cols[b].get(a, K.zero()) for b in M.labels)
                      for a in M.labels)
            if k_mat_inv(K, g) is not None:
                out.append(g)
            return
        b = M.labels[idx]
        for cand in pools[b]:
            ok = True
            for a in M.labels[:idx]:
                if M.b_form(cols[a], cand) != M.gram.get((a, b), qt.l_zero()):
                    ok = False
                    break
                if M.b_form(cand, cols[a]) != M.gram.get((b, a), qt.l_zero()):
                    ok = False
                    break
            if ok:
                cols[b] = cand
                place(idx + 1)
                del cols[b]

    place(0)
    return sorted(out)


MODULE_RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:6", "zmod:8", "zmod:9",
                "gf:4", "prod:(zmod:2;zmod:3)")
MODULE_SHAPES = (("linear", 1), ("linear", 2), ("symplectic", 2),
                 ("symplectic", 4), ("orthogonal", 1), ("orthogonal", 2),
                 ("orthogonal", 3), ("orthogonal", 4))


def test_module_unitary_matches_reference_scan():
    compared = 0
    for name in MODULE_RINGS:
        K = parse_ring(name)
        mods = [split_module(kind, rank, K) for kind, rank in MODULE_SHAPES]
        mods += [hyperbolic_space(kind, K, 1) for kind in KINDS]
        for M in mods:
            n = len(M.labels)
            # rank-4 symplectic and orthogonal groups past F2 have 10^3 to
            # 10^6 elements
            if K.card ** n > 4096 or (n == 4 and K.card > 2 and M.qtype.kind != "linear"):
                continue
            got = enumerate_module_unitary(M)
            if len(got) > 800:  # the reference scan takes seconds here
                continue
            assert mat_tuples(got) == _ref_module_unitary(M), (M.tag, name)
            compared += 1
    assert compared == 68


def _random_module(K, kind, rank, rng):
    """Arbitrary Gram and q tables: neither hermitian nor regular."""
    qt = QuadType(kind, K)
    kel = list(K.elements())
    labels = split_module(kind, rank, K).labels
    gram = {}
    for a in labels:
        for b in labels:
            if kind != "linear":
                gram[(a, b)] = rng.choice(kel)
            elif a * b < 0:
                z, l = K.zero(), rng.choice(kel)
                gram[(a, b)] = qt.R.join((l, z) if a > 0 else (z, l))
    qvals = {} if kind == "symplectic" else {a: rng.choice(kel) for a in labels}
    return QuadModule(qt, rank, gram, qvals)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("zmod:2", "zmod:3", "zmod:4", "gf:4")),
       st.sampled_from((("linear", 1), ("symplectic", 2), ("orthogonal", 1),
                        ("orthogonal", 2), ("orthogonal", 3))),
       st.integers(0, 2 ** 32 - 1))
def test_module_unitary_matches_reference_on_random_tables(name, shape, seed):
    K = parse_ring(name)
    kind, rank = shape
    if rank == 3 and K.card > 2:  # K^9 matrices for a zero table
        rank = 2
    M = _random_module(K, kind, rank, random.Random(seed))
    assert mat_tuples(enumerate_module_unitary(M)) == _ref_module_unitary(M)


def test_module_unitary_singular_gram_keeps_invertible_leaves():
    # B(e0, e0) = 2 = 0 over Z/2: the K-Gram is singular, so leaves that
    # k_mat_inv cannot invert are filtered rather than asserted away
    M = split_module("orthogonal", 3, F2)
    got = mat_tuples(enumerate_module_unitary(M))
    assert len(got) == 6 and got == _ref_module_unitary(M)
    assert all(k_mat_inv(F2, g) is not None for g in got)


def test_module_column_pool_cap_is_per_support_block(monkeypatch):
    """A column of the linear kind keeps to its side: one block of |K|
    vectors per side, each held to the cap on its own."""
    monkeypatch.setattr(quad_module, "_SCAN_CAP", 4096)
    got = enumerate_module_unitary(split_module("linear", 1, ZMod(4096)))
    assert len(got) == 2048
    with pytest.raises(CapacityError, match="^column pool of 4097 vectors$"):
        enumerate_module_unitary(split_module("linear", 1, ZMod(4097)))


def test_module_unitary_frontier_capacity():
    # Sp(4, Z/8) fits the 8^4 pool but not the frontier
    with pytest.raises(CapacityError, match="frontier"):
        enumerate_module_unitary(split_module("symplectic", 4, ZMod(8)))


def test_nonsplit_module_has_its_own_tag():
    """Elements and tensor squares compare by tag, so a module off the
    split tables must not share the split module's tag."""
    K = parse_ring("gf:3")
    one = K.one()
    M = QuadModule(QuadType("orthogonal", K), 3,
                   {(1, -1): one, (-1, 1): one, (0, 0): one}, {0: K.from_int(2)})
    ref = split_module("orthogonal", 3, K)
    assert ref.split and ref.tag == "orthogonal:3:zmod:3"
    assert not M.split and M.tag != ref.tag
    assert M.tag == "orthogonal:3:zmod:3/gram:-1,1=(1);0,0=(1);1,-1=(1)/q:-1=(0);0=(2);1=(0)"
    assert canon_algebra(M).e(0, 0) != canon_algebra(ref).e(0, 0)
    assert canon_algebra(M).tag != canon_algebra(ref).tag
    assert naive_canon_check(M, seed=0, samples=20)["module"] == M.tag
    # equal tables give equal tags, whatever order the entries come in
    M2 = QuadModule(QuadType("orthogonal", K), 3,
                    {(0, 0): one, (-1, 1): one, (1, -1): one}, {0: K.from_int(2), 1: K.zero()})
    assert M2.tag == M.tag
    for kind, rank in (("linear", 2), ("symplectic", 2), ("orthogonal", 4)):
        assert split_module(kind, rank, K).tag == "%s:%d:zmod:3" % (kind, rank)
