"""Quadratic modules, their form parameters, and the two ring constructions."""

import hashlib
import itertools
import json
import random
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
    StructureError,
    ZMod,
    const_hom,
    identity_hom,
    parse_ring,
)
from ofa.form_ring import ofaorth, ofasymp
from ofa.linalg import k_det, k_identity, k_mat_inv, k_matmul, vadd, vflat
from ofa.odd_form_param import DeltaShape, gen_q, gen_u, gen_v
from ofa.quad_module import (
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
    _hdet_poly,
    _span_rows,
    _vecs,
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
from ofa.unitary import group_order

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
    ts = N.t_elements()
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
    for t, s in N.xi_elements():
        assert N.xi_member(t, s)
        count += 1
        if count >= 50:
            break
    (x, y), (z, w) = next(N.xi_elements())
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
        assert naive_construction(M).unitary_elements() == enumerate_module_unitary(M)


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


def test_capacity_guards():
    with pytest.raises(CapacityError):
        enumerate_module_unitary(split_module("orthogonal", 4, F3), cap=10)
    with pytest.raises(CapacityError):
        split_module("orthogonal", 4, F3).elements(cap=10)


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
            rows = _span_rows(np.tile(K.moduli, d), [vflat(g) for g in gens], 4096)
            assert _vecs(rows, K.rank) == _bfs_span(K, gens, 4096), (K.name, gens)


def _ref_t_elements(N):
    d = len(N.entries)
    K = N.M.K
    gens = [tuple(g) for g in N.tsolver.nullspace()]
    vecs = _bfs_span(K, gens, N.cap) if gens else [tuple(K.zero() for _ in range(2 * d))]
    return [(N.mat_of(v[:d]), N.mat_of(v[d:])) for v in vecs]


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
        if N._q_rows_hold(ym1, xm1):
            out.append(y)
    return sorted(out)


P23 = Product([F2, F3])
BATCH_CASES = (
    ("symplectic", 2, Z4),
    ("symplectic", 2, F4),
    ("symplectic", 2, P23),
    ("orthogonal", 3, F2),
    ("orthogonal", 2, F4),
    ("linear", 1, P23),
)


def test_batch_construction_matches_reference_loops():
    for kind, rank, K in BATCH_CASES:
        M = split_module(kind, rank, K)
        N = naive_construction(M)
        ref_ts = _ref_t_elements(N)
        assert N.t_elements() == ref_ts, (kind, K.name)
        assert len(ref_ts) == N.t_card()
        ref_xi = sum(N.wsolver.count(N._w_rhs(x, y)) for x, y in ref_ts)
        assert N.xi_card() == ref_xi, (kind, K.name)
        assert N.unitary_elements() == _ref_unitary(N), (kind, K.name)
        gens = [tuple(g) for g in N.wsolver.nullspace()]
        if gens:
            assert N._wnull_vecs() == _bfs_span(K, gens, N.cap)
        F = canonical_morphism(M)
        image = {F.f_s(s) for s in F.C.S.elements()}
        assert F.image_count() == len(image), (kind, K.name)
        # a cap below the Xi count keeps the theta check on its sampled path
        rep = naive_canon_check(M, seed=0, samples=10, cap=4096)
        assert rep["injective"] == (len(image) == F.C.S.card())
        assert rep["surjective"] == (len(image) == len(ref_ts))
        gens = [tuple(g) for g in F._pre.nullspace()]
        if gens:
            assert F.kernel_vectors() == _bfs_span(K, gens, N.cap)


def test_span_capacity_message_matches_reference():
    M = split_module("symplectic", 2, Z4)  # T has 256 elements
    for cap in (0, 1, 2, 15, 16, 17, 255, 256):
        N = naive_construction(M, cap=cap)
        try:
            want = len(_ref_t_elements(N))
        except CapacityError as exc:
            want = str(exc)
        try:
            got = len(N.t_elements())
        except CapacityError as exc:
            got = str(exc)
        assert got == want, cap
    with pytest.raises(CapacityError, match="span closure past 100"):
        naive_construction(M, cap=100).xi_card()


def test_xi_draw_is_the_fiber_element_the_rng_picks():
    for kind, rank, K in (("linear", 2, F3), ("orthogonal", 3, F2)):
        N = naive_construction(split_module(kind, rank, K))
        rows = N.t_rows()
        pick = random.Random(9)
        empty = 0
        for s in range(12):
            x, y = N.t_pair(rows[pick.randrange(len(rows))])
            fiber = list(N.xi_fiber(x, y))
            rng, ref = random.Random(s), random.Random(s)
            got = N.xi_draw(x, y, rng)
            if not fiber:
                empty += 1
                assert got is None
            else:
                assert got == fiber[ref.randrange(len(fiber))]
                assert N.xi_member((x, y), got)
            assert rng.getstate() == ref.getstate()
        assert kind == "linear" or empty  # the defect module has empty fibers


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
)


@pytest.mark.parametrize("argv,code,digest", COMPARE_PINNED)
def test_construct_compare_stdout_pinned(argv, code, digest, capsys):
    assert cli_main(["construct", "compare", *argv.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
            assert got == _ref_module_unitary(M), (M.tag, name)
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
    assert enumerate_module_unitary(M) == _ref_module_unitary(M)


def test_module_unitary_singular_gram_keeps_invertible_leaves():
    # B(e0, e0) = 2 = 0 over Z/2: the K-Gram is singular, so leaves that
    # k_mat_inv cannot invert are filtered rather than asserted away
    M = split_module("orthogonal", 3, F2)
    got = enumerate_module_unitary(M)
    assert len(got) == 6 and got == _ref_module_unitary(M)
    assert all(k_mat_inv(F2, g) is not None for g in got)


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
