"""End-to-end acceptance gate for the workbench.

Each numbered requirement gets exactly one test, so a verbose pytest
run shows one pass/fail line per criterion.  Every test also prints a
short verdict line (visible with -s, or in the captured output of a
failure).  Expected counts below are frozen from independent runs of
the construction pipelines; group orders match the classical formulas
for the split groups over the small fields and Z/4.
"""

import random
import time

from ofa import unitary
from ofa.cli import main as cli_main
from ofa.clifford import (CliffordAlg, clif0_center, clif0_relation_check,
                          spin_group, vector_rep)
from ofa.coeff_ring import (GaloisField, PolyQuotient, StructureError, ZMod,
                            hom_compose)
from ofa.form_ring import ofalin, ofaorth, ofasymp
from ofa.linalg import k_identity
from ofa.nilpotent2 import (DescentDatum, Nil2Elem, Nil2Module, Nil2Morphism,
                            base_inclusion, boxtimes, counterexample_sqrt2,
                            descent_roundtrip, registered_tower,
                            universality_probe)
from ofa.odd_form_param import DeltaShape, axioms_check, special_check, to_pair
from ofa.quad_module import naive_canon_check, split_module
from ofa.unitary import (classical_pair, delta0_member, dilation,
                         enumerate_unitary, group_order, gu_member,
                         parabolic_generators, parabolic_p, sigma_linear,
                         sl_member, so_odd_split, transvection_short,
                         transvection_ultrashort, u_mul)

F2, F3, Z4 = ZMod(2), ZMod(3), ZMod(4)
F4 = GaloisField(2, [1, 1, 1])
RINGS = (F2, F3, Z4, F4)
EXH_CAP = 1 << 16


def _verdict(num, detail):
    print("CRITERION %d: PASS - %s" % (num, detail))


def _family_algebras(n, K):
    return (("lin", ofalin(n, K)), ("symp", ofasymp(2 * n, K)),
            ("orth-even", ofaorth(2 * n, K)), ("orth-odd", ofaorth(2 * n + 1, K)))


def test_criterion_01_axiom_suites():
    t0 = time.time()
    exhausted = 0
    for K in RINGS:
        for tag, alg in _family_algebras(1, K):
            shape = DeltaShape(alg)
            mode = "exhaustive" if shape.card() <= EXH_CAP else "sampled"
            rep = axioms_check(shape, strategy=mode, count=10000, seed=11)
            assert rep["pass"], (tag, K.name, mode, rep)
            exhausted += mode == "exhaustive"
        for tag, alg in _family_algebras(2, K):
            rep = axioms_check(DeltaShape(alg), strategy="sampled",
                               count=10000, seed=11)
            assert rep["pass"], (tag, K.name, "n=2", rep)
    elapsed = time.time() - t0
    assert elapsed < 60.0, elapsed
    _verdict(1, "32 axiom suites (%d of 16 n=1 legs exhaustive) in %.1fs"
             % (exhausted, elapsed))


def test_criterion_02_specialness():
    t0 = time.time()
    for K in RINGS:
        for n in (1, 2):
            for tag, alg in _family_algebras(n, K):
                rep = special_check(DeltaShape(alg), count=10000, seed=11)
                assert rep["pass"], (tag, K.name, n, rep)
    elapsed = time.time() - t0
    assert elapsed < 30.0, elapsed
    _verdict(2, "pi x rho injective for all four families at n = 1, 2 in %.1fs"
             % elapsed)


def test_criterion_03_group_orders():
    t0 = time.time()
    table = (
        (ofalin(2, F2), 6), (ofalin(2, F3), 48),
        (ofasymp(2, F3), 24), (ofasymp(4, F2), 720),
        (ofaorth(2, F3), 4), (ofaorth(4, F2), 72), (ofaorth(4, F3), 1152),
    )
    for alg, want in table:
        got = group_order(DeltaShape(alg))
        assert got == want, (alg.tag, got, want)
    sl = sum(1 for g in enumerate_unitary(DeltaShape(ofalin(2, F3)))
             if sl_member(g))
    assert sl == 24
    elapsed = time.time() - t0
    assert elapsed < 30.0, elapsed
    _verdict(3, "7 orders plus the SL subgroup match in %.1fs" % elapsed)


def test_criterion_04_odd_orthogonal_decomposition():
    for K in (F2, F3, Z4):
        rep = so_odd_split(DeltaShape(ofaorth(3, K)))
        for leg in ("product_law", "kernel_bijection", "det_identity",
                    "central_match", "decomposition"):
            assert rep[leg], (K.name, leg, rep)
        assert rep["order"] == rep["so_order"] * rep["idempotents"]
    _verdict(4, "rank-3 group splits as SO x central part over F2, F3, Z/4")


def test_criterion_05_construction_comparison():
    t0 = time.time()
    for K in (F2, F3):
        for kind, rank in (("linear", 1), ("linear", 2),
                           ("symplectic", 2), ("orthogonal", 2)):
            rep = naive_canon_check(split_module(kind, rank, K),
                                    seed=3, samples=100)
            assert rep["pass"], (kind, rank, K.name, rep)
            assert rep["injective"] and rep["surjective"]
            assert rep["theta_injective"] and rep["theta_surjective"]
    rep = naive_canon_check(split_module("orthogonal", 3, F2),
                            seed=3, samples=100)
    assert rep["surjective"] is False
    assert rep["unitary_match"] and rep["naive_unitary_order"] == 6
    assert group_order(DeltaShape(ofaorth(3, F2))) == 12
    elapsed = time.time() - t0
    assert elapsed < 30.0, elapsed
    _verdict(5, "8 isomorphisms verified; rank-3/F2 defect is 6 vs 12 in %.1fs"
             % elapsed)


def _short_pairs(alg):
    return [(i, j) for (i, j) in alg.pairs if i and j and i != j and i != -j]


def _ultra_params(shape, i):
    ei = shape.alg.e(i, i)
    return [u for u in shape.elements()
            if delta0_member(shape, u) and shape.act(u, ei, shape.alg.K.zero()) == u]


def test_criterion_06_elementary_generators():
    menu = (ofalin(2, F3), ofasymp(2, F3), ofasymp(4, F3),
            ofaorth(2, F3), ofaorth(4, F3), ofaorth(3, F3))
    counts = [0, 0, 0]
    for alg in menu:
        shape = DeltaShape(alg)
        K = alg.K
        for (i, j) in _short_pairs(alg):
            for c in K.elements():
                transvection_short(shape, i, j, alg.e(i, j, c))
                counts[0] += 1
        if shape.card() <= 1 << 13:
            for i in alg.indices:
                if i == 0:
                    continue
                for u in _ultra_params(shape, i):
                    transvection_ultrashort(shape, i, u)
                    counts[1] += 1
        for i in alg.indices:
            if i == 0:
                continue
            for c in K.units():
                dilation(shape, i, alg.e(i, i, c))
                counts[2] += 1
    # ultrashort parameters around the middle index, small enough to scan
    shape = DeltaShape(ofaorth(3, F2))
    for i in (-1, 1):
        for u in _ultra_params(shape, i):
            transvection_ultrashort(shape, i, u)
            counts[1] += 1

    # the rank-2 shapes admit no short roots, so the additivity law there
    # is vacuous; the rank-4 shapes make it a real check
    for alg in (ofasymp(2, F3), ofaorth(2, F3), ofasymp(4, F3), ofaorth(4, F3)):
        shape = DeltaShape(alg)
        K = alg.K
        for (i, j) in _short_pairs(alg):
            for c in K.elements():
                for d in K.elements():
                    lhs = u_mul(transvection_short(shape, i, j, alg.e(i, j, c)),
                                transvection_short(shape, i, j, alg.e(i, j, d)))
                    rhs = transvection_short(shape, i, j,
                                             alg.e(i, j, K.add(c, d)))
                    assert lhs.key == rhs.key
        for i in alg.indices:
            if i == 0:
                continue
            for a in K.units():
                for b in K.units():
                    lhs = u_mul(dilation(shape, i, alg.e(i, i, a)),
                                dilation(shape, i, alg.e(i, i, b)))
                    assert lhs.key == dilation(shape, i,
                                               alg.e(i, i, K.mul(a, b))).key

    shape = DeltaShape(ofasymp(2, F2))
    sub = parabolic_p(shape)
    keys = {g.key for g in sub}
    assert all(g.key in keys for g in parabolic_generators(shape))
    assert len(sub) < group_order(shape)
    _verdict(6, "%d short, %d ultrashort, %d dilation members; laws hold; "
                "parabolic closure %d < %d"
             % (counts[0], counts[1], counts[2], len(sub), group_order(shape)))


def _heis(K):
    return Nil2Module(K, 1, 1, [[(K.one(),)]])


def _upper(K):
    z, o = K.zero(), K.one()
    return Nil2Module(K, 2, 1, [[(z,), (o,)], [(z,), (z,)]])


def _quotiented(K):
    z, o = K.zero(), K.one()
    g = Nil2Elem((z, o), (z,))
    return Nil2Module(K, 2, 1, [[(o,), (z,)], [(z,), (z,)]], quotient=[g])


def test_criterion_07_nilpotent_module_suite():
    t0 = time.time()
    R4 = PolyQuotient(Z4, [(1,), (1,), (1,)])
    for K, E in ((F2, F4), (Z4, R4)):
        M = _upper(K)
        inc = base_inclusion(E)
        assert universality_probe(M, inc)["injective"], E.name
        tower = registered_tower(E)
        via = boxtimes(boxtimes(M, inc)[0], tower.i1)[0]
        direct = boxtimes(M, hom_compose(tower.i1, inc))[0]
        assert via.same_presentation(direct), E.name

    for M in (_heis(F2), _upper(F2), _quotiented(F2)):
        rep = descent_roundtrip(M, F4)
        assert rep["iso"], rep
        assert rep["ext_card"] == M.card ** 2

    tower = registered_tower(F4)
    N = boxtimes(_heis(F2), base_inclusion(F4))[0]
    gamma = tower.i1(F4.gen())
    twisted = Nil2Morphism(
        boxtimes(N, tower.i1)[0], boxtimes(N, tower.i2)[0],
        [Nil2Elem((gamma,), (tower.EE.zero(),))],
        [[tower.EE.mul(gamma, gamma)]])
    rejected = False
    try:
        DescentDatum(N, twisted)
    except StructureError as exc:
        rejected = len(exc.witness) == 3
    assert rejected

    rep = counterexample_sqrt2(4)
    assert rep["module_card"] == 32 and rep["ext_card"] == 2
    verdict = "vanishes" if rep["m0_image_zero"] else "DOES NOT vanish"
    assert rep["probe"]["injective"] is False
    elapsed = time.time() - t0
    assert elapsed < 10.0, elapsed
    _verdict(7, "extension, descent, cocycle rejection all good; "
                "modulus-4 image of M0 %s in %.1fs" % (verdict, elapsed))


def test_criterion_08_clifford_spin():
    for n in range(6):
        assert CliffordAlg(n, F2).dim == 2 ** n
    group = spin_group(3, F3)
    assert len(group) == 24
    eye = k_identity(F3, 3)
    assert sum(1 for u in group if vector_rep(u) == eye) == 2
    for K in (F2, F3):
        for r in (2, 4):
            rep = clif0_relation_check(r, K)
            assert rep["pass"], (r, K.name, rep)
            assert len(clif0_center(r, K)) == 2, (r, K.name)
    _verdict(8, "dims 2^n; |Spin(3,F3)| = 24 with kernel 2; even-part "
                "relations and rank-2 centers check out")


def test_criterion_09_sigma_and_gu():
    for n in (1, 2):
        for K in (F2, F3):
            shape = DeltaShape(ofalin(n, K))
            alg = shape.alg
            sig = sigma_linear(shape)
            for (i, j) in alg.pairs:
                a = alg.e(i, j)
                assert sig.on_alg(sig.on_alg(a)) == a
                assert sig.on_alg(alg.conj(a)) == alg.conj(sig.on_alg(a))
                for (k, l) in alg.pairs:
                    b = alg.e(k, l)
                    assert sig.on_alg(alg.mul(a, b)) == alg.mul(sig.on_alg(a),
                                                                sig.on_alg(b))
            zp = alg.el({(i, i): K.one() for i in alg.indices if i > 0})
            zm = alg.el({(i, i): K.one() for i in alg.indices if i < 0})
            assert sig.on_alg(zp) == zm and sig.on_alg(zm) == zp
            # group-and-action compatibility on the parameter side
            if shape.card() <= 1 << 10:
                pool = list(shape.elements())
            else:
                rng = random.Random(17)
                pool = [shape.sample(rng) for _ in range(40)]
            for u in pool:
                p, r = to_pair(shape, u)
                sp, sr = to_pair(shape, sig.on_delta(u))
                assert sp == sig.on_alg(p)
                assert sr == sig.on_alg(r)
            for u in pool[:20]:
                for v in pool[:20]:
                    assert sig.on_delta(shape.add(u, v)) == shape.add(
                        sig.on_delta(u), sig.on_delta(v))

    pair_s = classical_pair(DeltaShape(ofasymp(2, F3)))
    big = enumerate_unitary(pair_s.big_shape)
    assert sum(1 for g in big if gu_member(g, pair_s)) == 48

    sig = sigma_linear(pair_s.big_shape)
    assert all(pair_s.image_member(sig.on_alg(pair_s.iota(x)))
               for x in pair_s.small.elements())
    sd = DeltaShape(pair_s.small)
    assert all(pair_s.delta_image_member(sig.on_delta(pair_s.iota_delta(u)))
               for u in sd.elements())
    pair_o = classical_pair(DeltaShape(ofaorth(2, F3)))
    assert all(sig.on_alg(pair_o.iota(x)) == pair_o.iota(x)
               for x in pair_o.small.elements())
    od = DeltaShape(pair_o.small)
    assert all(sig.on_delta(pair_o.iota_delta(u)) == pair_o.iota_delta(u)
               for u in od.elements())
    _verdict(9, "sigma is an order-2 automorphism swapping the idempotent "
                "halves; |GU| = 48; symp image stable, orth image fixed")


def test_criterion_10_cli_determinism(tmp_path):
    cases = (
        ["group", "invariants", "--family", "lin", "--n", "2",
         "--ring", "zmod:3"],
        ["axioms", "--family", "symp", "--n", "1", "--ring", "zmod:3",
         "--mode", "sampled", "--count", "200", "--seed", "5"],
        ["construct", "compare", "--family", "lin", "--n", "1",
         "--ring", "zmod:3", "--seed", "2"],
    )
    for idx, args in enumerate(cases):
        a = tmp_path / ("a%d.json" % idx)
        b = tmp_path / ("b%d.json" % idx)
        unitary._GROUP_CACHE.clear()
        assert cli_main(["--out", str(a)] + args) == 0
        unitary._GROUP_CACHE.clear()
        assert cli_main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes(), args
    blobs = set()
    for jn in ("1", "2", "5"):
        unitary._GROUP_CACHE.clear()
        out = tmp_path / ("jobs%s.json" % jn)
        code = cli_main(["--out", str(out), "group", "enumerate", "--family",
                         "orth-even", "--n", "1", "--ring", "zmod:3",
                         "--jobs", jn])
        assert code == 0
        blobs.add(out.read_bytes())
    assert len(blobs) == 1
    _verdict(10, "3 reports byte-stable across reruns; enumeration "
                 "byte-stable across --jobs 1/2/5")
