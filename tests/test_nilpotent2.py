import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofa.coeff_ring import (CapacityError, GaloisField, PolyQuotient, Product,
                            StructureError, ZMod, hom_compose, identity_hom,
                            parse_ring)
from ofa.form_ring import ofalin, ofaorth, ofasymp
from ofa.odd_form_param import DeltaShape
from ofa.nilpotent2 import (DescentDatum, Nil2Elem, Nil2Module, Nil2Morphism,
                            base_inclusion, boxtimes, counterexample_sqrt2,
                            delta_bridge_check, descend, descent_roundtrip,
                            invariant_closure, nil2_act, nil2_add,
                            nil2_axioms_check, nil2_elem_from_json,
                            nil2_elem_to_json, nil2_from_json, nil2_tau,
                            nil2_to_json, registered_tower, universality_probe)
from ofa.nilpotent2 import _CLOSURE_CAP, _map_coords

F2 = ZMod(2)
F3 = ZMod(3)
Z4 = ZMod(4)
F4 = GaloisField(2, [1, 1, 1])
F9 = GaloisField(3, [1, 0, 1])
R4 = PolyQuotient(Z4, [(1,), (1,), (1,)])


def heis(K):
    return Nil2Module(K, 1, 1, [[(K.one(),)]])


def upper(K):
    # nonabelian: b(e1, e2) = 1, all other basis pairs zero
    z, o = K.zero(), K.one()
    return Nil2Module(K, 2, 1, [[(z,), (o,)], [(z,), (z,)]])


def z4_quotient_module():
    g = Nil2Elem(((2,),), ((1,),))
    return Nil2Module(Z4, 1, 1, [[(Z4.one(),)]], quotient=[g])


def f2_quotient_module():
    # divide the rank-(2,1) module with b(e1,e1) = 1 by the line through e2
    z, o = F2.zero(), F2.one()
    g = Nil2Elem((z, o), (z,))
    return Nil2Module(F2, 2, 1, [[(o,), (z,)], [(z,), (z,)]], quotient=[g])


def test_axioms_exhaustive():
    cases = [heis(F2), heis(F3), heis(Z4), upper(F2), upper(F3),
             z4_quotient_module(), f2_quotient_module(),
             Nil2Module(F4, 1, 1, [[(F4.gen(),)]])]
    for M in cases:
        rep = nil2_axioms_check(M, seed=3)
        assert rep["pass"], (M, {k: v for k, v in rep.items() if v is False})


def test_module_cards():
    assert heis(F3).card == 9
    MQ = z4_quotient_module()
    assert len(MQ.X) == 4 and MQ.card == 4
    MF = f2_quotient_module()
    assert len(MF.X) == 2 and MF.card == 4
    assert Nil2Module(F2, 0, 0).card == 1


def test_op_wrappers():
    M = heis(F3)
    x = M.elem(((1,),), ((2,),))
    y = M.elem(((2,),), ((0,),))
    assert nil2_add(M, x, y) == M.add(x, y)
    assert nil2_act(M, x, (2,)) == M.act(x, (2,))
    t = nil2_tau(M, x)
    assert M.in_m0(t)
    # tau on M0 doubles
    d = M.m0_basis(0)
    assert nil2_tau(M, d) == M.add(d, d)


def test_closure_basics():
    M = heis(F2)
    assert invariant_closure(M, []) == frozenset((M._rzero(),))
    X = invariant_closure(M, [Nil2Elem(((1,),), ((0,),))])
    g = Nil2Elem(((1,),), ((0,),))
    assert M._ract(g, (1,)) in X
    assert M._radd(g, g) in X          # lands in M0: (0, 1)
    assert len(X) == 4
    # re-application is the identity
    assert invariant_closure(M, list(X)) == X


def test_quotient_rejects_non_normal():
    # b(e1,e2) = 1 but b(e2,e1) = 0, so commutators against e2 escape
    z, o = F2.zero(), F2.one()
    g = Nil2Elem((z, o), (z,))
    with pytest.raises(StructureError):
        Nil2Module(F2, 2, 1, [[(z,), (o,)], [(z,), (z,)]], quotient=[g])


def test_boxtimes_identity_and_m0_rule():
    M = heis(F3)
    N, emb = boxtimes(M, identity_hom(F3))
    assert N.same_presentation(M)
    assert sorted(emb(x) for x in M.elements()) == M.elements()

    inc = base_inclusion(F4)
    MH = heis(F2)
    N, emb = boxtimes(MH, inc)
    d = emb(MH.m0_basis(0))
    for e in F4.elements():
        lhs = N.act(d, e)
        rhs = N.m0_scale(F4.mul(e, e), d)
        assert lhs == rhs


def test_flat_injectivity_registered():
    for K, E in ((F2, F4), (F3, F9), (Z4, R4)):
        inc = base_inclusion(E)
        M = upper(K)
        N, emb = boxtimes(M, inc)
        img = {emb(x) for x in M.elements()}
        assert len(img) == M.card
        assert universality_probe(M, inc)["injective"]


def test_boxtimes_functoriality():
    for K, E, M in ((F2, F4, f2_quotient_module()), (Z4, R4, heis(Z4))):
        tw = registered_tower(E)
        inc = base_inclusion(E)
        NE, _ = boxtimes(M, inc)
        via_e = boxtimes(NE, tw.i1)[0]
        direct = boxtimes(M, hom_compose(tw.i1, inc))[0]
        assert via_e.same_presentation(direct)


def test_universality_probe_split_and_m0_only():
    inc = base_inclusion(F4)
    assert universality_probe(heis(F2), inc)["injective"]
    flat = Nil2Module(F2, 0, 2)
    rep = universality_probe(flat, inc)
    assert rep["injective"] and rep["kernel_card"] == 1


def test_counterexample_sqrt2_m4():
    rep = counterexample_sqrt2(4)
    assert rep["x_card"] == 8
    assert rep["module_card"] == 32
    assert rep["ext_card"] == 2 and rep["ext_x_card"] == 2
    assert rep["m0_image_zero"] is True
    assert rep["m0_image_card"] == 1
    assert rep["probe"]["injective"] is False
    assert rep["probe"]["witness"] == [[1]]


def test_counterexample_sqrt2_m2_degenerate():
    rep = counterexample_sqrt2(2)
    assert rep["m0_image_zero"] is True
    assert rep["probe"]["injective"] is False


def test_counterexample_sqrt2_guards_and_sanity_leg():
    with pytest.raises(StructureError):
        counterexample_sqrt2(3)
    with pytest.raises(StructureError):
        counterexample_sqrt2(1)
    # same pipeline without the quotient stays injective
    from ofa.coeff_ring import RingHom, hom_from_gen
    base = ZMod(4)
    K = PolyQuotient(base, [(2,), (0,), (1,)])
    M = Nil2Module(K, 1, 1, [[(K.one(),)]])
    to_f2 = hom_from_gen(K, F2, RingHom(base, F2, [F2.one()]), F2.zero())
    assert universality_probe(M, to_f2)["injective"]


def test_descent_roundtrip_three_modules_f2():
    for M in (heis(F2), upper(F2), f2_quotient_module()):
        rep = descent_roundtrip(M, F4)
        assert rep["iso"], rep
        assert rep["ext_card"] == M.card ** 2


def test_descent_roundtrip_other_bases():
    assert descent_roundtrip(heis(F3), F9)["iso"]
    assert descent_roundtrip(heis(Z4), R4)["iso"]


def test_trivial_module_descends_to_trivial():
    rep = descent_roundtrip(Nil2Module(F2, 0, 0), F4)
    assert rep["iso"] and rep["descended_card"] == 1


def test_descent_rejects_twisted_cocycle():
    tw = registered_tower(F4)
    N, _ = boxtimes(heis(F2), base_inclusion(F4))
    EE = tw.EE
    gamma = tw.i1(F4.gen())
    g2 = EE.mul(gamma, gamma)
    N1, _ = boxtimes(N, tw.i1)
    N2, _ = boxtimes(N, tw.i2)
    psi = Nil2Morphism(N1, N2, [Nil2Elem((gamma,), (EE.zero(),))], [[g2]])
    with pytest.raises(StructureError) as exc:
        DescentDatum(N, psi)
    assert hasattr(exc.value, "witness") and len(exc.value.witness) == 3


def test_descent_registry_guards():
    with pytest.raises(StructureError):
        registered_tower(Product((F2, F2)))
    with pytest.raises(StructureError):
        registered_tower(GaloisField(2, [1, 1, 0, 1]))
    with pytest.raises(StructureError):
        descent_roundtrip(heis(F2), GaloisField(2, [1, 1, 0, 1]))


def test_morphism_rejects_non_additive():
    M = heis(F3)
    # scaling M1 by 1 but M0 by 2 breaks the cocycle compatibility
    with pytest.raises(StructureError):
        Nil2Morphism(M, M, [M.basis_lift(0)], [[(2,)]])


def test_delta_bridge_classical_presets():
    cases = ((ofalin(1, F3), 120), (ofasymp(2, F2), 120),
             (ofaorth(2, F3), 120), (ofaorth(3, F2), 120))
    for alg, count in cases:
        rep = delta_bridge_check(DeltaShape(alg), count=count, seed=7)
        assert rep["pass"], rep


def test_json_roundtrip():
    for M in (heis(F3), z4_quotient_module(), f2_quotient_module()):
        M2 = nil2_from_json(nil2_to_json(M))
        assert M2.same_presentation(M)
    x = z4_quotient_module().elem(((3,),), ((2,),))
    assert nil2_elem_from_json(nil2_elem_to_json(x)) == x


def test_enumeration_cap():
    big = Nil2Module(ZMod(7), 4, 3)
    with pytest.raises(CapacityError):
        big.elements()


def _ref_closure(M, generators):
    """All-pairs fixed point over |+, the group inverse and every scalar
    action, one round at a time."""
    kel = list(M.K.elements())
    X = {M._rzero()}
    for g in generators:
        X.add(Nil2Elem(g[0], g[1]))
    while True:
        new = set()
        cur = list(X)
        for x in cur:
            y = M._rneg(x)
            if y not in X:
                new.add(y)
            for k in kel:
                y = M._ract(x, k)
                if y not in X:
                    new.add(y)
        for x in cur:
            for y in cur:
                z = M._radd(x, y)
                if z not in X:
                    new.add(z)
        if not new:
            return frozenset(X)
        X |= new
        if len(X) > _CLOSURE_CAP:
            raise CapacityError("invariant closure beyond %d elements"
                                % _CLOSURE_CAP)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("zmod:2", "zmod:3", "zmod:4", "gf:4")),
       st.integers(0, 3), st.integers(0, 2), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_closure_by_generators_matches_fixed_point(name, r1, r0, ngens, seed):
    K = parse_ring(name)
    rng = random.Random(seed)
    kel = list(K.elements())

    def vec(r):
        return tuple(rng.choice(kel) for _ in range(r))

    M = Nil2Module(K, r1, r0, [[vec(r0) for _ in range(r1)] for _ in range(r1)])
    gens = [Nil2Elem(vec(r1), vec(r0)) for _ in range(ngens)]
    assert invariant_closure(M, gens) == _ref_closure(M, gens)


def test_closure_cap_trips_just_below_the_closure_size(monkeypatch):
    import ofa.nilpotent2 as n2

    M = Nil2Module(F3, 3, 2, [[(F3.one(), F3.zero())] * 3] * 3)
    gens = [Nil2Elem((F3.one(), F3.zero(), F3.zero()), (F3.zero(), F3.zero())),
            Nil2Elem((F3.zero(), F3.one(), F3.one()), (F3.zero(), F3.one()))]
    size = len(invariant_closure(M, gens))
    monkeypatch.setattr(n2, "_CLOSURE_CAP", size - 1)
    with pytest.raises(CapacityError, match="invariant closure beyond %d" % (size - 1)):
        invariant_closure(M, gens)
    monkeypatch.setattr(n2, "_CLOSURE_CAP", size)
    assert len(invariant_closure(M, gens)) == size
