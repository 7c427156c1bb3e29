import hashlib
import json
import random
from types import SimpleNamespace

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
from ofa.cli import main as cli_main
from ofa.nilpotent2 import _CLOSURE_CAP, _MOR_SEED, _equalizer, _map_coords, _transport

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


def test_morphism_check_past_the_closure_cap():
    # the quotient by all of M1 and M0 has 8^5 = 32,768 elements
    K = ZMod(8)
    gens = [Nil2Elem(tuple(K.from_int(int(i == j)) for j in range(2)), (K.zero(),) * 3)
            for i in range(2)]
    gens += [Nil2Elem((K.zero(),) * 2, tuple(K.from_int(int(i == j)) for j in range(3)))
             for i in range(3)]
    M = Nil2Module(K, 2, 3, quotient=gens)
    assert M.x_card == 8 ** 5 > _CLOSURE_CAP
    ident = [[K.from_int(int(i == j)) for j in range(3)] for i in range(3)]
    f = Nil2Morphism(M, M, gens[:2], ident, check=True)  # the identity
    assert f(M.zero()) == M.zero()


def test_morphism_from_a_quotient_to_the_split_module_is_rejected():
    Q, S = z4_quotient_module(), heis(Z4)
    with pytest.raises(StructureError, match="map does not kill the quotient"):
        Nil2Morphism(Q, S, [S.basis_lift(0)], [[Z4.one()]], require_iso=False)


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("zmod:2", "zmod:3", "zmod:4", "gf:4")),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_json_roundtrip_property(name, r1, r0, ngens, seed):
    """Random cocycles, and quotients by random generators where those
    close to a normal subgroup (the others are refused on both sides)."""
    K = parse_ring(name)
    rng = random.Random(seed)
    kel = list(K.elements())

    def vec(r):
        return tuple(rng.choice(kel) for _ in range(r))

    b = [[vec(r0) for _ in range(r1)] for _ in range(r1)]
    gens = [Nil2Elem(vec(r1), vec(r0)) for _ in range(ngens)]
    try:
        M = Nil2Module(K, r1, r0, b, quotient=gens)
    except StructureError:
        with pytest.raises(StructureError):
            nil2_from_json(json.loads(json.dumps(nil2_to_json(
                Nil2Module(K, r1, r0, b, quotient=gens, check=False)))))
        return
    M2 = nil2_from_json(json.loads(json.dumps(nil2_to_json(M))))
    assert M2.same_presentation(M) and M2.card == M.card


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


def _ref_equalizer(D):
    """The descent equalizer by the element loop over D.N."""
    tw = D.tower
    return {n for n in D.N.elements()
            if D.psi(D.N1.reduce(_map_coords(n, tw.i1)))
            == D.N2.reduce(_map_coords(n, tw.i2))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("zmod:2", "zmod:3", "zmod:4", "gf:4")),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_span_reduce_is_the_coset_minimum(name, r1, r0, ngens, seed):
    # the spans do not assume normality, so unchecked quotients count too
    K = parse_ring(name)
    rng = random.Random(seed)
    kel = list(K.elements())

    def vec(r):
        return tuple(rng.choice(kel) for _ in range(r))

    b = [[vec(r0) for _ in range(r1)] for _ in range(r1)]
    gens = [Nil2Elem(vec(r1), vec(r0)) for _ in range(ngens)]
    M = Nil2Module(K, r1, r0, b, quotient=gens, check=False)
    X = _ref_closure(M, gens)
    assert M.x_card == len(X) and M.X == X
    elems = M.elements()
    assert elems == sorted(set(elems)) and len(elems) == M.card
    for _ in range(8):
        x = Nil2Elem(vec(r1), vec(r0))
        r = M.reduce(x)
        assert r == min(M._radd(x, a) for a in X) and r in elems


def _descent_data():
    z, o = F2.zero(), F2.one()
    quotiented = Nil2Module(F2, 2, 1, [[(o,), (z,)], [(z,), (z,)]],
                            quotient=[Nil2Elem((z, o), (z,))])
    cases = [(M, F4) for M in (heis(F2), upper(F2), f2_quotient_module(),
                               quotiented, Nil2Module(F2, 0, 0),
                               Nil2Module(F2, 0, 2))]
    cases += [(heis(F3), F9), (upper(F3), F9), (heis(Z4), R4), (upper(Z4), R4),
              (z4_quotient_module(), R4)]
    return cases


@pytest.mark.parametrize("M,E", _descent_data())
def test_solved_equalizer_matches_element_loop(M, E):
    D = DescentDatum(boxtimes(M, base_inclusion(E))[0])
    eq = _equalizer(D)
    assert eq == _ref_equalizer(D)
    assert len(eq) == M.card


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(((F2, F4, 3), (F3, F9, 3), (Z4, R4, 2))),
       st.integers(0, 2), st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
def test_solved_equalizer_on_random_cocycles(case, r1, ngens, seed):
    K, E, top = case
    r0 = min(top - r1, 1) if r1 < top else 0
    rng = random.Random(seed)
    kel = list(K.elements())

    def vec(r):
        return tuple(rng.choice(kel) for _ in range(r))

    b = [[vec(r0) for _ in range(r1)] for _ in range(r1)]
    try:
        M = Nil2Module(K, r1, r0, b,
                       quotient=[Nil2Elem(vec(r1), vec(r0)) for _ in range(ngens)])
    except StructureError:
        return  # a closure that is not normal gives no module (about 3%)
    D = DescentDatum(boxtimes(M, base_inclusion(E))[0])
    assert _equalizer(D) == _ref_equalizer(D)


@pytest.mark.parametrize("M,E", _descent_data())
def test_cocycle_holds_on_seeded_samples(M, E):
    """The descent cocycle is checked on generators only; the transported
    maps must then agree on 50 seeded samples of the module too."""
    D = DescentDatum(boxtimes(M, base_inclusion(E))[0])
    tw = D.tower
    j1, j2, j3 = tw.face_maps()
    NJ1, NJ2, NJ3 = (boxtimes(D.N, j)[0] for j in (j1, j2, j3))
    p12 = _transport(D.psi, tw.i12, NJ1, NJ2)
    p23 = _transport(D.psi, tw.i23, NJ2, NJ3)
    p13 = _transport(D.psi, tw.i13, NJ1, NJ3)
    rng = random.Random(_MOR_SEED)
    for _ in range(50):
        x = NJ1.sample(rng)
        assert p23(p12(x)) == p13(x)


def test_solved_equalizer_under_a_unit_twist():
    """The equalizer of psi . i1 and i2 for psi the action of a unit u of
    E (x) E, which is a module map N1 -> N2 but not a descent datum; over
    Z4 -> R4 the quotient has X0 != 0, so the M0 solve must work modulo
    X0 of N2."""
    tw = registered_tower(R4)
    N = boxtimes(z4_quotient_module(), base_inclusion(R4))[0]
    N1, N2, EE = boxtimes(N, tw.i1)[0], boxtimes(N, tw.i2)[0], tw.EE
    assert N2._spans.form0
    for u in EE.elements():
        if EE.try_invert(u) is None:
            continue
        # x -> x . u is a module map: the action respects |+ and commutes
        psi = Nil2Morphism(N1, N2, [Nil2Elem((u,), (EE.zero(),))], [[EE.mul(u, u)]],
                           check=False)
        D = SimpleNamespace(tower=tw, N=N, N1=N1, N2=N2, psi=psi)
        assert _equalizer(D) == _ref_equalizer(D), u


def _bench_module_json(s):
    """The seeded split module over Z/3 (r1=3, r0=1) of the bench workload."""
    rng = random.Random(s)
    b = [[[[rng.randrange(3)]] for _ in range(3)] for _ in range(3)]
    return json.dumps({"ring": {"zmod": 3}, "r1": 3, "r0": 1, "b": b,
                       "quotient_generators": []}, sort_keys=True)


NIL2_PINNED = (
    ("nil2 counterexample --modulus 4",
     "c8967be7312ede4d7456cde3e46a3ce32e2b1a89538a204b206de37bfe89fb87"),
    ("nil2 counterexample --modulus 16",
     "c97a32340fd6dbd4e14089229172b24a62295f71d5653071d81cbeb6288beec8"),
    ("nil2 extend --module bench.json --ext polyquot:zmod:3:1,0,1",
     "02e90734c8a134e70215f1d18917a36abde12c462c319ff344e6f979299b7214"),
    ("nil2 probe --module bench.json --ext polyquot:zmod:3:1,0,1",
     "7f56da4d97e2b9a9c34c7f8715e9e4644807b2b76e8773b01029a146d12ec3e2"),
    ("nil2 descend --module bench.json --ext polyquot:zmod:3:1,0,1",
     "ca98f03faaac88bd05e5636cb2b4059f9482ec09d7775dff60c53dd049e8665c"),
    ("nil2 extend --module f2q.json --ext polyquot:zmod:2:1,1,1",
     "4da4b2b6def6190a8bb9685bc3cb739a745f4b29555806d5e0d8fcc24415262d"),
    ("nil2 probe --module f2q.json --ext polyquot:zmod:2:1,1,1",
     "ac1a8ae716428fe1a85ade04de42264c900bda263e4d1edb1b2f3ceabcc1e486"),
    ("nil2 descend --module f2q.json --ext polyquot:zmod:2:1,1,1",
     "66085ba8debca5ec8877854fce13706db8061a62f3214006d5529a99d8cf6aab"),
)


@pytest.mark.parametrize("argv,digest", NIL2_PINNED)
def test_nil2_report_bytes_pinned(argv, digest, tmp_path, monkeypatch, capsys):
    # digests of the reports the element-set quotients gave; the module
    # path is part of the report, so the files sit in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text(_bench_module_json(3))
    (tmp_path / "f2q.json").write_text(json.dumps(nil2_to_json(f2_quotient_module())))
    assert cli_main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
