"""2-step nilpotent modules over finite commutative rings.

A module here is a central extension of a free coordinate module M1 by a
free coordinate module M0 along a bilinear cocycle, optionally divided by
a finite invariant subgroup.  The group law is

    (m1 |+ m0) |+ (m1' |+ m0') = (m1 + m1') |+ (m0 + b(m1, m1') + m0'),

the scalar monoid acts by (m1 |+ m0) . k = (k m1 |+ k^2 m0), and
tau(m1 |+ m0) = 2 m0 - b(m1, m1) lands in M0.

A quotient X is kept as spans, not as an element set.  Its projection X1
to M1 and its part X0 = X cap M0 are subgroups of coordinate modules, in
Howell form (linalg.howell_form), and X = {(x1, s(x1) + c) : x1 in X1, c
in X0} for a section s, kept as one lift in X of each X1 Howell row.  The
lex-least member of a coset is two greedy reductions: over X1, adding
powers of those lifts so the M0 part follows, then over X0.  |X|,
equality of quotients and the quotient checks read off the forms; X is
enumerated only on request (invariant_closure, Nil2Module.X).

On top of the group structure the module supports scalar extension along
a ring map (with the quotient pushed forward through the closure of its
generator images and the E-span of the image of X0; the universality
probe reads the kernel of E tensor M0 -> M boxtimes E off the X0 Howell
form of the extension, without a scan) and descent along a small
registry of free quadratic ring extensions, where the descended module
is the equalizer of the two coordinate maps into the tensor square,
twisted by a cocycle-checked isomorphism.  The equalizer is solved, not
scanned: a Howell kernel for the M1 parts, then one affine solve for the
M0 parts over each of them.
"""

import itertools
import math
import random

from .coeff_ring import (
    CapacityError,
    PolyQuotient,
    RingHom,
    StructureError,
    TensorTower,
    ZMod,
    _basis,
    _int_lists,
    hom_from_gen,
    ring_from_json,
    ring_to_json,
)
from .linalg import (GraphForm, howell_card, howell_form, howell_reduce,
                     howell_span, k_mat_inv, k_mat_vec, unflat, vadd, vflat,
                     vneg, vscale, vsub, vzero)
from . import odd_form_param as ofp

_AMBIENT_CAP = 1 << 16
_RANK_CAP = 1 << 10
_CLOSURE_CAP = 1 << 12
_MOR_EXH_CAP = 1 << 7
# nil2_axioms_check runs an axiom exhaustively while its argument grid fits
_AXIOM_EXH_CAP = 1 << 12
_MOR_SAMPLES = 300
_MOR_SEED = 1721


class Nil2Elem(tuple):
    """Element (m1, m0): a pair of coordinate vectors, lex-comparable."""

    __slots__ = ()

    def __new__(cls, m1, m0):
        return tuple.__new__(cls, (tuple(m1), tuple(m0)))

    @property
    def m1(self):
        return self[0]

    @property
    def m0(self):
        return self[1]

    def __repr__(self):
        return "Nil2Elem(%r, %r)" % (self[0], self[1])


def _unit_vec(K, n, a):
    """The vector of K^n with Z-basis element a % rank at slot a // rank."""
    e = _basis(K)[a % K.rank]
    return tuple(e if i == a // K.rank else K.zero() for i in range(n))


def _power(M, x, n):
    """x |+ ... |+ x, n times, for any integer n: (n x1, n x0 + C(n, 2)
    b(x1, x1)) is additive in n."""
    K = M.K
    m0 = vadd(K, vscale(K, K.from_int(n), x.m0),
              vscale(K, K.from_int(n * (n - 1) // 2), M._bval(x.m1, x.m1)))
    return Nil2Elem(vscale(K, K.from_int(n), x.m1), m0)


def _word(M, xs, ns):
    """x_0^n_0 |+ x_1^n_1 |+ ... in that order."""
    acc = M._rzero()
    for x, n in zip(xs, ns):
        if n:
            acc = M._radd(acc, _power(M, x, n))
    return acc


class _Spans:
    """The subgroup X of M's ambient group generated by S = {g . k : g a
    generator, k in K}, as the Howell forms of X1 and X0 plus a lift in X
    of each X1 row.

    X is already generated by the g . e for e in a Z-basis of K together
    with (0, e tau(g)), since g . (k + l) = g . k |+ (0, kl tau(g)) |+ g . l.
    Call the first kind T.  X1 is spanned by the M1 parts of T.  X0 is
    spanned by the (0, e tau(g)), the commutators b(u, v) - b(v, u) of M1
    parts of T, and t_0^n_0 |+ t_1^n_1 |+ ... for n running over
    generators of the relations among the M1 parts (in a group whose
    commutators are central, X0 / [X, X] is the image of the relation
    lattice).  Those generators are the kernel rows of [T1 | I] mod L =
    lcm of the slot moduli, and L times each unit vector; the latter give
    (g . e)^L = (0, -C(L, 2) e^2 tau(g)), already a tau term.  The same
    Howell form hands each X1 row its coefficients over T, and so its
    lift.
    """

    def __init__(self, M, generators):
        self.K = K = M.K
        self.mods1 = K.moduli * M.r1
        self.mods0 = K.moduli * M.r0
        n1 = len(self.mods1)
        L = math.lcm(*K.moduli)
        basis = _basis(K)
        gens = [Nil2Elem(g[0], g[1]) for g in generators]
        ts = [M._ract(g, e) for g in gens for e in basis]
        span0 = [vflat(vscale(K, e, M._rtau(g).m0)) for g in gens for e in basis]
        span0 += [vflat(vsub(K, M._bval(u.m1, v.m1), M._bval(v.m1, u.m1)))
                  for u, v in itertools.combinations(ts, 2)]
        form = howell_form([vflat(t.m1) + [int(i == j) for j in range(len(ts))]
                            for i, t in enumerate(ts)],
                           self.mods1 + (L,) * len(ts))
        lifts = []
        for c, h in form:
            w = _word(M, ts, h[n1:])
            if c < n1:
                lifts.append((c, h[:n1], w))
            else:
                span0.append(vflat(w.m0))
        self.form1 = [(c, h1) for c, h1, _ in lifts]
        self.form0 = howell_form(span0, self.mods0)
        # per X1 row: x1 -> b(x1, h1) on the flat unit vectors, and b(h1, h1)
        units = [_unit_vec(K, M.r1, a) for a in range(n1)]
        self.rows1 = [(c, h1, vflat(w.m0),
                       [vflat(M._bval(u, w.m1)) for u in units],
                       vflat(M._bval(w.m1, w.m1)))
                      for c, h1, w in lifts]
        self.lifts = [w for _, _, w in lifts]
        self.card = howell_card(self.form1, self.mods1) * howell_card(self.form0, self.mods0)
        self.key = (tuple((c, tuple(h)) for c, h in self.form1),
                    tuple((c, tuple(h)) for c, h in self.form0),
                    tuple(tuple(self.reduce0(r[2])) for r in self.rows1))

    def reduce0(self, v):
        return howell_reduce(self.form0, v, self.mods0)

    def reduce(self, x):
        """The lex-least member of x |+ X.  Row by X1 row, in pivot order,
        add the power of the row's lift that takes the pivot coordinate to
        its residue mod the pivot (the group law carries M0 along); then
        reduce M0 over X0."""
        if not self.rows1 and not self.form0:
            return x
        x1, x0 = vflat(x.m1), vflat(x.m0)
        m1, m0 = self.mods1, self.mods0
        for c, h1, l0, bx, bhh in self.rows1:
            q = x1[c] // h1[c]
            if not q:
                continue
            # x |+ lift^-q = (x1 - q h1, x0 - q b(x1, h1) - q l0 + C(-q, 2) b(h1, h1))
            c2 = q * (q + 1) // 2
            bxh = [0] * len(m0)
            for a, v in enumerate(x1):
                if v:
                    bxh = [s + v * y for s, y in zip(bxh, bx[a])]
            x0 = [(v - q * (s + t) + c2 * u) % m
                  for v, s, t, u, m in zip(x0, bxh, l0, bhh, m0)]
            x1 = [(v - q * h) % m for v, h, m in zip(x1, h1, m1)]
        return Nil2Elem(unflat(x1, self.K.rank), unflat(self.reduce0(x0), self.K.rank))

    def elements(self, M):
        """X, enumerated: each word in the lifts, then each X0 shift."""
        if self.card > _CLOSURE_CAP:
            raise CapacityError("invariant closure beyond %d elements"
                                % _CLOSURE_CAP)
        K = M.K
        shifts = [unflat(c, K.rank) for c in howell_span(self.form0, self.mods0).tolist()]
        out = []
        for qs in itertools.product(*[range(self.mods1[c] // h[c])
                                      for c, h in self.form1]):
            w = _word(M, self.lifts, qs)
            out.extend(Nil2Elem(w.m1, vadd(K, w.m0, c)) for c in shifts)
        return frozenset(out)


def _reduced_ranges(form, mods):
    """Coordinate ranges of the vectors a Howell form leaves fixed: below
    the pivot on a pivot column, free elsewhere.  Their product lists each
    lex-least coset member once, in lex order."""
    top = list(mods)
    for c, h in form:
        top[c] = h[c]
    return [range(t) for t in top]


class Nil2Module:
    """Split central extension with an optional invariant-subgroup quotient.

    ``b`` is the cocycle value table on basis pairs: b[i][j] is a vector
    of length r0.  ``quotient`` lists ambient elements whose closure under
    |+, the group inverse, and every scalar action is divided out; the
    closure must be normal and must meet M0 in a scalar-stable submodule,
    otherwise the quotient carries no module structure and we refuse it.
    Elements are always handled through their lex-least coset member.
    """

    def __init__(self, K, r1, r0, b=None, quotient=None, check=True):
        if r1 < 0 or r0 < 0:
            raise StructureError("negative rank")
        if max(r1, r0) > _RANK_CAP:
            raise CapacityError("module ranks %d, %d over cap %d" % (r1, r0, _RANK_CAP))
        self.K = K
        self.r1 = r1
        self.r0 = r0
        if b is None:
            b = [[vzero(K, r0)] * r1 for _ in range(r1)]
        if len(b) != r1 or any(len(row) != r1 for row in b):
            raise StructureError("cocycle table must be %d x %d" % (r1, r1))
        bt = []
        for row in b:
            brow = []
            for val in row:
                val = tuple(val)
                if len(val) != r0:
                    raise StructureError("cocycle value has wrong length")
                for c in val:
                    K.check_element(c)
                brow.append(val)
            bt.append(tuple(brow))
        self.b = tuple(bt)
        self.ambient_card = K.card ** (r1 + r0)
        self.gens = tuple(Nil2Elem(g[0], g[1]) for g in (quotient or ()))
        for g in self.gens:
            self._check_elem_coords(g)
        self._spans = _Spans(self, self.gens)
        if self.gens and check:
            self._check_quotient()
        self.x_card = self._spans.card
        self.card = self.ambient_card // self.x_card
        self._X = None
        self._kel = None
        self._elems = None
        self._m0_elems = None
        self._corr = {}

    @property
    def X(self):
        """The quotient subgroup as a frozenset of ambient elements."""
        if self._X is None:
            self._X = self._spans.elements(self)
        return self._X

    # ---- raw (ambient) operations ------------------------------------

    def _check_elem_coords(self, x):
        if len(x.m1) != self.r1 or len(x.m0) != self.r0:
            raise StructureError("element shape mismatch")
        for c in x.m1 + x.m0:
            self.K.check_element(c)

    def _bval(self, u, v):
        K = self.K
        out = vzero(K, self.r0)
        for i in range(self.r1):
            if not any(u[i]):
                continue
            for j in range(self.r1):
                if not any(v[j]):
                    continue
                out = vadd(K, out, vscale(K, K.mul(u[i], v[j]), self.b[i][j]))
        return out

    def _rzero(self):
        return Nil2Elem(vzero(self.K, self.r1), vzero(self.K, self.r0))

    def _radd(self, x, y):
        K = self.K
        m0 = vadd(K, vadd(K, x.m0, self._bval(x.m1, y.m1)), y.m0)
        return Nil2Elem(vadd(K, x.m1, y.m1), m0)

    def _rneg(self, x):
        K = self.K
        return Nil2Elem(vneg(K, x.m1), vsub(K, self._bval(x.m1, x.m1), x.m0))

    def _ract(self, x, k):
        K = self.K
        return Nil2Elem(vscale(K, k, x.m1), vscale(K, K.mul(k, k), x.m0))

    def _rtau(self, x):
        K = self.K
        m0 = vsub(K, vadd(K, x.m0, x.m0), self._bval(x.m1, x.m1))
        return Nil2Elem(vzero(K, self.r1), m0)

    def _check_quotient(self):
        """Normality and scalar-stability of X0, on generators: the
        commutator with e_i is additive in the X1 part, and so is scaling
        in the X0 part."""
        K, sp = self.K, self._spans
        basis = [tuple(K.one() if t == i else K.zero() for t in range(self.r1))
                 for i in range(self.r1)]
        for _, h1 in sp.form1:
            a1 = unflat(h1, K.rank)
            for e in basis:
                comm = vsub(K, self._bval(e, a1), self._bval(a1, e))
                if any(sp.reduce0(vflat(comm))):
                    raise StructureError("quotient subgroup is not normal")
        for _, h0 in sp.form0:
            for e in _basis(K):
                if any(sp.reduce0(vflat(vscale(K, e, unflat(h0, K.rank))))):
                    raise StructureError("quotient meets M0 in a non-submodule")

    # ---- coset normal forms and public operations --------------------

    def reduce(self, x):
        return self._spans.reduce(x)

    def zero(self):
        return self.reduce(self._rzero())

    def elem(self, m1, m0):
        x = Nil2Elem(m1, m0)
        self._check_elem_coords(x)
        return self.reduce(x)

    def add(self, x, y):
        return self.reduce(self._radd(x, y))

    def neg(self, x):
        return self.reduce(self._rneg(x))

    def act(self, x, k):
        return self.reduce(self._ract(x, k))

    def tau(self, x):
        return self.reduce(self._rtau(x))

    def comm(self, x, y):
        return self.add(self.add(self.add(x, y), self.neg(x)), self.neg(y))

    def in_m0(self, x):
        return not any(any(c) for c in x.m1)

    def m0_scale(self, k, x):
        if not self.in_m0(x):
            raise StructureError("left scaling is only defined on M0")
        return self.reduce(Nil2Elem(x.m1, vscale(self.K, k, x.m0)))

    def elements(self):
        if self._elems is None:
            if self.ambient_card > _AMBIENT_CAP:
                raise CapacityError(
                    "module enumeration over %d ambient elements"
                    % self.ambient_card)
            sp, K, n1 = self._spans, self.K, self.r1 * self.K.rank
            ranges = (_reduced_ranges(sp.form1, sp.mods1)
                      + _reduced_ranges(sp.form0, sp.mods0))
            self._elems = [Nil2Elem(unflat(v[:n1], K.rank), unflat(v[n1:], K.rank))
                           for v in itertools.product(*ranges)]
            if len(self._elems) != self.card:
                raise StructureError("coset count does not match the index")
        return self._elems

    def m0_elements(self):
        if self._m0_elems is None:
            sp, K = self._spans, self.K
            zero1 = vzero(K, self.r1)
            self._m0_elems = [
                Nil2Elem(zero1, unflat(v, K.rank))
                for v in itertools.product(*_reduced_ranges(sp.form0, sp.mods0))]
        return self._m0_elems

    def basis_lift(self, i):
        """The M1 basis vector e_i with zero M0 part, reduced."""
        e = tuple(self.K.one() if t == i else self.K.zero()
                  for t in range(self.r1))
        return self.reduce(Nil2Elem(e, vzero(self.K, self.r0)))

    def m0_basis(self, j):
        v = tuple(self.K.one() if t == j else self.K.zero()
                  for t in range(self.r0))
        return self.reduce(Nil2Elem(vzero(self.K, self.r1), v))

    def lift_m1(self, m1):
        """|+ of e_i . m1_i in order; m0 part is the cocycle correction."""
        acc = self._rzero()
        for i in range(self.r1):
            e = tuple(self.K.one() if t == i else self.K.zero()
                      for t in range(self.r1))
            acc = self._radd(acc, self._ract(Nil2Elem(
                e, vzero(self.K, self.r0)), m1[i]))
        return acc

    def corr(self, m1):
        v = self._corr.get(m1)
        if v is None:
            v = self.lift_m1(m1).m0
            self._corr[m1] = v
        return v

    def same_presentation(self, other):
        return (self.K.name == other.K.name and self.r1 == other.r1
                and self.r0 == other.r0 and self.b == other.b
                and self._spans.key == other._spans.key)

    def sample(self, rng):
        if self._kel is None:
            self._kel = list(self.K.elements())
        kel = self._kel
        m1 = tuple(rng.choice(kel) for _ in range(self.r1))
        m0 = tuple(rng.choice(kel) for _ in range(self.r0))
        return self.reduce(Nil2Elem(m1, m0))

    def __repr__(self):
        return "<nil2 %s r1=%d r0=%d |X|=%d>" % (
            self.K.name, self.r1, self.r0, self.x_card)


def invariant_closure(M, generators):
    """Least subset containing the generators that is closed under |+,
    the group inverse, and the scalar action, as a frozenset of ambient
    elements: the subgroup generated by {g . k : g a generator, k in K}.
    It is scalar-stable because the action is additive and (x . k) . l =
    x . (kl).  Built as spans (see _Spans) and enumerated from them, so
    _CLOSURE_CAP bounds only the enumeration."""
    return _Spans(M, generators).elements(M)


# ---- axioms ----------------------------------------------------------

NIL2_AXIOMS = (
    ("add-assoc", "eee",
     lambda M, x, y, z: M.add(M.add(x, y), z) == M.add(x, M.add(y, z))),
    ("add-zero", "e",
     lambda M, x: M.add(x, M.zero()) == x),
    ("add-neg", "e",
     lambda M, x: M.add(x, M.neg(x)) == M.zero()),
    ("act-one", "e",
     lambda M, x: M.act(x, M.K.one()) == x),
    ("act-endo", "eek",
     lambda M, x, y, k: M.act(M.add(x, y), k) == M.add(M.act(x, k),
                                                       M.act(y, k))),
    ("act-mul", "ekk",
     lambda M, x, k, l: M.act(M.act(x, k), l) == M.act(x, M.K.mul(k, l))),
    ("comm-in-m0", "ee",
     lambda M, x, y: M.in_m0(M.comm(x, y))),
    ("m0-central", "em",
     lambda M, x, d: M.comm(x, d) == M.zero()),
    ("comm-act", "eekk",
     lambda M, x, y, k, l: M.comm(M.act(x, k), M.act(y, l))
     == M.m0_scale(M.K.mul(k, l), M.comm(x, y))),
    ("act-add-scalar", "ekk",
     lambda M, x, k, l: M.act(x, M.K.add(k, l))
     == M.add(M.add(M.act(x, k), M.m0_scale(M.K.mul(k, l), M.tau(x))),
              M.act(x, l))),
    ("m0-act-square", "mk",
     lambda M, d, k: M.act(d, k) == M.m0_scale(M.K.mul(k, k), d)),
    ("tau-in-m0", "e",
     lambda M, x: M.in_m0(M.tau(x))),
    ("tau-double", "m",
     lambda M, d: M.tau(d) == M.add(d, d)),
    ("tau-neg-act", "e",
     lambda M, x: M.tau(x) == M.add(x, M.act(x, M.K.neg(M.K.one())))),
    ("tau-add", "ee",
     lambda M, x, y: M.tau(M.add(x, y))
     == M.add(M.add(M.tau(x), M.comm(x, y)), M.tau(y))),
    ("tau-act", "ek",
     lambda M, x, k: M.tau(M.act(x, k))
     == M.m0_scale(M.K.mul(k, k), M.tau(x))),
)


def nil2_axioms_check(M, count=2000, seed=0):
    """Verify the defining identities; exhaustive per axiom while the
    argument grid fits under _AXIOM_EXH_CAP, seeded sampling beyond."""
    pools = {"e": M.elements(), "m": M.m0_elements(),
             "k": list(M.K.elements())}
    rng = random.Random(seed)
    report = {}
    for name, sig, pred in NIL2_AXIOMS:
        grids = [pools[c] for c in sig]
        total = 1
        for g in grids:
            total *= len(g)
        ok = True
        if total <= _AXIOM_EXH_CAP:
            for args in itertools.product(*grids):
                if not pred(M, *args):
                    ok = False
                    break
        else:
            for _ in range(count):
                args = [rng.choice(g) for g in grids]
                if not pred(M, *args):
                    ok = False
                    break
        report[name] = ok
    report["pass"] = all(report.values())
    return report


# ---- scalar extension ------------------------------------------------

def _map_coords(x, f):
    return Nil2Elem(tuple(f(c) for c in x.m1), tuple(f(c) for c in x.m0))


def boxtimes(M, f):
    """Scalar extension along the ring map f: K -> E.

    The split part keeps the ranks and pushes the cocycle table through
    f; the quotient part is the closure of the images of the quotient
    generators and of the E-span of the image of X0.  The images'
    closure is stable under the k^2 action on M0 only, so the multiples
    (0, e f(h0)) it misses, for h0 an X0 Howell row of M and e in the
    Z-basis of E, join the generators.  Returns (N, embed) where embed
    sends x to x boxtimes 1.
    """
    if f.dom != M.K:
        raise StructureError("scalar extension needs a map out of the base")
    E = f.cod
    b2 = [[tuple(f(c) for c in M.b[i][j]) for j in range(M.r1)]
          for i in range(M.r1)]
    gens2 = [_map_coords(g, f) for g in M.gens]
    N = Nil2Module(E, M.r1, M.r0, b2, quotient=gens2, check=False)
    images = [tuple(f(c) for c in unflat(h0, M.K.rank)) for _, h0 in M._spans.form0]
    extra = [Nil2Elem(vzero(E, M.r1), v) for v in
             (vscale(E, e, h) for h in images for e in _basis(E))
             if any(N._spans.reduce0(vflat(v)))]
    if extra:
        N = Nil2Module(E, M.r1, M.r0, b2, quotient=gens2 + extra, check=False)
    if N.gens:
        N._check_quotient()

    def embed(x):
        return N.reduce(_map_coords(x, f))

    return N, embed


def universality_probe(M, f):
    """Kernel of E tensor M0 -> M boxtimes E on coordinates: the vectors v
    with (0, v) in the extended quotient, which is X0 of N = M boxtimes E,
    read off its Howell form.  By the Howell property the nonzero members
    that vanish before the last pivot column are the multiples of the last
    row, and every other nonzero member is lex-larger, so the lex-least
    nonzero member is the least nonzero multiple of that row."""
    N, _ = boxtimes(M, f)
    form0, mods0 = N._spans.form0, N._spans.mods0
    witness = None
    if form0:
        c, h = form0[-1]
        witness = min([(k * x) % q for x, q in zip(h, mods0)]
                      for k in range(1, mods0[c] // h[c]))
    return {
        "injective": witness is None,
        "kernel_card": howell_card(form0, mods0),
        "witness": None if witness is None else [list(c) for c in unflat(witness, f.cod.rank)],
    }


def counterexample_sqrt2(m):
    """Finite surrogate of the quotient module over Z[sqrt 2] whose M0
    collapses after base change to GF(2).

    Works over K = (Z/m)[s]/(s^2 - 2) with the split module K |+ K,
    b(x, y) = xy, divided by the closure of s |+ 1.  The base change
    sends s to 0, which needs m even.  The report states whether the
    image of GF(2) tensor M0 inside the extension is zero; the verdict
    is computed from the closure, not assumed.
    """
    if m < 2 or m % 2:
        raise StructureError("modulus must be an even integer >= 2")
    base = ZMod(m)
    K = PolyQuotient(base, [((m - 2) % m,), (0,), (1,)])
    gen = Nil2Elem((K.gen(),), (K.one(),))
    M = Nil2Module(K, 1, 1, [[(K.one(),)]], quotient=[gen])
    F2 = ZMod(2)
    to_f2 = hom_from_gen(K, F2, RingHom(base, F2, [F2.one()], name="red2"),
                         F2.zero(), name="sqrt2->0")
    N, _ = boxtimes(M, to_f2)
    zero1 = vzero(F2, 1)
    image = sorted({N.reduce(Nil2Elem(zero1, (v,)))
                    for v in F2.elements()})
    probe = universality_probe(M, to_f2)
    return {
        "modulus": m,
        "base_ring": K.name,
        "generator": nil2_elem_to_json(gen),
        "x_card": M.x_card,
        "module_card": M.card,
        "ext_x_card": N.x_card,
        "ext_card": N.card,
        "m0_image": [nil2_elem_to_json(x) for x in image],
        "m0_image_card": len(image),
        "m0_image_zero": image == [N.zero()],
        "probe": probe,
    }


# ---- morphisms -------------------------------------------------------

class Nil2Morphism:
    """Map between modules over the same ring, stored as the images of
    the M1 basis lifts plus a matrix on M0 coordinates.

    A general element factors as lift(m1) |+ (0, m0 - correction), so
    those images determine the map.  Validation checks additivity and
    action compatibility on the actual coset representatives (exhaustive
    for small modules, seeded sampling otherwise), that the domain
    quotient maps into the codomain quotient, and for isomorphisms that
    both coordinate matrices invert.
    """

    def __init__(self, dom, cod, gen_images, m0_matrix, check=True,
                 require_iso=True):
        if dom.K != cod.K:
            raise StructureError("morphism needs a common coefficient ring")
        if len(gen_images) != dom.r1:
            raise StructureError("need one image per M1 basis vector")
        if len(m0_matrix) != cod.r0 or any(len(r) != dom.r0
                                           for r in m0_matrix):
            raise StructureError("M0 matrix must be %d x %d"
                                 % (cod.r0, dom.r0))
        self.dom = dom
        self.cod = cod
        self.gen_images = [Nil2Elem(u[0], u[1]) for u in gen_images]
        self.m0_matrix = tuple(tuple(row) for row in m0_matrix)
        if check:
            self._validate(require_iso)

    def __call__(self, x):
        dom, cod, K = self.dom, self.cod, self.dom.K
        acc = cod._rzero()
        for i in range(dom.r1):
            acc = cod._radd(acc, cod._ract(self.gen_images[i], x.m1[i]))
        resid = vsub(K, x.m0, dom.corr(x.m1))
        if cod.r0:
            v = k_mat_vec(K, self.m0_matrix, list(resid)) if dom.r0 else \
                vzero(K, cod.r0)
            acc = cod._radd(acc, Nil2Elem(vzero(K, cod.r1), tuple(v)))
        return cod.reduce(acc)

    def _validate(self, require_iso):
        dom, cod, K = self.dom, self.cod, self.dom.K
        # killing X is additive: the lifts and the X0 rows generate X
        zero1, sp = vzero(K, dom.r1), dom._spans
        gens = sp.lifts + [Nil2Elem(zero1, unflat(h0, K.rank)) for _, h0 in sp.form0]
        if any(self(a) != cod.zero() for a in gens):
            raise StructureError("map does not kill the quotient")
        small = dom.card <= _MOR_EXH_CAP
        kel = list(dom.K.elements())
        if small:
            elems = dom.elements()
            pairs = itertools.product(elems, elems)
            acts = itertools.product(elems, kel)
        else:
            rng = random.Random(_MOR_SEED)
            pairs = [(dom.sample(rng), dom.sample(rng))
                     for _ in range(_MOR_SAMPLES)]
            acts = [(dom.sample(rng), rng.choice(kel))
                    for _ in range(_MOR_SAMPLES)]
        for x, y in pairs:
            if self(dom.add(x, y)) != cod.add(self(x), self(y)):
                raise StructureError("map is not additive")
        for x, k in acts:
            if self(dom.act(x, k)) != cod.act(self(x), k):
                raise StructureError("map does not respect the action")
        if require_iso:
            if dom.r1 != cod.r1 or dom.r0 != cod.r0:
                raise StructureError("isomorphism needs matching ranks")
            c_mat = tuple(tuple(self.gen_images[i].m1[j]
                                for i in range(dom.r1))
                          for j in range(dom.r1))
            if dom.r1 and k_mat_inv(dom.K, c_mat) is None:
                raise StructureError("M1 coordinate matrix is singular")
            if dom.r0 and k_mat_inv(dom.K, self.m0_matrix) is None:
                raise StructureError("M0 coordinate matrix is singular")


def identity_morphism(M):
    return Nil2Morphism(
        M, M, [M.basis_lift(i) for i in range(M.r1)],
        [[M.K.one() if i == j else M.K.zero() for j in range(M.r0)]
         for i in range(M.r0)], check=False)


def _transport(psi, rhom, dom2, cod2, check=False):
    """Extend a morphism along a ring map: coordinates of the generator
    images and of the M0 matrix are pushed through the map."""
    gens2 = [_map_coords(u, rhom) for u in psi.gen_images]
    a2 = [[rhom(a) for a in row] for row in psi.m0_matrix]
    return Nil2Morphism(dom2, cod2, gens2, a2, check=check)


# ---- descent ---------------------------------------------------------

_DESCENT_REGISTRY = {
    ("zmod:2", ((1,), (1,), (1,))),
    ("zmod:3", ((1,), (0,), (1,))),
    ("zmod:4", ((1,), (1,), (1,))),
}
_TOWER_CACHE = {}


def registered_tower(E):
    """Tensor tower for one of the registered free quadratic extensions.
    Anything else (products included) is refused; the registry is what
    keeps the faithfully-flat hypothesis honest."""
    if not isinstance(E, PolyQuotient):
        raise StructureError("descent extension must be a free quotient ring")
    key = (E.base.name, E.mcoeffs)
    if key not in _DESCENT_REGISTRY:
        raise StructureError("extension %s is not registered for descent"
                             % E.name)
    if E.name not in _TOWER_CACHE:
        _TOWER_CACHE[E.name] = TensorTower(E)
    return _TOWER_CACHE[E.name]


def base_inclusion(E):
    from .coeff_ring import const_hom
    return const_hom(E)


def _const_preimage(E, c):
    """Pull a codomain element of the base inclusion back, or None."""
    r = E.base.rank
    if any(c[r:]):
        return None
    return c[:r]


class DescentDatum:
    """Module over a registered extension E plus a cocycle-checked
    isomorphism between its two extensions to E tensor E."""

    def __init__(self, N, psi=None):
        self.N = N
        self.tower = registered_tower(N.K)
        tw = self.tower
        self.N1, self._emb1 = boxtimes(N, tw.i1)
        self.N2, self._emb2 = boxtimes(N, tw.i2)
        if psi is None:
            if not self.N1.same_presentation(self.N2):
                raise StructureError(
                    "canonical datum needs matching coordinate extensions")
            psi = identity_morphism(self.N1)
            psi = Nil2Morphism(self.N1, self.N2, psi.gen_images,
                               psi.m0_matrix, check=False)
        if psi.dom is not self.N1 and not psi.dom.same_presentation(self.N1):
            raise StructureError("datum isomorphism has the wrong domain")
        if psi.cod is not self.N2 and not psi.cod.same_presentation(self.N2):
            raise StructureError("datum isomorphism has the wrong codomain")
        self.psi = psi
        self._check_cocycle()

    def _check_cocycle(self):
        tw = self.tower
        j1, j2, j3 = tw.face_maps()
        NJ1, _ = boxtimes(self.N, j1)
        NJ2, _ = boxtimes(self.N, j2)
        NJ3, _ = boxtimes(self.N, j3)
        p12 = _transport(self.psi, tw.i12, NJ1, NJ2)
        p23 = _transport(self.psi, tw.i23, NJ2, NJ3)
        p13 = _transport(self.psi, tw.i13, NJ1, NJ3)
        # two morphisms agreeing on module generators agree everywhere,
        # since both respect the action and the group law
        gens = [NJ1.basis_lift(i) for i in range(NJ1.r1)]
        gens += [NJ1.m0_basis(j) for j in range(NJ1.r0)]
        for x in gens:
            lhs = p23(p12(x))
            rhs = p13(x)
            if lhs != rhs:
                err = StructureError(
                    "descent cocycle fails at %r: %r != %r" % (x, lhs, rhs))
                err.witness = (x, lhs, rhs)
                raise err


def _equalizer(D):
    """The members n of D.N.elements() with psi(i1 n) = i2 n, solved.

    psi is a module map, so the condition holds on whole cosets.  Its M1
    part, M1 of psi(i1 (m1, 0)) - i2 m1 in X1 of N2, is additive in m1: a
    Howell kernel, reduced over X1 of N.  psi(m1, m0) = psi(m1, 0) |+ (0,
    A m0) and i1, i2 act coordinatewise, so over each such m1 the M0 part
    asks d + A i1 m0 - i2 m0 in X0 of N2, d the M0 part of psi(i1 (m1, 0))
    - i2 (m1, 0).  One GraphForm of m0 -> A i1 m0 - i2 m0 against X0 of N2
    gives both its kernel, reduced over X0 of N, and the affine solve for
    each class.
    """
    tw, N, N1, N2, psi = D.tower, D.N, D.N1, D.N2, D.psi
    E, EE = N.K, N2.K
    sp, sp2 = N._spans, N2._spans
    zero0 = vzero(E, N.r0)
    units1 = [_unit_vec(E, N.r1, a) for a in range(len(sp.mods1))]
    lin1 = [vflat(vsub(EE, psi(_map_coords(Nil2Elem(u, zero0), tw.i1)).m1,
                       tuple(map(tw.i2, u)))) for u in units1]
    kern1 = GraphForm(lin1, sp2.mods1, sp.mods1, [h for _, h in sp2.form1]).kernel
    reps1 = {tuple(howell_reduce(sp.form1, z, sp.mods1))
             for z in howell_span(kern1, sp.mods1).tolist()}
    units0 = [_unit_vec(E, N.r0, a) for a in range(len(sp.mods0))]
    lin0 = [vflat(vsub(EE, k_mat_vec(EE, psi.m0_matrix, list(map(tw.i1, u))),
                       tuple(map(tw.i2, u)))) for u in units0]
    graph0 = GraphForm(lin0, sp2.mods0, sp.mods0, [h for _, h in sp2.form0])
    reps0 = {tuple(sp.reduce0(z))
             for z in howell_span(graph0.kernel, sp.mods0).tolist()}
    eq = set()
    for r1 in reps1:
        n = Nil2Elem(unflat(r1, E.rank), zero0)
        d = N2.add(psi(N1.reduce(_map_coords(n, tw.i1))),
                   N2.neg(N2.reduce(_map_coords(n, tw.i2))))
        base = (graph0.solve([-x % q for x, q in zip(vflat(d.m0), sp2.mods0)])
                if N2.in_m0(d) else None)
        if base is None:
            continue
        for t in reps0:
            v = sp.reduce0([(x + y) % q for x, y, q in zip(base, t, sp.mods0)])
            eq.add(Nil2Elem(n.m1, unflat(v, E.rank)))
    return eq


def descend(D):
    """Equalizer of psi . i1 and i2 on the datum module, returned as a
    module over the base through coordinate pullback.

    This covers data whose coordinates come from the base (in particular
    every canonical datum); an equalizer that does not align with the
    pulled-back presentation is reported as an error instead of being
    silently re-coordinatized.
    """
    E = D.N.K
    K = E.base
    # the check M.elements() makes below, before the equalizer lists spans
    # of the same size
    ambient = K.card ** (D.N.r1 + D.N.r0)
    if ambient > _AMBIENT_CAP:
        raise CapacityError("module enumeration over %d ambient elements" % ambient)
    eq = _equalizer(D)

    def pull(c):
        v = _const_preimage(E, c)
        if v is None:
            raise StructureError(
                "descended presentation is not defined over the base")
        return v

    b0 = [[tuple(pull(c) for c in D.N.b[i][j]) for j in range(D.N.r1)]
          for i in range(D.N.r1)]
    gens0 = [Nil2Elem(tuple(pull(c) for c in g.m1),
                      tuple(pull(c) for c in g.m0)) for g in D.N.gens]
    M = Nil2Module(K, D.N.r1, D.N.r0, b0, quotient=gens0)
    inc = base_inclusion(E)
    image = {D.N.reduce(_map_coords(x, inc)) for x in M.elements()}
    if image != eq:
        raise StructureError("descent equalizer does not match the base form")
    return M


def descent_roundtrip(M, E):
    """Extend M along the base inclusion of a registered E, descend the
    canonical datum, and compare with the original presentation."""
    tw = registered_tower(E)
    if E.base != M.K:
        raise StructureError("extension base does not match the module ring")
    inc = base_inclusion(E)
    N, embed = boxtimes(M, inc)
    D = DescentDatum(N)
    M2 = descend(D)
    match = M2.same_presentation(M)
    return {
        "base": M.K.name,
        "ext": E.name,
        "module_card": M.card,
        "ext_card": N.card,
        "descended_card": M2.card,
        "presentation_match": match,
        "iso": match and M2.card == M.card,
    }


# ---- bridge to odd form parameters -----------------------------------

def delta_bridge_check(shape, count=400, seed=0):
    """The odd form parameter of a classical algebra, with its scalar
    action and tau = phi . rho, satisfies the 2-step module identities.
    Sampled pairs; the augmentation part plays the role of M0."""
    alg = shape.alg
    K = alg.K
    rng = random.Random(seed)
    kel = list(K.elements())

    def scal(u, k):
        return shape.act(u, alg.zero(), k)

    def dcomm(u, v):
        return shape.add(shape.add(shape.add(u, v), shape.neg(u)), shape.neg(v))

    def tau(u):
        return shape.phi(shape.to_pair(u)[1])

    def kact(k, x):
        return ofp.act_scalar(shape, k, x)

    zero = shape.zero()
    checks = {name: True for name in (
        "comm-in-aug", "aug-central", "comm-act", "act-add-scalar",
        "aug-act-square", "tau-is-neg-act", "tau-double", "tau-add")}
    for _ in range(count):
        u = shape.sample(rng)
        v = shape.sample(rng)
        k = rng.choice(kel)
        l = rng.choice(kel)
        d = shape.phi(alg.sample(rng))
        c = dcomm(u, v)
        if not ofp.aug_member(shape, c):
            checks["comm-in-aug"] = False
        if dcomm(u, d) != zero:
            checks["aug-central"] = False
        if dcomm(scal(u, k), scal(v, l)) != kact(K.mul(k, l), c):
            checks["comm-act"] = False
        rhs = shape.add(shape.add(scal(u, k), kact(K.mul(k, l), tau(u))), scal(u, l))
        if scal(u, K.add(k, l)) != rhs:
            checks["act-add-scalar"] = False
        if scal(d, k) != kact(K.mul(k, k), d):
            checks["aug-act-square"] = False
        if tau(u) != shape.add(u, scal(u, K.neg(K.one()))):
            checks["tau-is-neg-act"] = False
        if tau(d) != shape.add(d, d):
            checks["tau-double"] = False
        if tau(shape.add(u, v)) != shape.add(shape.add(tau(u), dcomm(u, v)), tau(v)):
            checks["tau-add"] = False
    checks["pass"] = all(checks.values())
    return checks


# ---- serialization ---------------------------------------------------

def nil2_elem_to_json(x):
    return {"m1": [list(c) for c in x.m1], "m0": [list(c) for c in x.m0]}


def nil2_elem_from_json(data):
    return Nil2Elem(tuple(tuple(c) for c in data["m1"]),
                    tuple(tuple(c) for c in data["m0"]))


def nil2_to_json(M):
    return {
        "ring": ring_to_json(M.K),
        "r1": M.r1,
        "r0": M.r0,
        "b": [[[list(c) for c in M.b[i][j]] for j in range(M.r1)]
              for i in range(M.r1)],
        "quotient_generators": [nil2_elem_to_json(g) for g in M.gens],
    }


def nil2_from_json(data):
    """Module from its JSON form; a payload of the wrong shape raises
    StructureError."""
    keys = ("ring", "r1", "r0", "b", "quotient_generators")
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise StructureError("module JSON must be an object with keys %s"
                             % ", ".join(keys))
    gens = data["quotient_generators"]
    if not (isinstance(data["ring"], dict) and _int_lists(data["r1"], 0)
            and _int_lists(data["r0"], 0) and _int_lists(data["b"], 4)
            and isinstance(gens, list)
            and all(isinstance(g, dict) and _int_lists(g.get("m1"), 2)
                    and _int_lists(g.get("m0"), 2) for g in gens)):
        raise StructureError(
            "module JSON needs a ring object, integer r1 and r0, a b table "
            "of integer lists and generators with m1/m0 integer lists")
    try:
        K = ring_from_json(data["ring"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError("bad ring in module JSON: %r" % (exc,))
    b = [[tuple(tuple(c) for c in val) for val in row] for row in data["b"]]
    gens = [nil2_elem_from_json(g) for g in gens]
    return Nil2Module(K, int(data["r1"]), int(data["r0"]), b, quotient=gens)
