"""Quadratic modules over the classical coefficient setups.

A coefficient setup is a triple (R, L, A): the ring R acting on modules,
the pairing target L with an additive involution, and the value group A
of quadratic forms, tied together by maps phi: L -> A restricted from the
quotient map and tr: A -> L splitting it up to the involution.  Three
kinds are supported, all over a commutative base K:

    kind         R        l -> l^inv   A        phi(l)    tr(a)   a . r
    linear       K x K    swap         K        l1 + l2   (a, a)  r1 a r2
    symplectic   K        -l           0        0         0       0
    orthogonal   K        l            K        l         2a      a r^2

A quadratic module is a free module with a hermitian pairing B and a
quadratic table q satisfying tr(q(m)) = B(m, m).  From such a module two
rings with parameter data are built: the adjoint-pair ring T with its
relation set Xi, and the tensor square S with its parameter group Theta,
linked by a comparison morphism that is bijective exactly when the
pairing is regular enough.  Over split tables both reproduce the preset
algebras of form_ring/odd_form_param coordinate for coordinate.  Theta
and the presets' Delta are two tables of one form_ring.ParamTable: one
pair law and one coordinate read, with Theta's own pi positions,
augmentation basis and residue.

The naive construction counts in batches over flat int coordinates (each
K element spread over its basis slots, reduced by the per-slot moduli).
T is the span of the nullspace generators of its adjoint system, built
with numpy as sorted unique rows.  The Xi count, the unit filter on T and
the image of the comparison map are read off the scalar definitions
(_w_rhs, k_matmul, f_s) at basis vectors only: the Xi right-hand side and
t -> (xy, yx) are quadratic over Z in the coordinates of t, so their values
at e_i, e_i + e_j and 2 e_i give them on every row at once, and f_s is
K-linear, so its integer matrix maps every S coordinate row in one
product.  A right-hand side is then tested for all of T at once.

The automorphisms of a module, which the comparison holds both unitary
groups against, come from linalg.isometry_search, the one column search
that the presets of unitary share.

Elements of L and R share one concrete carrier (tuples over K, two of
them glued for the linear kind); A-values are plain K elements with the
symplectic kind pinned to zero.  Module elements are sparse dicts
label -> K; for the linear kind the label sign selects the acting factor
of K x K (positive labels take the second factor), and Gram tables and
endomorphisms must respect that split.
"""

import itertools

import numpy as np

from .coeff_ring import (CapacityError, Product, StructureError, _basis, _mixed_radix,
                         parse_ring)
from .form_ring import ParamTable, SplitAlgebra, ofalin, ofaorth, ofasymp
from .linalg import (KSolver, howell_card, howell_form, howell_span, isometry_search,
                     k_identity, k_mat_inv, k_matrices, k_matmul, support_pool, vadd,
                     vflat)
from .odd_form_param import DeltaShape

_SCAN_CAP = 1 << 16

KINDS = ("linear", "symplectic", "orthogonal")


class QuadType:
    """One coefficient setup (R, L, A) over K; see the module docstring."""

    def __init__(self, kind, K):
        if kind not in KINDS:
            raise StructureError("unknown kind %r" % (kind,))
        self.kind = kind
        self.K = K
        self.R = Product((K, K)) if kind == "linear" else K
        self.tag = "%s:%s" % (kind, K.name)

    def __repr__(self):
        return "QuadType(%s)" % self.tag

    def k_lift(self, k):
        """K -> R along the diagonal."""
        if self.kind == "linear":
            return self.R.join((k, k))
        return k

    def r_op(self, r):
        """The anti-automorphism of R used when coefficients cross a pairing."""
        if self.kind == "linear":
            a, b = self.R.split(r)
            return self.R.join((b, a))
        return r

    # -- L ---------------------------------------------------------------
    def l_zero(self):
        return self.R.zero()

    def l_add(self, a, b):
        return self.R.add(a, b)

    def l_neg(self, a):
        return self.R.neg(a)

    def l_sub(self, a, b):
        return self.R.sub(a, b)

    def l_inv(self, l):
        if self.kind == "linear":
            return self.r_op(l)
        if self.kind == "symplectic":
            return self.R.neg(l)
        return l

    def l_sand(self, r, l, r2):
        """r^op l r2."""
        R = self.R
        return R.mul(R.mul(self.r_op(r), l), r2)

    def l_kscale(self, k, l):
        return self.R.mul(self.k_lift(k), l)

    def l_blocks(self, l):
        """K components of l, in a fixed order."""
        if self.kind == "linear":
            return self.R.split(l)
        return (l,)

    def l_join(self, blocks):
        if self.kind == "linear":
            return self.R.join(tuple(blocks))
        (l,) = blocks
        return l

    # -- A ---------------------------------------------------------------
    def a_zero(self):
        return self.K.zero()

    def a_add(self, a, b):
        if self.kind == "symplectic":
            return self.K.zero()
        return self.K.add(a, b)

    def a_neg(self, a):
        if self.kind == "symplectic":
            return self.K.zero()
        return self.K.neg(a)

    def a_act(self, a, r):
        if self.kind == "linear":
            r1, r2 = self.R.split(r)
            return self.K.mul(self.K.mul(r1, a), r2)
        if self.kind == "symplectic":
            return self.K.zero()
        return self.K.mul(a, self.K.mul(r, r))

    def a_check(self, a):
        a = self.K.check_element(a)
        if self.kind == "symplectic" and not self.K.is_zero(a):
            raise StructureError("symplectic quadratic values are trivial")
        return a

    def phi_map(self, l):
        if self.kind == "linear":
            l1, l2 = self.R.split(l)
            return self.K.add(l1, l2)
        if self.kind == "symplectic":
            return self.K.zero()
        return l

    def tr_map(self, a):
        if self.kind == "linear":
            return self.R.join((a, a))
        if self.kind == "symplectic":
            return self.K.zero()
        return self.K.smul(2, a)


def classical_type(kind, K):
    return QuadType(kind, K)


def quad_type_check(qt, count=200, seed=0):
    """Sampled laws of the (R, L, A) setup; returns the failed law names."""
    import random

    rng = random.Random(seed)
    R, K = qt.R, qt.K
    rels = list(R.elements())
    kels = list(K.elements())
    bad = set()

    def pick(pool):
        return pool[rng.randrange(len(pool))]

    for _ in range(count):
        r, r2 = pick(rels), pick(rels)
        l, l2 = pick(rels), pick(rels)
        a, a2 = pick(kels), pick(kels)
        if qt.kind == "symplectic":
            a = a2 = K.zero()
        if qt.l_inv(qt.l_inv(l)) != l:
            bad.add("inv involutive")
        if qt.l_inv(qt.l_add(l, l2)) != qt.l_add(qt.l_inv(l), qt.l_inv(l2)):
            bad.add("inv additive")
        if qt.l_inv(qt.l_sand(r, l, r2)) != qt.l_sand(r2, qt.l_inv(l), r):
            bad.add("inv of a sandwich")
        if qt.phi_map(qt.l_add(l, l2)) != qt.a_add(qt.phi_map(l), qt.phi_map(l2)):
            bad.add("phi additive")
        if qt.phi_map(qt.tr_map(a)) != qt.a_add(a, a):
            bad.add("phi tr = 2")
        if qt.tr_map(qt.phi_map(l)) != qt.l_add(l, qt.l_inv(l)):
            bad.add("tr phi = 1 + inv")
        if qt.a_act(a, R.one()) != a:
            bad.add("unit action")
        if qt.a_act(a, R.mul(r, r2)) != qt.a_act(qt.a_act(a, r), r2):
            bad.add("action multiplicative")
        if qt.a_act(qt.a_add(a, a2), r) != qt.a_add(qt.a_act(a, r), qt.a_act(a2, r)):
            bad.add("action additive in a")
        lhs = qt.a_act(a, R.add(r, r2))
        rhs = qt.a_add(qt.a_add(qt.a_act(a, r), qt.a_act(a, r2)),
                       qt.phi_map(qt.l_sand(r, qt.tr_map(a), r2)))
        if lhs != rhs:
            bad.add("action over a sum")
        if qt.tr_map(qt.a_act(a, r)) != qt.l_sand(r, qt.tr_map(a), r):
            bad.add("tr of an action")
        if qt.a_act(qt.phi_map(l), r) != qt.phi_map(qt.l_sand(r, l, r)):
            bad.add("phi equivariant")
    return sorted(bad)


def _fmt_el(v):
    return "(%s)" % ",".join(str(c) for c in v)


def _std_labels(kind, rank):
    if rank < 1:
        raise StructureError("rank must be positive")
    if kind == "linear":
        n = rank
    elif kind == "symplectic":
        if rank % 2:
            raise StructureError("symplectic rank must be even")
        n = rank // 2
    else:
        n = rank // 2
    labels = sorted(range(-n, n + 1))
    if kind == "orthogonal" and rank % 2:
        return tuple(labels)
    return tuple(i for i in labels if i != 0)


class QuadModule:
    """Free module with a hermitian pairing and a quadratic table.

    Stored data: Gram entries gram[(a, b)] in L over the standard label
    set of the kind/rank, and q-values per label.  Elements are sparse
    dicts label -> K.
    """

    def __init__(self, qtype, rank, gram, qvals):
        self.qtype = qtype
        self.K = qtype.K
        self.rank = rank
        self.labels = _std_labels(qtype.kind, rank)
        self.pos = {a: i for i, a in enumerate(self.labels)}
        self.gram, self.qvals = self._tables(gram, qvals)
        self.split = (self.gram, self.qvals) == self._tables(*_split_tables(qtype, rank))
        # elements and the tensor square compare by tag: a module off the
        # split tables names its tables
        self.tag = "%s:%d:%s" % (qtype.kind, rank, self.K.name)
        if not self.split:
            self.tag += "/gram:%s/q:%s" % (
                ";".join("%d,%d=%s" % (a, b, _fmt_el(l))
                         for (a, b), l in sorted(self.gram.items())),
                ";".join("%d=%s" % (a, _fmt_el(v)) for a, v in sorted(self.qvals.items())))

    def _tables(self, gram, qvals):
        """The checked Gram table (zero entries dropped) and q table."""
        qtype = self.qtype
        out = {}
        for (a, b), l in gram.items():
            if a not in self.pos or b not in self.pos:
                raise StructureError("gram label %r outside the module" % ((a, b),))
            l = tuple(l) if isinstance(l, (tuple, list)) and qtype.kind != "linear" else l
            l = qtype.R.check_element(l)
            if not self._side_ok(a, b, l):
                raise StructureError("gram entry %r breaks the side split" % ((a, b),))
            if not qtype.R.is_zero(l):
                out[(a, b)] = l
        return out, {a: qtype.a_check(qvals.get(a, self.K.zero())) for a in self.labels}

    def __repr__(self):
        return "QuadModule(%s)" % self.tag

    def side(self, a):
        return 2 if a > 0 else 1

    def _side_ok(self, a, b, l):
        if self.qtype.kind != "linear":
            return True
        l1, l2 = self.qtype.R.split(l)
        if not self.K.is_zero(l1) and not (self.side(a) == 2 and self.side(b) == 1):
            return False
        if not self.K.is_zero(l2) and not (self.side(a) == 1 and self.side(b) == 2):
            return False
        return True

    def entry_ok(self, a, b):
        """Whether an endomorphism matrix may be nonzero at (row a, col b)."""
        return self.qtype.kind != "linear" or self.side(a) == self.side(b)

    # -- elements ---------------------------------------------------------
    def el(self, d):
        K = self.K
        out = {}
        for a, c in d.items():
            if a not in self.pos:
                raise StructureError("label %r outside the module" % (a,))
            c = K.check_element(c)
            if not K.is_zero(c):
                out[a] = c
        return out

    def basis(self, a):
        return self.el({a: self.K.one()})

    def madd(self, m, m2):
        K = self.K
        out = dict(m)
        for a, c in m2.items():
            s = K.add(out.get(a, K.zero()), c)
            if K.is_zero(s):
                out.pop(a, None)
            else:
                out[a] = s
        return out

    def mneg(self, m):
        return {a: self.K.neg(c) for a, c in m.items()}

    def mscale(self, m, k):
        K = self.K
        out = {}
        for a, c in m.items():
            v = K.mul(c, k)
            if not K.is_zero(v):
                out[a] = v
        return out

    def mact(self, m, r):
        """Right R-action; the linear kind acts through the label side."""
        if self.qtype.kind != "linear":
            return self.mscale(m, r)
        r1, r2 = self.qtype.R.split(r)
        K = self.K
        out = {}
        for a, c in m.items():
            v = K.mul(c, r2 if a > 0 else r1)
            if not K.is_zero(v):
                out[a] = v
        return out

    def mkey(self, m):
        return tuple(sorted(m.items()))

    def b_form(self, m, m2):
        qt = self.qtype
        K = self.K
        acc = qt.l_zero()
        for a, va in m.items():
            for b, vb in m2.items():
                g = self.gram.get((a, b))
                if g is not None:
                    acc = qt.l_add(acc, qt.l_kscale(K.mul(va, vb), g))
        return acc

    def q_form(self, m):
        qt = self.qtype
        acc = qt.a_zero()
        prefix = {}
        for a in self.labels:
            c = m.get(a)
            if c is None or self.K.is_zero(c):
                continue
            single = {a: c}
            if prefix:
                acc = qt.a_add(acc, qt.phi_map(self.b_form(prefix, single)))
            acc = qt.a_add(acc, qt.a_act(self.qvals[a], qt.k_lift(c)))
            prefix[a] = c
        return acc

    def card(self):
        return self.K.card ** len(self.labels)

    def elements(self, cap=_SCAN_CAP):
        if self.card() > cap:
            raise CapacityError("module scan over %d elements" % self.card())
        kel = list(self.K.elements())
        out = []
        for combo in itertools.product(kel, repeat=len(self.labels)):
            out.append(self.el(dict(zip(self.labels, combo))))
        return out

    def sample(self, rng):
        kel = list(self.K.elements())
        return self.el({a: kel[rng.randrange(len(kel))] for a in self.labels})

    # -- matrices over the labels ------------------------------------------
    def mat_col(self, g, b):
        j = self.pos[b]
        K = self.K
        return {a: g[i][j] for i, a in enumerate(self.labels) if not K.is_zero(g[i][j])}

    def mat_entries_ok(self, g):
        K = self.K
        for i, a in enumerate(self.labels):
            for j, b in enumerate(self.labels):
                if not K.is_zero(K.check_element(g[i][j])) and not self.entry_ok(a, b):
                    return False
        return True


def module_check(M, count=100, seed=0):
    """Table and law consistency; returns the list of failures."""
    import random

    rng = random.Random(seed)
    qt = M.qtype
    bad = []
    for a in M.labels:
        for b in M.labels:
            g = M.gram.get((a, b), qt.l_zero())
            h = M.gram.get((b, a), qt.l_zero())
            if qt.l_inv(g) != h:
                bad.append("hermitian symmetry at %r" % ((a, b),))
    for a in M.labels:
        if qt.tr_map(M.qvals[a]) != M.gram.get((a, a), qt.l_zero()):
            bad.append("tr q vs diagonal at %r" % (a,))
    for a in M.labels:
        for b in M.labels:
            if a >= b:
                continue
            m, m2 = M.basis(a), M.basis(b)
            lhs = M.q_form(M.madd(m, m2))
            rhs = qt.a_add(qt.a_add(M.q_form(m), qt.phi_map(M.b_form(m, m2))), M.q_form(m2))
            if lhs != rhs:
                bad.append("q on basis sum %r" % ((a, b),))
    rels = list(qt.R.elements())
    for _ in range(count):
        m, m2 = M.sample(rng), M.sample(rng)
        r = rels[rng.randrange(len(rels))]
        r2 = rels[rng.randrange(len(rels))]
        if M.b_form(M.mact(m, r), M.mact(m2, r2)) != qt.l_sand(r, M.b_form(m, m2), r2):
            bad.append("pairing sandwich")
        if M.q_form(M.mact(m, r)) != qt.a_act(M.q_form(m), r):
            bad.append("q action")
        if qt.tr_map(M.q_form(m)) != M.b_form(m, m):
            bad.append("tr q = B(m, m)")
        lhs = M.q_form(M.madd(m, m2))
        rhs = qt.a_add(qt.a_add(M.q_form(m), qt.phi_map(M.b_form(m, m2))), M.q_form(m2))
        if lhs != rhs:
            bad.append("q on a sum")
    return sorted(set(bad))


def _split_tables(qt, rank):
    """The standard split tables: paired basis vectors, zero q away from 0."""
    K = qt.K
    one = K.one()
    gram, qvals = {}, {}
    for i in _std_labels(qt.kind, rank):
        if i == 0:
            gram[(0, 0)] = K.smul(2, one)
            qvals[0] = one
        elif qt.kind == "linear":
            gram[(i, -i)] = qt.R.join((one, K.zero()) if i > 0 else (K.zero(), one))
        elif qt.kind == "symplectic":
            gram[(i, -i)] = one if i > 0 else K.neg(one)
        else:
            gram[(i, -i)] = one
    return gram, qvals


def split_module(kind, rank, K):
    """The module with the standard split tables."""
    qt = QuadType(kind, K)
    return QuadModule(qt, rank, *_split_tables(qt, rank))


def hyperbolic_space(kind, K, p_rank):
    """The pairing module of a free module P: functionals plus P itself.

    B(f + p, f2 + p2) = f(p2) + (f2(p))^inv with q = phi of the f-on-p
    part.  Labelled so the result has the standard split tables, which
    the tests assert.
    """
    qt = QuadType(kind, K)
    one = K.one()
    gram = {}
    if kind == "linear":
        # P free of R-rank p_rank contributes two K-labels per generator,
        # the dual another two; the pairing pairs them off crosswise.
        for t in range(1, p_rank + 1):
            gram[(2 * t - 1, -(2 * t - 1))] = qt.R.join((one, K.zero()))
            gram[(-(2 * t - 1), 2 * t - 1)] = qt.R.join((K.zero(), one))
            gram[(2 * t, -2 * t)] = qt.R.join((one, K.zero()))
            gram[(-2 * t, 2 * t)] = qt.R.join((K.zero(), one))
        return QuadModule(qt, 2 * p_rank, gram, {})
    for t in range(1, p_rank + 1):
        gram[(t, -t)] = one
        gram[(-t, t)] = qt.l_inv(one)
    return QuadModule(qt, 2 * p_rank, gram, {})


def extend_scalars_qm(M, hom):
    """Base change along a ring map; tables map entrywise."""
    if hom.dom is not M.K and hom.dom != M.K:
        raise StructureError("hom domain %s does not match %s" % (hom.dom.name, M.K.name))
    qt2 = QuadType(M.qtype.kind, hom.cod)
    gram = {}
    for key, l in M.gram.items():
        gram[key] = qt2.l_join([hom(b) for b in M.qtype.l_blocks(l)])
    qvals = {a: hom(v) for a, v in M.qvals.items()}
    return QuadModule(qt2, M.rank, gram, qvals)


def qm_to_json(M):
    qt = M.qtype
    gram = [[a, b, [list(x) for x in qt.l_blocks(l)]] for (a, b), l in sorted(M.gram.items())]
    q = [[a, list(v)] for a, v in sorted(M.qvals.items()) if not M.K.is_zero(v)]
    return {"type": qt.kind, "ring": M.K.name, "rank": M.rank, "gram": gram, "q": q}


def qm_from_json(data):
    K = parse_ring(data["ring"])
    qt = QuadType(data["type"], K)
    gram = {}
    for a, b, blocks in data["gram"]:
        gram[(a, b)] = qt.l_join([tuple(x) for x in blocks])
    qvals = {a: tuple(v) for a, v in data["q"]}
    return QuadModule(qt, data["rank"], gram, qvals)


# -- Heisenberg pairs and the form parameter of a module --------------------


class HeisElem:
    """Pair (m, l); addition twists the L part by the pairing."""

    __slots__ = ("module", "m", "l", "key")

    def __init__(self, module, m, l):
        self.module = module
        self.m = m
        self.l = l
        self.key = (module.mkey(m), l)

    def __eq__(self, other):
        return (
            isinstance(other, HeisElem)
            and self.module.tag == other.module.tag
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.module.tag, self.key))

    def __repr__(self):
        return "Heis(%r, %r)" % (self.m, self.l)


def heis_elem(M, m, l):
    return HeisElem(M, M.el(m), M.qtype.R.check_element(l))


def heis_zero(M):
    return HeisElem(M, {}, M.qtype.l_zero())


def heis_add(M, h, h2):
    qt = M.qtype
    l = qt.l_add(qt.l_sub(h.l, M.b_form(h.m, h2.m)), h2.l)
    return HeisElem(M, M.madd(h.m, h2.m), l)


def heis_neg(M, h):
    qt = M.qtype
    return HeisElem(M, M.mneg(h.m), qt.l_neg(qt.l_add(M.b_form(h.m, h.m), h.l)))


def heis_act(M, h, r):
    return HeisElem(M, M.mact(h.m, r), M.qtype.l_sand(r, h.l, r))


def heis_elements(M, cap=_SCAN_CAP):
    if M.card() * M.qtype.R.card > cap:
        raise CapacityError("heisenberg scan over %d" % (M.card() * M.qtype.R.card))
    lels = list(M.qtype.R.elements())
    return [HeisElem(M, m, l) for m in M.elements(cap) for l in lels]


def lparam_member(M, h):
    """The form parameter of the module: q(m) + phi(l) = 0."""
    qt = M.qtype
    return qt.a_add(M.q_form(h.m), qt.phi_map(h.l)) == qt.a_zero()


def lminmax_member(M, h, which):
    qt = M.qtype
    if which == "min":
        if h.m:
            return False
        return any(qt.l_sub(l, qt.l_inv(l)) == h.l for l in qt.R.elements())
    if which == "max":
        need = qt.l_add(qt.l_add(M.b_form(h.m, h.m), h.l), qt.l_inv(h.l))
        return need == qt.l_zero()
    raise StructureError("which must be 'min' or 'max'")


# -- half determinant of an odd orthogonal table ----------------------------

_HDET_CACHE = {}
_HDET_RANK_CAP = 5


def _hdet_poly(n):
    """Halved determinant of the n x n Gram table with diagonal 2 q_i and
    off-diagonal b_ij, as [(exponents, coefficient)] in descending lex
    order.  Variables: q per index, then b_ij for i < j in order."""
    hit = _HDET_CACHE.get(n)
    if hit is not None:
        return hit
    var = {(i, i): i for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            var[(i, j)] = len(var)
    poly = {}
    for perm in itertools.permutations(range(n)):
        monom = [0] * len(var)
        c = 1
        for i, j in enumerate(perm):
            monom[var[(min(i, j), max(i, j))]] += 1
            if i == j:
                c *= 2
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        key = tuple(monom)
        poly[key] = poly.get(key, 0) + (-c if inversions % 2 else c)
    terms = []
    for monom in sorted(poly, reverse=True):
        c = poly[monom]
        if c:
            assert c % 2 == 0
            terms.append((monom, c // 2))
    _HDET_CACHE[n] = terms
    return terms


def hdet(M):
    """Half determinant of an odd-rank orthogonal module, as a K element."""
    if M.qtype.kind != "orthogonal":
        raise StructureError("half determinants need the orthogonal kind")
    n = len(M.labels)
    if n % 2 == 0:
        raise StructureError("half determinants need odd rank")
    if n > _HDET_RANK_CAP:
        raise CapacityError("half determinant at rank %d" % n)
    K = M.K
    terms = _hdet_poly(n)
    # variable order: q per label, then off-diagonal entries by index pairs
    vals = [M.qvals[a] for a in M.labels]
    for i in range(n):
        for j in range(i + 1, n):
            vals.append(M.gram.get((M.labels[i], M.labels[j]), K.zero()))
    acc = K.zero()
    for monom, c in terms:
        term = K.one()
        for v, e in zip(vals, monom):
            if e:
                term = K.mul(term, K.rpow(v, e))
        acc = K.add(acc, K.smul(c, term))
    return acc


def semiregular(M):
    """Whether the half determinant is a unit."""
    return M.K.try_invert(hdet(M)) is not None


# -- the unitary group of a module ------------------------------------------


def unitary_of_module(M, g):
    """Validate one matrix as a pairing- and q-preserving automorphism."""
    K = M.K
    g = tuple(tuple(K.check_element(v) for v in row) for row in g)
    if len(g) != len(M.labels) or any(len(r) != len(M.labels) for r in g):
        raise StructureError("matrix shape mismatch")
    if not M.mat_entries_ok(g):
        raise StructureError("matrix breaks the side split")
    if k_mat_inv(K, g) is None:
        raise StructureError("matrix is not invertible")
    for a in M.labels:
        ca = M.mat_col(g, a)
        if M.q_form(ca) != M.qvals[a]:
            raise StructureError("q not preserved at %r" % (a,))
        for b in M.labels:
            if M.b_form(ca, M.mat_col(g, b)) != M.gram.get((a, b), M.qtype.l_zero()):
                raise StructureError("pairing not preserved at %r" % ((a, b),))
    return g


def enumerate_module_unitary(M, cap=_SCAN_CAP):
    """All pairing- and q-preserving automorphisms, sorted: the column
    search linalg.isometry_search on flat Z-coordinates, label-major.  B
    is b_form at pairs of Z-basis vectors; q is quadratic over Z, so
    _QuadraticMap reads it off q_form.  Column b draws from the vectors
    supported on the rows entry_ok allows there, with q(v) = q(e_b)."""
    K, qt = M.K, M.qtype
    n, rk, W = len(M.labels), K.rank, qt.R.rank
    kmod = np.array(K.moduli, dtype=np.int64)
    units = [M.el({a: e}) for a in M.labels for e in _basis(K)]
    B = np.array([[M.b_form(x, y) for y in units] for x in units],
                 dtype=np.int64).reshape(n * rk, n * rk, W)
    G = np.array([[M.gram.get((a, b), qt.l_zero()) for b in M.labels]
                  for a in M.labels], dtype=np.int64).reshape(n, n, W)

    def q_at(row):
        return M.q_form(dict(zip(M.labels, _vecs(np.array([row]), rk)[0])))

    q = _QuadraticMap(q_at, np.tile(kmod, n), kmod)
    ktab = np.array(list(K.elements()), dtype=np.int64).reshape(K.card, rk)
    blocks, V, pools = {}, [], []
    for b in M.labels:
        rows = tuple(i for i, a in enumerate(M.labels) if M.entry_ok(a, b))
        if K.card ** len(rows) > cap:
            raise CapacityError("column pool over %d" % (K.card ** len(rows)))
        if rows not in blocks:
            blk = support_pool(ktab, n, rows)
            blocks[rows] = (sum(map(len, V)), q(blk))
            V.append(blk)
        off, qv = blocks[rows]
        pools.append(off + np.nonzero((qv == M.qvals[b]).all(axis=-1))[0])
    V = np.concatenate(V)
    return k_matrices(V, isometry_search(K, V, B, G, pools), rk, sort=True)


# -- adjoint-pair construction ----------------------------------------------


def _vecs(rows, r):
    """Int rows back to tuples of rank-r ring elements."""
    return [tuple(tuple(row[i:i + r]) for i in range(0, len(row), r))
            for row in rows.tolist()]


def _span_rows(mvec, gens, cap):
    """The additive span of int rows mod the slot moduli mvec, as sorted
    unique rows (the order of sorted() on the tuples): the members of its
    Howell form, once each, then one lexsort.  Raises CapacityError when
    the span has more than cap elements.
    """
    mods = np.asarray(mvec).tolist()
    H = howell_form(gens, mods)
    if howell_card(H, mods) > max(cap, 1):
        raise CapacityError("span closure past %d" % cap)
    rows = howell_span(H, mods)
    return rows[np.lexsort(rows.T[::-1])]


class _QuadraticMap:
    """A map fn from int coordinate rows (mod dmod) to int rows (mod omod)
    that is quadratic over Z: fn(0) = 0 and fn(u + v) - fn(u) - fn(v) is
    biadditive.  It is read off fn at e_i, e_i + e_j and 2 e_i and then
    evaluated on a whole stack of rows at once:

        fn(t) = sum t_i f_i + sum_{i<j} t_i t_j b_ij + sum C(t_i, 2) b_ii
    """

    def __init__(self, fn, dmod, omod):
        dmod = np.asarray(dmod, dtype=np.int64)
        self.omod = np.asarray(omod, dtype=np.int64)
        n = len(dmod)
        eye = np.eye(n, dtype=np.int64)

        def at(row):
            return np.asarray(fn(tuple((row % dmod).tolist())), dtype=np.int64)

        width = len(self.omod)
        f = self.f = np.array([at(e) for e in eye], dtype=np.int64).reshape(n, width)
        self.bii = np.array(
            [at(2 * eye[i]) - 2 * f[i] for i in range(n)], dtype=np.int64
        ).reshape(n, width) % self.omod
        # b_ij for j > i, one block per i < n - 1
        self.bij = [
            np.array([at(eye[i] + eye[j]) - f[i] - f[j] for j in range(i + 1, n)],
                     dtype=np.int64) % self.omod
            for i in range(n - 1)
        ]

    def __call__(self, rows):
        acc = rows @ self.f + (rows * (rows - 1) // 2) @ self.bii
        for i, b in enumerate(self.bij):
            acc += rows[:, i:i + 1] * (rows[:, i + 1:] @ b)
        return acc % self.omod


class NaiveConstruction:
    """Adjoint pairs of a module.

    T is the additive group of pairs (x, y) of module endomorphisms with
    B(x m, m2) = B(m, y m2); it is a ring under (x, y)(z, w) = (z x, y w)
    with involution swapping the slots.  Xi consists of pairs (t, s) of
    T elements whose ring parts cancel (x y + z + w = 0) and whose action
    part satisfies the quadratic condition q(y m) + phi(B(m, w m)) = 0.
    The unitary elements are the invertible y whose pair sits in Xi after
    subtracting the identity.
    """

    def __init__(self, M, cap=_SCAN_CAP):
        self.M = M
        self.cap = cap
        K = M.K
        qt = M.qtype
        self.entries = [
            (a, b) for a in M.labels for b in M.labels if M.entry_ok(a, b)
        ]
        self.eidx = {e: i for i, e in enumerate(self.entries)}
        d = len(self.entries)
        zero = K.zero()

        def gblock(a, b, blk):
            g = M.gram.get((a, b))
            return zero if g is None else qt.l_blocks(g)[blk]

        nblk = 2 if qt.kind == "linear" else 1
        rows = []
        self._pair_rows = []
        for a in M.labels:
            for b in M.labels:
                for blk in range(nblk):
                    row = [zero] * (2 * d)
                    for (r, c), i in self.eidx.items():
                        if c == a:
                            row[i] = K.sub(row[i], gblock(r, b, blk))
                        if c == b:
                            row[d + i] = K.add(row[d + i], gblock(a, r, blk))
                    rows.append(row)
                    self._pair_rows.append((a, b, blk))
        self.tsolver = KSolver(K, rows, ncols=2 * d)
        self._t_rows = None
        self._t_list = None

        # fixed system for the second slot of a Xi pair, unknown w
        wrows = []
        self._wrow_tags = []
        for a in M.labels:
            for b in M.labels:
                for blk in range(nblk):
                    row = [zero] * d
                    for (r, c), i in self.eidx.items():
                        if c == b:
                            row[i] = K.add(row[i], gblock(a, r, blk))
                        if c == a:
                            row[i] = K.add(row[i], gblock(r, b, blk))
                    wrows.append(row)
                    self._wrow_tags.append(("adj", a, b, blk))
        if qt.kind != "symplectic":
            for a in M.labels:
                row = [zero] * d
                for (r, c), i in self.eidx.items():
                    if c == a:
                        row[i] = K.add(row[i], qt.phi_map(M.gram.get((a, r), qt.l_zero())))
                wrows.append(row)
                self._wrow_tags.append(("q", a, None, None))
            for ai, a in enumerate(M.labels):
                for b in M.labels[ai + 1:]:
                    row = [zero] * d
                    for (r, c), i in self.eidx.items():
                        if c == b:
                            row[i] = K.add(row[i], qt.phi_map(M.gram.get((a, r), qt.l_zero())))
                        if c == a:
                            row[i] = K.add(row[i], qt.phi_map(M.gram.get((b, r), qt.l_zero())))
                    wrows.append(row)
                    self._wrow_tags.append(("pol", a, b, None))
        self.wsolver = KSolver(K, wrows, ncols=d)
        self._wnull = None

    # -- vector/matrix shuttling -----------------------------------------
    def mat_of(self, half):
        K = self.M.K
        n = len(self.M.labels)
        g = [[K.zero()] * n for _ in range(n)]
        for (a, b), i in self.eidx.items():
            g[self.M.pos[a]][self.M.pos[b]] = half[i]
        return tuple(tuple(row) for row in g)

    def vec_of(self, g):
        return tuple(g[self.M.pos[a]][self.M.pos[b]] for (a, b) in self.entries)

    def pair_vec(self, x, y):
        return self.vec_of(x) + self.vec_of(y)

    def t_member(self, x, y):
        M = self.M
        for a in M.labels:
            for b in M.labels:
                lhs = M.b_form(M.basis(a), M.mat_col(y, b))
                rhs = M.b_form(M.mat_col(x, a), M.basis(b))
                if lhs != rhs:
                    return False
        return True

    def t_card(self):
        return self.tsolver.null_count

    def _tmod(self):
        return np.tile(self.M.K.moduli, 2 * len(self.entries))

    def t_rows(self):
        """T as sorted rows of flat int coordinates (x entries, then y)."""
        if self._t_rows is None:
            gens = [vflat(g) for g in self.tsolver.nullspace()]
            self._t_rows = _span_rows(self._tmod(), gens, self.cap)
        return self._t_rows

    def _pair_of(self, v):
        d = len(self.entries)
        return self.mat_of(v[:d]), self.mat_of(v[d:])

    def t_pair(self, row):
        """The adjoint pair (x, y) of one flat int row."""
        return self._pair_of(_vecs(np.reshape(row, (1, -1)), self.M.K.rank)[0])

    def t_elements(self):
        if self._t_list is None:
            vecs = _vecs(self.t_rows(), self.M.K.rank)
            self._t_list = [self._pair_of(v) for v in vecs]
        return self._t_list

    def _batch(self, fn, width):
        """fn, a quadratic map of (x, y) to width ring elements, on every
        row of T at once."""
        def flat_fn(row):
            return vflat(fn(*self.t_pair(row)))

        omod = np.tile(self.M.K.moduli, width)
        return _QuadraticMap(flat_fn, self._tmod(), omod)(self.t_rows())

    # -- the relation set --------------------------------------------------
    def _wnull_vecs(self):
        if self._wnull is None:
            K = self.M.K
            gens = [vflat(g) for g in self.wsolver.nullspace()]
            rows = _span_rows(np.tile(K.moduli, len(self.entries)), gens, self.cap)
            self._wnull = _vecs(rows, K.rank)
        return self._wnull

    def _w_rhs(self, x, y):
        M = self.M
        K = M.K
        qt = M.qtype
        xy = k_matmul(K, x, y)
        rhs = []
        for tag, a, b, blk in self._wrow_tags:
            if tag == "adj":
                l = M.b_form(M.mat_col(xy, a), M.basis(b))
                rhs.append(K.neg(qt.l_blocks(l)[blk]))
            elif tag == "q":
                rhs.append(qt.a_neg(M.q_form(M.mat_col(y, a))))
            else:
                l = M.b_form(M.mat_col(y, a), M.mat_col(y, b))
                rhs.append(qt.a_neg(qt.phi_map(l)))
        return rhs

    def xi_card(self):
        """Sum of the fiber sizes over T: every right-hand side of the w
        system in one batch, each consistent one adding null_count."""
        rhs = self._batch(self._w_rhs, self.wsolver.nrows)
        return int(self.wsolver.consistent(rhs).sum()) * self.wsolver.null_count

    def _xi_completion(self, xy, w0, dw):
        K = self.M.K
        n = len(self.M.labels)
        w = self.mat_of(vadd(K, tuple(w0), dw))
        z = tuple(
            tuple(K.neg(K.add(xy[i][j], w[i][j])) for j in range(n))
            for i in range(n)
        )
        return (z, w)

    def xi_fiber(self, x, y):
        """All completions (z, w) of an adjoint pair to a Xi element."""
        w0 = self.wsolver.solve(self._w_rhs(x, y))
        if w0 is None:
            return
        xy = k_matmul(self.M.K, x, y)
        for dw in self._wnull_vecs():
            yield self._xi_completion(xy, w0, dw)

    def xi_draw(self, x, y, rng):
        """The completion that list(xi_fiber(x, y))[rng.randrange(size)]
        picks, built alone; None, with no draw, for an empty fiber."""
        w0 = self.wsolver.solve(self._w_rhs(x, y))
        if w0 is None:
            return None
        wnull = self._wnull_vecs()
        dw = wnull[rng.randrange(len(wnull))]
        return self._xi_completion(k_matmul(self.M.K, x, y), w0, dw)

    def xi_elements(self):
        for x, y in self.t_elements():
            for z, w in self.xi_fiber(x, y):
                yield ((x, y), (z, w))

    def _q_rows_hold(self, y, w):
        """q(y m) + phi(B(m, w m)) = 0 on the basis, plus its polarization."""
        M = self.M
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

    def xi_member(self, t, s):
        (x, y), (z, w) = t, s
        K = self.M.K
        if not self.t_member(x, y) or not self.t_member(z, w):
            return False
        xy = k_matmul(K, x, y)
        n = len(self.M.labels)
        for i in range(n):
            for j in range(n):
                if not K.is_zero(K.add(K.add(xy[i][j], z[i][j]), w[i][j])):
                    return False
        return self._q_rows_hold(y, w)

    def unitary_elements(self):
        """Action matrices y of the unitary elements of (T, Xi)."""
        K = self.M.K
        n = len(self.M.labels)
        ident = k_identity(K, n)

        def products(x, y):
            return [e for row in k_matmul(K, x, y) + k_matmul(K, y, x) for e in row]

        both = self._batch(products, 2 * n * n)
        units = (both == vflat(products(ident, ident))).all(axis=1)
        out = []
        for row in self.t_rows()[units]:
            x, y = self.t_pair(row)
            ym1 = tuple(
                tuple(K.sub(y[i][j], ident[i][j]) for j in range(n)) for i in range(n)
            )
            xm1 = tuple(
                tuple(K.sub(x[i][j], ident[i][j]) for j in range(n)) for i in range(n)
            )
            if self._q_rows_hold(ym1, xm1):
                out.append(y)
        return sorted(out)


def naive_construction(M, cap=_SCAN_CAP):
    return NaiveConstruction(M, cap)


# -- tensor-square construction ---------------------------------------------


def canon_algebra(M):
    """Tensor square of the module: basis (i, j) = e_i (x) e_j, products
    contract through the pairing.  For the linear kind only mixed-side
    pairs survive the tensor relations."""
    K = M.K
    qt = M.qtype
    if qt.kind == "linear":
        pairs = [(i, j) for i in M.labels for j in M.labels if i * j < 0]
    else:
        pairs = [(i, j) for i in M.labels for j in M.labels]
    contract = {}
    for j in M.labels:
        row = []
        for k in M.labels:
            g = M.gram.get((j, k))
            if g is not None:
                acc = K.zero()
                for blk in qt.l_blocks(g):
                    acc = K.add(acc, blk)
                if not K.is_zero(acc):
                    row.append((k, acc))
        contract[j] = tuple(row)
    negate = qt.kind == "symplectic"
    invol = {(i, j): ((j, i), negate) for (i, j) in pairs}
    return SplitAlgebra("canon", M.labels, pairs, K, contract, invol,
                        "canon:%s" % M.tag)


class CanonConstruction(ParamTable):
    """The tensor square S with its parameter group Theta, an odd form
    parameter over S.  Its coordinates are the module coefficients in
    each free column slot t, then the free l slot of each t and the cross
    coefficients of each slot pair t < s, with basis elements from
    f_embed.  The residue of p, with m_t the coefficients in slot t, is
    sum_t f_embed(t, t, canonical_l(m_t)) - sum_{t<s} conj(col_t) col_s."""

    def __init__(self, M):
        self.M = M
        K = self.K = M.K
        qt = self.qtype = M.qtype
        S = self.S = canon_algebra(M)
        self.tag = S.tag
        if qt.kind == "linear":
            self.n_labels = tuple(a for a in M.labels if a > 0)
        else:
            self.n_labels = M.labels
        pi_pos = [(i, self.jslot(i, t)) for t in self.n_labels for i in M.labels]
        one, zero = K.one(), K.zero()
        aug = []
        if qt.kind == "symplectic":
            aug += [((t, t), self.f_embed(t, t, one)) for t in self.n_labels]
        elif qt.kind == "linear":
            l_free = qt.R.join((one, K.neg(one)))
            aug += [((-t, t), self.f_embed(t, t, l_free)) for t in self.n_labels]
        units = ([qt.R.join((one, zero)), qt.R.join((zero, one))]
                 if qt.kind == "linear" else [one])
        for a, t in enumerate(self.n_labels):
            for s in self.n_labels[a + 1:]:
                for u in units:
                    fe = self.f_embed(t, s, u)
                    (pos,) = fe.c  # f_embed of a unit has one entry, read there
                    aug.append((pos, S.sub(fe, S.conj(fe))))
        super().__init__(S, pi_pos, aug)

    def jslot(self, i, t):
        if self.qtype.kind == "linear":
            return -t if i > 0 else t
        return t

    def col(self, m, t):
        """e_i coefficients of m placed in column slot t of S."""
        return self.S.el({(i, self.jslot(i, t)): c for i, c in m.items()})

    def f_embed(self, t, s, l):
        qt = self.qtype
        K = self.K
        if qt.kind == "symplectic":
            return self.S.el({(t, s): K.neg(l)})
        if qt.kind == "orthogonal":
            return self.S.el({(t, s): l})
        l1, l2 = qt.R.split(l)
        return self.S.el({(-t, s): l1, (t, -s): l2})

    def canonical_l(self, m):
        qt = self.qtype
        q = self.M.q_form(m)
        if qt.kind == "symplectic":
            return qt.l_zero()
        if qt.kind == "orthogonal":
            return self.K.neg(q)
        return qt.R.join((self.K.zero(), self.K.neg(q)))

    def residue(self, p):
        S = self.S
        r = S.zero()
        cols = []
        for t in self.n_labels:
            m = {i: p.coeff(i, self.jslot(i, t)) for i in self.M.labels}
            col = self.col(m, t)
            for c in cols:
                r = S.sub(r, S.mul(S.conj(c), col))
            cols.append(col)
            r = S.add(r, self.f_embed(t, t, self.canonical_l(m)))
        return r

    def box(self, h, n):
        """Image of a form-parameter element under - (x) n for n a free
        combination of column slots with R coefficients."""
        M = self.M
        qt = self.qtype
        if not lparam_member(M, h):
            raise StructureError("left factor outside the form parameter")
        coeffs = {}
        for t, r in n.items():
            if t not in self.n_labels:
                raise StructureError("slot %r not free" % (t,))
            coeffs[t] = qt.R.check_element(r)
        S = self.S
        p = S.zero()
        for t, r in coeffs.items():
            p = S.add(p, self.col(M.mact(h.m, r), t))
        rho = S.zero()
        for t, rt in coeffs.items():
            for s, rs in coeffs.items():
                rho = S.add(rho, self.f_embed(t, s, qt.l_sand(rt, h.l, rs)))
        return self._law(p, rho)


def canonical_construction(M):
    return CanonConstruction(M)


# -- identification with the preset algebras --------------------------------


def preset_target(M):
    """The split preset algebra matching a split module's tables."""
    if not M.split:
        raise StructureError("preset identification needs the split tables")
    if M.qtype.kind == "linear":
        return ofalin(M.rank, M.K)
    if M.qtype.kind == "symplectic":
        return ofasymp(M.rank, M.K)
    return ofaorth(M.rank, M.K)


def _iota_coeff(M, i, j):
    if M.qtype.kind == "symplectic" and j < 0:
        return M.K.neg(M.K.one())
    return M.K.one()


def iota_s(C, alg, s):
    """Basis map (i, j) -> c e_{i,-j} onto the preset algebra."""
    out = alg.zero()
    for (i, j), v in s.c.items():
        c = _iota_coeff(C.M, i, j)
        out = alg.add(out, alg.el({(i, -j): C.K.mul(c, v)}))
    return out


def iota_s_inv(C, alg, a):
    out = C.S.zero()
    for (i, jm), v in a.c.items():
        c = _iota_coeff(C.M, i, -jm)
        out = C.S.add(out, C.S.el({(i, -jm): C.K.mul(c, v)}))
    return out


def iota_theta(C, shape, th):
    p, r = C.to_pair(th)
    out = shape.read(iota_s(C, shape.alg, p), iota_s(C, shape.alg, r))
    assert out is not None
    return out


def canon_preset_check(M, count=200, seed=0, cap=_SCAN_CAP):
    """Transport report between the tensor-square data of a split module
    and the matching preset: ring/involution on S, parameter bijection,
    and compatibility of the group structure."""
    import random

    rng = random.Random(seed)
    C = canonical_construction(M)
    alg = preset_target(M)
    shape = DeltaShape(alg)
    S = C.S
    report = {"module": M.tag, "preset": alg.tag}

    ok = len(S.pairs) == len(alg.pairs)
    for p1 in S.pairs:
        for p2 in S.pairs:
            a = S.e(*p1)
            b = S.e(*p2)
            if iota_s(C, alg, S.mul(a, b)) != alg.mul(iota_s(C, alg, a), iota_s(C, alg, b)):
                ok = False
    report["ring_map"] = ok
    ok = True
    for p1 in S.pairs:
        a = S.e(*p1)
        if iota_s(C, alg, S.conj(a)) != alg.conj(iota_s(C, alg, a)):
            ok = False
        if iota_s_inv(C, alg, iota_s(C, alg, a)) != a:
            ok = False
    report["involution"] = ok
    report["dim_match"] = C.dim == shape.dim

    exhaustive = C.card() <= cap
    report["mode"] = "exhaustive" if exhaustive else "sampled"
    if exhaustive:
        thetas = C.elements()
    else:
        thetas = [C.sample(rng) for _ in range(count)]
    seen = set()
    ok = True
    for th in thetas:
        p, r = C.to_pair(th)
        d = shape.read(iota_s(C, alg, p), iota_s(C, alg, r))
        if d is None:
            ok = False
            break
        seen.add(d)
    report["into_preset"] = ok
    report["image_count"] = len(seen)
    if exhaustive:
        report["bijection"] = ok and len(seen) == shape.card() == C.card()
    else:
        report["bijection"] = ok and report["dim_match"]

    kels = list(C.K.elements())
    ok = True
    for _ in range(count):
        a, b = C.sample(rng), C.sample(rng)
        if iota_theta(C, shape, C.add(a, b)) != shape.add(
            iota_theta(C, shape, a), iota_theta(C, shape, b)
        ):
            ok = False
        if iota_theta(C, shape, C.neg(a)) != shape.neg(iota_theta(C, shape, a)):
            ok = False
        s = S.sample(rng)
        if iota_theta(C, shape, C.phi(s)) != shape.phi(iota_s(C, alg, s)):
            ok = False
        k = kels[rng.randrange(len(kels))]
        if iota_theta(C, shape, C.act(a, s, k)) != shape.act(
            iota_theta(C, shape, a), iota_s(C, alg, s), k
        ):
            ok = False
    report["group_transport"] = ok
    ok = True
    for _ in range(count):
        p, r = shape.to_pair(shape.sample(rng))
        if C.read(iota_s_inv(C, alg, p), iota_s_inv(C, alg, r)) is None:
            ok = False
            break
    report["from_preset"] = ok
    report["pass"] = all(
        report[k]
        for k in ("ring_map", "involution", "dim_match", "into_preset",
                  "bijection", "group_transport", "from_preset")
    )
    return report


def canon_relations_check(M, count=100, seed=0):
    """Sampled structural laws of the box pairing; returns failures."""
    import random

    rng = random.Random(seed)
    C = canonical_construction(M)
    M_, qt, K = C.M, C.qtype, C.K
    rels = list(qt.R.elements())
    kel = list(K.elements())
    bad = set()

    def rand_lpar():
        m = M_.sample(rng)
        q = M_.q_form(m)
        if qt.kind == "symplectic":
            l = rels[rng.randrange(len(rels))]
        elif qt.kind == "orthogonal":
            l = K.neg(q)
        else:
            d = kel[rng.randrange(len(kel))]
            l = qt.R.join((d, K.sub(K.neg(q), d)))
        return HeisElem(M_, m, l)

    def rand_n():
        return {
            t: rels[rng.randrange(len(rels))]
            for t in C.n_labels
            if rng.randrange(2)
        }

    for _ in range(count):
        u, u2 = rand_lpar(), rand_lpar()
        n = rand_n()
        r = rels[rng.randrange(len(rels))]
        k = kel[rng.randrange(len(kel))]
        if C.box(heis_add(M_, u, u2), n) != C.add(C.box(u, n), C.box(u2, n)):
            bad.add("box additive on the left")
        rn = {t: qt.R.mul(r, v) for t, v in n.items()}
        if C.box(heis_act(M_, u, r), n) != C.box(u, rn):
            bad.add("box balanced over R")
        # phi of a sandwich matches the box of a trace-zero pair
        l = rels[rng.randrange(len(rels))]
        h = HeisElem(M_, {}, qt.l_sub(l, qt.l_inv(l)))
        x = C.S.zero()
        for t, rt in n.items():
            for s, rs in n.items():
                x = C.S.add(x, C.f_embed(t, s, qt.l_sand(rt, l, rs)))
        if C.box(h, n) != C.phi(x):
            bad.add("box of a trace-zero pair")
        nk = {t: qt.R.mul(v, qt.k_lift(k)) for t, v in n.items()}
        if C.act(C.box(u, n), C.S.zero(), k) != C.box(u, nk):
            bad.add("scalar action on a box")
        s = C.S.sample(rng)
        if C.act(C.phi(s), C.S.zero(), k) != C.phi(C.S.kmul(K.mul(k, k), s)):
            bad.add("scalar action on phi")
        if C.to_pair(C.phi(s))[0]:
            bad.add("phi lands in the augmentation part")
    return sorted(bad)


# -- comparison morphism ------------------------------------------------------


class CanonMorphism:
    """S -> T on basis tensors: (i, j) acts as m -> e_i B(e_j, m) with the
    adjoint slot filled by the mirrored tensor."""

    def __init__(self, M, cap=_SCAN_CAP):
        self.M = M
        self.C = canonical_construction(M)
        self.N = naive_construction(M, cap)
        K = M.K
        n = len(M.labels)
        sgn = -1 if M.qtype.kind == "symplectic" else 1
        contract = self.C.S.contract
        self.images = {}
        for (i, j) in self.C.S.pairs:
            y = [[K.zero()] * n for _ in range(n)]
            x = [[K.zero()] * n for _ in range(n)]
            for b, f in contract[j]:
                y[M.pos[i]][M.pos[b]] = f
            for b, g in contract[i]:
                x[M.pos[j]][M.pos[b]] = g if sgn == 1 else K.neg(g)
            self.images[(i, j)] = (
                tuple(tuple(r) for r in x),
                tuple(tuple(r) for r in y),
            )
        # solver for preimages, unknowns = S coordinates
        cols = [self.N.pair_vec(*self.images[p]) for p in self.C.S.pairs]
        mat = [
            [cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))
        ] if cols else []
        self._pre = KSolver(K, mat, ncols=len(self.C.S.pairs))
        self._ker = None

    def f_s(self, s):
        K = self.M.K
        n = len(self.M.labels)
        x = [[K.zero()] * n for _ in range(n)]
        y = [[K.zero()] * n for _ in range(n)]
        for key, v in s.c.items():
            xi, yi = self.images[key]
            for i in range(n):
                for j in range(n):
                    x[i][j] = K.add(x[i][j], K.mul(v, xi[i][j]))
                    y[i][j] = K.add(y[i][j], K.mul(v, yi[i][j]))
        return tuple(tuple(r) for r in x), tuple(tuple(r) for r in y)

    def kernel_vectors(self):
        if self._ker is None:
            K = self.M.K
            gens = [vflat(g) for g in self._pre.nullspace()]
            rows = _span_rows(np.tile(K.moduli, len(self.C.S.pairs)), gens, self.N.cap)
            self._ker = _vecs(rows, K.rank)
        return self._ker

    def image_count(self):
        """Number of distinct f_s images over all of S.  f_s is K-linear,
        so its int matrix is f_s on the basis of S coordinates, and one
        matmul maps every S coordinate row (mixed radix over the slot
        moduli)."""
        K, S = self.M.K, self.C.S
        n = len(self.M.labels)
        fmat = np.array([
            vflat(e for mat in self.f_s(S.el({p: u})) for row in mat for e in row)
            for p in S.pairs for u in _basis(K)
        ], dtype=np.int64).reshape(len(S.pairs) * K.rank, 2 * n * n * K.rank)
        coords = _mixed_radix(K.moduli * len(S.pairs), S.card())
        image = coords @ fmat % np.tile(K.moduli, 2 * n * n)
        return len(np.unique(image, axis=0))

    def preimages(self, t):
        """All S elements mapping to the adjoint pair t, as a list."""
        v0 = self._pre.solve(list(self.N.pair_vec(*t)))
        if v0 is None:
            return []
        out = []
        for dv in self.kernel_vectors():
            coords = vadd(self.M.K, tuple(v0), dv)
            out.append(self.C.S.el(dict(zip(self.C.S.pairs, coords))))
        return out


def canonical_morphism(M, cap=_SCAN_CAP):
    return CanonMorphism(M, cap)


def _theta_hit(F, C, t, s):
    """Whether some preimage pair (p, r) of (t, s) under F is in Theta."""
    ps = F.preimages(t)
    rs = F.preimages(s) if ps else []
    return any(C.read(p, r) is not None for p in ps for r in rs)


def naive_canon_check(M, seed=0, samples=100, cap=_SCAN_CAP):
    """Compare the two constructions over one module.

    Reports ring/involution compatibility of the comparison map, its
    injectivity and surjectivity on both the ring and the parameter
    level (exact counting plus witnesses), and whether both unitary
    groups agree with the automorphism scan of the module.
    """
    import random

    rng = random.Random(seed)
    F = canonical_morphism(M, cap)
    C, N = F.C, F.N
    S = C.S
    K = M.K
    report = {"module": M.tag}

    s_card = S.card()
    report["s_card"] = s_card
    report["t_card"] = N.t_card()
    report["theta_card"] = C.card()
    report["xi_card"] = N.xi_card()

    ok_hom = True
    ok_inv = True
    for p1 in S.pairs:
        a = S.e(*p1)
        xa, ya = F.f_s(a)
        if not N.t_member(xa, ya):
            ok_hom = False
        xc, yc = F.f_s(S.conj(a))
        if (xc, yc) != (ya, xa):
            ok_inv = False
        for p2 in S.pairs:
            b = S.e(*p2)
            xb, yb = F.f_s(b)
            xab, yab = F.f_s(S.mul(a, b))
            prod = (k_matmul(K, xb, xa), k_matmul(K, ya, yb))
            if (xab, yab) != prod:
                ok_hom = False
    report["ring_hom"] = ok_hom
    report["involution"] = ok_inv

    if s_card > cap:
        raise CapacityError("image scan over %d" % s_card)
    image_count = F.image_count()
    report["injective"] = image_count == s_card
    report["surjective"] = image_count == report["t_card"]

    counts_match = report["theta_card"] == report["xi_card"]
    report["theta_injective"] = report["injective"]
    missing = None
    if report["xi_card"] <= cap:
        missing = next(((t, s) for t, s in N.xi_elements()
                        if not _theta_hit(F, C, t, s)), None)
        report["theta_surjective"] = missing is None
        report["theta_mode"] = "exhaustive"
    else:
        ts = N.t_rows()
        for _ in range(samples):
            t = N.t_pair(ts[rng.randrange(len(ts))])
            s = N.xi_draw(*t, rng)
            if s is not None and not _theta_hit(F, C, t, s):
                missing = (t, s)
                break
        report["theta_surjective"] = (missing is None and counts_match
                                      and report["injective"])
        report["theta_mode"] = "sampled+count"
    if missing is not None:
        report["missing_witness"] = True

    mu = enumerate_module_unitary(M, cap)
    nu = N.unitary_elements()
    report["unitary_order"] = len(mu)
    report["naive_unitary_order"] = len(nu)
    report["unitary_match"] = mu == nu

    report["pass"] = all(
        report[k]
        for k in ("ring_hom", "involution", "injective", "surjective",
                  "theta_surjective", "unitary_match")
    )
    return report
