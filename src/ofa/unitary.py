"""Unitary groups over the split presets.

A group element is the pair (beta, gamma): beta lies in the algebra,
gamma in Delta, subject to alpha*bar(alpha) = bar(alpha)*alpha = 1 for
alpha = beta + 1 in the unitalization, pi(gamma) = beta and
rho(gamma) = bar(beta).  Over the shapes built here the pair (pi, rho)
is faithful, so gamma is recovered from beta by a coordinate read and
elements compare by beta alone.  Gamma is a Delta coordinate tuple, and
the Delta arithmetic here is the table's own (shape.add, shape.act, ...).

The module covers group arithmetic, the elementary generators
(transvections and dilations), determinant and Dickson invariants, the
embedding of the odd orthogonal group into the even one, the outer
automorphism of the linear preset, hyperbolic pairs and families with
their parabolic subgroups (closed from generating sets of the short and
ultrashort parameters), the three classical sub-algebra pairs with
their stabilizer groups, and exhaustive enumeration.

Enumeration has one candidate generator per family and one membership
pass.  The odd orthogonal preset scans every beta of the algebra.  The
other presets write the split form on K^d (b, and q for the orthogonal
preset) as integer tensors, find its isometries M with the one column
search of linalg (isometry_search, which quad_module shares), and take
beta = M - 1: the group acts on K^d by such isometries, so no member is
missed.  Every candidate batch passes one mask, unitality plus the
Delta read of (beta, bar beta) (the batch form of u_try), and a survivor
is kept as its beta alone.  The result is sorted by key, cached per shape
and, unless asked not to, verified: distinct keys, bar beta listed for
every beta, and 144 seeded products.
"""

import random

import numpy as np

from .coeff_ring import CapacityError, Product, StructureError, _basis
from .form_ring import ofalin, ofaorth, rep_odd, x_central
from .form_ring import alg_el_from_json, alg_el_to_json
from .linalg import form_rows, isometry_search, k_det, k_matrices, k_solve, support_pool
from .odd_form_param import (
    DeltaShape,
    _torsion_list,
    central_u,
    delta_from_json,
    delta_to_json,
    gen_q,
    member,
    to_pair,
)
from .batch_delta import BatchOps
from .clifford import center_split_idempotent, clif0_center

_ENUM_CAP = 1 << 20
_CHUNK = 1 << 16
_POOL_CAP = 1 << 12
_CLOSURE_CAP = 1 << 20


class UnitaryElem:
    """Group element stored as beta alone; equality and hashing go through it."""

    __slots__ = ("shape", "beta", "key")

    def __init__(self, shape, beta):
        self.shape = shape
        self.beta = beta
        self.key = beta.key

    @property
    def gamma(self):
        """Read off (beta, bar beta) on demand."""
        return member(self.shape, self.beta, self.shape.alg.conj(self.beta))

    def __eq__(self, other):
        return (
            isinstance(other, UnitaryElem)
            and self.shape.tag == other.shape.tag
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.shape.tag, self.key))

    def __mul__(self, other):
        return u_mul(self, other)

    def inv(self):
        return u_inv(self)

    def __repr__(self):
        return "<unitary beta=%r>" % (self.beta,)


def _unitality(alg, beta):
    bb = alg.conj(beta)
    s = alg.add(beta, bb)
    return (
        not alg.add(s, alg.mul(bb, beta)).c
        and not alg.add(s, alg.mul(beta, bb)).c
    )


def u_is_member(shape, beta, gamma):
    """The three membership equations for the pair (beta, gamma)."""
    alg = shape.alg
    if not _unitality(alg, beta):
        return False
    p, r = to_pair(shape, gamma)
    return p == beta and r == alg.conj(beta)


def u_try(shape, beta):
    """Member with the given beta, or None."""
    alg = shape.alg
    if not _unitality(alg, beta) or member(shape, beta, alg.conj(beta)) is None:
        return None
    return UnitaryElem(shape, beta)


def u_make(shape, beta):
    g = u_try(shape, beta)
    if g is None:
        raise StructureError("beta %r is not unitary over %s" % (beta, shape.tag))
    return g


def u_identity(shape):
    return UnitaryElem(shape, shape.alg.zero())


def u_mul(g, h):
    if g.shape.tag != h.shape.tag:
        raise StructureError("shape mismatch %s / %s" % (g.shape.tag, h.shape.tag))
    alg = g.shape.alg
    return UnitaryElem(g.shape, alg.add(alg.mul(g.beta, h.beta), alg.add(g.beta, h.beta)))


def u_inv(g):
    return UnitaryElem(g.shape, g.shape.alg.conj(g.beta))


def unitary_to_json(g):
    return {"beta": alg_el_to_json(g.beta), "gamma": delta_to_json(g.shape, g.gamma)}


def unitary_from_json(shape, data):
    beta = alg_el_from_json(shape.alg, data["beta"])
    gamma = delta_from_json(shape, data["gamma"])
    if not u_is_member(shape, beta, gamma):
        raise StructureError("decoded element is not unitary")
    return UnitaryElem(shape, beta)


# conjugation action on the whole odd form algebra


def act_projective(g, target):
    """g acting on the algebra by alpha * x * alpha^{-1}."""
    alg = g.shape.alg
    if isinstance(target, UnitaryElem):
        raise StructureError("conjugate group elements through u_mul")
    bb = alg.conj(g.beta)
    out = alg.add(target, alg.mul(g.beta, target))
    return alg.add(out, alg.add(alg.mul(target, bb), alg.mul(alg.mul(g.beta, target), bb)))


def act_projective_delta(g, x):
    """g acting on Delta by the twisted law (gamma . pi(x) + x) . alpha^{-1}."""
    shape = g.shape
    alg, K = shape.alg, shape.alg.K
    p = to_pair(shape, x)[0]
    y = shape.add(shape.act(g.gamma, p, K.zero()), x)
    return shape.act(y, alg.conj(g.beta), K.one())


def conjugate(g, h):
    return u_mul(u_mul(g, h), u_inv(g))


# elementary generators


def transvection_short(shape, i, j, x):
    alg = shape.alg
    if i == 0 or j == 0 or i == j or i == -j:
        raise StructureError("short transvection needs i != 0, j != 0, i != +-j")
    if alg.mul(alg.e(i, i), alg.mul(x, alg.e(j, j))) != x:
        raise StructureError("parameter not supported in block (%d, %d)" % (i, j))
    xb = alg.conj(x)
    beta = alg.sub(x, xb)
    zero = alg.K.zero()
    gamma = shape.add(
        shape.add(shape.act(gen_q(shape, i), x, zero),
                  shape.neg(shape.act(gen_q(shape, -j), xb, zero))),
        shape.neg(shape.phi(x)),
    )
    if not u_is_member(shape, beta, gamma):
        raise StructureError("transvection parameter fails membership")
    return UnitaryElem(shape, beta)


def delta0_member(shape, u):
    """Whether pi(u) vanishes on every row except the middle one."""
    alg = shape.alg
    s = alg.el({(i, i): alg.K.one() for i in alg.indices if i != 0})
    return not alg.mul(s, to_pair(shape, u)[0]).c


def transvection_ultrashort(shape, i, u):
    alg = shape.alg
    zero = alg.K.zero()
    if i == 0:
        raise StructureError("ultrashort transvection needs i != 0")
    if not delta0_member(shape, u) or shape.act(u, alg.e(i, i), zero) != u:
        raise StructureError("parameter is not in Delta0 * e_%d" % i)
    p, r = to_pair(shape, u)
    pb = alg.conj(p)
    beta = alg.add(r, alg.sub(p, pb))
    gamma = shape.add(
        shape.add(u, shape.neg(shape.phi(alg.add(r, p)))),
        shape.act(gen_q(shape, -i), alg.sub(r, pb), zero),
    )
    if not u_is_member(shape, beta, gamma):
        raise StructureError("ultrashort parameter fails membership")
    return UnitaryElem(shape, beta)


def dilation(shape, i, a):
    alg = shape.alg
    K = alg.K
    if i == 0:
        raise StructureError("use dilation0 for the middle index")
    if alg.mul(alg.e(i, i), alg.mul(a, alg.e(i, i))) != a:
        raise StructureError("parameter not supported in corner (%d, %d)" % (i, i))
    c = a.coeff(i, i)
    cinv = K.try_invert(c)
    if cinv is None:
        raise StructureError("dilation parameter is not a corner unit")
    abinv = alg.e(-i, -i, cinv)
    beta = alg.sub(alg.add(a, abinv), alg.add(alg.e(i, i), alg.e(-i, -i)))
    am = alg.sub(a, alg.e(i, i))
    zero = K.zero()
    gamma = shape.add(
        shape.add(
            shape.act(gen_q(shape, -i), alg.sub(abinv, alg.e(-i, -i)), zero),
            shape.act(gen_q(shape, i), am, zero),
        ),
        shape.neg(shape.phi(am)),
    )
    if not u_is_member(shape, beta, gamma):
        raise StructureError("dilation fails membership")
    return UnitaryElem(shape, beta)


def dilation0(shape, c):
    """Corner element with beta = c*e(0,0); a member exactly when c^2 + c = 0."""
    alg = shape.alg
    if 0 not in alg.indices:
        raise StructureError("no middle corner in %s" % alg.tag)
    return u_make(shape, alg.e(0, 0, c))


# determinant over the linear preset, Dickson over the orthogonal ones


def _block_matrix(alg, beta, idlist):
    K = alg.K
    return [
        [
            K.add(beta.coeff(s, t), K.one() if s == t else K.zero())
            for t in idlist
        ]
        for s in idlist
    ]


def det_linear(g):
    alg = g.shape.alg
    if alg.kind != "lin":
        raise StructureError("det_linear needs the linear preset")
    neg = [i for i in alg.indices if i < 0]
    pos = [i for i in alg.indices if i > 0]
    return (
        k_det(alg.K, _block_matrix(alg, g.beta, neg)),
        k_det(alg.K, _block_matrix(alg, g.beta, pos)),
    )


def sl_member(g):
    one = g.shape.alg.K.one()
    return det_linear(g) == (one, one)


def idem_op(K, d, e):
    """Group law d + e - 2de on the idempotents of K."""
    return K.sub(K.add(d, e), K.smul(2, K.mul(d, e)))


_CLIF_Z_CACHE = {}


def _clif_center_idem(r, K):
    key = (r, K.name)
    if key not in _CLIF_Z_CACHE:
        basis = clif0_center(r, K)
        z = center_split_idempotent(basis)
        _CLIF_Z_CACHE[key] = (basis[0].alg, z)
    return _CLIF_Z_CACHE[key]


def _clif_transport(clif, M, idlist, x):
    """Image of the even element x under e_a -> sum_s M[s][a] e_s."""
    pos = {a: s for s, a in enumerate(idlist)}
    gens = {}
    for a in idlist:
        gens[a] = clif.el({(s,): M[pos[s]][pos[a]] for s in idlist})
    out = clif.zero()
    for word, v in x.c.items():
        term = clif.scalar(v)
        for a in word:
            term = clif.mul(term, gens[a])
        out = clif.add(out, term)
    return out


def dickson_even(g):
    alg = g.shape.alg
    K = alg.K
    if alg.kind != "orth" or 0 in alg.indices:
        raise StructureError("dickson_even needs the even orthogonal preset")
    idlist = sorted(alg.indices)
    M = _block_matrix(alg, g.beta, idlist)
    if len(_torsion_list(K)) == 1:
        # 2 regular: d is pinned by det(alpha) = 1 - 2d
        dt = k_det(K, M)
        for d in K.idempotents():
            if K.sub(K.one(), K.smul(2, d)) == dt:
                return d
        raise StructureError("no idempotent solves det = 1 - 2d")
    clif, z = _clif_center_idem(len(idlist), K)
    gz = _clif_transport(clif, M, idlist, z)
    w = clif.mul(
        clif.sub(gz, z), clif.sub(clif.one(), clif.smul(2, z))
    )
    d = w.coeff(())
    if w != clif.scalar(d) or K.mul(d, d) != d:
        raise StructureError("center action did not produce an idempotent")
    return d


# odd orthogonal groups through the even ones


_ODD_TARGET_CACHE = {}


def odd_embed_target(shape):
    alg = shape.alg
    if alg.kind != "orth" or 0 not in alg.indices:
        raise StructureError("odd embedding starts from the odd orthogonal preset")
    key = alg.tag
    if key not in _ODD_TARGET_CACHE:
        _ODD_TARGET_CACHE[key] = DeltaShape(ofaorth(2 * alg.n + 2, alg.K))
    return _ODD_TARGET_CACHE[key]


def embed_odd_el(small_alg, big_alg, a):
    m = small_alg.n + 1
    c = {}

    def put(i, j, v):
        K = big_alg.K
        w = K.add(c.get((i, j), K.zero()), v)
        if K.is_zero(w):
            c.pop((i, j), None)
        else:
            c[(i, j)] = w

    for (i, j), v in a.c.items():
        if i != 0 and j != 0:
            put(i, j, v)
        elif i != 0:
            put(i, -m, v)
            put(i, m, v)
        elif j != 0:
            put(-m, j, v)
            put(m, j, v)
        else:
            for s in (-m, m):
                for t in (-m, m):
                    put(s, t, v)
    return big_alg.el(c)


def embed_odd(g):
    big = odd_embed_target(g.shape)
    return u_make(big, embed_odd_el(g.shape.alg, big.alg, g.beta))


def dickson_odd(g):
    return dickson_even(embed_odd(g))


def rep_matrix(g):
    """1 + rep_odd(beta) as a matrix over the module basis."""
    alg = g.shape.alg
    K = alg.K
    M = [list(row) for row in rep_odd(alg, g.beta)]
    for s in range(len(M)):
        M[s][s] = K.add(M[s][s], K.one())
    return tuple(tuple(row) for row in M)


def so_odd_split(shape):
    """Decomposition report for the odd orthogonal group of rank 3."""
    alg = shape.alg
    K = alg.K
    if alg.kind != "orth" or 0 not in alg.indices or alg.n != 1:
        raise StructureError("so_odd_split is implemented for rank 3 only")
    group = enumerate_unitary(shape)
    dicks = {g.key: dickson_odd(g) for g in group}
    kernel = [g for g in group if K.is_zero(dicks[g.key])]
    images = {rep_matrix(g) for g in kernel}
    # SO(3): the form isometries of determinant 1, which are invertible
    vecs, F = _isometries(BatchOps(shape))
    flat = vecs.reshape(len(vecs), -1)
    so = {M for M in k_matrices(flat, F, K.rank)
          if k_det(K, [list(r) for r in M]) == K.one()}
    idems = K.idempotents()

    det_ok = True
    for g in group:
        lhs = k_det(K, [list(r) for r in rep_matrix(g)])
        if lhs != K.sub(K.one(), K.smul(2, dicks[g.key])):
            det_ok = False
            break

    basis = [alg.e(i, j) for (i, j) in alg.pairs]
    central = [
        g
        for g in group
        if all(alg.mul(g.beta, b) == alg.mul(b, g.beta) for b in basis)
    ]
    # the center should be exactly {(x(k), u(k)) : k^2 + k = 0}, with
    # Dickson invariant -k; keyed by -k, which each central g must hit
    expected = {}
    for k in K.elements():
        if K.is_zero(K.add(K.mul(k, k), k)):
            bx, ux = x_central(alg, k), central_u(shape, k)
            assert u_is_member(shape, bx, ux)
            expected[K.neg(k)] = (bx, ux)
    central_ok = len(central) == len(expected) and all(
        expected.get(dicks[g.key]) == (g.beta, g.gamma) for g in central)

    keyset = {g.key for g in group}
    product_keys = {u_mul(g, UnitaryElem(shape, bx)).key
                    for g in kernel for bx, _ in expected.values()}
    decomposition_ok = product_keys == keyset and len(kernel) * len(expected) == len(group)

    report = {
        "ring": K.name,
        "order": len(group),
        "so_order": len(so),
        "idempotents": len(idems),
        "kernel_order": len(kernel),
        "product_law": len(group) == len(so) * len(idems),
        "kernel_bijection": len(images) == len(kernel) and images == so,
        "det_identity": det_ok,
        "central_match": central_ok,
        "decomposition": decomposition_ok,
    }
    report["pass"] = all(
        report[k]
        for k in (
            "product_law",
            "kernel_bijection",
            "det_identity",
            "central_match",
            "decomposition",
        )
    )
    return report


# outer automorphism of the linear preset


class SigmaLinear:
    """Block swap of the linear preset; order 2, commutes with bar."""

    def __init__(self, shape):
        if shape.alg.kind != "lin":
            raise StructureError("sigma lives on the linear preset")
        self.shape = shape
        self.n = shape.alg.n

    def index(self, i):
        return i - (self.n + 1) if i > 0 else i + (self.n + 1)

    def on_alg(self, a):
        alg = a.alg
        return alg.el({(self.index(i), self.index(j)): v for (i, j), v in a.c.items()})

    def on_delta(self, u):
        p, r = to_pair(self.shape, u)
        out = member(self.shape, self.on_alg(p), self.on_alg(r))
        assert out is not None
        return out

    def on_unitary(self, g):
        return u_make(self.shape, self.on_alg(g.beta))

    def __call__(self, target):
        if isinstance(target, UnitaryElem):
            return self.on_unitary(target)
        return self.on_alg(target)


def sigma_linear(shape):
    return SigmaLinear(shape)


# hyperbolic pairs and families


class HyperbolicPair:
    __slots__ = ("shape", "e_minus", "e_plus", "q_minus", "q_plus")

    def __init__(self, shape, e_minus, e_plus, q_minus, q_plus):
        self.shape = shape
        self.e_minus = e_minus
        self.e_plus = e_plus
        self.q_minus = q_minus
        self.q_plus = q_plus

    def weight(self):
        return self.e_minus + self.e_plus


def hyperbolic_pair_check(pair):
    em, ep = pair.e_minus, pair.e_plus
    shape = pair.shape
    alg = shape.alg
    failures = []
    if alg.mul(em, em) != em or alg.mul(ep, ep) != ep:
        failures.append("not idempotent")
    if alg.mul(em, ep).c or alg.mul(ep, em).c:
        failures.append("not orthogonal")
    if alg.conj(ep) != em:
        failures.append("bar(e+) != e-")
    for q, e in ((pair.q_minus, em), (pair.q_plus, ep)):
        p, r = to_pair(shape, q)
        if p != e:
            failures.append("pi(q) != e")
        if r.c:
            failures.append("rho(q) != 0")
        if shape.act(q, e, alg.K.zero()) != q:
            failures.append("q * e != q")
    return failures


def hyperbolic_standard(shape, i):
    return HyperbolicPair(
        shape, shape.alg.e(-i, -i), shape.alg.e(i, i), gen_q(shape, -i), gen_q(shape, i)
    )


def hyperbolic_family_standard(shape):
    return [hyperbolic_standard(shape, i) for i in range(1, shape.alg.n + 1)]


def pair_sum(p1, p2):
    alg = p1.e_minus.alg
    w1, w2 = p1.weight(), p2.weight()
    if alg.mul(w1, w2).c or alg.mul(w2, w1).c:
        raise StructureError("pair_sum needs orthogonal pairs")
    shape = p1.shape
    out = HyperbolicPair(
        shape,
        alg.add(p1.e_minus, p2.e_minus),
        alg.add(p1.e_plus, p2.e_plus),
        shape.add(p1.q_minus, p2.q_minus),
        shape.add(p1.q_plus, p2.q_plus),
    )
    bad = hyperbolic_pair_check(out)
    if bad:
        raise StructureError("pair_sum produced an invalid pair: %s" % bad)
    return out


def _two_sided_span_contains(alg, gen, target):
    """target in span{gen, b*gen, gen*b, b*gen*b'} by exact solve."""
    basis = [alg.e(i, j) for (i, j) in alg.pairs]
    prods = [gen]
    prods += [alg.mul(b, gen) for b in basis]
    prods += [alg.mul(gen, b) for b in basis]
    prods += [alg.mul(alg.mul(b, gen), b2) for b in basis for b2 in basis]
    M = [[alg.coords(p)[s] for p in prods] for s in range(alg.rank)]
    return k_solve(alg.K, M, list(alg.coords(target))) is not None


def hyperbolic_family_validate(family):
    """Pair axioms, pairwise orthogonality, and the two-sided span condition."""
    report = {"pairs": [], "orthogonal": True, "generation": True, "witnesses": []}
    if not family:
        report["pass"] = True
        return report
    alg = family[0].e_minus.alg
    for t, pair in enumerate(family):
        bad = hyperbolic_pair_check(pair)
        report["pairs"].append(not bad)
        if bad:
            report["witnesses"].append("pair %d: %s" % (t, ", ".join(bad)))
    weights = [p.weight() for p in family]
    for s in range(len(family)):
        for t in range(len(family)):
            if s != t and alg.mul(weights[s], weights[t]).c:
                report["orthogonal"] = False
                report["witnesses"].append("weights %d, %d not orthogonal" % (s, t))
    for s in range(len(family)):
        for t in range(len(family)):
            if s != t and not _two_sided_span_contains(alg, weights[t], weights[s]):
                report["generation"] = False
                report["witnesses"].append("weight %d not in ideal of %d" % (s, t))
    report["pass"] = (
        all(report["pairs"]) and report["orthogonal"] and report["generation"]
    )
    return report


# classical sub-algebra pairs and their stabilizers


class ClassicalPair:
    """One of the three embeddings into a linear preset."""

    def __init__(self, small_shape):
        small = small_shape.alg
        K = small.K
        self.small_shape = small_shape
        self.small = small
        if small.kind == "lin":
            self.mode = "coeff"
            self.bigK = Product((K, K))
            big_alg = ofalin(small.n, self.bigK)
        elif small.kind in ("symp", "orth") and 0 not in small.indices:
            self.mode = "form"
            self.width = 2 * small.n
            big_alg = ofalin(self.width, K)
        else:
            raise StructureError("no classical pair over %s" % small.tag)
        self.big_shape = DeltaShape(big_alg)
        self.big = big_alg

    def _amap(self, i):
        return i if i > 0 else self.width + 1 + i

    def _sign(self, i, j):
        return self.small.eps(i) * self.small.eps(j)

    def iota(self, x):
        big = self.big
        if self.mode == "coeff":
            return big.el({key: self.bigK.join((v, v)) for key, v in x.c.items()})
        c = {}
        for (i, j), v in x.c.items():
            a, b = self._amap(i), self._amap(j)
            c[(a, b)] = v
            c[(-self._amap(-i), -self._amap(-j))] = (
                v if self._sign(i, j) > 0 else big.K.neg(v)
            )
        return big.el(c)

    def image_member(self, y):
        if y.alg.tag != self.big.tag:
            return False
        if self.mode == "coeff":
            return all(
                self.bigK.split(y.coeff(i, j))[0] == self.bigK.split(y.coeff(i, j))[1]
                for (i, j) in self.big.pairs
            )
        K = self.big.K
        for (i, j) in self.small.pairs:
            v = y.coeff(self._amap(i), self._amap(j))
            if self._sign(i, j) < 0:
                v = K.neg(v)
            if y.coeff(-self._amap(-i), -self._amap(-j)) != v:
                return False
        return True

    def iota_inv(self, y):
        if not self.image_member(y):
            raise StructureError("element is outside the embedded image")
        if self.mode == "coeff":
            return self.small.el(
                {key: self.bigK.split(y.coeff(*key))[0] for key in self.small.pairs}
            )
        return self.small.el(
            {
                (i, j): y.coeff(self._amap(i), self._amap(j))
                for (i, j) in self.small.pairs
            }
        )

    def iota_delta(self, u):
        p, r = to_pair(self.small_shape, u)
        out = member(self.big_shape, self.iota(p), self.iota(r))
        assert out is not None
        return out

    def delta_image_member(self, w):
        p, r = to_pair(self.big_shape, w)
        if not self.image_member(p) or not self.image_member(r):
            return False
        return member(self.small_shape, self.iota_inv(p), self.iota_inv(r)) is not None


def classical_pair(small_shape):
    return ClassicalPair(small_shape)


def _delta_slot_generators(shape, slots):
    """The elements with one Z-basis element of K at one of the given
    coordinate slots and zero elsewhere."""
    zero = shape.zero()
    return [zero[:t] + (b,) + zero[t + 1:] for t in slots for b in _basis(shape.alg.K)]


def gu_member(g, pair):
    """Whether conjugation by g stabilizes the embedded sub-pair."""
    if g.shape.tag != pair.big_shape.tag:
        raise StructureError("element lives over %s, pair over %s"
                             % (g.shape.tag, pair.big_shape.tag))
    for (i, j) in pair.small.pairs:
        if not pair.image_member(act_projective(g, pair.iota(pair.small.e(i, j)))):
            return False
    for gen in _delta_slot_generators(pair.small_shape, range(pair.small_shape.dim)):
        if not pair.delta_image_member(act_projective_delta(g, pair.iota_delta(gen))):
            return False
    return True


# enumeration


_GROUP_CACHE = {}


def _eye(bo):
    """The identity matrix as a (d, d, rk) array; row t is e_t."""
    return (np.eye(bo.d, dtype=np.int64)[:, :, None] * bo.onevec) % bo.m


def _split_form(bo):
    """The preset's split form on K^d as Z-tensors on flat (d * rk)
    coordinates: b(v, w) = sum_i eps(i) c_i v[i] w[-i], with c_0 = 2 at
    the middle index and c_i = 1 elsewhere, and the upper-triangular
    q(v) = sum_{i>=0} v[-i] v[i], which the orthogonal presets keep.
    Returns B and Q, each (d * rk, d * rk, rk)."""
    alg, S, rk = bo.alg, bo.ring.S, bo.rk
    B = np.zeros((bo.d, rk, bo.d, rk, rk), dtype=np.int64)
    Q = np.zeros_like(B)
    for i in alg.indices:
        B[bo.pos[i], :, bo.pos[-i]] = alg.eps(i) * (2 if i == 0 else 1) * S
        if i >= 0:
            Q[bo.pos[-i], :, bo.pos[i]] = S
    D = bo.d * rk
    return B.reshape(D, D, rk) % bo.m, Q.reshape(D, D, rk)


def _pool(bo):
    """Candidate columns, (Np, d * rk) flat: all of K^d, or for the linear
    preset the vectors supported on one sign of indices."""
    q, d = bo.K.card, bo.d
    lin = bo.alg.kind == "lin"
    k = d // 2 if lin else d
    size = 2 * q ** k - 1 if lin else q ** k
    if size > _POOL_CAP:
        raise CapacityError("column pool of %d vectors" % size)
    if not lin:
        return support_pool(bo.ktab, d, range(d))
    # negative indices come first; both halves start with the zero vector
    return np.concatenate([support_pool(bo.ktab, d, range(k)),
                           support_pool(bo.ktab, d, range(k, d))[1:]])


def _isometries(bo):
    """Every M over K with b(M e_s, M e_t) = G[s, t] and, for the
    orthogonal presets, q(M e_t) = q(e_t), by linalg.isometry_search.

    Returns (vecs, F): column t of leaf r is vecs[F[r, t]].
    """
    alg = bo.alg
    B, Q = _split_form(bo)
    V, E = _pool(bo), _eye(bo).reshape(bo.d, bo.d * bo.rk)
    vecs = V.reshape(len(V), bo.d, bo.rk)
    Es, Et = np.repeat(E, bo.d, axis=0), np.tile(E, (bo.d, 1))
    G = form_rows(Es, B, Et, bo.m).reshape(bo.d, bo.d, bo.rk)
    qv, qe = form_rows(V, Q, V, bo.m), form_rows(E, Q, E, bo.m)
    pools = []
    for t, j in enumerate(alg.indices):
        ok = np.ones(len(vecs), dtype=bool)
        if alg.kind == "lin":
            other = [bo.pos[i] for i in alg.indices if i * j < 0]
            ok &= (vecs[:, other] == 0).all(axis=(1, 2))
        if alg.kind == "orth":
            ok &= (qv == qe[t]).all(axis=-1)
        pools.append(np.nonzero(ok)[0])
    return vecs, isometry_search(bo.K, V, B, G, pools)


def _column_betas(bo):
    """beta = M - 1 for every form isometry M, in _CHUNK slices."""
    vecs, F = _isometries(bo)
    eye = _eye(bo)
    for lo in range(0, len(F), _CHUNK):
        M = np.swapaxes(vecs[F[lo:lo + _CHUNK]], 1, 2)
        yield (M - eye) % bo.m


def _scan_betas(bo):
    """Every beta of the algebra, in _CHUNK slices of the mixed-radix index."""
    q, rank = bo.K.card, bo.alg.rank
    total = q ** rank
    if total > _ENUM_CAP:
        raise CapacityError("beta scan over %d candidates" % total)
    radix = q ** np.arange(rank, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        sel = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        yield bo.materialize("alg", (sel[:, None] // radix) % q)


def _unitary_mask(bo, P):
    """Rows of the beta batch P with alpha bar(alpha) = bar(alpha) alpha = 1
    whose pair (beta, bar beta) reads back into Delta."""
    Pb = bo.conj(P)
    z1 = (P + Pb + bo.dmul(Pb, P)) % bo.m
    z2 = (P + Pb + bo.dmul(P, Pb)) % bo.m
    ok = (z1 == 0).all(axis=(1, 2, 3)) & (z2 == 0).all(axis=(1, 2, 3))
    return ok & bo.read_aug_ok((Pb - bo.fold_residue(P)) % bo.m)


def _members(bo, chunks):
    """The element of every candidate beta that passes the batch mask."""
    alg = bo.alg
    slots = [(key, bo.pos[key[0]], bo.pos[key[1]]) for key in alg.pairs]
    out = []
    for P in chunks:
        for row in P[_unitary_mask(bo, P)].tolist():
            coeffs = {key: tuple(row[a][b]) for key, a, b in slots if any(row[a][b])}
            out.append(UnitaryElem(bo.shape, alg.el(coeffs)))
    return out


def enumerate_unitary(shape, verify=True):
    """Every group element, sorted by the canonical beta encoding."""
    # entries are (elements, verified); an unverified one serves only
    # calls that skip the check
    hit = _GROUP_CACHE.get(shape.tag)
    if hit is not None and (hit[1] or not verify):
        return list(hit[0])
    bo = BatchOps(shape)
    chunks = _scan_betas(bo) if bo.pos0 is not None else _column_betas(bo)
    out = _members(bo, chunks)
    out.sort(key=lambda g: g.key)
    if verify:
        alg = shape.alg
        keys = {g.key for g in out}
        assert len(keys) == len(out), "repeated beta"
        for g in out:
            assert alg.conj(g.beta).key in keys, "no inverse of %r" % g
        rng = random.Random(0)
        for _ in range(144):
            g, h = rng.choice(out), rng.choice(out)
            assert u_mul(g, h).key in keys, "no product %r * %r" % (g, h)
    _GROUP_CACHE[shape.tag] = (out, verify)
    return list(out)


def group_order(shape, **kw):
    return len(enumerate_unitary(shape, **kw))


# subgroups


def generate_subgroup(gens, cap=_CLOSURE_CAP):
    if not gens:
        raise StructureError("empty generating set")
    shape = gens[0].shape
    e = u_identity(shape)
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


def parabolic_generators(shape, family=None):
    """Dilations, middle corners, and the short and ultrashort
    transvections of the family's block, each taken at generators only:
    X_ij(x) X_ij(y) = X_ij(x + y) and T_j(u) T_j(v) = T_j(u + v), so the
    Z-basis of K gives every short parameter, and u = x . e_j for x a
    slot generator of Delta0 (the u and augmentation slots) every
    ultrashort one."""
    alg = shape.alg
    K = alg.K
    if family is None:
        family = hyperbolic_family_standard(shape)
    ranks = []
    for pair in family:
        support = list(pair.e_plus.c)
        if len(support) != 1 or support[0][0] != support[0][1]:
            raise StructureError("parabolic generators need standard-family pairs")
        ranks.append(support[0][0])
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
                for b in _basis(K):
                    gens.append(transvection_short(shape, i, j, alg.e(i, j, b)))
    if alg.kind != "lin":
        delta0 = _delta_slot_generators(shape, range(len(shape.q_pairs), shape.dim))
        for j in ranks:
            ecol = alg.e(j, j)
            seen = {shape.zero()}
            for x in delta0:
                u = shape.act(x, ecol, K.zero())
                if u not in seen:
                    seen.add(u)
                    gens.append(transvection_ultrashort(shape, j, u))
    return gens


def parabolic_p(shape, family=None, cap=_CLOSURE_CAP):
    return generate_subgroup(parabolic_generators(shape, family), cap=cap)
