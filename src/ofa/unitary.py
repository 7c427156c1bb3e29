"""Unitary groups over the split presets.

A group element is the pair (beta, gamma): beta lies in the algebra,
gamma in Delta, subject to alpha*bar(alpha) = bar(alpha)*alpha = 1 for
alpha = beta + 1 in the unitalization, pi(gamma) = beta and
rho(gamma) = bar(beta).  Over the shapes built here the pair (pi, rho)
is faithful, so gamma is recovered from beta by a coordinate read and
elements compare by beta alone.

The module covers group arithmetic, the elementary generators
(transvections and dilations), determinant and Dickson invariants, the
embedding of the odd orthogonal group into the even one, the outer
automorphism of the linear preset, hyperbolic pairs and families with
their parabolic subgroups, the three classical sub-algebra pairs with
their stabilizer groups, and exhaustive enumeration.
"""

import itertools

import numpy as np

from .coeff_ring import CapacityError, Product, StructureError
from .form_ring import UnitalEl, ofalin, ofaorth, rep_odd, x_central
from .form_ring import alg_el_from_json, alg_el_to_json
from .linalg import k_det, k_mat_inv, k_solve
from .odd_form_param import (
    DeltaShape,
    _torsion_list,
    act,
    act_unital,
    central_u,
    delta_add,
    delta_from_json,
    delta_neg,
    delta_to_json,
    delta_zero,
    gen_q,
    member,
    phi,
    pi,
    rho,
    to_pair,
)
from .batch_delta import BatchOps
from .clifford import center_split_idempotent, clif0_center

_ENUM_CAP = 1 << 20
_CHUNK = 1 << 16
_DFS_COL_CAP = 1 << 12
_SCAN_CAP = 1 << 16
_CLOSURE_CAP = 1 << 20
_DELTA0_CAP = 1 << 12


class UnitaryElem:
    """Group element; equality and hashing go through beta."""

    __slots__ = ("shape", "beta", "gamma", "key")

    def __init__(self, shape, beta, gamma):
        self.shape = shape
        self.beta = beta
        self.gamma = gamma
        self.key = beta.key

    def alpha(self):
        return UnitalEl(self.beta, self.shape.alg.K.one())

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


def u_is_member(beta, gamma):
    """The three membership equations for the pair (beta, gamma)."""
    shape = gamma.shape
    alg = shape.alg
    if not _unitality(alg, beta):
        return False
    p, r = to_pair(gamma)
    return p == beta and r == alg.conj(beta)


def u_try(shape, beta):
    """Member with the given beta, or None."""
    alg = shape.alg
    if not _unitality(alg, beta):
        return None
    gamma = member(shape, beta, alg.conj(beta))
    if gamma is None:
        return None
    return UnitaryElem(shape, beta, gamma)


def u_make(shape, beta):
    g = u_try(shape, beta)
    if g is None:
        raise StructureError("beta %r is not unitary over %s" % (beta, shape.tag))
    return g


def u_identity(shape):
    return UnitaryElem(shape, shape.alg.zero(), delta_zero(shape))


def u_mul(g, h):
    if g.shape.tag != h.shape.tag:
        raise StructureError("shape mismatch %s / %s" % (g.shape.tag, h.shape.tag))
    alg = g.shape.alg
    beta = alg.add(alg.mul(g.beta, h.beta), alg.add(g.beta, h.beta))
    gamma = delta_add(act_unital(g.gamma, h.alpha()), h.gamma)
    return UnitaryElem(g.shape, beta, gamma)


def u_inv(g):
    alg = g.shape.alg
    beta = alg.conj(g.beta)
    gamma = member(g.shape, beta, g.beta)
    assert gamma is not None
    return UnitaryElem(g.shape, beta, gamma)


def unitary_to_json(g):
    return {"beta": alg_el_to_json(g.beta), "gamma": delta_to_json(g.gamma)}


def unitary_from_json(shape, data):
    beta = alg_el_from_json(shape.alg, data["beta"])
    gamma = delta_from_json(shape, data["gamma"])
    if not u_is_member(beta, gamma):
        raise StructureError("decoded element is not unitary")
    return UnitaryElem(shape, beta, gamma)


# conjugation action on the whole odd form algebra


def act_projective(g, target):
    """g acting by alpha * x * alpha^{-1}; Delta targets use the twisted law."""
    alg = g.shape.alg
    if isinstance(target, UnitaryElem):
        raise StructureError("conjugate group elements through u_mul")
    if hasattr(target, "shape"):
        al_inv = UnitalEl(alg.conj(g.beta), alg.K.one())
        return act_unital(delta_add(act(g.gamma, pi(target)), target), al_inv)
    bb = alg.conj(g.beta)
    out = alg.add(target, alg.mul(g.beta, target))
    return alg.add(out, alg.add(alg.mul(target, bb), alg.mul(alg.mul(g.beta, target), bb)))


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
    gamma = delta_add(
        delta_add(act(gen_q(shape, i), x), delta_neg(act(gen_q(shape, -j), xb))),
        delta_neg(phi(shape, x)),
    )
    if not u_is_member(beta, gamma):
        raise StructureError("transvection parameter fails membership")
    return UnitaryElem(shape, beta, gamma)


def delta0_member(u):
    """Whether pi(u) vanishes on every row except the middle one."""
    alg = u.shape.alg
    s = alg.el({(i, i): alg.K.one() for i in alg.indices if i != 0})
    return not alg.mul(s, pi(u)).c


def transvection_ultrashort(shape, i, u):
    alg = shape.alg
    if i == 0:
        raise StructureError("ultrashort transvection needs i != 0")
    if not delta0_member(u) or act(u, alg.e(i, i)) != u:
        raise StructureError("parameter is not in Delta0 * e_%d" % i)
    p, r = to_pair(u)
    pb = alg.conj(p)
    beta = alg.add(r, alg.sub(p, pb))
    gamma = delta_add(
        delta_add(u, delta_neg(phi(shape, alg.add(r, p)))),
        act(gen_q(shape, -i), alg.sub(r, pb)),
    )
    if not u_is_member(beta, gamma):
        raise StructureError("ultrashort parameter fails membership")
    return UnitaryElem(shape, beta, gamma)


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
    gamma = delta_add(
        delta_add(
            act(gen_q(shape, -i), alg.sub(abinv, alg.e(-i, -i))),
            act(gen_q(shape, i), am),
        ),
        delta_neg(phi(shape, am)),
    )
    if not u_is_member(beta, gamma):
        raise StructureError("dilation fails membership")
    return UnitaryElem(shape, beta, gamma)


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


def _so_direct_3(K):
    """All 3x3 matrices preserving the split odd quadratic form, det 1."""
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
    so = set(_so_direct_3(K))
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
            assert u_is_member(bx, ux)
            expected[K.neg(k)] = (bx, ux)
    central_ok = len(central) == len(expected)
    for g in central:
        want = expected.get(dicks[g.key])
        if want is None or g.beta != want[0] or g.gamma != want[1]:
            central_ok = False
            break

    keyset = {g.key for g in group}
    product_keys = set()
    for g in kernel:
        for bx, ux in expected.values():
            product_keys.add(u_mul(g, UnitaryElem(shape, bx, ux)).key)
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
        p, r = to_pair(u)
        out = member(self.shape, self.on_alg(p), self.on_alg(r))
        assert out is not None
        return out

    def on_unitary(self, g):
        return u_make(self.shape, self.on_alg(g.beta))

    def __call__(self, target):
        if isinstance(target, UnitaryElem):
            return self.on_unitary(target)
        if hasattr(target, "shape"):
            return self.on_delta(target)
        return self.on_alg(target)


def sigma_linear(shape):
    return SigmaLinear(shape)


# hyperbolic pairs and families


class HyperbolicPair:
    __slots__ = ("e_minus", "e_plus", "q_minus", "q_plus")

    def __init__(self, e_minus, e_plus, q_minus, q_plus):
        self.e_minus = e_minus
        self.e_plus = e_plus
        self.q_minus = q_minus
        self.q_plus = q_plus

    def weight(self):
        return self.e_minus + self.e_plus


def hyperbolic_pair_check(pair):
    em, ep = pair.e_minus, pair.e_plus
    alg = em.alg
    failures = []
    if alg.mul(em, em) != em or alg.mul(ep, ep) != ep:
        failures.append("not idempotent")
    if alg.mul(em, ep).c or alg.mul(ep, em).c:
        failures.append("not orthogonal")
    if alg.conj(ep) != em:
        failures.append("bar(e+) != e-")
    for q, e in ((pair.q_minus, em), (pair.q_plus, ep)):
        if pi(q) != e:
            failures.append("pi(q) != e")
        if rho(q).c:
            failures.append("rho(q) != 0")
        if act(q, e) != q:
            failures.append("q * e != q")
    return failures


def hyperbolic_standard(shape, i):
    return HyperbolicPair(
        shape.alg.e(-i, -i), shape.alg.e(i, i), gen_q(shape, -i), gen_q(shape, i)
    )


def hyperbolic_family_standard(shape):
    return [hyperbolic_standard(shape, i) for i in range(1, shape.alg.n + 1)]


def pair_sum(p1, p2):
    alg = p1.e_minus.alg
    w1, w2 = p1.weight(), p2.weight()
    if alg.mul(w1, w2).c or alg.mul(w2, w1).c:
        raise StructureError("pair_sum needs orthogonal pairs")
    out = HyperbolicPair(
        alg.add(p1.e_minus, p2.e_minus),
        alg.add(p1.e_plus, p2.e_plus),
        delta_add(p1.q_minus, p2.q_minus),
        delta_add(p1.q_plus, p2.q_plus),
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
        p, r = to_pair(u)
        out = member(self.big_shape, self.iota(p), self.iota(r))
        assert out is not None
        return out

    def delta_image_member(self, w):
        p, r = to_pair(w)
        if not self.image_member(p) or not self.image_member(r):
            return False
        return member(self.small_shape, self.iota_inv(p), self.iota_inv(r)) is not None


def classical_pair(small_shape):
    return ClassicalPair(small_shape)


def _delta_slot_generators(shape):
    K = shape.alg.K
    bas = [tuple(1 if t == s else 0 for t in range(K.rank)) for s in range(K.rank)]
    out = []
    for key in shape.q_pairs:
        out.extend(shape.el(q={key: b}) for b in bas)
    for i in shape.u_idx:
        out.extend(shape.el(u={i: b}) for b in bas)
    for key in shape.d_keys:
        out.extend(shape.el(d={key: b}) for b in bas)
    return out


def gu_member(g, pair):
    """Whether conjugation by g stabilizes the embedded sub-pair."""
    if g.shape.tag != pair.big_shape.tag:
        raise StructureError("element lives over %s, pair over %s"
                             % (g.shape.tag, pair.big_shape.tag))
    for (i, j) in pair.small.pairs:
        if not pair.image_member(act_projective(g, pair.iota(pair.small.e(i, j)))):
            return False
    for gen in _delta_slot_generators(pair.small_shape):
        if not pair.delta_image_member(act_projective(g, pair.iota_delta(gen))):
            return False
    return True


def gu_group(pair, **kw):
    return [g for g in enumerate_unitary(pair.big_shape, **kw) if gu_member(g, pair)]


# enumeration


_GROUP_CACHE = {}


def _chunk_ranges(total, jobs):
    parts = max(1, int(jobs))
    while (total + parts - 1) // parts > _CHUNK:
        parts += 1
    step = (total + parts - 1) // parts
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _enum_batch(shape, jobs):
    alg = shape.alg
    K = alg.K
    bo = BatchOps(shape)
    q = K.card
    total = q ** alg.rank
    if total > _ENUM_CAP:
        raise CapacityError("beta scan over %d candidates" % total)
    out = []
    for lo, hi in _chunk_ranges(total, jobs):
        sel = np.arange(lo, hi)
        P = np.zeros((hi - lo, bo.d, bo.d, bo.rk), dtype=np.int64)
        for t, (i, j) in enumerate(alg.pairs):
            digit = (sel // (q ** t)) % q
            P[:, bo.pos[i], bo.pos[j], :] = bo.ktab[digit]
        Pb = bo.conj(P)
        z1 = (P + Pb + bo.dmul(Pb, P)) % bo.m
        z2 = (P + Pb + bo.dmul(P, Pb)) % bo.m
        ok = (z1 == 0).all(axis=(1, 2, 3)) & (z2 == 0).all(axis=(1, 2, 3))
        S = (Pb - bo.fold_residue(P)) % bo.m
        ok &= bo.read_aug_ok(S)
        for t in np.nonzero(ok)[0]:
            coeffs = {}
            for (i, j) in alg.pairs:
                v = tuple(int(c) for c in P[t, bo.pos[i], bo.pos[j]])
                if not K.is_zero(v):
                    coeffs[(i, j)] = v
            out.append(u_make(shape, alg.el(coeffs)))
    return out


def _enum_isometry_dfs(shape):
    """Column search over matrices preserving the split form, then decode."""
    alg = shape.alg
    K = alg.K
    idx = sorted(alg.indices)
    d = len(idx)
    if K.card ** d > _DFS_COL_CAP:
        raise CapacityError("column pool of %d vectors" % K.card ** d)
    vecs = list(itertools.product(K.elements(), repeat=d))
    pos = {i: t for t, i in enumerate(idx)}

    def bval(v, w):
        out = K.zero()
        for i in idx:
            out = K.add(out, K.smul(alg.eps(i), K.mul(v[pos[i]], w[pos[-i]])))
        return out

    def qval(v):
        out = K.zero()
        for i in idx:
            if i > 0:
                out = K.add(out, K.mul(v[pos[-i]], v[pos[i]]))
        return out

    orth = alg.kind == "orth"
    gram = {}
    for s in idx:
        es = tuple(K.one() if i == s else K.zero() for i in idx)
        for t in idx:
            et = tuple(K.one() if i == t else K.zero() for i in idx)
            gram[(s, t)] = bval(es, et)
    out = []
    cols = {}

    def rec(t):
        if t == d:
            M = [[cols[j][pos[i]] for j in idx] for i in idx]
            if k_mat_inv(K, M) is None:
                return
            coeffs = {}
            for i in idx:
                for j in idx:
                    v = K.sub(M[pos[i]][pos[j]], K.one() if i == j else K.zero())
                    if not K.is_zero(v):
                        coeffs[(i, j)] = v
            g = u_try(shape, alg.el(coeffs))
            if g is not None:
                out.append(g)
            return
        j = idx[t]
        for v in vecs:
            if orth and qval(v) != K.zero():
                continue
            bad = False
            for s in idx[:t]:
                if bval(cols[s], v) != gram[(s, j)]:
                    bad = True
                    break
            if not bad:
                cols[j] = v
                rec(t + 1)
        cols.pop(j, None)

    rec(0)
    return out


def _enum_lin_scan(shape):
    alg = shape.alg
    K = alg.K
    n = alg.n
    if K.card ** (n * n) > _ENUM_CAP:
        raise CapacityError("GL scan over %d matrices" % K.card ** (n * n))
    posidx = list(range(1, n + 1))
    out = []
    for flat in itertools.product(K.elements(), repeat=n * n):
        A = [list(flat[s * n:(s + 1) * n]) for s in range(n)]
        Ainv = k_mat_inv(K, A)
        if Ainv is None:
            continue
        coeffs = {}
        for s in range(n):
            for t in range(n):
                v = K.sub(A[s][t], K.one() if s == t else K.zero())
                if not K.is_zero(v):
                    coeffs[(posidx[s], posidx[t])] = v
                w = K.sub(Ainv[s][t], K.one() if s == t else K.zero())
                if not K.is_zero(w):
                    coeffs[(-posidx[t], -posidx[s])] = w
        out.append(u_make(shape, alg.el(coeffs)))
    return out


def _enum_plain(shape):
    alg = shape.alg
    if alg.card() > _SCAN_CAP:
        raise CapacityError("plain scan over %d elements" % alg.card())
    out = []
    for beta in alg.elements():
        g = u_try(shape, beta)
        if g is not None:
            out.append(g)
    return out


def enumerate_unitary(shape, strategy="auto", jobs=1, verify=True):
    """Every group element, sorted by the canonical beta encoding."""
    alg = shape.alg
    if strategy == "auto":
        if alg.K.uniform_modulus() is not None and alg.card() <= _ENUM_CAP:
            strategy = "batch"
        elif alg.kind in ("symp", "orth") and 0 not in alg.indices:
            strategy = "dfs"
        elif alg.kind == "lin":
            strategy = "lin"
        else:
            strategy = "scan"
    # entries are (elements, verified); an unverified one serves only
    # calls that skip the check
    hit = _GROUP_CACHE.get((shape.tag, strategy))
    if hit is not None and (hit[1] or not verify):
        return list(hit[0])
    if strategy == "batch":
        out = _enum_batch(shape, jobs)
    elif strategy == "dfs":
        out = _enum_isometry_dfs(shape)
    elif strategy == "lin":
        out = _enum_lin_scan(shape)
    elif strategy == "scan":
        out = _enum_plain(shape)
    else:
        raise StructureError("unknown strategy %r" % strategy)
    out.sort(key=lambda g: g.key)
    if verify:
        keys = {g.key for g in out}
        assert len(keys) == len(out)
        for g in out:
            assert u_inv(g).key in keys
        for g in out[:12]:
            for h in out[:12]:
                assert u_mul(g, h).key in keys
    _GROUP_CACHE[(shape.tag, strategy)] = (out, verify)
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


def _delta0_elements(shape):
    K = shape.alg.K
    slots = list(shape.u_idx) + list(shape.d_keys)
    if K.card ** len(slots) > _DELTA0_CAP:
        raise CapacityError("Delta0 pool of %d elements" % K.card ** len(slots))
    nu = len(shape.u_idx)
    for vec in itertools.product(K.elements(), repeat=len(slots)):
        u = {i: v for i, v in zip(shape.u_idx, vec[:nu]) if not K.is_zero(v)}
        d = {k: v for k, v in zip(shape.d_keys, vec[nu:]) if not K.is_zero(v)}
        yield shape.el(u=u, d=d)


def parabolic_generators(shape, family=None):
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
                for c in K.elements():
                    if not K.is_zero(c):
                        gens.append(transvection_short(shape, i, j, alg.e(i, j, c)))
    if alg.kind != "lin":
        for j in ranks:
            ecol = alg.e(j, j)
            seen = set()
            for x in _delta0_elements(shape):
                u = act(x, ecol)
                if u.key in seen:
                    continue
                seen.add(u.key)
                gens.append(transvection_ultrashort(shape, j, u))
    return gens


def parabolic_p(shape, family=None, cap=_CLOSURE_CAP):
    return generate_subgroup(parabolic_generators(shape, family), cap=cap)
