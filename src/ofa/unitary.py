"""Unitary groups over the split presets.

A group element is the pair (beta, gamma): beta lies in the algebra,
gamma in Delta, subject to alpha*bar(alpha) = bar(alpha)*alpha = 1 for
alpha = beta + 1 in the unitalization, pi(gamma) = beta and
rho(gamma) = bar(beta).  Over the shapes built here the pair (pi, rho)
is faithful, so gamma is recovered from beta by a coordinate read and
elements compare by beta alone.  An element is written down one way:
u_try (or u_make) admits its beta by unitality and the Delta read, and
the elementary generators, transvections and dilations, check their
parameters and admit their beta; no gamma is built by hand.

The module covers group arithmetic, the elementary generators,
determinant and Dickson invariants (the latter read over every ring in
one batch on the spinor module), the embedding of the odd orthogonal
group into the even one, the outer automorphism of the linear preset,
hyperbolic pairs and families with their parabolic subgroups (closed
from generating sets of the short and ultrashort parameters), the three
classical sub-algebra pairs with their stabilizer groups, and exhaustive
enumeration.

Enumeration has one candidate generator and one membership pass.  The
split form on K^d (b, and q for the orthogonal presets) is written as
integer tensors, its isometries M come from the one column search of
linalg (form_isometries, which quad_module shares), and beta = M - 1, or
over the odd orthogonal preset every preimage of M - 1 under rep_odd:
the group acts on K^d by such isometries, so no member is missed.  Every
candidate batch, built in the law's layout and dtype, passes one mask,
unitality plus the Delta read of (beta, bar beta) (the batch form of
u_try).  The group is the survivors' one (N, d, d, rk) int64 beta array,
rows first, sorted in El.key order on coeff_ring's row words, cached per
shape and verified as array work: distinct rows, bar beta listed for
every row, and 144 seeded products; _law and _rows are the views between
the two layouts.  No element object is kept: a UnitaryGroup over the
array builds one when it is indexed, the invariants read the array, and
group_to_json reads every gamma in one batch and gives the elements as
one form_ring.JsonDicts, each (slot, element) entry built and encoded
once per call.  generate_subgroup closes a subgroup into the same kind
of array, by batched products one breadth-first level at a time.
"""

from collections.abc import Sequence

import numpy as np

from .coeff_ring import (CapacityError, Product, SlotRing, StructureError, _basis, _distinct_rows,
                         _draw, _mixed_radix, _pack_words, _rows_in, _slot_take, _word_order)
from .form_ring import (JsonDicts, alg_el_from_json, alg_rows_to_json, ofalin, ofaorth,
                        x_central)
from .linalg import form_isometries, form_rows, k_dets, k_solve
from .odd_form_param import (
    DeltaShape,
    central_u,
    delta_from_json,
    delta_rows_to_json,
    gen_q,
    member,
    to_pair,
)
from .batch_delta import BatchOps
from .clifford import spinor_module

_ENUM_CAP = 1 << 20
_CHUNK = 1 << 16
_POOL_CAP = 1 << 12
_CLOSURE_CAP = 1 << 20
# rows per block of _key_words; 1,024 to 4,096 timed alike on 103,680 rows
_KEY_BLOCK = 2048


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
    return group_to_json(UnitaryGroup(g.shape, _rows(g.shape.alg.to_array([g.beta])))).objects()[0]


def unitary_from_json(shape, data):
    """The element of a payload as unitary_to_json writes it: beta is
    admitted by u_try, and the gamma it reads must be the decoded one."""
    if not isinstance(data, dict) or sorted(data) != ["beta", "gamma"]:
        raise StructureError("unitary JSON must be an object with keys beta, gamma")
    g = u_try(shape, alg_el_from_json(shape.alg, data["beta"]))
    if g is None or g.gamma != delta_from_json(shape, data["gamma"]):
        raise StructureError("decoded element is not unitary")
    return g


# conjugation action on the whole odd form algebra


def act_projective(g, target):
    """g acting on the algebra by alpha * x * alpha^{-1}."""
    alg = g.shape.alg
    if isinstance(target, UnitaryElem):
        raise StructureError("conjugate group elements through u_mul")
    if getattr(getattr(target, "alg", None), "tag", None) != alg.tag:
        raise StructureError("target lives outside %s" % alg.tag)
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
    return u_make(shape, alg.sub(x, alg.conj(x)))


def delta0_member(shape, u):
    """Whether pi(u) vanishes on every row except the middle one."""
    return all(i == 0 for i, _ in to_pair(shape, u)[0].c)


def transvection_ultrashort(shape, i, u):
    """T_i(u) for u in Delta0 . e_i: as (p, r) determines u and u . e_i has
    the pair (p e_i, e_-i r e_i), p lives on (0, i) and r on (-i, i)."""
    alg = shape.alg
    if i == 0:
        raise StructureError("ultrashort transvection needs i != 0")
    p, r = to_pair(shape, u)
    if set(p.c) - {(0, i)} or set(r.c) - {(-i, i)}:
        raise StructureError("parameter is not in Delta0 * e_%d" % i)
    return u_make(shape, alg.add(r, alg.sub(p, alg.conj(p))))


def dilation(shape, i, a):
    alg = shape.alg
    if i == 0:
        raise StructureError("use dilation0 for the middle index")
    if alg.mul(alg.e(i, i), alg.mul(a, alg.e(i, i))) != a:
        raise StructureError("parameter not supported in corner (%d, %d)" % (i, i))
    cinv = alg.K.try_invert(a.coeff(i, i))
    if cinv is None:
        raise StructureError("dilation parameter is not a corner unit")
    return u_make(shape, alg.sub(alg.add(a, alg.e(-i, -i, cinv)),
                                 alg.add(alg.e(i, i), alg.e(-i, -i))))


def dilation0(shape, c):
    """Corner element with beta = c*e(0,0); a member exactly when c^2 + c = 0."""
    alg = shape.alg
    if 0 not in alg.indices:
        raise StructureError("no middle corner in %s" % alg.tag)
    return u_make(shape, alg.e(0, 0, c))


# determinant over the linear preset, Dickson over the orthogonal ones.
# Each takes an enumerated group, or a list of group elements of one
# shape, and returns one value per element, in order, read from one array
# of their betas.


def _beta_array(group):
    """The betas of an enumerated group, or of a list of elements, as a
    (d, d, rk, N) batch."""
    if isinstance(group, UnitaryGroup):
        return _law(group.betas)
    return group[0].shape.alg.to_array([g.beta for g in group])


def _plus_one(K, B):
    """1 + B over K for a batch of square matrices B (d, d, rk, N)."""
    one = np.eye(B.shape[0], dtype=np.int64)[:, :, None, None] * np.array(K.one())[:, None]
    return SlotRing(K).reduce(B + one)


def det_linear(group):
    """(det of the negative block, det of the positive block) of 1 + beta
    for each element of the linear preset."""
    alg = group[0].shape.alg
    if alg.kind != "lin":
        raise StructureError("det_linear needs the linear preset")
    K, n = alg.K, alg.n
    A = _plus_one(K, _beta_array(group))
    neg, pos = k_dets(K, A[:n, :n]).T.tolist(), k_dets(K, A[n:, n:]).T.tolist()
    return [(tuple(a), tuple(b)) for a, b in zip(neg, pos)]


def sl_member(group):
    one = group[0].shape.alg.K.one()
    return [d == (one, one) for d in det_linear(group)]


def idem_op(K, d, e):
    """Group law d + e - 2de on the idempotents of K."""
    return K.sub(K.add(d, e), K.smul(2, K.mul(d, e)))


def _dickson(K, A):
    """The Dickson invariant of each alpha in A (r, r, rk, N), alpha in the
    even orthogonal preset of rank r = 2n, read on the spinor module.

    Over any commutative K the Clifford algebra of H(W) = W + W* is
    End(LW), LW the exterior algebra on W (clifford.spinor_module).  The
    center of its even part is K p_even + K p_odd, the parity projections,
    and alpha(p_even) = (1 - d) p_even + d p_odd, d the Dickson invariant.
    p_even = P_n for P_0 = 1, P_i = P_(i-1) - e_i e_-i (2 P_(i-1) - 1), the
    e_i e_-i being commuting projections, so from v = e_0, the empty wedge,
    the recurrence v <- v - h_i (2 v - e_0), h_i = alpha(e_i) alpha(e_-i),
    ends at alpha(p_even) e_0 = (1 - d) e_0.  A row that does not end at
    an idempotent d raises StructureError.
    """
    ring, r = SlotRing(K), A.shape[0]
    src, sign = spinor_module(r)
    e0 = np.zeros((1 << r // 2, ring.rk, A.shape[-1]), dtype=np.int64)
    e0[0] = np.array(K.one())[:, None]

    def act(a, v):
        """alpha(e_a) v = sum_s A[s, a] rho(e_s) v, a a label position."""
        col = A[:, a]
        return ring.contract(lambda p, q: sum(col[s, p] * (sign[s, :, None] * v[src[s], q])
                                              for s in range(r)))

    v = e0
    for i in range(1, r // 2 + 1):
        # e_-i and e_i sit at positions r/2 - i and r/2 + i - 1
        v = ring.reduce(v - act(r // 2 + i - 1, act(r // 2 - i, ring.reduce(2 * v - e0))))
    d = ring.reduce(e0[0] - v[0])
    if v[1:].any() or (ring.contract(lambda p, q: d[p] * d[q]) != d).any():
        raise StructureError("center action did not produce an idempotent")
    return [tuple(x) for x in d.T.tolist()]


def dickson_even(group):
    alg = group[0].shape.alg
    if alg.kind != "orth" or 0 in alg.indices:
        raise StructureError("dickson_even needs the even orthogonal preset")
    return _dickson(alg.K, _plus_one(alg.K, _beta_array(group)))


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


def _embed_betas(B):
    """A batch (d, d, rk, N) of odd-preset betas in the even preset of
    rank 2n + 2: index 0, the middle row and column, goes to both new
    ends -(n + 1) and n + 1, every other index to itself."""
    h = B.shape[0] // 2
    src = [h, *range(h), *range(h + 1, 2 * h + 1), h]
    return B[src][:, src]


def embed_odd(g):
    """g in the even preset of rank 2n + 2.  The image is unitary and
    reads back into Delta by construction, so it is built directly,
    without u_make's checks; the tests run u_try on every image."""
    X = _embed_betas(g.shape.alg.to_array([g.beta]))
    return _elements(odd_embed_target(g.shape), _rows(X))[0]


def dickson_odd(group):
    """dickson_even of the embedded elements."""
    alg = group[0].shape.alg
    if alg.kind != "orth" or 0 not in alg.indices:
        raise StructureError("dickson_odd needs the odd orthogonal preset")
    return _dickson(alg.K, _plus_one(alg.K, _embed_betas(_beta_array(group))))


def so_odd_split(shape):
    """Decomposition report for the odd orthogonal group: U = SO x
    {idempotents} through the Dickson invariant, every check read from
    one array of the group's betas."""
    alg = shape.alg
    K = alg.K
    if alg.kind != "orth" or 0 not in alg.indices:
        raise StructureError("so_odd_split needs the odd orthogonal preset")
    group = enumerate_unitary(shape)
    bo = BatchOps(shape)
    B = _law(group.betas)
    one = np.array(K.one())[:, None]

    def distinct(rows):  # reduced (N, d, d, rk) rows as sorted distinct words
        words = _pack_words(rows.reshape(len(rows), -1).T, max(K.moduli))
        return words[_distinct_rows(words)[0]]

    dicks = _dickson(K, _plus_one(K, _embed_betas(B)))
    in_kernel = np.array([K.is_zero(d) for d in dicks])
    # 1 + rep_odd(beta): the beta batch with column 0 doubled
    R = B.copy()
    R[:, bo.pos0] *= 2
    R = _plus_one(K, R)
    images = distinct(_rows(R[..., in_kernel]))
    # SO: the form isometries of determinant 1, which are invertible;
    # column t of a leaf is vecs[F[t]]
    vecs, F = _isometries(bo)
    S = np.ascontiguousarray(np.swapaxes(vecs[F], 1, 2))
    so = distinct(S[(k_dets(K, _law(S)) == one).all(axis=0)])
    idems = K.idempotents()
    det_ok = bool((k_dets(K, R) == bo.reduce(one - 2 * np.array(dicks).T)).all())

    # central: beta commutes with every basis element
    central = np.arange(len(group))
    basis = alg.to_array([alg.e(i, j) for (i, j) in alg.pairs])
    for t in range(alg.rank):
        C, E = B[..., central], basis[..., t:t + 1]
        central = central[(bo.dmul(C, E) == bo.dmul(E, C)).all(axis=(0, 1, 2))]
    # the center should be exactly {(x(k), u(k)) : k^2 + k = 0}, with
    # Dickson invariant -k; keyed by -k, which each central g must hit
    expected = {}
    for k in K.elements():
        if K.is_zero(K.add(K.mul(k, k), k)):
            g = u_try(shape, x_central(alg, k))
            if g is None or g.gamma != central_u(shape, k):
                raise AssertionError("central element of k = %r is not unitary" % (k,))
            expected[K.neg(k)] = g.beta
    central_ok = len(central) == len(expected) and all(
        expected.get(dicks[t]) == group[t].beta for t in central)

    # kernel times center is the group: (1 + beta)(1 + x) = 1 + beta x + beta + x
    Bk, X = B[..., in_kernel], alg.to_array(list(expected.values()))
    products = distinct(np.concatenate([_rows(bo.reduce(bo.dmul(Bk, x) + Bk + x))
                                        for x in np.split(X, X.shape[-1], axis=-1)]))
    kernel_order = int(in_kernel.sum())
    decomposition_ok = (np.array_equal(products, distinct(group.betas))
                        and kernel_order * len(expected) == len(group))

    report = {
        "ring": K.name,
        "order": len(group),
        "so_order": len(so),
        "idempotents": len(idems),
        "kernel_order": kernel_order,
        "product_law": len(group) == len(so) * len(idems),
        "kernel_bijection": len(images) == kernel_order and np.array_equal(images, so),
        "det_identity": det_ok,
        "central_match": central_ok,
        "decomposition": decomposition_ok,
    }
    report["pass"] = all(report[k] for k in ("product_law", "kernel_bijection", "det_identity",
                                             "central_match", "decomposition"))
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
        if out is None:
            raise AssertionError("sigma left Delta")
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
        """The sign of conj on e(i, j) in the small algebra."""
        return -1 if self.small.invol[(i, j)][1] else 1

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
        if out is None:
            raise AssertionError("iota_delta left Delta")
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
    """The identity matrix as a batch of one in bo.dtype; row t is e_t."""
    return bo.reduce(np.eye(bo.d, dtype=bo.dtype)[:, :, None, None] * bo.onevec[:, None])


def _split_form(bo):
    """The preset's split form on K^d as Z-tensors on flat (d * rk)
    coordinates: b(v, w) = sum_i eps(i) v[i] c_i w[-i], and the
    upper-triangular q(v) = sum_{i>=0} v[-i] v[i], which the orthogonal
    presets keep.  eps(i) = -1 exactly when the involution negates some
    e(i, j) with j > 0, and c_i is the weight of the product through
    index i in alg.contract (2 at the middle index, 1 elsewhere).
    Returns B and Q, each (d * rk, d * rk, rk)."""
    alg, S, rk = bo.alg, bo.ring.S, bo.rk
    neg = {i for (i, j), (_, flip) in alg.invol.items() if flip and j > 0}
    B = np.zeros((bo.d, rk, bo.d, rk, rk), dtype=np.int64)
    Q = np.zeros_like(B)
    for i in alg.indices:
        c = np.array(dict(alg.contract[i])[i], dtype=np.int64)
        # the slot products e_a e_b c
        B[bo.pos[i], :, bo.pos[-i]] = (-1 if i in neg else 1) * np.einsum(
            "abk,kfc,f->abc", S, S, c)
        if i >= 0:
            Q[bo.pos[-i], :, bo.pos[i]] = S
    D = bo.d * rk
    return B.reshape(D, D, rk) % np.array(bo.K.moduli), Q.reshape(D, D, rk)


def _isometries(bo):
    """Every M over K with b(M e_s, M e_t) = G[s, t] and, for the
    orthogonal presets, q(M e_t) = q(e_t), by linalg.form_isometries.  A
    column of the linear preset keeps to the sign of its index; the other
    presets draw every column from all of K^d.

    Returns (vecs, F): column t of leaf r is vecs[F[r, t]].
    """
    alg, d, mod = bo.alg, bo.d, np.array(bo.K.moduli)
    B, Q = _split_form(bo)
    E = _eye(bo).reshape(d, d * bo.rk).astype(np.int64)
    G = form_rows(np.repeat(E, d, axis=0), B, np.tile(E, (d, 1)), mod).reshape(d, d, bo.rk)
    if alg.kind == "lin":
        supports = [tuple(bo.pos[i] for i in alg.indices if i * j > 0) for j in alg.indices]
    else:
        supports = [tuple(range(d))] * d
    q = (lambda X: form_rows(X, Q, X, mod)) if alg.kind == "orth" else None
    V, F = form_isometries(bo.K, B, G, supports, q, _POOL_CAP)
    return V.reshape(len(V), d, bo.rk), F


def _column_betas(bo):
    """Candidate betas, in (d, d, rk, n) batches of bo.dtype with n at most
    _CHUNK: beta = M - 1 for every form isometry M, or over the odd
    orthogonal preset every beta with rep_odd(beta) = M - 1.

    These contain the group: alpha = 1 + beta acts on K^d by rep(alpha) =
    1 + rep_odd(beta), and B rep(a) = rep(bar a)^T B on basis elements (B
    the split form, c_0 = 2; both sides read a[-i, j] c_i c_j at (i, j)),
    so rep(alpha)^T B rep(alpha) = rep(bar alpha alpha)^T B = B; that
    rep(alpha) keeps q too, the tests check.  rep_odd doubles column 0 and
    copies the rest, so a preimage halves each column-0 entry and adds an
    offset in its kernel, K[2]^d on column 0; an entry with no half rules
    M out.  Past _ENUM_CAP lifted candidates this raises CapacityError.
    """
    vecs, F = _isometries(bo)
    eye, p0, K, d = _eye(bo), bo.pos0, bo.K, bo.d
    # the pool vectors as a batch (d, rk, Nv); F[t] the leaves' column t
    V, F = np.ascontiguousarray(np.moveaxis(vecs, 0, -1), dtype=bo.dtype), F.T
    per = 1
    if p0 is not None:
        # half[c] is the row in K.elements() of one h with 2h = c, else -1
        half = np.full(K.card, -1, dtype=np.int64)
        for t, v in enumerate(K.elements()):
            half[np.ravel_multi_index(K.smul(2, v), K.moduli)] = t
        col0 = bo.reduce(V[..., F[p0]] - eye[:, p0])
        half = half[np.ravel_multi_index(np.moveaxis(col0, 1, 0), K.moduli)]
        keep = (half >= 0).all(axis=0)
        F, half, per = F[:, keep], half[:, keep], len(bo.ttab) ** d
        if F.shape[1] * per > _ENUM_CAP:
            raise CapacityError("rep_odd lift of %d candidates" % (F.shape[1] * per))
    for lo in range(0, F.shape[1] * per, _CHUNK):
        hi = min(lo + _CHUNK, F.shape[1] * per)
        leaf = np.arange(lo, hi) // per
        # V[..., F[:, leaf]] is (row, slot, column, batch)
        P = bo.reduce(np.moveaxis(V[..., F[:, leaf]], 2, 1) - eye)
        if p0 is not None:
            # _mixed_radix reads each flat index mod per: the offset digits
            shift = _slot_take(bo.ttab, _mixed_radix([len(bo.ttab)] * d, hi, lo))
            P[:, p0] = bo.reduce(_slot_take(bo.ktab, half[:, leaf]) + shift)
        yield P


def _unitary_mask(bo, P):
    """The betas of the batch P (d, d, rk, N) with bar(alpha) alpha = 1
    whose pair (beta, bar beta) reads back into Delta, alpha = 1 + beta.
    The Delta read runs on the betas that pass the product only, gathered
    when some beta fails it.

    alpha bar(alpha) = 1 needs no check of its own.  alpha lies in the
    unitalization of the algebra, a finite ring, where bar(alpha) alpha = 1
    makes x -> x bar(alpha) injective, hence onto: y bar(alpha) = 1 for
    some y, and y = y bar(alpha) alpha = alpha."""
    Pb = bo.conj(P)
    ok = (bo.dmul(Pb, P) == bo.reduce(-(P + Pb))).all(axis=(0, 1, 2))
    live = slice(None) if ok.all() else np.flatnonzero(ok)
    ok[live] = bo.dread(P[..., live], Pb[..., live])[1]
    return ok


def _key_words(alg, B):
    """Int64 words (N, W) whose rows compare as the El.key of the rows of B.

    El.key compares sparse ((i, j), coeff) tuples.  So each pair, in the
    algebra's sorted order, gets one digit: 1 + the mixed-radix value of a nonzero entry,
    K.card + 1 for a zero entry with a nonzero one later, and 0 for a zero
    entry with none later; coeff_ring._pack_words packs the digits base
    K.card + 2.  The digits of every pair come at once, a block of
    _KEY_BLOCK rows at a time, held one row per pair: the cumulative OR
    then runs down whole rows, and the temporaries stay small."""
    K = alg.K
    # the coefficient's first slot most significant, as tuples compare;
    # int64, so that a narrow B is widened before it is weighted
    radix = np.cumprod((1,) + K.moduli[:0:-1], dtype=np.int64)[::-1]
    words = []
    for lo in range(0, len(B) or 1, _KEY_BLOCK):
        v = np.einsum("nsa,a->sn", B[lo:lo + _KEY_BLOCK, alg.apos[:, 0], alg.apos[:, 1]], radix)
        nz = v > 0
        # a nonzero entry at this pair or a later one
        later = np.logical_or.accumulate(nz[::-1], axis=0)[::-1]
        v += nz
        v[later & ~nz] = K.card + 1
        words.append(_pack_words(v, K.card + 2))
    return np.concatenate(words)


def _law(B):
    """Stored rows (N, d, d, rk) as a law batch (d, d, rk, N): a view."""
    return np.moveaxis(B, 0, -1)


def _rows(X):
    """A law batch (d, d, rk, N) as rows (N, d, d, rk): a view."""
    return np.moveaxis(X, -1, 0)


def _elements(shape, B):
    """The element of each row of B, reduced (N, d, d, rk) beta rows."""
    return [UnitaryElem(shape, beta) for beta in shape.alg.from_array(_law(B))]


class UnitaryGroup(Sequence):
    """An enumerated group: its (N, d, d, rk) beta array in key order.  An
    element is built only when it is indexed or iterated."""

    def __init__(self, shape, betas):
        self.shape = shape
        self.betas = betas

    def __len__(self):
        return len(self.betas)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return UnitaryGroup(self.shape, self.betas[t])
        return _elements(self.shape, self.betas[t][None])[0]

    def __iter__(self):
        for lo in range(0, len(self.betas), _CHUNK):
            yield from _elements(self.shape, self.betas[lo:lo + _CHUNK])


def group_to_json(group):
    """The JSON form of every element, as a form_ring.JsonDicts of beta
    and gamma from the rows writers, every gamma read in one batch."""
    shape, B = group.shape, group.betas
    bo, X = BatchOps(shape), _law(B)
    gammas = delta_rows_to_json(shape, _rows(bo.dread(X, bo.conj(X))[0]))
    return JsonDicts({"beta": alg_rows_to_json(shape.alg, B), "gamma": gammas})


def _survivors(bo, chunks):
    """Every candidate beta that passes the batch mask, in key order, and
    the key words of those rows."""
    B = np.concatenate([np.ascontiguousarray(_rows(P[..., _unitary_mask(bo, P)]), dtype=np.int64)
                        for P in chunks])
    words = _key_words(bo.alg, B)
    order = _word_order(words)
    return B[order], words[order]


def _verify(bo, B, words):
    """Distinct rows, bar beta listed for every row, and 144 products of
    pairs of rows drawn by coeff_ring._draw(0, ...) listed, looked up in
    words, the sorted key words of B's rows."""
    N = len(B)
    if (words[1:] == words[:-1]).all(axis=1).any():
        raise AssertionError("repeated beta")
    pairs = _draw(0, [N, N], 144).T
    X = _law(B)
    G, H = X[..., pairs[:, 0]], X[..., pairs[:, 1]]
    found = _rows_in(words, np.concatenate([
        _key_words(bo.alg, _rows(bo.conj(X))),
        _key_words(bo.alg, _rows(bo.reduce(bo.dmul(G, H) + G + H)))]))
    if not found[:N].all():
        raise AssertionError("no inverse of %r" % tuple(_elements(bo.shape, B[~found[:N]][:1])))
    if not found[N:].all():
        raise AssertionError("no product %r * %r" % tuple(
            _elements(bo.shape, B[pairs[~found[N:]][0]])))


def enumerate_unitary(shape):
    """Every group element, sorted by the canonical beta encoding, as a
    UnitaryGroup over the cached array."""
    B = _GROUP_CACHE.get(shape.tag)
    if B is None:
        bo = BatchOps(shape)
        B, words = _survivors(bo, _column_betas(bo))
        _verify(bo, B, words)
        B.flags.writeable = False
        _GROUP_CACHE[shape.tag] = B
    return UnitaryGroup(shape, B)


def group_order(shape):
    return len(enumerate_unitary(shape))


# subgroups


def generate_subgroup(gens):
    """The subgroup that gens generate, as a UnitaryGroup in key order.

    It is closed one breadth-first level at a time: each new row g and
    generator s give beta(g s) = g s + g + s, in batches of _CHUNK
    products, and a product joins the next level when its key words are
    listed neither before nor earlier in its batch.  Past _CLOSURE_CAP
    elements this raises CapacityError."""
    if not gens:
        raise StructureError("empty generating set")
    shape = gens[0].shape
    other = {s.shape.tag for s in gens} - {shape.tag}
    if other:
        raise StructureError("shape mismatch %s / %s" % (shape.tag, min(other)))
    alg, bo = shape.alg, BatchOps(shape)
    S = alg.to_array([s.beta for s in gens])
    ns = S.shape[-1]
    levels = [alg.to_array([alg.zero()])]
    words = _key_words(alg, _rows(levels[0]))
    step = max(1, _CHUNK // ns)
    while levels[-1].shape[-1]:
        fresh = []
        for lo in range(0, levels[-1].shape[-1], step):
            G = np.repeat(levels[-1][..., lo:lo + step], ns, axis=-1)
            H = np.tile(S, G.shape[-1] // ns)
            P = bo.reduce(bo.dmul(G, H) + G + H)
            Q = _key_words(alg, _rows(P))
            new = _distinct_rows(np.concatenate([words, Q]))[0] - len(words)
            new = new[new >= 0]
            words = np.concatenate([words, Q[new]])
            if len(words) > _CLOSURE_CAP:
                raise CapacityError("closure exceeded %d elements" % _CLOSURE_CAP)
            fresh.append(P[..., new])
        levels.append(np.concatenate(fresh, axis=-1))
    B = _rows(np.concatenate(levels, axis=-1))
    return UnitaryGroup(shape, np.ascontiguousarray(B[_word_order(words)]))


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
            if i < j and i != -j and (i, j) in alg.basis_set:
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


def parabolic_p(shape, family=None):
    return generate_subgroup(parabolic_generators(shape, family))
