"""Clifford algebras of split quadratic lattices over finite rings.

The rank r lattice uses labels -l..l (0 only when r is odd) with
q(e_i) = [i == 0], B(e_i, e_-i) = 1 for i != 0, B(e_0, e_0) = 2, and
B zero elsewhere.  CliffordAlg is a form_ring.SparseAlgebra whose basis
is the 2^r ordered monomials e_S = prod(e_i, i in S ascending), so its
elements are form_ring.El over that basis, with the coefficient
arithmetic of the base.  The even part, its center, the reversal
involution, spin membership and its vector representation live here,
along with the half-trace functional, the degree-two presentation
checks used by the orthogonal presets, and, at even rank, the spinor
module: the algebra acting on the exterior algebra of e_1..e_n by signed
gathers, where unitary reads the Dickson invariant.

Products have one closed form.  A monomial is a bit word over the
labels in ascending order, and e_a e_w is (-1)^|w below a| e_(w + a)
when a is not in w, with e_a e_a = q(e_a) = [a == 0] when it is; for
a > 0 with -a in w, passing e_-a leaves the contraction
(-1)^|w below -a| e_(w - (-a)).  So e_S e_T = sum n_U e_U with
integers n_U that hold over every K.  CliffordAlg._apply takes the
letters of a word right to left onto e_T, once per (letters, T), and
mul, word, reversal and the degree-two realization combine its integers
with coefficients in K.  The center of the even part is the kernel of
one int map read off those products (the commutators with the e_a e_b)
over the Z-basis of K, one GraphForm, and the relation check sums
integer words times K elements.

spin_group scans the even part on numpy: candidate rows come in chunks
of itertools.product order, ubar is a linear map read off the reversal
table, and the masks u ubar = 1, ubar u = 1 and the degree-one test on
u e_i ubar are contractions of dense table blocks (even x even and
odd x even), with the coefficient products of K through SlotRing.
The survivors' degree-one parts are their vector matrices.  The scan
refuses more than 2^20 candidates before it builds any array, and a
chunk holds at most 2^18 / dim(even)^2 rows, which bounds its memory.
"""

import functools
import itertools

import numpy as np

from .coeff_ring import CapacityError, SlotRing, StructureError, _mixed_radix, _slot_take
from .form_ring import El, SparseAlgebra, ofaorth
from .linalg import GraphForm, k_solve, unflat

_RANK_CAP = 10
_SPIN_CAP = 1 << 20
# rows of a scan chunk times the even dimension squared: bounds the
# largest intermediate, the pairwise coefficient products of u and ubar
_SPIN_CELLS = 1 << 18


def split_labels(r):
    if r < 0 or r > _RANK_CAP:
        raise CapacityError("rank %d outside 0..%d" % (r, _RANK_CAP))
    half = r // 2
    if r % 2:
        return tuple(range(-half, half + 1))
    return tuple(i for i in range(-half, half + 1) if i != 0)


class CliffordAlg(SparseAlgebra):
    """The Clifford algebra of the split rank r lattice: El over the
    ordered monomials, graded by length."""

    _bad_key = "bad monomial %r in %s"

    def __init__(self, r, K):
        labels = split_labels(r)
        super().__init__(K, sorted((s for size in range(r + 1)
                                    for s in itertools.combinations(labels, size)),
                                   key=lambda s: (len(s), s)),
                         "clif:%d:%s" % (r, K.name))
        self.r = r
        self.labels = labels
        self.dim = len(self.basis)
        self._bit = {a: 1 << k for k, a in enumerate(labels)}
        self._memo = {}

    def bform(self, a, b):
        return self.K.from_int(2 if a == b == 0 else int(a == -b))

    def qval(self, a):
        return self.K.from_int(int(a == 0))

    def term(self, key):
        return "".join("e(%d)" % i for i in key) or "1"

    def one(self):
        return El(self, {(): self.K.one()})

    def gen(self, i):
        if i not in self.labels:
            raise StructureError("no generator %d in %s" % (i, self.tag))
        return El(self, {(i,): self.K.one()})

    def scalar(self, k):
        return El(self, {} if self.K.is_zero(k) else {(): k})

    def _apply(self, letters, T):
        """e_(l1) ... e_(lk) e_T = sum n_U e_U as ((U, n), ...), n != 0
        over the integers, on first use: the letters act right to left on
        bit words, the labels in ascending bit order."""
        key = (tuple(letters), T)
        hit = self._memo.get(key)
        if hit is None:
            bit = self._bit
            cur = {sum(bit[t] for t in T): 1}
            for a in reversed(key[0]):
                # e_a lands unless a is in w and a != 0 (e_a e_a = q(e_a) =
                # [a == 0]); for a > 0 the pass over e_-a in w leaves
                # B(e_a, e_-a) = 1 behind.  Each term takes one sign per
                # letter of w below the bit it flips.
                ba, bn = bit[a], bit[-a] if a > 0 else 0
                nxt = {}
                for w, n in cur.items():
                    for h in (0 if w & ba and a else ba, w & bn):
                        if h:
                            sign = -1 if (w & (h - 1)).bit_count() & 1 else 1
                            nxt[w ^ h] = nxt.get(w ^ h, 0) + sign * n
                cur = nxt
            hit = self._memo[key] = tuple((tuple(a for a in self.labels if u & bit[a]), n)
                                          for u, n in cur.items() if n)
        return hit

    def _combine(self, terms):
        """sum n * c over (u, n, c) terms: an El with zeros dropped."""
        K = self.K
        acc = {}
        for u, n, c in terms:
            v = K.smul(n, c)
            acc[u] = K.add(acc[u], v) if u in acc else v
        return El(self, {u: v for u, v in acc.items() if not K.is_zero(v)})

    def word(self, letters, coeff=None):
        c = self.K.one() if coeff is None else coeff
        return self._combine((u, n, c) for u, n in self._apply(letters, ()))

    def mul(self, x, y):
        terms = []
        for sx, cx in x.c.items():
            for sy, cy in y.c.items():
                c = self.K.mul(cx, cy)
                terms.extend((u, n, c) for u, n in self._apply(sx, sy))
        return self._combine(terms)

    def even_basis(self):
        return tuple(s for s in self.basis if len(s) % 2 == 0)

    def __repr__(self):
        return "<%s dim=%d>" % (self.tag, self.dim)


def reversal(x):
    """Anti-automorphism reversing generator words."""
    alg = x.alg
    return alg._combine((u, n, c) for s, c in x.c.items()
                        for u, n in alg._apply(reversed(s), ()))


def is_even(x):
    return all(len(s) % 2 == 0 for s in x.c)


def try_invert(x):
    """Two-sided inverse by a linear solve over the monomial basis."""
    alg, one = x.alg, x.alg.one()
    cols = [alg.coords(alg.mul(x, alg.el({s: alg.K.one()}))) for s in alg.basis]
    sol = k_solve(alg.K, list(zip(*cols)), alg.coords(one))
    y = None if sol is None else alg.from_coords(sol)
    return y if y is not None and alg.mul(x, y) == one == alg.mul(y, x) else None


def spin_member(u):
    """Even unit with reversal inverse whose conjugation keeps degree one."""
    alg, rev = u.alg, reversal(u)
    if not is_even(u) or alg.mul(u, rev) != alg.one() or alg.mul(rev, u) != alg.one():
        return False
    try:
        vector_rep(u)
    except StructureError:
        return False
    return True


def vector_rep(u):
    """Matrix of m -> u m u^-1 on the degree-one module, label order."""
    alg = u.alg
    rev = reversal(u)
    cols = []
    for j in alg.labels:
        w = alg.mul(alg.mul(u, alg.gen(j)), rev)
        if any(len(s) != 1 for s in w.c):
            raise StructureError("conjugation leaves the lattice")
        cols.append([w.c.get((i,), alg.K.zero()) for i in alg.labels])
    d = len(alg.labels)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


class SpinGroup:
    """The spin elements in scan order, held as the scan's arrays: rows
    (n, dim(even), rk) of even coefficients and their vector matrices
    mats (n, d, d, rk).  group[k] is an El and vectors[k] is
    vector_rep(group[k]) as nested tuples, both built on first use."""

    def __init__(self, alg, rows, mats):
        self.alg, self.rows, self.mats = alg, rows, mats

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        return self._elems[k]

    @functools.cached_property
    def _elems(self):
        ebasis = self.alg.even_basis()
        return [El(self.alg, {s: tuple(v) for s, v in zip(ebasis, row) if any(v)})
                for row in self.rows.tolist()]

    @functools.cached_property
    def vectors(self):
        return [tuple(tuple(tuple(c) for c in line) for line in mat)
                for mat in self.mats.tolist()]

    def vector_kernel(self):
        """How many elements act as the identity on the degree-one
        module, read off the vector matrices."""
        eye = np.eye(len(self.alg.labels), dtype=np.int64)[..., None] * self.alg.K.one()
        return int((self.mats == eye).all(axis=(1, 2, 3)).sum())


def _table_block(alg, left, right, out):
    """The product table on left x right, read off on out, as an int64
    (len(left) * len(right), len(out)) matrix; out must hold every
    monomial of those products (a parity class)."""
    pos = {u: k for k, u in enumerate(out)}
    T = np.zeros((len(left) * len(right), len(out)), dtype=np.int64)
    for a, s in enumerate(left):
        for b, t in enumerate(right):
            for u, n in alg._apply(s, t):
                T[a * len(right) + b, pos[u]] = n
    return T


def _bilinear(ring, X, Y, T):
    """Products of X (p, rk, N) and Y (q, rk, N), batch entry by batch
    entry, through the table block T (p * q, r): the coefficients
    (r, rk, N)."""
    shape = (X.shape[0] * Y.shape[0], X.shape[-1])
    return ring.contract(
        lambda a, b: T.T @ (X[:, None, a] * Y[None, :, b]).reshape(shape))


class _SpinScan:
    """Dense product-table blocks of one algebra, and the spin masks on
    chunks of even coefficient rows in the array law's layout,
    (dim(even), rk, N)."""

    def __init__(self, alg, ring):
        self.ring = ring
        ebasis = alg.even_basis()
        obasis = tuple(s for s in alg.basis if len(s) % 2)
        ne, no, self.nl = len(ebasis), len(obasis), len(alg.labels)
        self.rev = np.array([[dict(alg._apply(reversed(s), ())).get(u, 0) for u in ebasis]
                             for s in ebasis], dtype=np.int64).reshape(ne, ne)
        self.tee = _table_block(alg, ebasis, ebasis, ebasis)
        self.toe = _table_block(alg, obasis, ebasis, obasis)
        # left[i] maps even coefficients to those of u e_i
        self.left = np.array([_table_block(alg, ebasis, [(i,)], obasis)
                              for i in alg.labels], dtype=np.int64).reshape(self.nl, ne, no)
        self.one = np.zeros((ne, ring.rk, 1), dtype=np.int64)
        self.one[0, :, 0] = alg.K.one()
        self.high = [k for k, s in enumerate(obasis) if len(s) > 1]
        self.deg1 = [obasis.index((i,)) for i in alg.labels]

    def survivors(self, U):
        """The spin rows of U (dim(even), rk, N) in order, as rows (n,
        dim(even), rk), and their vector matrices (n, d, d, rk): u ubar =
        1, then u e_i ubar of degree one for every label i.

        ubar u = 1 needs no check of its own.  Clif_0 is a finite ring,
        where u ubar = 1 makes x -> ubar x injective, hence onto: ubar y = 1
        for some y, and y = u ubar y = u."""
        ring, nl = self.ring, self.nl
        Ub = ring.reduce(np.tensordot(self.rev.T, U, 1))
        keep = (_bilinear(ring, U, Ub, self.tee) == self.one).all(axis=(0, 1))
        U, Ub = U[..., keep], Ub[..., keep]
        n, no = U.shape[-1], self.left.shape[2]
        # u e_i for every label i, the labels ahead of the batch: batch
        # entry i * n + t of V is u_t e_i
        V = ring.reduce(np.tensordot(np.swapaxes(self.left, 1, 2), U, 1))
        V = np.moveaxis(V, 0, -2).reshape(no, ring.rk, nl * n)
        W = _bilinear(ring, V, np.tile(Ub, nl), self.toe).reshape(no, ring.rk, nl, n)
        keep = (W[self.high] == 0).all(axis=(0, 1, 2))
        return np.moveaxis(U[..., keep], -1, 0), W[self.deg1][..., keep].transpose(3, 0, 2, 1)


def spin_group(r, K):
    """All spin elements, by a batched scan of the even part.

    The candidates are the even coefficient rows in itertools.product
    order over K.elements(), taken in chunks through _SpinScan.  The
    result lists them in that order, with their vector matrices.
    """
    alg = CliffordAlg(r, K)
    ebasis = alg.even_basis()
    total = K.card ** len(ebasis)
    if total > _SPIN_CAP:
        raise CapacityError("even part scan over %d candidates" % total)
    ring = SlotRing(K)
    scan = _SpinScan(alg, ring)
    step = max(1, _SPIN_CELLS // len(ebasis) ** 2)
    rows, mats = [], []
    for lo in range(0, total, step):
        U, M = scan.survivors(_slot_take(
            ring.ktab, _mixed_radix([K.card] * len(ebasis), min(lo + step, total), lo)))
        rows.append(U)
        mats.append(M)
    return SpinGroup(alg, np.concatenate(rows), np.concatenate(mats))


def htr(x):
    """Half trace of a hermitian element of an orthogonal preset."""
    alg = x.alg
    if alg.kind != "orth":
        raise StructureError("htr is defined over the orthogonal presets")
    if x != x.bar():
        raise StructureError("htr needs a hermitian argument")
    K = alg.K
    val = K.zero()
    for i in alg.indices:
        if i >= 0:
            val = K.add(val, x.coeff(i, i))
    return val


def clif0_image(clif, x):
    """The degree-two realization e(i,j) -> e_i e_-j."""
    return clif._combine((u, n, c) for (i, j), c in x.c.items()
                         for u, n in clif._apply((i,), (-j,)))


def hermitian_basis(alg):
    return [alg.e(i, j) if (i, j) == (-j, -i) else alg.add(alg.e(i, j), alg.e(-j, -i))
            for (i, j) in alg.pairs if (i, j) <= (-j, -i)]


def _scale_verdict(alg, lhs, rhs):
    if lhs == rhs:
        return "ok"
    if lhs == alg.smul(2, rhs):
        return "left-doubled"
    if alg.smul(2, lhs) == rhs:
        return "right-doubled"
    return "fail"


def clif0_relation_check(r, K):
    """Instance check of the degree-two presentation of the even part.

    Relation one: a hermitian x realizes as the scalar htr(x).  Relation
    two contracts x against any basis y through the middle two tensor
    slots.  Odd rank runs with the convention e(i,0) -> e_i e_0 and
    doubled instances are reported instead of asserted away.
    """
    if r > 6:
        raise CapacityError("relation check capped at rank 6")
    alg = ofaorth(r, K)
    clif = CliffordAlg(r, K)
    herm = hermitian_basis(alg)
    rep = {"rank": r, "ring": K.name,
           "rel1": {"total": 0, "ok": 0, "adjusted": 0, "failed": 0},
           "rel2": {"total": 0, "ok": 0, "adjusted": 0, "failed": 0},
           "adjusted_instances": [], "failed_instances": []}

    def note(block, verdict, label, *args):
        kind = {"ok": "ok", "fail": "failed"}.get(verdict, "adjusted")
        rep[block]["total"] += 1
        rep[block][kind] += 1
        kept, cap = (("failed_instances", 20) if kind == "failed"
                     else ("adjusted_instances", 40))
        if kind != "ok" and len(rep[kept]) < cap:
            rep[kept].append(label % args)

    # htr once per x; the left side of relation two sums the integer words
    # e_k e_a applied to each term of e_-b e_-l, so both halves hit the memo
    hs = [htr(x) for x in herm]
    for x, h in zip(herm, hs):
        note("rel1", _scale_verdict(clif, clif0_image(clif, x), clif.scalar(h)),
             "rel1:%r", x)
    for x, h in zip(herm, hs):
        for (k, l) in alg.pairs:
            lhs = clif._combine((v, n * m, c) for (a, b), c in x.c.items()
                                for u, n in clif._apply((-b, -l), ())
                                for v, m in clif._apply((k, a), u))
            note("rel2", _scale_verdict(clif, lhs, clif.word((k, -l), h)),
                 "rel2:%r:y=e(%d,%d)", x, k, l)
    rep["pass"] = (rep["rel1"]["failed"] == 0 and rep["rel2"]["failed"] == 0
                   and (r % 2 == 1 or
                        (rep["rel1"]["adjusted"] == 0 and rep["rel2"]["adjusted"] == 0)))
    return rep


def clif0_center(r, K):
    """Basis {1, omega} of the center of the even part.

    The center is the kernel of u -> ([u, e_a e_b])_{a < b}, whose entries
    on the even monomials are integers (CliffordAlg._apply).  Over the
    Z-basis of K it is one int map: the coefficient n of e_w in [e_s, e_a
    e_b] maps coordinate (s, t) to n mod m_t at (a, b, w, t).  Output
    coordinates that are zero in every row, or repeat an earlier one, are
    dropped; the kernel, a Howell form, is the same without them.
    """
    clif = CliffordAlg(r, K)
    ebasis = clif.even_basis()
    pos = {s: k for k, s in enumerate(ebasis)}
    cols = {}
    for g in itertools.combinations(clif.labels, 2):
        for i, s in enumerate(ebasis):
            for sign, terms in ((1, clif._apply(s, g)), (-1, clif._apply(g, s))):
                for u, n in terms:
                    col = cols.setdefault((g, pos[u]), {})
                    col[i] = col.get(i, 0) + sign * n
    out = [key for key in dict.fromkeys(
        (t, m, tuple((i, n % m) for i, n in col.items() if n % m))
        for col in cols.values() for t, m in enumerate(K.moduli)) if key[2]]
    A = np.zeros((len(ebasis), K.rank, len(out)), dtype=np.int64)
    for o, (t, _, key) in enumerate(out):
        for i, n in key:
            A[i, t, o] = n
    graph = GraphForm(A.reshape(len(ebasis) * K.rank, len(out)).tolist(),
                      [m for _, m, _ in out], K.moduli * len(ebasis))
    vecs = [El(clif, {s: v for s, v in zip(ebasis, unflat(h, K.rank)) if any(v)})
            for _, h in graph.kernel]
    # the null vectors span the center over Z, one factor of a product
    # ring at a time; omega sums the non-scalar parts that {1, omega}
    # does not reach yet
    one, om = clif.one(), clif.zero()
    for cand in vecs:
        part = clif.sub(cand, clif.scalar(cand.c.get((), K.zero())))
        if not _in_span2(clif, ebasis, one, om, part):
            om = clif.add(om, part)
    if om and all(_in_span2(clif, ebasis, one, om, v) for v in vecs):
        return [one, om]
    raise StructureError("center of the even part is not free of rank 2")


def _in_span2(clif, ebasis, b1, b2, v):
    K = clif.K
    M = [[b1.c.get(s, K.zero()), b2.c.get(s, K.zero())] for s in ebasis]
    target = [v.c.get(s, K.zero()) for s in ebasis]
    return k_solve(K, M, target) is not None


def spinor_module(r):
    """rho(e_a) on the spinor module of the split rank r = 2n lattice, as
    signed gathers (src, sign), int64 (r, 2^n) in label order:
    (rho(e_a) v)[S] = sign[a, S] * v[src[a, S]].  The basis of the exterior
    algebra on <e_1..e_n> is the subsets S of {1..n}, bit i - 1 for i; e_i
    wedges with e_i and e_-i contracts against it, each with the sign
    (-1)^|S & {1..i-1}|, so that rho(e_a) rho(e_b) + rho(e_b) rho(e_a) =
    B(e_a, e_b) and rho(e_a)^2 = 0 = q(e_a) over the integers.
    """
    L = np.array(split_labels(r), dtype=np.int64)[:, None]
    if r % 2:
        raise StructureError("the spinor module needs an even rank, not %d" % r)
    S = np.arange(1 << r // 2, dtype=np.int64)
    bit = 1 << (np.abs(L) - 1)
    odd = sum((S & (bit - 1)) >> k & 1 for k in range(r // 2)) % 2
    return S ^ bit, np.where(((S & bit) != 0) == (L > 0), 1 - 2 * odd, 0)


def clif_to_json(x):
    return [{"subset": list(s), "c": list(v)} for s, v in x.key]


def clif_from_json(alg, data):
    return alg.el({tuple(int(i) for i in row["subset"]): tuple(int(t) for t in row["c"])
                   for row in data})
