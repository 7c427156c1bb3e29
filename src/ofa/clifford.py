"""Clifford algebras of split quadratic lattices over finite rings.

The rank r lattice uses labels -l..l (0 only when r is odd) with
q(e_i) = [i == 0], B(e_i, e_-i) = 1 for i != 0, B(e_0, e_0) = 2, and
B zero elsewhere.  Elements are coefficient maps on ordered monomials
e_S = prod(e_i, i in S ascending), so the monomial basis has 2^r
members.  The even part, its center, the reversal involution, spin
membership and its vector representation live here, along with the
half-trace functional and the degree-two presentation checks used by
the orthogonal presets.

Products read one table.  Rewriting adjacent letters by
e_a e_b = B(a, b) - e_b e_a and e_a e_a = q(e_a) only uses the integers
-1, 0, 1 and 2, so e_S e_T = sum n_U e_U with integers n_U that hold
over every K.  Each algebra rewrites a pair (S, T) once, on first use,
and mul, word, reversal and the degree-two realization combine table
entries with coefficients in K.

spin_group scans the even part on numpy: candidate rows come in chunks
of itertools.product order, ubar is a linear map read off the reversal
table, and the masks u ubar = 1, ubar u = 1 and the degree-one test on
u e_i ubar are contractions of dense table blocks (even x even and
odd x even), with the coefficient products of K through SlotRing.
The survivors' degree-one parts are their vector matrices.  The scan
refuses more than 2^20 candidates before it builds any array, and a
chunk holds at most 2^18 / dim(even)^2 rows, which bounds its memory.
"""

import itertools

import numpy as np

from .coeff_ring import CapacityError, SlotRing, StructureError, _mixed_radix
from .form_ring import ofaorth
from .linalg import k_nullspace, k_solve

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


class CliffEl:
    """Sparse element: dict ascending-label-tuple -> nonzero coefficient."""

    __slots__ = ("alg", "c", "key")

    def __init__(self, alg, c):
        self.alg = alg
        self.c = c
        self.key = tuple(sorted(c.items()))

    def __eq__(self, other):
        return isinstance(other, CliffEl) and self.alg.tag == other.alg.tag and self.key == other.key

    def __hash__(self):
        return hash((self.alg.tag, self.key))

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        return self.alg.add(self, other)

    def __sub__(self, other):
        return self.alg.sub(self, other)

    def __neg__(self):
        return self.alg.neg(self)

    def __mul__(self, other):
        return self.alg.mul(self, other)

    def coeff(self, subset):
        return self.c.get(tuple(subset), self.alg.K.zero())

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for s, v in self.key:
            word = "".join("e(%d)" % i for i in s) or "1"
            bits.append("%s*%s" % (v, word))
        return " + ".join(bits)


class CliffordAlg:
    def __init__(self, r, K):
        self.r = r
        self.K = K
        self.labels = split_labels(r)
        self.tag = "clif:%d:%s" % (r, K.name)
        self.basis = tuple(
            sorted(
                (s for size in range(r + 1) for s in itertools.combinations(self.labels, size)),
                key=lambda s: (len(s), s),
            )
        )
        self.dim = len(self.basis)
        self._table = {}

    @staticmethod
    def _b(a, b):
        """B(e_a, e_b) as an integer."""
        if a == b:
            return 2 if a == 0 else 0
        return 1 if a == -b else 0

    @staticmethod
    def _q(a):
        """q(e_a) as an integer."""
        return 1 if a == 0 else 0

    def bform(self, a, b):
        return self.K.from_int(self._b(a, b))

    def qval(self, a):
        return self.K.from_int(self._q(a))

    def el(self, coeffs):
        K = self.K
        c = {}
        for s, v in coeffs.items():
            s = tuple(s)
            if any(i not in self.labels for i in s) or tuple(sorted(s)) != s or len(set(s)) != len(s):
                raise StructureError("bad monomial %r in %s" % (s, self.tag))
            if not K.is_zero(v):
                c[s] = K.check_element(v)
        return CliffEl(self, c)

    def zero(self):
        return CliffEl(self, {})

    def one(self):
        return CliffEl(self, {(): self.K.one()})

    def gen(self, i):
        if i not in self.labels:
            raise StructureError("no generator %d in %s" % (i, self.tag))
        return CliffEl(self, {(i,): self.K.one()})

    def scalar(self, k):
        return CliffEl(self, {} if self.K.is_zero(k) else {(): k})

    def add(self, x, y):
        K = self.K
        c = dict(x.c)
        for s, v in y.c.items():
            w = K.add(c.get(s, K.zero()), v)
            if K.is_zero(w):
                c.pop(s, None)
            else:
                c[s] = w
        return CliffEl(self, c)

    def neg(self, x):
        return CliffEl(self, {s: self.K.neg(v) for s, v in x.c.items()})

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def kmul(self, k, x):
        K = self.K
        c = {}
        for s, v in x.c.items():
            w = K.mul(k, v)
            if not K.is_zero(w):
                c[s] = w
        return CliffEl(self, c)

    def smul(self, nint, x):
        return self.kmul(self.K.from_int(nint), x)

    def _reduce_into(self, word, coeff, out):
        """Rewrite one generator word to the ordered basis over the
        integers, accumulating into out: e_a e_a = q(e_a), and for a > b,
        e_a e_b = B(a, b) - e_b e_a."""
        stack = [(tuple(word), coeff)]
        while stack:
            w, c = stack.pop()
            if not c:
                continue
            spot = next((t for t in range(len(w) - 1) if w[t] >= w[t + 1]), None)
            if spot is None:
                out[w] = out.get(w, 0) + c
                continue
            a, b = w[spot], w[spot + 1]
            rest = w[:spot] + w[spot + 2:]
            if a == b:
                stack.append((rest, c * self._q(a)))
            else:
                stack.append((w[:spot] + (b, a) + w[spot + 2:], -c))
                stack.append((rest, c * self._b(a, b)))

    def _prod(self, s, t):
        """The table entry e_s e_t = sum n_u e_u as ((u, n), ...), n != 0,
        rewritten on first use."""
        hit = self._table.get((s, t))
        if hit is None:
            out = {}
            self._reduce_into(s + t, 1, out)
            hit = self._table[(s, t)] = tuple((u, n) for u, n in out.items() if n)
        return hit

    def _word_ints(self, letters):
        """Integer coefficients of a generator word, one letter at a time."""
        cur = {(): 1}
        for a in letters:
            nxt = {}
            for s, n in cur.items():
                for u, k in self._prod(s, (a,)):
                    nxt[u] = nxt.get(u, 0) + n * k
            cur = nxt
        return cur

    def _combine(self, terms):
        """sum n * c over (u, n, c) terms: a CliffEl with zeros dropped."""
        K = self.K
        acc = {}
        for u, n, c in terms:
            v = K.smul(n, c)
            acc[u] = K.add(acc[u], v) if u in acc else v
        return CliffEl(self, {u: v for u, v in acc.items() if not K.is_zero(v)})

    def word(self, letters, coeff=None):
        c = self.K.one() if coeff is None else coeff
        return self._combine((u, n, c) for u, n in self._word_ints(letters).items())

    def mul(self, x, y):
        terms = []
        for sx, cx in x.c.items():
            for sy, cy in y.c.items():
                c = self.K.mul(cx, cy)
                terms.extend((u, n, c) for u, n in self._prod(sx, sy))
        return self._combine(terms)

    def coords(self, x):
        return tuple(x.c.get(s, self.K.zero()) for s in self.basis)

    def from_coords(self, vec):
        return CliffEl(self, {s: v for s, v in zip(self.basis, vec) if not self.K.is_zero(v)})

    def even_basis(self):
        return tuple(s for s in self.basis if len(s) % 2 == 0)

    def __repr__(self):
        return "<%s dim=%d>" % (self.tag, self.dim)


def reversal(x):
    """Anti-automorphism reversing generator words."""
    alg = x.alg
    return alg._combine((u, n, c) for s, c in x.c.items()
                        for u, n in alg._word_ints(reversed(s)).items())


def is_even(x):
    return all(len(s) % 2 == 0 for s in x.c)


def try_invert(x):
    """Two-sided inverse by a linear solve over the monomial basis."""
    alg = x.alg
    cols = [alg.coords(alg.mul(x, alg.from_coords(unit)))
            for unit in _unit_vectors(alg)]
    M = [tuple(cols[j][i] for j in range(alg.dim)) for i in range(alg.dim)]
    target = alg.coords(alg.one())
    sol = k_solve(alg.K, M, target)
    if sol is None:
        return None
    y = alg.from_coords(sol)
    if alg.mul(x, y) != alg.one() or alg.mul(y, x) != alg.one():
        return None
    return y


def _unit_vectors(alg):
    K = alg.K
    for t in range(alg.dim):
        yield tuple(K.one() if s == t else K.zero() for s in range(alg.dim))


def spin_member(u):
    """Even unit with reversal inverse whose conjugation keeps degree one."""
    if not is_even(u):
        return False
    alg = u.alg
    rev = reversal(u)
    if alg.mul(u, rev) != alg.one() or alg.mul(rev, u) != alg.one():
        return False
    for i in alg.labels:
        w = alg.mul(alg.mul(u, alg.gen(i)), rev)
        if any(len(s) != 1 for s in w.c):
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


class SpinGroup(list):
    """Spin elements in scan order; vectors[k] is vector_rep(self[k])."""

    def __init__(self, elems, vectors):
        super().__init__(elems)
        self.vectors = vectors


def _table_block(alg, left, right, out):
    """The product table on left x right, read off on out, as an int64
    (len(left) * len(right), len(out)) matrix; out must hold every
    monomial of those products (a parity class)."""
    pos = {u: k for k, u in enumerate(out)}
    T = np.zeros((len(left) * len(right), len(out)), dtype=np.int64)
    for a, s in enumerate(left):
        for b, t in enumerate(right):
            for u, n in alg._prod(s, t):
                T[a * len(right) + b, pos[u]] = n
    return T


def _bilinear(ring, X, Y, T):
    """Row-wise products of X (N, p, rk) and Y (N, q, rk) through the
    table block T (p * q, r): the coefficients (N, r, rk)."""
    rows = (X.shape[0], X.shape[1] * Y.shape[1])
    return ring.contract(
        lambda a, b: (X[:, :, None, a] * Y[:, None, :, b]).reshape(rows) @ T)


class _SpinScan:
    """Dense product-table blocks of one algebra, and the spin masks on
    chunks of even coefficient rows (N, dim(even), rk)."""

    def __init__(self, alg, ring):
        self.ring = ring
        ebasis = alg.even_basis()
        obasis = tuple(s for s in alg.basis if len(s) % 2)
        ne, no, self.nl = len(ebasis), len(obasis), len(alg.labels)
        self.rev = np.array([[alg._word_ints(reversed(s)).get(u, 0) for u in ebasis]
                             for s in ebasis], dtype=np.int64).reshape(ne, ne)
        self.tee = _table_block(alg, ebasis, ebasis, ebasis)
        self.toe = _table_block(alg, obasis, ebasis, obasis)
        # left[i] maps even coefficients to those of u e_i
        self.left = np.array([_table_block(alg, ebasis, [(i,)], obasis)
                              for i in alg.labels], dtype=np.int64).reshape(self.nl, ne, no)
        self.one = np.zeros((ne, ring.rk), dtype=np.int64)
        self.one[0] = alg.K.one()
        self.high = [k for k, s in enumerate(obasis) if len(s) > 1]
        self.deg1 = [obasis.index((i,)) for i in alg.labels]

    def survivors(self, U):
        """The spin rows of U in order, and their vector matrices
        (N, d, d, rk): u ubar = 1, then ubar u = 1, then u e_i ubar of
        degree one for every label i."""
        ring, nl = self.ring, self.nl
        Ub = np.matmul(self.rev.T, U) % ring.m
        keep = (_bilinear(ring, U, Ub, self.tee) == self.one).all(axis=(1, 2))
        U, Ub = U[keep], Ub[keep]
        keep = (_bilinear(ring, Ub, U, self.tee) == self.one).all(axis=(1, 2))
        U, Ub = U[keep], Ub[keep]
        n, no = U.shape[0], self.left.shape[2]
        V = np.matmul(np.swapaxes(self.left, 1, 2), U[:, None]) % ring.m
        W = _bilinear(ring, V.reshape(n * nl, no, ring.rk), np.repeat(Ub, nl, axis=0),
                      self.toe).reshape(n, nl, no, ring.rk)
        keep = (W[:, :, self.high] == 0).all(axis=(1, 2, 3))
        return U[keep], np.swapaxes(W[keep][:, :, self.deg1], 1, 2)


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
        U, M = scan.survivors(
            ring.ktab[_mixed_radix([K.card] * len(ebasis), min(lo + step, total), lo)])
        rows.extend(U.tolist())
        mats.extend(M.tolist())
    elems = [CliffEl(alg, {s: tuple(v) for s, v in zip(ebasis, row) if any(v)})
             for row in rows]
    vectors = [tuple(tuple(tuple(c) for c in line) for line in mat) for mat in mats]
    return SpinGroup(elems, vectors)


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
                         for u, n in clif._prod((i,), (-j,)))


def hermitian_basis(alg):
    out = []
    for (i, j) in alg.pairs:
        if (i, j) == (-j, -i):
            out.append(alg.e(i, j))
        elif (i, j) < (-j, -i):
            out.append(alg.add(alg.e(i, j), alg.e(-j, -i)))
    return out


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

    def note(block, verdict, label):
        rep[block]["total"] += 1
        if verdict == "ok":
            rep[block]["ok"] += 1
        elif verdict == "fail":
            rep[block]["failed"] += 1
            if len(rep["failed_instances"]) < 20:
                rep["failed_instances"].append(label)
        else:
            rep[block]["adjusted"] += 1
            if len(rep["adjusted_instances"]) < 40:
                rep["adjusted_instances"].append(label)

    for x in herm:
        lhs = clif0_image(clif, x)
        rhs = clif.scalar(htr(x))
        note("rel1", _scale_verdict(clif, lhs, rhs), "rel1:%r" % (x,))
    for x in herm:
        for (k, l) in alg.pairs:
            lhs = clif.zero()
            for (a, b), c in x.c.items():
                lhs = clif.add(lhs, clif.word((k, a, -b, -l), c))
            rhs = clif.word((k, -l), htr(x))
            note("rel2", _scale_verdict(clif, lhs, rhs),
                 "rel2:%r:y=e(%d,%d)" % (x, k, l))
    rep["pass"] = (rep["rel1"]["failed"] == 0 and rep["rel2"]["failed"] == 0
                   and (r % 2 == 1 or
                        (rep["rel1"]["adjusted"] == 0 and rep["rel2"]["adjusted"] == 0)))
    return rep


def clif0_center(r, K):
    """Basis {1, omega} of the center of the even part."""
    clif = CliffordAlg(r, K)
    ebasis = clif.even_basis()
    gens = [clif.word((a, b)) for a in clif.labels for b in clif.labels if a < b]
    cols = []
    for s in ebasis:
        b = CliffEl(clif, {s: K.one()})
        col = []
        for g in gens:
            comm = clif.sub(clif.mul(b, g), clif.mul(g, b))
            if any(len(w) % 2 for w in comm.c):
                raise StructureError("even part is not closed")
            col.extend(comm.c.get(w, K.zero()) for w in ebasis)
        cols.append(col)
    M = [[cols[t][row] for t in range(len(ebasis))] for row in range(len(cols[0]))]
    null = k_nullspace(K, M, len(ebasis))
    vecs = [CliffEl(clif, {s: v for s, v in zip(ebasis, vec) if not K.is_zero(v)})
            for vec in null]
    one = clif.one()
    for cand in vecs:
        om = clif.sub(cand, clif.scalar(cand.coeff(())))
        if not om:
            continue
        if all(_in_span2(clif, ebasis, one, om, v) for v in vecs):
            return [one, om]
    raise StructureError("center of the even part is not free of rank 2")


def _in_span2(clif, ebasis, b1, b2, v):
    K = clif.K
    M = [[b1.c.get(s, K.zero()), b2.c.get(s, K.zero())] for s in ebasis]
    target = [v.c.get(s, K.zero()) for s in ebasis]
    return k_solve(K, M, target) is not None


def center_split_idempotent(center_basis):
    """Least idempotent a + b*omega with invertible b."""
    one, om = center_basis
    clif = one.alg
    K = clif.K
    for a in K.elements():
        for b in K.elements():
            if K.try_invert(b) is None:
                continue
            z = clif.add(clif.scalar(a), clif.kmul(b, om))
            if clif.mul(z, z) == z:
                return z
    raise StructureError("center has no splitting idempotent")


def clif_to_json(x):
    return [{"subset": list(s), "c": list(v)} for s, v in x.key]


def clif_from_json(alg, data):
    return alg.el({tuple(int(i) for i in row["subset"]):
                   alg.K.check_element(tuple(int(t) for t in row["c"]))
                   for row in data})
