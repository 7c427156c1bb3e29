"""Exact linear algebra over the coefficient rings.

Every linear solve is one elimination: the Howell form of a subgroup of
Z/m_1 x ... x Z/m_n, one modulus per coordinate (howell_form).  A linear
map is solved through the Howell form of its graph (GraphForm), which
gives its kernel, its fibre size, a canonical solution of A x = b (for
one right-hand side or a batch) and a batch consistency test.  A batch
is reduced one form row at a time, over the coordinates where that row
is nonzero only.  Systems over a ring spec are expanded to integer
systems over the Z-basis of the ring, so a product ring is one system
with mixed slot moduli.

form_isometries is the one column search for the isometries of a form,
written as a Z-bilinear tensor on flat integer coordinates, with one
column-pool setup and cap rule; unitary and quad_module state their form.
"""

import math

import numpy as np

from .coeff_ring import CapacityError, SlotRing, StructureError, _basis, _mixed_radix

_CHUNK = 1 << 16
_FRONTIER_CAP = 1 << 20


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _unit_to(a, g, m):
    """A unit u mod m with u a = g mod m, for g = gcd(a, m) < m."""
    u = pow(a // g, -1, m // g)
    while math.gcd(u, m) != 1:
        u += m // g
    return u


def howell_form(rows, mods):
    """Howell form of the subgroup of Z/mods[0] x ... x Z/mods[-1] that the
    int rows span (Howell, LAMA 19, 1986; Storjohann-Mulders, ESA 1998).

    Returns [(c, h)]: rows h in increasing pivot column c, h zero before c,
    the pivot h[c] a divisor of mods[c], and every entry above a later
    pivot below it.  The Howell property holds: the members of the span
    that vanish before column c are spanned by the rows pivoting at or
    after c.  So the form is canonical, howell_reduce finds lex-least
    coset members, and each member is sum q_j h_j, 0 <= q_j < mods[c_j] /
    h_j[c_j], in exactly one way.

    Works over Z/L, L = lcm(mods), through the embedding x_c -> (L /
    mods[c]) x_c, which keeps the order on every coordinate.
    """
    n = len(mods)
    L = math.lcm(*mods) if n else 1
    w = [L // m for m in mods]
    pool = [[x * s % L for x, s in zip(r, w)] for r in rows]
    pool = [r for r in pool if any(r)]
    H = []
    for c in range(n):
        piv, rest = None, []
        for r in pool:
            if not r[c]:
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                # unimodular [[s, t], [-b/g, a/g]] moves the gcd into piv
                a, b = piv[c], r[c]
                g, s, t = _xgcd(a, b)
                piv, r = ([(s * x + t * y) % L for x, y in zip(piv, r)],
                          [(a // g * y - b // g * x) % L for x, y in zip(piv, r)])
                if any(r):
                    rest.append(r)
        pool = rest
        if piv is None:
            continue
        g = math.gcd(piv[c], L)
        u = _unit_to(piv[c], g, L)
        piv = [u * x % L for x in piv]
        ann = [L // g * x % L for x in piv]
        if any(ann):
            pool.append(ann)
        for _, h in H:
            q = h[c] // g
            if q:
                h[:] = [(x - q * y) % L for x, y in zip(h, piv)]
        H.append((c, piv))
    return [(c, [x // s for x, s in zip(h, w)]) for c, h in H]


def howell_reduce(H, v, mods):
    """The lex-least member of v + span(H), H a howell_form: one greedy
    pass, each pivot coordinate taken to its residue mod the pivot."""
    v = list(v)
    for c, h in H:
        q = v[c] // h[c]
        if q:
            v = [(x - q * y) % m for x, y, m in zip(v, h, mods)]
    return v


def howell_card(H, mods):
    """Size of the span of a howell_form."""
    return math.prod(mods[c] // h[c] for c, h in H)


def howell_span(H, mods):
    """Every member of the span of a howell_form, once each: the rows of
    an int array, the multiplier of the first form row varying slowest."""
    m = np.array(mods, dtype=np.int64)
    out = np.zeros((1, len(mods)), dtype=np.int64)
    for c, h in H:
        q = np.arange(mods[c] // h[c], dtype=np.int64)[:, None]
        out = ((out[:, None] + q * np.array(h, dtype=np.int64)) % m).reshape(-1, len(mods))
    return out


def _rem(X, m):
    """X %= m in place, X a (k, N) int64 array and m > 0 an int: numpy
    floor-divides by a scalar several times faster than it takes %, and
    blocks of rows of about _CHUNK entries bound the quotient's size."""
    step = max(1, _CHUNK // max(1, X.shape[1]))
    for lo in range(0, len(X), step):
        Y = X[lo:lo + step]
        Y -= Y // m * m
    return X


class GraphForm:
    """Howell form of the graph of a Z-linear map between groups of int
    coordinate rows, images[u] the image of the u-th unit vector (mod
    mods_out) of the source (mod mods_in), taken modulo span(targets).

    The rows [images[u] | e_u] and [t | 0] span {(A x + t, x)}.  The
    members with zero left part are the (0, n) with A n in span(targets),
    and the Howell property hands them over as the rows pivoting in the
    right block: the kernel.  Reducing [b | 0] gives the lex-least member
    of its coset, whose left part is zero exactly when b = A x + t for
    some x; then it is (0, -x), so minus its right part is a solution,
    the same for every generating set.
    """

    def __init__(self, images, mods_out, mods_in, targets=()):
        self.k = k = len(mods_out)
        self.mods = tuple(mods_out) + tuple(mods_in)
        # the map itself, one row per unit vector of the source
        self.A = np.array(images, dtype=np.int64).reshape(len(mods_in), k)
        rows = [list(img) + [int(u == v) for v in range(len(mods_in))]
                for u, img in enumerate(images)]
        rows += [list(t) + [0] * len(mods_in) for t in targets]
        self.form = howell_form(rows, self.mods)
        self.kernel = [(c - k, h[k:]) for c, h in self.form if c >= k]
        self.null_count = howell_card(self.kernel, mods_in)
        self._plans = {}

    def image(self, X):
        """A x mod mods_out for each row x of an (N, len(mods_in)) int
        array (the targets are not added)."""
        return X @ self.A % np.array(self.mods[:self.k], dtype=np.int64)

    def solve(self, b):
        """A flat x with A x = b modulo the targets, or None."""
        k = self.k
        v = howell_reduce(self.form, list(b) + [0] * (len(self.mods) - k), self.mods)
        if any(v[:k]):
            return None
        return [-x % m for x, m in zip(v[k:], self.mods[k:])]

    def _plan(self, w):
        """How _reduce runs on the first w coordinates, built once per w:
        those coordinates as runs (lo, hi, m) of one modulus, and each form
        row h pivoting before w as (c, [(j, h[j], mods[j])]), over the j
        after c and below w where h is nonzero, then c itself."""
        plan = self._plans.get(w)
        if plan is None:
            mods = self.mods[:w]
            lo = [j for j in range(w) if j == 0 or mods[j] != mods[j - 1]]
            plan = self._plans[w] = (
                [(a, b, mods[a]) for a, b in zip(lo, lo[1:] + [w])],
                [(c, [(j, h[j], mods[j]) for j in range(c + 1, w) if h[j]] + [(c, h[c], mods[c])])
                 for c, h in self.form if c < w])
        return plan

    def _reduce(self, V):
        """howell_reduce of every column of a (w, N) int64 array, in place,
        on its first w coordinates: one greedy pass over the whole batch,
        the batch axis last.  A form row pivoting at or after coordinate w
        is zero before it, so the first w coordinates reduce alone.  Once
        every coordinate is in range, a step touches only those where its
        row is nonzero, the pivot last; a unit pivot needs no division."""
        runs, steps = self._plan(V.shape[0])
        for lo, hi, m in runs:
            _rem(V[lo:hi], m)
        for c, support in steps:
            p = support[-1][1]
            q = V[c] if p == 1 else V[c] // p
            for j, v, m in support:
                V[j] -= q * v
                _rem(V[j:j + 1], m)
        return V

    def consistent(self, B):
        """Row mask of an (N, len(mods_out)) int array of right-hand
        sides: which ones solve can meet.  Only the left block is
        reduced: the left-pivot rows alone decide it.  B is not changed:
        one pass casts it to an int64 copy, batch axis last."""
        V = np.asarray(B).reshape(len(B), self.k).T.astype(np.int64, order="C")
        return ~self._reduce(V).any(axis=0)

    def solve_rows(self, B):
        """solve on every row of an (N, len(mods_out)) int array: the
        consistent mask, and the (N, len(mods_in)) solutions, which are
        meaningless on the rows the mask drops."""
        k = self.k
        V = np.zeros((len(self.mods), len(B)), dtype=np.int64)
        V[:k] = np.asarray(B).T
        self._reduce(V)
        return ~V[:k].any(axis=0), (-V[k:] % np.array(self.mods[k:], dtype=np.int64)[:, None]).T


class KSolver:
    """Fixed-matrix solver for linear systems over a ring spec.

    M is a matrix of ring elements; unknowns and right-hand sides are
    vectors of ring elements.  Expansion over the Z-basis turns the
    system into the GraphForm of an int map, one slot modulus per
    coordinate, so product specs need no splitting.  Pass ncols when M
    has no rows.
    """

    def __init__(self, spec, M, ncols=None):
        if not M and ncols is None:
            raise StructureError("empty system needs an unknown count")
        self.spec, self.nrows, self.ncols = spec, len(M), len(M[0]) if M else ncols
        zero = spec.zero()
        images = [vflat(zero if spec.is_zero(row[j]) else spec.mul(row[j], e) for row in M)
                  for j in range(self.ncols) for e in _basis(spec)]
        self.graph = GraphForm(images, spec.moduli * self.nrows, spec.moduli * self.ncols)
        self.null_count = self.graph.null_count

    def solve(self, b):
        s = self.graph.solve(vflat(b))
        return None if s is None else list(unflat(s, self.spec.rank))

    def count(self, b):
        return 0 if self.graph.solve(vflat(b)) is None else self.null_count

    def consistent(self, B):
        """Row mask of the right-hand sides the system can meet, for B an
        (N, nrows * rank) int array of flat coordinates; a right-hand side
        that passes has null_count solutions."""
        return self.graph.consistent(B)

    def nullspace(self):
        """Vectors whose Z-span is the solution set of M x = 0."""
        return [list(unflat(h, self.spec.rank)) for _, h in self.graph.kernel]


def k_solve(spec, M, b):
    return KSolver(spec, M).solve(b)


def k_nullspace(spec, M, ncols=None):
    return KSolver(spec, M, ncols=ncols).nullspace()


def k_identity(spec, n):
    one, zero = spec.one(), spec.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _k_dot(spec, xs, ys):
    acc = spec.zero()
    for a, b in zip(xs, ys):
        if not spec.is_zero(a):
            acc = spec.add(acc, spec.mul(a, b))
    return acc


def k_matmul(spec, A, B):
    cols = list(zip(*B))
    return tuple(tuple(_k_dot(spec, row, col) for col in cols) for row in A)


def k_mat_vec(spec, A, v):
    return tuple(_k_dot(spec, row, v) for row in A)


def vflat(v):
    """Int coordinates of a vector of ring elements, concatenated."""
    return [x for e in v for x in e]


def unflat(v, r):
    """The vector of rank-r ring elements whose vflat is the int
    sequence v, as a tuple."""
    return tuple(tuple(v[i:i + r]) for i in range(0, len(v), r))


def vzero(K, n):
    return (K.zero(),) * n


def vadd(K, u, v):
    return tuple(K.add(a, b) for a, b in zip(u, v))


def vsub(K, u, v):
    return tuple(K.sub(a, b) for a, b in zip(u, v))


def vneg(K, u):
    return tuple(K.neg(a) for a in u)


def vscale(K, c, u):
    return tuple(K.mul(c, a) for a in u)


def k_mat_inv(spec, M):
    """Inverse of a square matrix over the spec, or None."""
    ks, cols, ident = KSolver(spec, M, ncols=len(M)), [], k_identity(spec, len(M))
    for e in ident:
        cols.append(ks.solve(e))
        if cols[-1] is None:
            return None
    X = tuple(zip(*cols))
    return X if k_matmul(spec, M, X) == ident == k_matmul(spec, X, M) else None


def support_pool(ktab, n, rows):
    """Every vector of K^n supported on rows, as flat (N, n * rk) rows in
    itertools.product order over the elements listed in ktab."""
    codes = _mixed_radix([len(ktab)] * len(rows), len(ktab) ** len(rows)).T
    out = np.zeros((len(codes), n, ktab.shape[1]), dtype=np.int64)
    out[:, list(rows)] = ktab.take(codes, axis=0)
    return out.reshape(len(codes), n * ktab.shape[1])


def form_rows(X, B, Y, mod):
    """x.B.y mod the output moduli for each pair of rows (x, y) of X and Y,
    B a (D, D, W) Z-bilinear tensor on flat coordinates: (N, W)."""
    D, W = len(B), B.shape[-1]
    XB = (X @ B.reshape(D, D * W)).reshape(len(X), D, W)
    return (XB * Y[:, :, None]).sum(axis=1) % mod


def k_dets(K, A):
    """Determinants over K of a batch of square matrices, A an (n, n,
    rank, N) int array in the layout of coeff_ring.SlotRing: (rank, N).
    The minors on the first k columns, one per row subset, grow to k + 1
    columns by expansion along the last one, each product one SlotRing
    contraction over the whole batch."""
    ring = SlotRing(K)
    n, N = A.shape[0], A.shape[-1]
    minors = {0: np.tile(np.array(K.one(), dtype=np.int64)[:, None], (1, N))}
    for k in range(n):
        grown = {}
        for mask, d in minors.items():
            for i in range(n):
                if mask >> i & 1:
                    continue
                a = A[i, k]
                term = ring.contract_raw(lambda s, t: a[s] * d[t])
                sign = -1 if (bin(mask & ((1 << i) - 1)).count("1") + k) & 1 else 1
                key = mask | 1 << i
                grown[key] = grown.get(key, 0) + sign * term
        minors = {mask: ring.reduce(d) for mask, d in grown.items()}
    return minors[(1 << n) - 1]


def isometry_search(K, V, B, G, pools):
    """Every matrix with columns v_t = V[f[t]], f[t] in pools[t], such that
    b(v_s, v_t) = G[s, t] for all s, t, where b(x, y) = x.B.y mod the
    output moduli; returns F (L, n) with leaf r given by f = F[r].

    V is (Np, D) flat K-coordinates, D = n * rank(K); B is (D, D, W) and
    G (n, n, W), W a multiple of rank(K).  Breadth-first: at depth t the
    pool rows admissible against each distinct earlier column, for
    b(v_s, v_t) and b(v_t, v_s) at once, come from one integer product,
    and every frontier row gathers those masks.  If the K-Gram (G's K
    blocks summed) is invertible, M^T G M = G forces det(M)^2 = 1 and the
    first 12 leaves are checked; otherwise the leaves whose determinant
    (one batched k_dets) is not a unit are dropped.
    """
    n, W = len(G), G.shape[-1]
    rk, D = K.rank, V.shape[1]
    kmod = np.array(K.moduli, dtype=np.int64)
    mod = np.tile(kmod, 2 * W // rk)
    # x.B and x.B^T side by side on the output axis, for every pool row
    VB = (V @ np.concatenate([B, B.transpose(1, 0, 2)], axis=2)
          .reshape(D, 2 * D * W)).reshape(len(V), D, 2 * W)
    F = np.zeros((1, 0), dtype=np.int64)
    for t in range(n):
        cand = np.asarray(pools[t], dtype=np.int64)
        cand = cand[(form_rows(V[cand], B, V[cand], mod[:W]) == G[t, t]).all(axis=-1)]
        Yt = V[cand].T
        hits = []
        for s in range(t):
            U, inv = np.unique(F[:, s], return_inverse=True)
            want = np.concatenate([G[s, t], G[t, s]])[None, :, None]
            mask = np.empty((len(U), len(cand)), dtype=bool)
            step = max(1, (_CHUNK << 4) // max(1, 2 * W * len(cand)))
            for lo in range(0, len(U), step):
                XB = VB[U[lo:lo + step]].transpose(0, 2, 1).reshape(-1, D)
                val = (XB @ Yt).reshape(-1, 2 * W, len(cand)) % mod[:, None]
                mask[lo:lo + step] = (val == want).all(axis=1)
            hits.append((mask, inv))
        parts = [np.zeros((0, t + 1), dtype=np.int64)]
        total = 0
        step = max(1, (_CHUNK << 4) // max(1, len(cand)))
        for lo in range(0, len(F), step):
            keep = np.ones((min(step, len(F) - lo), len(cand)), dtype=bool)
            for mask, inv in hits:
                keep &= mask[inv[lo:lo + step]]
            r, c = np.nonzero(keep)
            total += len(r)
            if total > _FRONTIER_CAP:
                raise CapacityError("column search frontier past %d rows"
                                    % _FRONTIER_CAP)
            parts.append(np.column_stack([F[lo + r], cand[c]]))
        F = np.concatenate(parts)
    kgram = G.reshape(n, n, W // rk, rk).sum(axis=2) % kmod
    regular = k_mat_inv(K, [[tuple(e) for e in row] for row in kgram.tolist()]) is not None
    leaves = F[:12] if regular else F
    # a matrix over a commutative ring is invertible iff its det is a unit;
    # rows of V[F] are the columns, and the transpose has the same det
    dets = k_dets(K, np.moveaxis(V[leaves].reshape(len(leaves), n, n, rk), 0, -1)).T
    vals, inv = np.unique(dets, axis=0, return_inverse=True)
    unit = np.array([K.try_invert(tuple(v)) is not None for v in vals.tolist()],
                    dtype=bool)[inv.reshape(-1)]
    if regular and not unit.all():
        raise AssertionError("a leaf of an invertible Gram matrix is singular")
    return F if regular else F[unit]


def form_isometries(K, B, G, supports, q, cap):
    """The isometries of a form on K^n, found by isometry_search (B and G
    as it takes them): (V, F), column t of leaf r the flat row V[F[r, t]].

    Column t is drawn from the vectors supported on the rows supports[t]
    (a tuple), one support_pool block per distinct support, and, when q
    maps flat rows to their K values, only from the v with q(v) = q(e_t).
    A support of more than cap vectors raises CapacityError."""
    n, rk = len(G), K.rank
    ktab = SlotRing(K).ktab
    span, blocks = {}, []
    for rows in supports:
        if K.card ** len(rows) > cap:
            raise CapacityError("column pool of %d vectors" % K.card ** len(rows))
        if rows not in span:
            lo = sum(map(len, blocks))
            blocks.append(support_pool(ktab, n, rows))
            span[rows] = np.arange(lo, lo + len(blocks[-1]))
    V = np.concatenate(blocks) if blocks else np.zeros((0, n * rk), dtype=np.int64)
    ok = np.ones((len(V), n), dtype=bool) if q is None else (
        q(V)[:, None] == q(np.kron(np.eye(n, dtype=np.int64), K.one()))).all(axis=-1)
    return V, isometry_search(K, V, B, G, [span[rows][ok[span[rows], t]]
                                           for t, rows in enumerate(supports)])
