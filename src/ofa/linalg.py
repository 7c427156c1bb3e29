"""Exact linear algebra over the coefficient rings.

Every linear solve is one elimination: the Howell form of a subgroup of
Z/m_1 x ... x Z/m_n, one modulus per coordinate (howell_form).  A linear
map is solved through the Howell form of its graph (GraphForm), which
gives its kernel, its fibre size, a canonical solution of A x = b and a
batch consistency test.  Systems over a ring spec are expanded to
integer systems over the Z-basis of the ring, so a product ring is one
system with mixed slot moduli.

isometry_search is the one column search for the isometries of a form,
written as a Z-bilinear tensor on flat integer coordinates; unitary and
quad_module both call it.
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
        rows = [list(img) + [int(u == v) for v in range(len(mods_in))]
                for u, img in enumerate(images)]
        rows += [list(t) + [0] * len(mods_in) for t in targets]
        self.form = howell_form(rows, self.mods)
        self.kernel = [(c - k, h[k:]) for c, h in self.form if c >= k]
        self.null_count = howell_card(self.kernel, mods_in)

    def solve(self, b):
        """A flat x with A x = b modulo the targets, or None."""
        k = self.k
        v = howell_reduce(self.form, list(b) + [0] * (len(self.mods) - k), self.mods)
        if any(v[:k]):
            return None
        return [-x % m for x, m in zip(v[k:], self.mods[k:])]

    def consistent(self, B):
        """Row mask of an (N, len(mods_out)) int array of right-hand
        sides: which ones solve can meet.  The left-pivot rows alone
        decide it, one greedy pass over the whole batch."""
        k = self.k
        mods = np.array(self.mods[:k], dtype=np.int64)
        B = np.asarray(B, dtype=np.int64).reshape(len(B), k) % mods
        for c, h in self.form:
            if c >= k:
                break
            B = (B - (B[:, c] // h[c])[:, None] * np.array(h[:k], dtype=np.int64)) % mods
        return ~B.any(axis=1)


class KSolver:
    """Fixed-matrix solver for linear systems over a ring spec.

    M is a matrix of ring elements; unknowns and right-hand sides are
    vectors of ring elements.  Expansion over the Z-basis turns the
    system into the GraphForm of an int map, one slot modulus per
    coordinate, so product specs need no splitting.  Pass ncols when M
    has no rows.
    """

    def __init__(self, spec, M, ncols=None):
        self.spec = spec
        self.nrows = len(M)
        if self.nrows:
            self.ncols = len(M[0])
        else:
            if ncols is None:
                raise StructureError("empty system needs an unknown count")
            self.ncols = ncols
        zero = spec.zero()
        images = [vflat(zero if spec.is_zero(row[j]) else spec.mul(row[j], e) for row in M)
                  for j in range(self.ncols) for e in _basis(spec)]
        self.graph = GraphForm(images, spec.moduli * self.nrows, spec.moduli * self.ncols)
        self.null_count = self.graph.null_count

    def _unflat(self, flat):
        r = self.spec.rank
        return [tuple(flat[j * r:(j + 1) * r]) for j in range(self.ncols)]

    def solve(self, b):
        return None if (s := self.graph.solve(vflat(b))) is None else self._unflat(s)

    def count(self, b):
        return 0 if self.graph.solve(vflat(b)) is None else self.null_count

    def consistent(self, B):
        """Row mask of the right-hand sides the system can meet, for B an
        (N, nrows * rank) int array of flat coordinates; a right-hand side
        that passes has null_count solutions."""
        return self.graph.consistent(B)

    def nullspace(self):
        """Vectors whose Z-span is the solution set of M x = 0."""
        return [self._unflat(h) for _, h in self.graph.kernel]


def k_solve(spec, M, b):
    return KSolver(spec, M).solve(b)


def k_nullspace(spec, M, ncols=None):
    return KSolver(spec, M, ncols=ncols).nullspace()


def k_identity(spec, n):
    one, zero = spec.one(), spec.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def k_matmul(spec, A, B):
    n, k = len(A), len(B)
    p = len(B[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = spec.zero()
            for t in range(k):
                a = A[i][t]
                if not spec.is_zero(a):
                    acc = spec.add(acc, spec.mul(a, B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def k_mat_vec(spec, A, v):
    out = []
    for row in A:
        acc = spec.zero()
        for a, x in zip(row, v):
            if not spec.is_zero(a):
                acc = spec.add(acc, spec.mul(a, x))
        out.append(acc)
    return tuple(out)


def vflat(v):
    """Int coordinates of a vector of ring elements, concatenated."""
    return [x for e in v for x in e]


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


def k_det(spec, M):
    """Determinant by column expansion with a row-mask memo."""
    n = len(M)
    if n == 0:
        return spec.one()
    memo = {}

    def go(mask, col):
        if col == n:
            return spec.one()
        hit = memo.get(mask)
        if hit is not None:
            return hit
        acc = spec.zero()
        sign = 1
        for i in range(n):
            if mask & (1 << i):
                a = M[i][col]
                if not spec.is_zero(a):
                    term = spec.mul(a, go(mask & ~(1 << i), col + 1))
                    acc = spec.add(acc, term) if sign > 0 else spec.sub(acc, term)
                sign = -sign
        memo[mask] = acc
        return acc

    return go((1 << n) - 1, 0)


def k_mat_inv(spec, M):
    """Inverse of a square matrix over the spec, or None."""
    n = len(M)
    ks = KSolver(spec, M, ncols=n)
    cols = []
    for j in range(n):
        e = [spec.one() if i == j else spec.zero() for i in range(n)]
        x = ks.solve(e)
        if x is None:
            return None
        cols.append(x)
    X = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    ident = k_identity(spec, n)
    if k_matmul(spec, M, X) != ident or k_matmul(spec, X, M) != ident:
        return None
    return X


def support_pool(ktab, n, rows):
    """Every vector of K^n supported on rows, as flat (N, n * rk) rows in
    itertools.product order over the elements listed in ktab."""
    codes = _mixed_radix([len(ktab)] * len(rows), len(ktab) ** len(rows))
    out = np.zeros((len(codes), n, ktab.shape[1]), dtype=np.int64)
    out[:, list(rows)] = ktab[codes]
    return out.reshape(len(codes), n * ktab.shape[1])


def form_rows(X, B, Y, mod):
    """x.B.y mod the output moduli for each pair of rows (x, y) of X and Y,
    B a (D, D, W) Z-bilinear tensor on flat coordinates: (N, W)."""
    D, W = len(B), B.shape[-1]
    XB = (X @ B.reshape(D, D * W)).reshape(len(X), D, W)
    return (XB * Y[:, :, None]).sum(axis=1) % mod


def k_matrices(V, F, rk, sort=False):
    """Matrices over K, one per leaf f of F, column t the flat row V[f[t]].
    Equal rows share one tuple, so a leaf costs one tuple, not one per
    entry: a lexsort on the narrowest dtype (a radix sort) numbers the
    distinct rows, and one tolist reads the leaves.  Row numbers follow
    the lex order of the rows, so with sort=True one more lexsort over
    them returns the list sorted() would."""
    L, n = F.shape
    A = V[F].reshape(L, n, n, rk).transpose(0, 2, 1, 3).reshape(L * n, n * rk)
    A = A.astype(np.min_scalar_type(A.max(initial=0)))
    order = np.lexsort(A.T[::-1]) if n else np.arange(0)
    S = A[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    idx = np.empty(len(S), dtype=np.int64)
    idx[order] = np.cumsum(new) - 1
    idx = idx.reshape(L, n)
    if sort and n:
        idx = idx[np.lexsort(idx.T[::-1])]
    rows = [tuple(zip(*[iter(r)] * rk)) for r in S[new].tolist()]
    return [tuple(map(rows.__getitem__, m)) for m in idx.tolist()]


def k_dets(K, A):
    """Determinants over K of a stack of square matrices, A an (N, n, n,
    rank) int array of row-major entries: (N, rank).  The minors on the
    first k columns, one per row subset, grow to k + 1 columns by
    expansion along the last one, each product one SlotRing contraction
    over the whole stack."""
    ring = SlotRing(K)
    N, n = A.shape[:2]
    minors = {0: np.tile(np.array(K.one(), dtype=np.int64), (N, 1))}
    for k in range(n):
        grown = {}
        for mask, d in minors.items():
            for i in range(n):
                if mask >> i & 1:
                    continue
                a = A[:, i, k]
                term = ring.contract(lambda s, t: a[:, s] * d[:, t])
                sign = -1 if (bin(mask & ((1 << i) - 1)).count("1") + k) & 1 else 1
                key = mask | 1 << i
                grown[key] = grown.get(key, 0) + sign * term
        minors = {mask: d % ring.m for mask, d in grown.items()}
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
    if k_mat_inv(K, [[tuple(e) for e in row] for row in kgram.tolist()]) is not None:
        for M in k_matrices(V, F[:12], rk):
            assert k_mat_inv(K, M) is not None
        return F
    # a matrix over a commutative ring is invertible iff its det is a unit;
    # rows of V[F] are the columns, and the transpose has the same det
    dets = k_dets(K, V[F].reshape(len(F), n, n, rk))
    vals, inv = np.unique(dets, axis=0, return_inverse=True)
    unit = np.array([K.try_invert(tuple(v)) is not None for v in vals.tolist()],
                    dtype=bool)
    return F[unit[inv.reshape(-1)]]
