"""Exact linear algebra over the coefficient rings.

Integer matrices are diagonalized mod m by unimodular row and column
operations, entries reduced after every step so coefficients never grow.
Systems over a ring spec are expanded to integer systems through the
multiplication matrices of their entries; product rings split into
componentwise systems.

isometry_search is the one column search for the isometries of a form,
written as a Z-bilinear tensor on flat integer coordinates; unitary and
quad_module both call it.
"""

import itertools
import math

import numpy as np

from .coeff_ring import CapacityError, Product, SlotRing, StructureError, _basis

_CHUNK = 1 << 16
_FRONTIER_CAP = 1 << 20


def _identity_int(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap_col(M, a, b):
    for row in M:
        row[a], row[b] = row[b], row[a]


def _row_addmul(M, i, t, q, m):
    Mt = M[t]
    M[i] = [(x + q * y) % m for x, y in zip(M[i], Mt)]


def _col_addmul(M, j, t, q, m):
    for row in M:
        row[j] = (row[j] + q * row[t]) % m


def snf_mod(A, m):
    """Diagonalize A mod m: returns (D, U, V) with U A V = D mod m.

    U and V are reductions of integer unimodular matrices, so they stay
    invertible mod m.  The diagonal is not forced into a divisor chain;
    solving and counting only need diagonality.
    """
    R = len(A)
    C = len(A[0]) if R else 0
    D = [[A[i][j] % m for j in range(C)] for i in range(R)]
    U = _identity_int(R)
    V = _identity_int(C)
    t = 0
    while t < min(R, C):
        best, br, bc = None, -1, -1
        for i in range(t, R):
            row = D[i]
            for j in range(t, C):
                v = row[j]
                if v and (best is None or v < best):
                    best, br, bc = v, i, j
        if best is None:
            break
        if br != t:
            D[t], D[br] = D[br], D[t]
            U[t], U[br] = U[br], U[t]
        if bc != t:
            _swap_col(D, t, bc)
            _swap_col(V, t, bc)
        while True:
            p = D[t][t]
            restart = False
            for i in range(t + 1, R):
                v = D[i][t]
                if v:
                    q = v // p
                    _row_addmul(D, i, t, -q, m)
                    _row_addmul(U, i, t, -q, m)
                    if D[i][t]:
                        # leftover remainder becomes the smaller pivot
                        D[t], D[i] = D[i], D[t]
                        U[t], U[i] = U[i], U[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, C):
                v = D[t][j]
                if v:
                    q = v // p
                    _col_addmul(D, j, t, -q, m)
                    _col_addmul(V, j, t, -q, m)
                    if D[t][j]:
                        _swap_col(D, t, j)
                        _swap_col(V, t, j)
                        restart = True
                        break
            if restart:
                continue
            break
        t += 1
    return D, U, V


class ModSolver:
    """Reusable solver for A x = b mod m with the matrix fixed."""

    def __init__(self, A, m, ncols=None):
        assert m >= 2
        self.m = m
        self.rows = len(A)
        self.cols = len(A[0]) if self.rows else (ncols or 0)
        if self.rows:
            D, U, V = snf_mod(A, m)
        else:
            D, U, V = [], [], _identity_int(self.cols)
        self.U = U
        self.V = V
        self.diag = [D[j][j] if j < self.rows else 0 for j in range(self.cols)]
        self.null_count = 1
        for d in self.diag:
            self.null_count *= math.gcd(d, m)

    def _transform(self, b):
        assert len(b) == self.rows
        return [sum(u * x for u, x in zip(row, b)) % self.m for row in self.U]

    def _consistent(self, c):
        for j in range(min(self.rows, self.cols)):
            if c[j] % math.gcd(self.diag[j], self.m):
                return False
        for i in range(self.cols, self.rows):
            if c[i]:
                return False
        return True

    def solve(self, b):
        m = self.m
        c = self._transform(b)
        if not self._consistent(c):
            return None
        y = [0] * self.cols
        for j in range(min(self.rows, self.cols)):
            d = self.diag[j]
            if d:
                g = math.gcd(d, m)
                y[j] = (c[j] // g) * pow(d // g, -1, m // g) % (m // g)
        return [sum(row[j] * y[j] for j in range(self.cols)) % m for row in self.V]

    def count(self, b):
        return self.null_count if self._consistent(self._transform(b)) else 0

    def consistent_rows(self, B):
        """Row mask of an (N, rows) int array of right-hand sides: which
        ones the system can meet, the batch form of _consistent."""
        m = self.m
        U = np.array(self.U, dtype=np.int64).reshape(self.rows, self.rows)
        C = np.asarray(B, dtype=np.int64) @ U.T % m
        k = min(self.rows, self.cols)
        g = np.array([math.gcd(d, m) for d in self.diag[:k]], dtype=np.int64)
        return (C[:, :k] % g == 0).all(axis=1) & (C[:, self.cols:] == 0).all(axis=1)

    def nullspace(self):
        """Vectors generating the solution set of A x = 0 additively."""
        m = self.m
        gens = []
        for j in range(self.cols):
            g = math.gcd(self.diag[j], m)
            if g == 1:
                continue
            s = m // g
            gens.append([row[j] * s % m for row in self.V])
        return gens


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
    """Every member of the span of a howell_form, once each."""
    out = []
    for qs in itertools.product(*[range(mods[c] // h[c]) for c, h in H]):
        v = [0] * len(mods)
        for q, (_, h) in zip(qs, H):
            if q:
                v = [(x + q * y) % m for x, y, m in zip(v, h, mods)]
        out.append(v)
    return out


def howell_kernel(images, targets, mods_out, mods_in):
    """Howell form of {n : sum n_a images[a] in span(targets)}: the rows
    [images[a] | e_a] and [t | 0] span a group whose members with zero
    left part are exactly the (0, n) sought, and the Howell property hands
    them over as the rows pivoting in the right block."""
    k = len(mods_out)
    rows = [list(img) + [int(a == b) for b in range(len(mods_in))]
            for a, img in enumerate(images)]
    rows += [list(t) + [0] * len(mods_in) for t in targets]
    return [(c - k, h[k:]) for c, h in howell_form(rows, tuple(mods_out) + tuple(mods_in))
            if c >= k]


def solve_mod(A, b, m):
    return ModSolver(A, m).solve(b)


def nullspace_mod(A, m):
    return ModSolver(A, m).nullspace()


def count_solutions_mod(A, b, m):
    return ModSolver(A, m).count(b)


def mulmat(spec, a):
    """Integer matrix of y -> a*y on the spec's coordinate basis."""
    cols = [spec.mul(a, e) for e in _basis(spec)]
    return [[cols[j][i] for j in range(spec.rank)] for i in range(spec.rank)]


class KSolver:
    """Fixed-matrix solver for linear systems over a ring spec.

    M is a matrix of ring elements; unknowns and right-hand sides are
    vectors of ring elements.  Expansion over the Z-basis turns the
    system into an integer one; product specs recurse componentwise.
    Pass ncols when M has no rows.
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
        if isinstance(spec, Product):
            self.parts = []
            for idx, sub in enumerate(spec.specs):
                Mi = [[sub.check_element(spec.split(e)[idx]) for e in row] for row in M]
                self.parts.append(KSolver(sub, Mi, ncols=self.ncols))
            self.null_count = math.prod(ks.null_count for ks in self.parts)
        else:
            self.parts = None
            m = spec.uniform_modulus()
            if m is None:
                raise StructureError("mixed moduli outside a product spec")
            self.m = m
            r = spec.rank
            big = [[0] * (self.ncols * r) for _ in range(self.nrows * r)]
            for i, row in enumerate(M):
                for j, e in enumerate(row):
                    if spec.is_zero(e):
                        continue
                    blk = mulmat(spec, e)
                    for a in range(r):
                        out = big[i * r + a]
                        for b in range(r):
                            out[j * r + b] = blk[a][b]
            self.ms = ModSolver(big, m, ncols=self.ncols * r)
            self.null_count = self.ms.null_count

    def _unflat(self, flat):
        r = self.spec.rank
        return [tuple(flat[j * r:(j + 1) * r]) for j in range(self.ncols)]

    def solve(self, b):
        if self.parts is not None:
            per = []
            for idx, ks in enumerate(self.parts):
                bi = [self.spec.split(e)[idx] for e in b]
                xi = ks.solve(bi)
                if xi is None:
                    return None
                per.append(xi)
            return [self.spec.join([p[j] for p in per]) for j in range(self.ncols)]
        return None if (s := self.ms.solve(vflat(b))) is None else self._unflat(s)

    def count(self, b):
        if self.parts is not None:
            total = 1
            for idx, ks in enumerate(self.parts):
                total *= ks.count([self.spec.split(e)[idx] for e in b])
            return total
        return self.ms.count(vflat(b))

    def consistent(self, B):
        """Row mask of the right-hand sides the system can meet, for B an
        (N, nrows * rank) int array of flat coordinates; a right-hand side
        that passes has null_count solutions.  Product specs test each
        part on its slice of every entry."""
        B = np.asarray(B, dtype=np.int64).reshape(len(B), self.nrows, self.spec.rank)
        if self.parts is None:
            return self.ms.consistent_rows(B.reshape(len(B), -1))
        ok = np.ones(len(B), dtype=bool)
        off = 0
        for sub, ks in zip(self.spec.specs, self.parts):
            ok &= ks.consistent(B[:, :, off:off + sub.rank].reshape(len(B), -1))
            off += sub.rank
        return ok

    def nullspace(self):
        if self.parts is not None:
            gens = []
            for idx, ks in enumerate(self.parts):
                zeros = [s.zero() for s in self.spec.specs]
                for g in ks.nullspace():
                    vec = []
                    for e in g:
                        parts = list(zeros)
                        parts[idx] = e
                        vec.append(self.spec.join(parts))
                    gens.append(vec)
            return gens
        return [self._unflat(g) for g in self.ms.nullspace()]


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
    codes = np.array(list(itertools.product(range(len(ktab)), repeat=len(rows))),
                     dtype=np.int64).reshape(len(ktab) ** len(rows), len(rows))
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
