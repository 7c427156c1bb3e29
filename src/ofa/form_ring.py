"""Split form rings: matrix-type algebras with involution.

Four presets over a coefficient ring spec K.  The linear preset is a
pair of opposite matrix blocks swapped by the involution; the symplectic
and even orthogonal presets are full matrix types over signed indices;
the odd orthogonal preset keeps a middle index 0 whose through-products
are doubled, e_i0 e_0l = 2 e_il, which makes the ring non-unital
whenever 2 is not invertible.  The same class, with its contraction and
involution tables read off a Gram table, serves the tensor square of a
quadratic module (quad_module.canon_algebra).

Every algebra here and in clifford is a SparseAlgebra: a free K-module on
a basis of keys, pairs (i, j) for SplitAlgebra and ordered monomials for
clifford.CliffordAlg, whose one element class El is a sparse dict from
keys to nonzero coefficients.  The base holds the coefficient arithmetic;
its dict loops also add and scale the module elements of quad_module.

ParamTable is an odd form parameter over any such algebra: the one pair
law and the one coordinate read.  Its two tables are Delta over a preset
(odd_form_param.DeltaShape) and Theta over a tensor square
(quad_module.CanonConstruction).

The law runs on batches, and this is the package's only pair law.  Its
arrays have the K-slot axis second to last and the batch axis last:
algebra batches (d, d, rk, N), K rows (rk, N) and coordinate rows
(dim, rk, N), so each op runs over contiguous runs of N entries.
SplitAlgebra multiplies algebra batches as X C Y and conjugates them as
a signed transpose; ParamTable holds the pair law on (P, R) batches and
the read of coordinate rows, and takes a single element as a batch of
one.  A table supplies only its residue on arrays (residue_rows); K
products go through coeff_ring.SlotRing.  The tables are in the dtype
of coeff_ring.batch_dtype, so a narrow batch stays narrow, and a sum of
products is taken unreduced (raw) and reduced once; batch_dtype bounds
every such sum.  Rows stored batch first (group arrays, solver rows,
JSON rows) are converted once at that boundary.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np

from .coeff_ring import CapacityError, SlotRing, StructureError, _basis
from .linalg import k_nullspace

_ENUM_CAP = 1 << 20
_N_CAP = 6


def _dict_add(K, a, b):
    """a + b on coefficient dicts, zero sums dropped."""
    c = dict(a)
    for key, v in b.items():
        w = K.add(c.get(key, K.zero()), v)
        if K.is_zero(w):
            c.pop(key, None)
        else:
            c[key] = w
    return c


def _dict_neg(K, a):
    return {key: K.neg(v) for key, v in a.items()}


def _dict_kmul(K, k, a):
    """k a on a coefficient dict, zero products dropped."""
    c = {}
    for key, v in a.items():
        w = K.mul(k, v)
        if not K.is_zero(w):
            c[key] = w
    return c


def _as_slice(perm):
    """The identity or the reversal as a slice (a view); else perm."""
    d = len(perm)
    if (perm == np.arange(d)).all():
        return slice(None)
    return slice(None, None, -1) if (perm == np.arange(d)[::-1]).all() else perm


class SparseMap:
    """x -> A^T x on the first axis of x (n, N), for an int matrix A
    (n, width) with at most one nonzero entry per column, as every span of
    a table or module basis here has: one gather of rows, times the
    entries (in dtype), and one scatter."""

    def __init__(self, A, dtype):
        cols, rows = np.nonzero(A.T)
        if (cols[1:] == cols[:-1]).any():
            raise StructureError("a sparse map with two entries in one column")
        self.rows, self.cols, self.vals = rows, cols, A[rows, cols].astype(dtype)
        self.width = A.shape[1]

    def __call__(self, x):
        out = np.zeros((self.width, x.shape[1]), dtype=np.result_type(x, self.vals))
        out[self.cols] = x[self.rows] * self.vals[:, None]
        return out


class El:
    """Sparse algebra element: dict basis key -> nonzero K coefficient."""

    __slots__ = ("alg", "c", "key")

    def __init__(self, alg, c):
        self.alg = alg
        self.c = c
        self.key = tuple(sorted(c.items()))

    def __eq__(self, other):
        return isinstance(other, El) and self.alg.tag == other.alg.tag and self.key == other.key

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

    def bar(self):
        return self.alg.conj(self)

    def coeff(self, i, j):
        return self.c.get((i, j), self.alg.K.zero())

    def __repr__(self):
        if not self.c:
            return "0"
        term = self.alg.term
        return " + ".join("%s*%s" % (v, term(key)) for key, v in self.key)


class SparseAlgebra:
    """A free K-module on a basis of hashable keys, with El elements.

    The base owns the coefficient arithmetic; a subclass adds its product,
    its involution or word table, and term(key), the string of one basis
    element in El.__repr__.  Elements of two algebras are equal only when
    the algebras share a tag.
    """

    _bad_key = "key %r not in %s"

    def __init__(self, K, basis, tag):
        self.K = K
        self.basis = tuple(basis)
        self.basis_set = frozenset(self.basis)
        self.tag = tag

    def el(self, coeffs):
        K = self.K
        c = {}
        for key, v in coeffs.items():
            if key not in self.basis_set:
                raise StructureError(self._bad_key % (key, self.tag))
            v = K.check_element(v)
            if not K.is_zero(v):
                c[key] = v
        return El(self, c)

    def zero(self):
        return El(self, {})

    def add(self, a, b):
        return El(self, _dict_add(self.K, a.c, b.c))

    def neg(self, a):
        return El(self, _dict_neg(self.K, a.c))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def kmul(self, k, a):
        return El(self, _dict_kmul(self.K, k, a.c))

    def smul(self, nint, a):
        return self.kmul(self.K.from_int(nint), a)

    def coords(self, a):
        zero = self.K.zero()
        return tuple(a.c.get(key, zero) for key in self.basis)

    def from_coords(self, vec):
        return self.el(dict(zip(self.basis, vec)))


class SplitAlgebra(SparseAlgebra):
    """A sparse matrix-type algebra with involution over basis pairs.

    Two tables fix the structure.  contract[j] lists (k, f) with
    e(i, j) e(k, l) = f e(i, l); invol[(i, j)] is ((i', j'), negate) with
    conj e(i, j) = +-e(i', j'), minus where negate is set.  The presets
    are built by ofalin, ofasymp and ofaorth; quad_module builds the
    tensor square of a module.

    The algebra also owns its array layout.  A batch of N elements is a
    (d, d, rk, N) int array, d the number of indices: e(i, j) sits at
    row pos[i] and column pos[j], in index order, with its K slots and
    then the batch behind it, and apos lists that (row, column) for each
    basis pair.  The pairs are kept sorted, the
    order of El.key.  to_array and from_array convert between the two;
    mul_rows, conj_rows, kmul_rows and umul_rows are the product, the
    involution, the K scaling and the product with a unitalized element
    on such batches.
    """

    _bad_key = "pair %r not in %s"

    def __init__(self, kind, indices, pairs, K, contract, invol, tag):
        super().__init__(K, sorted(pairs), tag)
        self.kind = kind
        self.indices = tuple(indices)
        self.n = sum(1 for i in self.indices if i > 0)
        self.pairs = self.basis
        self.rank = len(self.pairs)
        self.contract = contract
        self.invol = invol
        self.pos = {i: t for t, i in enumerate(self.indices)}
        self.apos = np.array([(self.pos[i], self.pos[j]) for i, j in self.pairs],
                             dtype=np.int64).reshape(-1, 2)
        self._rows = None

    def to_array(self, els):
        """The elements as a (d, d, rk, N) int64 batch; an element of
        another algebra is a StructureError."""
        for a in els:
            if a.alg.tag != self.tag:
                raise StructureError("element of %s given to %s" % (a.alg.tag, self.tag))
        K, d = self.K, len(self.indices)
        A = np.zeros((d, d, K.rank, len(els)), dtype=np.int64)
        zero = K.zero()
        A[self.apos[:, 0], self.apos[:, 1]] = np.array(
            [[a.c.get(key, zero) for key in self.pairs] for a in els],
            dtype=np.int64).reshape(len(els), self.rank, K.rank).transpose(1, 2, 0)
        return A

    def from_array(self, A):
        """The element of each batch entry of A, a (d, d, rk, N) array of
        reduced entries, its El built directly: el would have nothing to
        check."""
        return [El(self, {key: tuple(v) for key, v in zip(self.pairs, row) if any(v)})
                for row in np.moveaxis(A[self.apos[:, 0], self.apos[:, 1]], -1, 0).tolist()]

    def row_tables(self):
        """The tables of the batch law, built on first use in the dtype of
        SlotRing(K, d), so that no op widens a batch.  Where C, the contract
        weights, has one entry per row j, at column sigma(j), an integer w_j
        times 1 with sum |w_j| <= d + 1 (every preset and split module), C Y
        is Y[:, sigma] times w; else C stays dense.  conj X at (p, q) is X
        at (tau q, tau p) times the sign E, laid out as that view of X so
        that the product runs in X's memory order; sigma and tau are slices
        (views) on the presets and tensor squares, E None where no sign
        survives the slot moduli.  C, w and E broadcast over a batch.
        """
        if self._rows is None:
            K, d, pos = self.K, len(self.indices), self.pos
            ring = SlotRing(K, d)
            dt = ring.dtype
            C = np.zeros((d, d, K.rank), dtype=dt)
            # w_j, or d + 2 where the weight is no such integer
            ints = {K.smul(n, K.one()): n for n in (2, -2, -1, 1)}
            sigma, w = np.arange(d), np.zeros(d, dtype=dt)
            for j, row in self.contract.items():
                for k, f in row:
                    if not K.is_zero(f):
                        sigma[pos[j]], w[pos[j]], C[pos[j], pos[k]] = pos[k], ints.get(f, d + 2), f
            if (np.count_nonzero(C.any(axis=2), axis=1) <= 1).all() and np.abs(w).sum() <= d + 1:
                C = None
            tau, sign = np.arange(d), np.ones((d, d, 1, 1), dtype=dt)
            for (i, j), ((i2, j2), negate) in self.invol.items():
                tau[pos[j2]], tau[pos[i2]] = pos[i], pos[j]
                sign[pos[i], pos[j]] = -1 if negate else 1
            assert all(tau[pos[j2]] == pos[i] and tau[pos[i2]] == pos[j]
                       for (i, j), ((i2, j2), _) in self.invol.items())
            tau = _as_slice(tau)
            E = np.swapaxes(sign[tau][:, tau], 0, 1)
            self._rows = SimpleNamespace(
                ring=ring, dtype=dt, C=None if C is None else C[..., None],
                sigma=_as_slice(sigma), tau=tau,
                w=None if C is not None or (w == 1).all() else w[:, None, None, None],
                E=None if (E == 1).all() or np.all(ring.m == 2) else E)
        return self._rows

    # With raw set these return their sums unreduced (see
    # coeff_ring.batch_dtype), for sums that reduce once; every factor is
    # reduced, up to the signs of a raw conj.
    def mul_rows(self, X, Y, raw=False):
        """The products of two (d, d, rk, N) batches, entry by entry: X C Y."""
        t = self.row_tables()
        if t.C is not None:
            X = t.ring.reduce(t.ring.matmul_raw(X, t.C))
        else:
            Y = Y[t.sigma] if t.w is None else Y[t.sigma] * t.w
        XY = t.ring.matmul_raw(X, Y)
        return XY if raw else t.ring.reduce(XY)

    def conj_rows(self, X, raw=False):
        """The involution of a batch: a view of X where no sign is -1."""
        t = self.row_tables()
        V = np.swapaxes(X[t.tau][:, t.tau], 0, 1)
        if t.E is None:
            return V
        return V * t.E if raw else t.ring.reduce(V * t.E)

    def kmul_rows(self, k, X, raw=False):
        """k X for an (rk, N) row of K elements k."""
        t = self.row_tables()
        kX = t.ring.contract_raw(lambda a, b: k[a] * X[..., b, :])
        return kX if raw else t.ring.reduce(kX)

    def reduce_rows(self, X):
        return self.row_tables().ring.reduce(X)

    def umul_rows(self, X, A, k, bar=False):
        """X (A + k) for A + k in the unitalization, or with bar set
        (conj A + k) X."""
        XA = (self.mul_rows(self.conj_rows(A, raw=True), X, raw=True) if bar
              else self.mul_rows(X, A, raw=True))
        return self.reduce_rows(XA + self.kmul_rows(k, X, raw=True))

    def span_map(self, els):
        """The SparseMap of x -> sum_r x_r els[r], from int rows x (len(els),
        N) to flat (d * d * rk, N) batches, each entry lifted to
        (-m/2, m/2]."""
        m = np.array(self.K.moduli, dtype=np.int64)[:, None]
        A = self.to_array(els)
        return SparseMap(np.moveaxis(np.where(A > m // 2, A - m, A), -1, 0).reshape(
            len(els), m.size * len(self.indices) ** 2), self.row_tables().dtype)

    def term(self, key):
        return "e(%d,%d)" % key

    def e(self, i, j, v=None):
        return self.el({(i, j): self.K.one() if v is None else v})

    def mul(self, a, b):
        K = self.K
        one = K.one()
        rows = {}
        for (k, l), v in b.c.items():
            rows.setdefault(k, []).append((l, v))
        c = {}
        for (i, j), u in a.c.items():
            for k, f in self.contract[j]:
                hits = rows.get(k)
                if not hits:
                    continue
                uf = u if f == one else K.mul(u, f)
                for l, v in hits:
                    w = K.mul(uf, v)
                    if K.is_zero(w):
                        continue
                    key = (i, l)
                    t = K.add(c.get(key, K.zero()), w)
                    if K.is_zero(t):
                        c.pop(key, None)
                    else:
                        c[key] = t
        return El(self, c)

    def conj(self, a):
        K = self.K
        invol = self.invol
        c = {}
        for key, v in a.c.items():
            key2, negate = invol[key]
            c[key2] = K.neg(v) if negate else v
        return El(self, c)

    def unit(self):
        """Multiplicative unit, when the preset has one."""
        coeffs = {(i, i): self.K.one() for i in self.indices if i != 0}
        if 0 in self.indices:
            half = self.K.try_invert(self.K.from_int(2))
            if half is None:
                raise StructureError("no unit: 2 is not invertible in %s" % self.K.name)
            coeffs[(0, 0)] = half
        return self.el(coeffs)

    def card(self):
        return self.K.card ** self.rank

    def elements(self):
        if self.card() > _ENUM_CAP:
            raise CapacityError("algebra enumeration over %d elements" % self.card())
        for vec in itertools.product(self.K.elements(), repeat=self.rank):
            yield self.from_coords(vec)

    def sample(self, rng):
        if self.kind == "canon":
            # the tensor square draws one element index per pair
            kel = list(self.K.elements())
            return self.from_coords([kel[rng.randrange(len(kel))] for _ in self.pairs])
        vec = [tuple(rng.randrange(m) for m in self.K.moduli) for _ in range(self.rank)]
        return self.from_coords(vec)

    def __repr__(self):
        return "<alg %s>" % self.tag


def _preset(kind, idx, pairs, K):
    """Contract through each index (doubling through 0) and conjugate
    e(i, j) to eps(i) eps(j) e(-j, -i)."""
    one, two = K.one(), K.from_int(2)
    contract = {j: ((j, two if j == 0 else one),) for j in idx}
    flip = kind == "symp"
    invol = {(i, j): ((-j, -i), flip and i * j < 0) for (i, j) in pairs}
    return SplitAlgebra(kind, idx, pairs, K, contract, invol,
                        "%s:%d:%s" % (kind, len(idx), K.name))


def ofalin(n, K):
    """Linear preset of block size n: two opposite blocks, swapped by conj."""
    if n < 0:
        raise StructureError("ofalin needs n >= 0")
    if n > _N_CAP:
        raise CapacityError("ofalin size %d over cap %d" % (n, _N_CAP))
    idx = list(range(-n, 0)) + list(range(1, n + 1))
    pairs = [(i, j) for i in idx for j in idx if i * j > 0]
    return _preset("lin", idx, pairs, K)


def ofasymp(r, K):
    """Symplectic preset of even rank r."""
    if r < 0 or r % 2:
        raise StructureError("ofasymp needs even rank >= 0")
    n = r // 2
    if n > _N_CAP:
        raise CapacityError("ofasymp size %d over cap %d" % (r, 2 * _N_CAP))
    idx = list(range(-n, 0)) + list(range(1, n + 1))
    pairs = [(i, j) for i in idx for j in idx]
    return _preset("symp", idx, pairs, K)


def ofaorth(r, K):
    """Orthogonal preset of rank r; odd rank keeps the doubled index 0."""
    if r < 0:
        raise StructureError("ofaorth needs rank >= 0")
    n = r // 2
    if r % 2:
        if r > 9:
            raise CapacityError("ofaorth odd rank %d over cap 9" % r)
        idx = list(range(-n, n + 1))
    else:
        if n > _N_CAP:
            raise CapacityError("ofaorth size %d over cap %d" % (r, 2 * _N_CAP))
        idx = list(range(-n, 0)) + list(range(1, n + 1))
    pairs = [(i, j) for i in idx for j in idx]
    return _preset("orth", idx, pairs, K)


def _map_rows(alg, f):
    """Coordinate matrix of the K-linear map f, columns over the basis."""
    K = alg.K
    rows = [[K.zero()] * alg.rank for _ in range(alg.rank)]
    for t, (i, j) in enumerate(alg.pairs):
        for s, v in enumerate(alg.coords(f(alg.e(i, j)))):
            rows[s][t] = v
    return rows


def _commutator_rows(alg):
    """Stacked matrices of p -> pb - bp, one block per basis element b."""
    M = []
    for (i, j) in alg.pairs:
        b = alg.e(i, j)
        M.extend(_map_rows(alg, lambda p: alg.sub(alg.mul(p, b), alg.mul(b, p))))
    return M


def _kernel_span(alg, M):
    out = []
    for vec in k_nullspace(alg.K, M, alg.rank):
        x = alg.from_coords(vec)
        if x:
            out.append(x)
    return out


def center(alg):
    """Spanning set of {x : xb = bx for all b}, by exact linear solve."""
    return _kernel_span(alg, _commutator_rows(alg))


def hermitian_center(alg):
    """Spanning set of the involution-fixed part of the center."""
    M = _commutator_rows(alg) + _map_rows(alg, lambda p: alg.sub(p, alg.conj(p)))
    return _kernel_span(alg, M)


class UnitalEl:
    """Element body + scalar of the unitalization R + K."""

    __slots__ = ("body", "scalar", "key")

    def __init__(self, body, scalar):
        self.body = body
        self.scalar = scalar
        self.key = (body.key, scalar)

    def __eq__(self, other):
        return isinstance(other, UnitalEl) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __mul__(self, other):
        return unital_mul(self, other)

    def bar(self):
        return unital_involution(self)

    def __repr__(self):
        return "(%r) + %s" % (self.body, self.scalar)


def unital(body, scalar=None):
    if scalar is None:
        scalar = body.alg.K.zero()
    return UnitalEl(body, scalar)


def unital_one(alg):
    return UnitalEl(alg.zero(), alg.K.one())


def unital_mul(a, b):
    alg = a.body.alg
    body = alg.add(
        alg.mul(a.body, b.body),
        alg.add(alg.kmul(b.scalar, a.body), alg.kmul(a.scalar, b.body)),
    )
    return UnitalEl(body, alg.K.mul(a.scalar, b.scalar))


def unital_involution(a):
    return UnitalEl(a.body.alg.conj(a.body), a.scalar)


class ParamTable:
    """An odd form parameter over a SplitAlgebra, in coordinates.

    Elements are pairs (p, r) under Petrov's law (Odd unitary groups,
    2005):

        (p, r) + (p', r') = (p + p', r - p~ p' + r')
        -(p, r) = (-p, r~)
        phi(a) = (0, a - a~)
        (p, r) . (a + k) = (p a + k p, (a~ + k) r (a + k))

    with ~ the involution and a + k in the unitalization.  The table
    names an element by a tuple over K: the coefficients of p at
    ``pi_pos`` (every pair of the algebra), then one coefficient c_k per
    augmentation coordinate, whose basis element b_k is read at pos_k,
    where b_k is +-1 and every other b_j is zero.  The element's pair is
    (p, residue(p) + sum c_k b_k).  The read takes p's coefficients,
    s = r - residue(p), c_k = b_k[pos_k] s[pos_k], and the pair is a
    member exactly when s = sum c_k b_k.

    Coordinate rows are (dim, rk, N) int arrays and pairs two
    (d, d, rk, N) arrays in the algebra's layout.  pair_add, pair_neg,
    pair_phi and pair_act are the law on pairs, to_pair_rows and
    read_rows (the coordinates and the member mask) go between the two,
    and add_rows, neg_rows, phi_rows and act_rows compose them.  The
    subclass gives the residue in one hook only, residue_rows: the
    residue on a batch, up to reduction, within the bounds of
    coeff_ring.batch_dtype.  to_pair, read, add, neg, phi and act take
    single elements (a coordinate tuple over K, or El pairs for read) as
    one-row batches of the same law; a law whose pair leaves the table
    raises AssertionError.
    """

    def __init__(self, alg, pi_pos, aug):
        assert sorted(pi_pos) == sorted(alg.pairs)
        self.alg = alg
        self.pi_pos = tuple(pi_pos)
        self.aug = tuple((pos, b.coeff(*pos), b) for pos, b in aug)
        self.dim = len(self.pi_pos) + len(self.aug)
        self._rows = None

    def card(self):
        return self.alg.K.card ** self.dim

    def zero(self):
        return (self.alg.K.zero(),) * self.dim

    def elements(self):
        if self.card() > _ENUM_CAP:
            raise CapacityError("parameter enumeration over %d elements" % self.card())
        return itertools.product(self.alg.K.elements(), repeat=self.dim)

    def sample(self, rng):
        """One randrange per basis slot of each coordinate, in order."""
        mods = self.alg.K.moduli
        return tuple(tuple(rng.randrange(m) for m in mods) for _ in range(self.dim))

    # single elements are one-row batches of the law below
    def _row(self, x):
        """The pair of the coordinates x, as two batches of one."""
        return self.to_pair_rows(
            np.array(x, dtype=np.int64).reshape(self.dim, self.alg.K.rank, 1))

    def _pair(self, p, r):
        """The pair (p, r) of algebra elements as two batches of one."""
        A = self.alg.to_array([p, r])
        return A[..., :1], A[..., 1:]

    def _read(self, P, R):
        c, ok = self.read_rows(P, R)
        return tuple(map(tuple, c[..., 0].tolist())) if ok[0] else None

    def _law(self, u):
        """The coordinates of the one-entry pair u that the law gave."""
        out = self._read(*u)
        if out is None:
            raise AssertionError("the pair law left the table: %r"
                                 % (tuple(self.alg.from_array(np.concatenate(u, axis=-1))),))
        return out

    def to_pair(self, x):
        """(pi(x), rho(x)) of the coordinates x."""
        return tuple(self.alg.from_array(np.concatenate(self._row(x), axis=-1)))

    def read(self, p, r):
        """Coordinates of the pair (p, r); None if it is not a member."""
        return self._read(*self._pair(p, r))

    def add(self, x, y):
        return self._law(self.pair_add(self._row(x), self._row(y)))

    def neg(self, x):
        return self._law(self.pair_neg(self._row(x)))

    def phi(self, a):
        return self._law(self.pair_phi(self.alg.to_array([a])))

    def act(self, x, a, k):
        """Right action of a + k from the unitalized algebra."""
        return self._law(self.pair_act(self._row(x), self.alg.to_array([a]),
                                       np.array(k, dtype=np.int64)[:, None]))

    def row_tables(self):
        """The flat layout positions of the pi coordinates and of each
        pos_k, the read signs b_k[pos_k] = +-1 (a KeyError on any other
        weight), and the span c -> sum c_k b_k as a SparseMap."""
        if self._rows is None:
            alg, K = self.alg, self.alg.K
            d = len(alg.indices)

            def flat(keys):
                return np.array([alg.pos[i] * d + alg.pos[j] for i, j in keys], dtype=np.int64)

            sign = np.array([{K.neg(K.one()): -1, K.one(): 1}[u] for _, u, _ in self.aug],
                            dtype=alg.row_tables().dtype)[:, None, None]
            span = alg.span_map([alg.kmul(e, b) for _, _, b in self.aug for e in _basis(K)])
            self._rows = (flat(self.pi_pos), flat(pos for pos, _, _ in self.aug), sign, span)
        return self._rows

    def to_pair_rows(self, X):
        """The pairs of a batch of coordinate rows."""
        pi, _, _, span = self.row_tables()
        N, d, rk = X.shape[-1], len(self.alg.indices), self.alg.K.rank
        P = np.zeros((d * d, rk, N), dtype=X.dtype)
        P[pi] = X[:len(pi)]
        P = P.reshape(d, d, rk, N)
        S = span(X[len(pi):].reshape(len(self.aug) * rk, N)).reshape(P.shape)
        return P, self.alg.reduce_rows(self.residue_rows(P) + S)

    def read_rows(self, P, R):
        """Coordinates of a batch of pairs and the mask of its members;
        the coordinates of a non-member row mean nothing."""
        alg = self.alg
        pi, pos, sign, span = self.row_tables()
        N, rk, dd = P.shape[-1], alg.K.rank, len(alg.indices) ** 2
        s = alg.reduce_rows(R - self.residue_rows(P)).reshape(dd, rk, N)
        c = alg.reduce_rows(s[pos] * sign)
        ok = (alg.reduce_rows(span(c.reshape(len(pos) * rk, N)).reshape(s.shape)) == s).all(
            axis=(0, 1))
        return np.concatenate([P.reshape(dd, rk, N)[pi], c]), ok

    # the pair law on (P, R) batches, reduced
    def pair_add(self, u, v):
        alg = self.alg
        (P, R), (P2, R2) = u, v
        return alg.reduce_rows(P + P2), alg.reduce_rows(
            R - alg.mul_rows(alg.conj_rows(P, raw=True), P2, raw=True) + R2)

    def pair_neg(self, u):
        return self.alg.reduce_rows(-u[0]), self.alg.conj_rows(u[1])

    def pair_phi(self, A):
        return np.zeros_like(A), self.alg.reduce_rows(A - self.alg.conj_rows(A, raw=True))

    def pair_act(self, u, A, k):
        """u . (A + k): A a (d, d, rk, N) batch, k an (rk, N) K row."""
        alg = self.alg
        return alg.umul_rows(u[0], A, k), alg.umul_rows(alg.umul_rows(u[1], A, k, bar=True), A, k)

    def add_rows(self, X, Y):
        return self.read_rows(*self.pair_add(self.to_pair_rows(X), self.to_pair_rows(Y)))

    def neg_rows(self, X):
        return self.read_rows(*self.pair_neg(self.to_pair_rows(X)))

    def phi_rows(self, A):
        return self.read_rows(*self.pair_phi(A))

    def act_rows(self, X, A, k):
        return self.read_rows(*self.pair_act(self.to_pair_rows(X), A, k))


def rep_odd(alg, a):
    """Matrix image of the odd orthogonal preset, doubling column 0.

    A ring map into the full matrix ring; its kernel is the elements
    supported on column 0 with every entry in K[2] = {k : 2k = 0}.
    """
    assert alg.kind == "orth" and 0 in alg.indices
    K = alg.K
    idx = sorted(alg.indices)
    pos = {i: t for t, i in enumerate(idx)}
    M = [[K.zero()] * len(idx) for _ in idx]
    for (i, j), v in a.c.items():
        M[pos[i]][pos[j]] = K.smul(2, v) if j == 0 else v
    return tuple(tuple(row) for row in M)


def rep_odd_kernel(alg):
    """Spanning set of the kernel of rep_odd: t*e(i, 0) for every index i
    and every generator t of K[2]."""
    assert alg.kind == "orth" and 0 in alg.indices
    K = alg.K
    gens = [vec[0] for vec in k_nullspace(K, [[K.from_int(2)]], 1)
            if not K.is_zero(vec[0])]
    return [alg.e(i, 0, t) for i in sorted(alg.indices) for t in gens]


def x_central(alg, k):
    """Central element k*e(0,0) + 2k*sum of the other diagonal units."""
    assert alg.kind == "orth" and 0 in alg.indices
    K = alg.K
    coeffs = {(0, 0): k}
    for i in alg.indices:
        if i != 0:
            coeffs[(i, i)] = K.smul(2, k)
    return alg.el(coeffs)


class JsonRows:
    """The JSON list of each row of V, an (N, S, rk) array of reduced
    coordinates: entry(s, c) over the row's nonzero slots s, c the slot's
    element as a coordinate list.  Each (slot, element) pair that occurs,
    coded as s * K.card plus the element's index in K.elements(), has its
    entry built and encoded by json.dumps(entry, sort_keys=True, indent=2)
    once.  objects() gives the rows as lists that share the table's
    entries, and texts(depth) as text, each entry indented once for its
    place in a list at the depth."""

    def __init__(self, K, V, entry):
        idx = np.ravel_multi_index(np.moveaxis(V, -1, 0), K.moduli)
        nz = idx != 0
        codes, inv = np.unique((idx + np.arange(idx.shape[1]) * K.card)[nz], return_inverse=True)
        slots, els = np.divmod(codes, K.card)
        coords = np.stack(np.unravel_index(els, K.moduli), axis=-1).tolist()
        self.table = [entry(s, c) for s, c in zip(slots.tolist(), coords)]
        self.items = [json.dumps(e, sort_keys=True, indent=2) for e in self.table]
        ends = np.cumsum(nz.sum(axis=1)).tolist()
        self.flat, self.spans = inv.tolist(), ([0] + ends, ends)

    def objects(self):
        flat = list(map(self.table.__getitem__, self.flat))
        return [flat[a:b] for a, b in zip(*self.spans)]

    def texts(self, depth):
        pad, flat = "\n" + "  " * (depth + 1), self.flat
        items = [item.replace("\n", pad) for item in self.items]
        return ("[" + pad + ("," + pad).join(map(items.__getitem__, flat[a:b])) + pad[:-2] + "]"
                if b > a else "[]" for a, b in zip(*self.spans))


class JsonDicts:
    """The JSON object of each row, from fields (key -> JsonRows or
    JsonDicts over the same rows), in the fields' order as objects() and
    with sorted keys as texts(depth).  parts(depth), the text of the list
    of every row, is what cli._parts splices into a report."""

    def __init__(self, fields):
        self.fields = fields

    def objects(self):
        return [dict(zip(self.fields, row))
                for row in zip(*(f.objects() for f in self.fields.values()))]

    def texts(self, depth):
        pad, keys = "\n" + "  " * depth, sorted(self.fields)
        form = "{" + ",".join(pad + '  "%s": %%s' % k for k in keys) + pad + "}"
        return map(form.__mod__, zip(*(self.fields[k].texts(depth + 1) for k in keys)))

    def parts(self, depth):
        sep, texts = ",\n" + "  " * (depth + 1), self.texts(depth + 1)
        first = next(texts, None)
        if first is None:
            return iter(["[]"])
        return itertools.chain(["[" + sep[1:] + first], map(sep.__add__, texts), [sep[1:-2] + "]"])


def alg_rows_to_json(alg, A):
    """The JsonRows of A, an (N, d, d, rk) array of reduced entries stored
    batch first (a group array): the nonzero coefficients on alg.pairs."""
    pairs = alg.pairs
    return JsonRows(alg.K, A[:, alg.apos[:, 0], alg.apos[:, 1]],
                    lambda s, c: {"i": pairs[s][0], "j": pairs[s][1], "c": c})


def alg_el_to_json(a):
    """The JSON form of one element: a one-row call of alg_rows_to_json."""
    return alg_rows_to_json(a.alg, np.moveaxis(a.alg.to_array([a]), -1, 0)).objects()[0]


def alg_el_from_json(alg, data):
    return alg.el({(int(d["i"]), int(d["j"])): tuple(int(x) for x in d["c"])
                   for d in data})

