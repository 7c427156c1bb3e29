"""Vectorized (pi, rho) arithmetic: the one engine for Delta checks.

Ring multiplication is SlotRing.contract, the contraction of K's
structure tensor, which the Clifford spin scan shares.  A sum of
contractions is taken unreduced and reduced once, by SlotRing.reduce.
A batch of N algebra elements is an array (N, d, d, rk) in the algebra's
layout (SplitAlgebra.to_array) and in the narrowest signed dtype that
holds those sums (coeff_ring.batch_dtype); a Delta batch is the pair of
its pi and rho arrays.  Every involution sign is read off alg.invol.
Element equality in Delta is pair equality, which is what the
coordinate read makes faithful, so every axiom in the shared table
becomes an array identity, and specialness becomes a batch read-back.

The factor layouts of the axiom table (slot_sizes, herm_slots) live here,
beside materialize, which builds factors from rows of slot indices, and
decode_factor, which reads one row back for a failure witness.
"""

import itertools

import numpy as np

from .coeff_ring import SlotRing, StructureError
from .form_ring import UnitalEl


def herm_slots(alg):
    """Slot layout for the involution-fixed elements of the algebra.

    Strict representative pairs carry a free coefficient, mirrored with
    the involution's sign; a self-paired slot is free, unless the
    involution negates it, where it ranges over the 2-torsion of K.
    """
    K = alg.K
    slots = []
    for (i, j) in alg.pairs:
        mir, negate = alg.invol[(i, j)]
        if (i, j) < mir:
            slots.append(("rep", i, j, K.card))
        elif (i, j) == mir:
            slots.append(("tors", i, j, len(_torsion_list(K))) if negate
                         else ("free", i, j, K.card))
    return slots


def _torsion_list(K):
    """The k with 2k = 0, in K.elements() order.  Scalar multiples act
    slot by slot, so each slot is 0 or, for an even modulus m, m / 2."""
    return list(itertools.product(*[(0, m // 2) if m % 2 == 0 else (0,)
                                    for m in K.moduli]))


def slot_sizes(shape, kind):
    """The size of each slot of one factor of the given kind: delta, alg,
    ualg (body + scalar), scalar, aug or herm."""
    card = shape.alg.K.card
    if kind == "delta":
        return [card] * shape.dim
    if kind == "alg":
        return [card] * len(shape.alg.pairs)
    if kind == "ualg":
        return [card] * (len(shape.alg.pairs) + 1)
    if kind == "scalar":
        return [card]
    if kind == "aug":
        return [card] * len(shape.aug)
    if kind == "herm":
        return [s[3] for s in herm_slots(shape.alg)]
    raise StructureError("unknown factor kind %r" % kind)


class BatchOps:
    def __init__(self, shape):
        alg = shape.alg
        K = alg.K
        idx = list(alg.indices)
        self.d = len(idx)
        ring = SlotRing(K, self.d)
        # every array built here is in this dtype, so that no op widens
        # the batches it takes
        dt = self.dtype = ring.dtype
        self.shape = shape
        self.alg = alg
        self.K = K
        self.ring = ring
        self.m = ring.m
        self.rk = ring.rk
        self.pos = alg.pos
        self.pos0 = self.pos.get(0)
        self.reduce = ring.reduce
        # bar X at (p, q) reads X at (d-1-q, d-1-p), as conj e(i, j) is
        # +-e(-j, -i) and pos[-i] = d-1-pos[i].  E is -1 at each (i, j)
        # that alg.invol negates, read through X's reversed transpose so
        # that the product runs in X's memory order; none survives mod 2
        E = np.ones((self.d, self.d), dtype=dt)
        for (i, j), (_, negate) in alg.invol.items():
            if negate:
                E[self.pos[i], self.pos[j]] = -1
        E = E[::-1, ::-1].T[None, :, :, None]
        self.E = None if (E == 1).all() or np.all(ring.m == 2) else E
        # dmul doubles row 0 of its right factor: c_0 = 2 in the product
        self.w0 = None
        if self.pos0 is not None:
            self.w0 = np.ones((1, self.d, 1, 1), dtype=dt)
            self.w0[0, self.pos0] = 2
        self.ktab = ring.ktab
        self.ttab = np.array(_torsion_list(K), dtype=dt).reshape(-1, self.rk)
        self.maskpos = np.array([1 if i > 0 else 0 for i in idx],
                                dtype=dt)[None, :, None, None]
        # (row, col) of each coordinate as the table reads it: the pi
        # positions, then the read position of each augmentation basis
        # element, flagged when that element is phi(e(i,j)) = e(i,j) -
        # conj e(i,j) rather than e(i,j) alone
        self.ppos = np.array([(self.pos[i], self.pos[j]) for (i, j) in shape.pi_pos],
                             dtype=np.int64).reshape(-1, 2)
        self.dpos = np.array([(self.pos[i], self.pos[j]) for (i, j), _, _ in shape.aug],
                             dtype=np.int64).reshape(-1, 2)
        self.dfree = np.array([b != alg.e(*pos) for pos, _, b in shape.aug], dtype=bool)
        self.apos = alg.apos
        # the weights of the row-0 correction of _fold, rows reversed
        self.uw = (np.triu(np.full((self.d, self.d), 2, dtype=dt), 1) + np.eye(
            self.d, dtype=dt))[None, ::-1, :, None]
        self.hslots = herm_slots(alg)
        self.onevec = np.array(K.one(), dtype=dt)

    # ring and matrix primitives, each one contraction of K's structure
    # tensor.  The underscored forms return it unreduced (see batch_dtype),
    # for sums that reduce once at the end; every factor is reduced, up to
    # the sign of _bar.  Public methods return reduced arrays.
    def _kscale(self, k, X):
        return self.ring.contract_raw(lambda a, b: k[:, a, None, None] * X[..., b])

    def _mul(self, X, Y):
        if self.w0 is not None:
            Y = Y * self.w0
        return self.ring.contract_raw(lambda a, b: np.matmul(X[..., a], Y[..., b]))

    def _bar(self, X):
        """bar X with entries in (-m, m): a view unless a sign is -1."""
        V = np.swapaxes(X[:, ::-1, ::-1], 1, 2)
        return V if self.E is None else V * self.E

    def kmul(self, x, y):
        return self.ring.contract(lambda a, b: x[:, a] * y[:, b])

    def kscale(self, k, X):
        return self.reduce(self._kscale(k, X))

    def dmul(self, X, Y):
        return self.reduce(self._mul(X, Y))

    def conj(self, X):
        return self._bar(X) if self.E is None else self.reduce(self._bar(X))

    def _fold(self, P):
        R0 = -self._mul(self._bar(P), P * self.maskpos)
        if self.pos0 is not None:
            kv = P[:, self.pos0]
            kr = kv[:, ::-1]
            M = self.ring.contract_raw(lambda a, b: kr[:, :, None, a] * kv[:, None, :, b])
            R0 -= M * self.uw
        return R0

    def fold_residue(self, P):
        return self.reduce(self._fold(P))

    def aug_part(self, P, R):
        """R minus the fold residue of P: the augmentation part of (P, R)."""
        return self.reduce(R - self._fold(P))

    def _zeros(self, n):
        return np.zeros((n, self.d, self.d, self.rk), dtype=self.dtype)

    def _kvals(self, idx):
        """The K-elements with indices idx, a trailing slot axis added."""
        return np.take(self.ktab, idx, axis=0)

    def _span(self, vals):
        """Augmentation element with basis coefficients vals (N, nd, rk),
        unreduced."""
        X, V = self._zeros(vals.shape[0]), self._zeros(vals.shape[0])
        f, v = self.dfree, ~self.dfree
        X[:, self.dpos[f, 0], self.dpos[f, 1]] = vals[:, f]
        V[:, self.dpos[v, 0], self.dpos[v, 1]] = vals[:, v]
        return X - self._bar(X) + V

    def read_aug_ok(self, S):
        """True where S lies in the span of the augmentation basis."""
        vals = S[:, self.dpos[:, 0], self.dpos[:, 1]]
        return (self.reduce(self._span(vals)) == S).all(axis=(1, 2, 3))

    def read(self, P, R):
        """The coordinates (N, dim, rk) of each pair (P, R), and where the
        pair lies in Delta: the batch form of member."""
        S = self.aug_part(P, R)
        got = np.concatenate([P[:, self.ppos[:, 0], self.ppos[:, 1]],
                              S[:, self.dpos[:, 0], self.dpos[:, 1]]], axis=1)
        return got, self.read_aug_ok(S)

    def read_back_ok(self, idx, P, R):
        """Rows of a delta batch whose (P, R) reads back to the coordinates
        idx it was materialized from."""
        got, ok = self.read(P, R)
        return ok & (got == self._kvals(idx)).all(axis=(1, 2))

    # factor materializers; idx is (N, nslots)
    def materialize(self, kind, idx):
        N = idx.shape[0]
        if kind == "delta":
            vals = self._kvals(idx)
            nq = self.ppos.shape[0]
            P = self._zeros(N)
            P[:, self.ppos[:, 0], self.ppos[:, 1]] = vals[:, :nq]
            return (P, self.reduce(self._fold(P) + self._span(vals[:, nq:])))
        if kind == "alg":
            A = self._zeros(N)
            A[:, self.apos[:, 0], self.apos[:, 1]] = self._kvals(idx)
            return A
        if kind == "ualg":
            return (self.materialize("alg", idx[:, :-1]), self._kvals(idx[:, -1]))
        if kind == "scalar":
            return self._kvals(idx[:, 0])
        if kind == "aug":
            return (self._zeros(N), self.reduce(self._span(self._kvals(idx))))
        if kind == "herm":
            A = self._zeros(N)
            for col, (stype, i, j, _) in enumerate(self.hslots):
                tab = self.ttab if stype == "tors" else self.ktab
                val = np.take(tab, idx[:, col], axis=0)
                A[:, self.pos[i], self.pos[j]] += val
                if stype == "rep":
                    (i2, j2), negate = self.alg.invol[(i, j)]
                    A[:, self.pos[i2], self.pos[j2]] += -val if negate else val
            return self.reduce(A)
        raise StructureError("unknown factor kind %r" % kind)

    # delta ops on (P, R) pairs
    def dadd(self, u, v):
        return (self.reduce(u[0] + v[0]),
                self.reduce(u[1] - self._mul(self._bar(u[0]), v[0]) + v[1]))

    def dneg(self, u):
        return (self.reduce(-u[0]), self.conj(u[1]))

    def dzero_like(self, u):
        return (np.zeros_like(u[0]), np.zeros_like(u[1]))

    def deq(self, u, v):
        return (u[0] == v[0]).all(axis=(1, 2, 3)) & (u[1] == v[1]).all(axis=(1, 2, 3))

    def dis0(self, u):
        return (u[0] == 0).all(axis=(1, 2, 3)) & (u[1] == 0).all(axis=(1, 2, 3))

    def daug(self, u):
        return (u[0] == 0).all(axis=(1, 2, 3)) & self.read_aug_ok(u[1])

    def phi(self, A):
        return (np.zeros_like(A), self.reduce(A - self._bar(A)))

    def pi(self, u):
        return u[0]

    def rho(self, u):
        return u[1]

    def act(self, u, al):
        P, R = u
        return (self.mul_right_ual(P, al), self.sandwich(al, R))

    def kact(self, k, v):
        return (v[0], self.kscale(k, v[1]))

    def both(self, a, b):
        return a & b

    # algebra ops
    def aadd(self, a, b):
        return self.reduce(a + b)

    def asub(self, a, b):
        return self.reduce(a - b)

    def aneg(self, a):
        return self.reduce(-a)

    def aeq(self, a, b):
        return (a == b).all(axis=(1, 2, 3))

    def ais0(self, a):
        return (a == 0).all(axis=(1, 2, 3))

    # unitalized ops
    def ual_add(self, al, be):
        return (self.reduce(al[0] + be[0]), self.reduce(al[1] + be[1]))

    def ualmul(self, al, be):
        body = self.reduce(self._mul(al[0], be[0]) + self._kscale(be[1], al[0])
                           + self._kscale(al[1], be[0]))
        return (body, self.kmul(al[1], be[1]))

    def scalar_ual(self, k):
        return (self._zeros(k.shape[0]), k)

    def _const_scalar(self, u, vec):
        n = u[0].shape[0]
        k = np.broadcast_to(self.reduce(np.asarray(vec, dtype=self.dtype)), (n, self.rk))
        return (self._zeros(n), np.ascontiguousarray(k))

    def ual_one_like(self, u):
        return self._const_scalar(u, self.onevec)

    def ual_zero_like(self, u):
        return self._const_scalar(u, np.zeros(self.rk, dtype=self.dtype))

    def ual_neg_one_like(self, u):
        return self._const_scalar(u, -self.onevec)

    def mul_right_ual(self, x, al):
        return self.reduce(self._mul(x, al[0]) + self._kscale(al[1], x))

    def sandwich(self, al, x):
        """bar(alpha) x alpha, as (bar A + k) x, then times A + k."""
        return self.twosided(al, al, x)

    def twosided(self, be, al, x):
        left = self.reduce(self._mul(self._bar(be[0]), x) + self._kscale(be[1], x))
        return self.mul_right_ual(left, al)

    def evaluate(self, kinds, fn, idxmat):
        facs = []
        off = 0
        for kind in kinds:
            w = len(slot_sizes(self.shape, kind))
            facs.append(self.materialize(kind, idxmat[:, off:off + w]))
            off += w
        res = np.asarray(fn(self, *facs))
        if res.ndim == 0:
            res = np.broadcast_to(res, (idxmat.shape[0],))
        if bool(res.all()):
            return True, None
        return False, int(np.argmax(~res))


def decode_factor(ops, kind, row):
    """The exact element behind one factor's row of slot indices,
    materialized by ops and read back: El for alg and herm, UnitalEl for
    ualg, and the coordinates for delta, aug and scalar."""
    idx = np.array([row], dtype=np.int64)
    if kind in ("alg", "herm"):
        return ops.alg.from_array(ops.materialize(kind, idx))[0]
    if kind == "ualg":
        A, k = ops.materialize(kind, idx)
        return UnitalEl(ops.alg.from_array(A)[0], tuple(k[0].tolist()))
    coords = tuple(map(tuple, ops.ktab[idx[0]].tolist()))
    if kind == "delta":
        return coords
    if kind == "scalar":
        return coords[0]
    if kind == "aug":
        return ops.shape.zero()[:len(ops.shape.pi_pos)] + coords
    raise StructureError("unknown factor kind %r" % kind)
