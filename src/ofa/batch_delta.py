"""The axiom table's ops on batches, over the shared array law.

BatchOps names the ops that odd_form_param.AXIOMS calls, on batches of
one odd form parameter; each is a call into form_ring: SplitAlgebra's
product, involution and K scaling, and the table's pair law and read.
Every batch has its batch axis last: N algebra elements are a
(d, d, rk, N) array in the algebra's layout and dtype
(coeff_ring.batch_dtype), N scalars an (rk, N) K row, a parameter batch
the pair of its pi and rho arrays, and an axiom's index matrix
(nslots, N).  Element equality is pair
equality, which the coordinate read makes faithful, so every axiom
becomes an array identity, and specialness becomes a batch read-back.

The factor layouts of the axiom table (slot_sizes, herm_slots) live here,
beside materialize, which builds factors from rows of slot indices, and
decode_factor, which reads one row back for a failure witness.
"""

import itertools

import numpy as np

from .coeff_ring import StructureError, _slot_take
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
    """The axiom table's ops on batches of one odd form parameter, each a
    call into the array law of its algebra and table (form_ring)."""

    def __init__(self, shape):
        alg = shape.alg
        K = alg.K
        self.d = len(alg.indices)
        ring = alg.row_tables().ring
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
        self.ktab = ring.ktab
        self.ttab = np.array(_torsion_list(K), dtype=dt).reshape(-1, self.rk)
        self.hslots = herm_slots(alg)
        self.onevec = np.array(K.one(), dtype=dt)

    def kmul(self, x, y):
        return self.ring.contract(lambda a, b: x[a] * y[b])

    def kscale(self, k, X):
        return self.alg.kmul_rows(k, X)

    def dmul(self, X, Y):
        return self.alg.mul_rows(X, Y)

    def conj(self, X):
        return self.alg.conj_rows(X)

    def _zeros(self, n):
        return np.zeros((self.d, self.d, self.rk, n), dtype=self.dtype)

    def _kvals(self, idx):
        """The K-elements with indices idx (..., N), as (..., rk, N)."""
        return _slot_take(self.ktab, idx)

    def dread(self, P, R):
        """The coordinates and the member mask of each pair: member."""
        return self.shape.read_rows(P, R)

    def read_back_ok(self, idx, P, R):
        """Rows of a delta batch whose (P, R) reads back to the coordinates
        idx it was materialized from."""
        got, ok = self.dread(P, R)
        return ok & (got == self._kvals(idx)).all(axis=(0, 1))

    # factor materializers; idx is (nslots, N)
    def materialize(self, kind, idx):
        N = idx.shape[-1]
        if kind == "delta":
            return self.shape.to_pair_rows(self._kvals(idx))
        if kind == "alg":
            A = self._zeros(N)
            A[self.alg.apos[:, 0], self.alg.apos[:, 1]] = self._kvals(idx)
            return A
        if kind == "ualg":
            return (self.materialize("alg", idx[:-1]), self._kvals(idx[-1]))
        if kind == "scalar":
            return self._kvals(idx[0])
        if kind == "aug":
            # the delta factor whose pi coordinates are K.elements()[0] = 0
            return self.materialize("delta", np.pad(idx, ((len(self.shape.pi_pos), 0), (0, 0))))
        if kind == "herm":
            # each rep slot plus its conj, and the self-paired slots
            A, D = self._zeros(N), self._zeros(N)
            for col, (stype, i, j, _) in enumerate(self.hslots):
                (A if stype == "rep" else D)[self.pos[i], self.pos[j]] = _slot_take(
                    self.ttab if stype == "tors" else self.ktab, idx[col])
            return self.reduce(A + self.alg.conj_rows(A, raw=True) + D)
        raise StructureError("unknown factor kind %r" % kind)

    # delta ops on (P, R) pairs
    def dadd(self, u, v):
        return self.shape.pair_add(u, v)

    def dneg(self, u):
        return self.shape.pair_neg(u)

    def dzero_like(self, u):
        return (np.zeros_like(u[0]), np.zeros_like(u[1]))

    def deq(self, u, v):
        return (u[0] == v[0]).all(axis=(0, 1, 2)) & (u[1] == v[1]).all(axis=(0, 1, 2))

    def dis0(self, u):
        return (u[0] == 0).all(axis=(0, 1, 2)) & (u[1] == 0).all(axis=(0, 1, 2))

    def daug(self, u):
        return self.ais0(u[0]) & self.dread(*u)[1]

    def phi(self, A):
        return self.shape.pair_phi(A)

    def pi(self, u):
        return u[0]

    def rho(self, u):
        return u[1]

    def act(self, u, al):
        return self.shape.pair_act(u, *al)

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
        return (a == b).all(axis=(0, 1, 2))

    def ais0(self, a):
        return (a == 0).all(axis=(0, 1, 2))

    # unitalized ops
    def ual_add(self, al, be):
        return (self.reduce(al[0] + be[0]), self.reduce(al[1] + be[1]))

    def ualmul(self, al, be):
        """(A + k)(B + l) = A (B + l) + k B, plus kl."""
        return (self.aadd(self.alg.umul_rows(al[0], *be), self.kscale(al[1], be[0])),
                self.kmul(al[1], be[1]))

    def scalar_ual(self, k):
        return (self._zeros(k.shape[-1]), k)

    def _const_scalar(self, u, vec):
        n = u[0].shape[-1]
        k = np.broadcast_to(self.reduce(np.asarray(vec, dtype=self.dtype)[:, None]), (self.rk, n))
        return (self._zeros(n), np.ascontiguousarray(k))

    def ual_one_like(self, u):
        return self._const_scalar(u, self.onevec)

    def ual_zero_like(self, u):
        return self._const_scalar(u, np.zeros(self.rk, dtype=self.dtype))

    def ual_neg_one_like(self, u):
        return self._const_scalar(u, -self.onevec)

    def mul_right_ual(self, x, al):
        return self.alg.umul_rows(x, *al)

    def sandwich(self, al, x):
        """bar(alpha) x alpha."""
        return self.twosided(al, al, x)

    def twosided(self, be, al, x):
        return self.alg.umul_rows(self.alg.umul_rows(x, *be, bar=True), *al)

    def evaluate(self, kinds, fn, idxmat):
        facs = []
        off = 0
        for kind in kinds:
            w = len(slot_sizes(self.shape, kind))
            facs.append(self.materialize(kind, idxmat[off:off + w]))
            off += w
        res = np.broadcast_to(fn(self, *facs), (idxmat.shape[1],))
        return (True, None) if res.all() else (False, int(np.argmax(~res)))


def decode_factor(ops, kind, row):
    """The exact element behind one factor's row of slot indices,
    materialized by ops and read back: El for alg and herm, UnitalEl for
    ualg, and the coordinates for delta, aug and scalar."""
    idx = np.array(row, dtype=np.int64)[:, None]
    if kind in ("alg", "herm"):
        return ops.alg.from_array(ops.materialize(kind, idx))[0]
    if kind == "ualg":
        A, k = ops.materialize(kind, idx)
        return UnitalEl(ops.alg.from_array(A)[0], tuple(k[:, 0].tolist()))
    coords = tuple(map(tuple, ops.ktab[idx[:, 0]].tolist()))
    if kind == "delta":
        return coords
    if kind == "scalar":
        return coords[0]
    if kind == "aug":
        return ops.shape.zero()[:len(ops.shape.pi_pos)] + coords
    raise StructureError("unknown factor kind %r" % kind)
