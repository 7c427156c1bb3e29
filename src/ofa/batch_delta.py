"""Vectorized (pi, rho) arithmetic: the one engine for Delta checks.

Ring multiplication is SlotRing.contract, the contraction of K's
structure tensor reduced by the additive modulus of each basis slot,
which the Clifford spin scan shares.  A batch of N algebra elements is an int64 array
(N, d, d, rk); a Delta batch is the pair of its pi and rho arrays.
Element equality in Delta is pair equality, which is what the
coordinate read makes faithful, so every axiom in the shared table
becomes an array identity, and specialness becomes a batch read-back.
"""

import numpy as np

from .coeff_ring import SlotRing, StructureError
from .odd_form_param import herm_slots, _torsion_list, slot_sizes


class BatchOps:
    def __init__(self, shape):
        alg = shape.alg
        K = alg.K
        ring = SlotRing(K)
        self.shape = shape
        self.alg = alg
        self.K = K
        self.ring = ring
        self.m = ring.m
        self.rk = ring.rk
        idx = list(alg.indices)
        self.d = len(idx)
        self.pos = {i: t for t, i in enumerate(idx)}
        self.pos0 = self.pos.get(0)
        E = np.ones((self.d, self.d), dtype=np.int64)
        if alg.kind == "symp":
            for i in idx:
                for j in idx:
                    if alg.eps(i) * alg.eps(j) < 0:
                        E[self.pos[i], self.pos[j]] = -1
        self.E = E
        self.ktab = ring.ktab
        self.ttab = np.array(_torsion_list(K), dtype=np.int64).reshape(-1, self.rk)
        self.maskpos = np.array([1 if i > 0 else 0 for i in idx], dtype=np.int64)
        # (row, col) of each coordinate: q/u slots of pi, then the
        # augmentation basis slots of rho, with a flag for phi(e(i,j))
        ppos = [(self.pos[i], self.pos[j]) for (i, j) in shape.q_pairs]
        ppos += [(self.pos0, self.pos[i]) for i in shape.u_idx]
        self.ppos = np.array(ppos, dtype=np.int64).reshape(-1, 2)
        self.dpos = np.array(
            [(self.pos[k[1]], self.pos[k[2]]) if k[0] == "f"
             else (self.pos[-k[1]], self.pos[k[1]]) for k in shape.d_keys],
            dtype=np.int64).reshape(-1, 2)
        self.dfree = np.array([k[0] == "f" for k in shape.d_keys], dtype=bool)
        self.uw = np.triu(np.full((self.d, self.d), 2, dtype=np.int64), 1) + np.eye(
            self.d, dtype=np.int64)
        self.hslots = herm_slots(alg)
        self.onevec = np.array(K.one(), dtype=np.int64)

    # ring and matrix primitives, each one contraction of K's structure tensor
    def kmul(self, x, y):
        return self.ring.contract(lambda a, b: x[:, a] * y[:, b])

    def kscale(self, k, X):
        return self.ring.contract(lambda a, b: k[:, a, None, None] * X[..., b])

    def dmul(self, X, Y):
        if self.pos0 is not None:
            Y = Y.copy()
            Y[:, self.pos0] = (2 * Y[:, self.pos0]) % self.m
        return self.ring.contract(lambda a, b: np.matmul(X[..., a], Y[..., b]))

    def conj(self, X):
        Z = (X * self.E[None, :, :, None]) % self.m
        return np.ascontiguousarray(np.swapaxes(Z[:, ::-1, ::-1, :], 1, 2))

    def fold_residue(self, P):
        DP = P * self.maskpos[None, :, None, None]
        R0 = (-self.dmul(self.conj(P), DP)) % self.m
        if self.pos0 is not None:
            kv = P[:, self.pos0]
            M = self.ring.contract(lambda a, b: kv[:, :, None, a] * kv[:, None, :, b])
            corr = (M * self.uw[None, :, :, None]) % self.m
            R0 = (R0 - corr[:, ::-1]) % self.m
        return R0

    def _zeros(self, n):
        return np.zeros((n, self.d, self.d, self.rk), dtype=np.int64)

    def _span(self, vals):
        """Augmentation element with basis coefficients vals (N, nd, rk)."""
        X, V = self._zeros(vals.shape[0]), self._zeros(vals.shape[0])
        f, v = self.dfree, ~self.dfree
        X[:, self.dpos[f, 0], self.dpos[f, 1]] = vals[:, f]
        V[:, self.dpos[v, 0], self.dpos[v, 1]] = vals[:, v]
        return (X - self.conj(X) + V) % self.m

    def read_aug_ok(self, S):
        """True where S lies in the span of the augmentation basis."""
        vals = S[:, self.dpos[:, 0], self.dpos[:, 1]]
        return (self._span(vals) == S).all(axis=(1, 2, 3))

    def read_back_ok(self, idx, P, R):
        """Rows of a delta batch whose (P, R) reads back to the coordinates
        idx it was materialized from: the batch form of member."""
        S = (R - self.fold_residue(P)) % self.m
        got = np.concatenate([P[:, self.ppos[:, 0], self.ppos[:, 1]],
                              S[:, self.dpos[:, 0], self.dpos[:, 1]]], axis=1)
        return self.read_aug_ok(S) & (got == self.ktab[idx]).all(axis=(1, 2))

    # factor materializers; idx is (N, nslots)
    def materialize(self, kind, idx):
        N = idx.shape[0]
        if kind == "delta":
            vals = self.ktab[idx]
            nq = self.ppos.shape[0]
            P = self._zeros(N)
            P[:, self.ppos[:, 0], self.ppos[:, 1]] = vals[:, :nq]
            return (P, (self.fold_residue(P) + self._span(vals[:, nq:])) % self.m)
        if kind == "alg":
            A = self._zeros(N)
            for col, (i, j) in enumerate(self.alg.pairs):
                A[:, self.pos[i], self.pos[j]] = self.ktab[idx[:, col]]
            return A
        if kind == "ualg":
            return (self.materialize("alg", idx[:, :-1]), self.ktab[idx[:, -1]])
        if kind == "scalar":
            return self.ktab[idx[:, 0]]
        if kind == "aug":
            return (self._zeros(N), self._span(self.ktab[idx]))
        if kind == "herm":
            A = self._zeros(N)
            for col, (stype, i, j, _) in enumerate(self.hslots):
                val = (self.ttab if stype == "tors" else self.ktab)[idx[:, col]]
                A[:, self.pos[i], self.pos[j]] = (
                    A[:, self.pos[i], self.pos[j]] + val) % self.m
                if stype == "rep":
                    sgn = 1 if self.alg.eps(i) * self.alg.eps(j) > 0 else -1
                    a, b = self.pos[-j], self.pos[-i]
                    A[:, a, b] = (A[:, a, b] + sgn * val) % self.m
            return A
        raise StructureError("unknown factor kind %r" % kind)

    # delta ops on (P, R) pairs
    def dadd(self, u, v):
        P = (u[0] + v[0]) % self.m
        R = (u[1] - self.dmul(self.conj(u[0]), v[0]) + v[1]) % self.m
        return (P, R)

    def dneg(self, u):
        return ((-u[0]) % self.m, self.conj(u[1]))

    def dzero_like(self, u):
        return (np.zeros_like(u[0]), np.zeros_like(u[1]))

    def deq(self, u, v):
        return (u[0] == v[0]).all(axis=(1, 2, 3)) & (u[1] == v[1]).all(axis=(1, 2, 3))

    def dis0(self, u):
        return (u[0] == 0).all(axis=(1, 2, 3)) & (u[1] == 0).all(axis=(1, 2, 3))

    def daug(self, u):
        return (u[0] == 0).all(axis=(1, 2, 3)) & self.read_aug_ok(u[1])

    def phi(self, A):
        return (np.zeros_like(A), (A - self.conj(A)) % self.m)

    def pi(self, u):
        return u[0]

    def rho(self, u):
        return u[1]

    def act(self, u, al):
        A, k = al
        P, R = u
        P2 = (self.dmul(P, A) + self.kscale(k, P)) % self.m
        left = self.dmul(self.conj(A), R)
        R2 = (self.dmul(left, A) + self.kscale(k, left)
              + self.kscale(k, self.dmul(R, A))
              + self.kscale(self.kmul(k, k), R)) % self.m
        return (P2, R2)

    def kact(self, k, v):
        return (v[0], self.kscale(k, v[1]))

    def both(self, a, b):
        return a & b

    # algebra ops
    def aadd(self, a, b):
        return (a + b) % self.m

    def asub(self, a, b):
        return (a - b) % self.m

    def aneg(self, a):
        return (-a) % self.m

    def abar(self, a):
        return self.conj(a)

    def amul(self, a, b):
        return self.dmul(a, b)

    def akmul(self, k, a):
        return self.kscale(k, a)

    def aeq(self, a, b):
        return (a == b).all(axis=(1, 2, 3))

    def ais0(self, a):
        return (a == 0).all(axis=(1, 2, 3))

    # unitalized ops
    def ual_add(self, al, be):
        return ((al[0] + be[0]) % self.m, (al[1] + be[1]) % self.m)

    def ualmul(self, al, be):
        body = (self.dmul(al[0], be[0]) + self.kscale(be[1], al[0])
                + self.kscale(al[1], be[0])) % self.m
        return (body, self.kmul(al[1], be[1]))

    def scalar_ual(self, k):
        return (self._zeros(k.shape[0]), k)

    def _const_scalar(self, u, vec):
        n = u[0].shape[0]
        k = np.broadcast_to(np.asarray(vec, dtype=np.int64) % self.m, (n, self.rk))
        return (self._zeros(n), np.ascontiguousarray(k))

    def ual_one_like(self, u):
        return self._const_scalar(u, self.onevec)

    def ual_zero_like(self, u):
        return self._const_scalar(u, np.zeros(self.rk, dtype=np.int64))

    def ual_neg_one_like(self, u):
        return self._const_scalar(u, (-self.onevec) % self.m)

    def mul_right_ual(self, x, al):
        return (self.dmul(x, al[0]) + self.kscale(al[1], x)) % self.m

    def sandwich(self, al, x):
        A, k = al
        left = self.dmul(self.conj(A), x)
        return (self.dmul(left, A) + self.kscale(k, left)
                + self.kscale(k, self.dmul(x, A))
                + self.kscale(self.kmul(k, k), x)) % self.m

    def twosided(self, be, al, x):
        left = (self.dmul(self.conj(be[0]), x) + self.kscale(be[1], x)) % self.m
        return (self.dmul(left, al[0]) + self.kscale(al[1], left)) % self.m

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
