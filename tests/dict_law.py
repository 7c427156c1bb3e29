"""The per-element pair law on El dicts: the reference for the array law.

form_ring.ParamTable runs single elements as one-row batches of its
array law.  The law here is the one it ran before, element by element
through El dict arithmetic, kept so that a comparison of rows against
elements reads an independent law: to_pair, read, add, neg, phi and act
on coordinate tuples, with Delta's fold residue and Theta's residue.

dict_law(T) is a copy of the table T whose methods run this law; the
table's other methods (CanonConstruction.box) then read through it too.
walk reads a seeded index matrix one sample at a time, so that a
per-element reference visits the elements a batched check draws, and
draw_reference is coeff_ring._draw's kernel on Python ints, one lane at
a time.
"""

import copy
import functools
import itertools

from ofa.coeff_ring import _draw
from ofa.form_ring import El
from ofa.odd_form_param import DeltaShape


def fold_residue(shape, p):
    """rho of the q/u monomial word of p, folded in coordinate order."""
    alg = shape.alg
    dplus = alg.el({(k, k): alg.K.one() for k in alg.indices if k > 0})
    base = alg.neg(alg.mul(alg.conj(p), alg.mul(dplus, p)))
    if shape.u_idx:
        K = alg.K
        ks = [(j, p.coeff(0, j)) for j in alg.indices]
        corr = {}
        for t, (j, kj) in enumerate(ks):
            if K.is_zero(kj):
                continue
            for jp, kjp in ks[t:]:
                w = K.mul(kj, kjp)
                if jp != j:
                    w = K.smul(2, w)
                if not K.is_zero(w):
                    slot = (-j, jp)
                    corr[slot] = K.add(corr.get(slot, K.zero()), w)
        base = alg.sub(base, alg.el(corr))
    return base


def theta_residue(C, p):
    """sum_t f_embed(t, t, canonical_l(m_t)) - sum_{t<s} conj(col_t) col_s."""
    S = C.S
    r = S.zero()
    cols = []
    for t in C.n_labels:
        m = {i: p.coeff(i, C.jslot(i, t)) for i in C.M.labels}
        col = C.col(m, t)
        for c in cols:
            r = S.sub(r, S.mul(S.conj(c), col))
        cols.append(col)
        r = S.add(r, C.f_embed(t, t, C.canonical_l(m)))
    return r


class DictLaw:
    """The per-element law, put before a table's own class."""

    def residue(self, p):
        """The residue of a test table that defines its own, else Delta's
        fold residue or Theta's."""
        own = getattr(super(), "residue", None)
        if own is not None:
            return own(p)
        return fold_residue(self, p) if isinstance(self, DeltaShape) else theta_residue(self, p)

    def _aug_el(self, cs):
        """sum c_k b_k."""
        K = self.alg.K
        acc = {}
        for c, (_, _, b) in zip(cs, self.aug):
            if not K.is_zero(c):
                for key, v in b.c.items():
                    acc[key] = K.add(acc.get(key, K.zero()), K.mul(c, v))
        return El(self.alg, {key: v for key, v in acc.items() if not K.is_zero(v)})

    def to_pair(self, x):
        """(pi(x), rho(x)) of the coordinates x."""
        alg = self.alg
        K = alg.K
        p = El(alg, {pos: c for pos, c in zip(self.pi_pos, x) if not K.is_zero(c)})
        return p, alg.add(self.residue(p), self._aug_el(x[len(self.pi_pos):]))

    def read(self, p, r):
        """Coordinates of the pair (p, r); None if it is not a member."""
        alg = self.alg
        K = alg.K
        s = alg.sub(r, self.residue(p))
        aug = tuple(K.mul(u, s.coeff(*pos)) for pos, u, _ in self.aug)
        if self._aug_el(aug) != s:
            return None
        return tuple(p.coeff(*pos) for pos in self.pi_pos) + aug

    # a pair u is (p, r) as it is, the form the table's box hands to _law
    def _pair(self, p, r):
        return p, r

    def _law(self, u):
        out = self.read(*u)
        if out is None:
            raise AssertionError("the pair law left the table: %r" % (u,))
        return out

    def add(self, x, y):
        alg = self.alg
        (p, r), (p2, r2) = self.to_pair(x), self.to_pair(y)
        return self._law((alg.add(p, p2), alg.add(alg.sub(r, alg.mul(alg.conj(p), p2)), r2)))

    def neg(self, x):
        p, r = self.to_pair(x)
        return self._law((self.alg.neg(p), self.alg.conj(r)))

    def phi(self, a):
        alg = self.alg
        return self._law((alg.zero(), alg.sub(a, alg.conj(a))))

    def act(self, x, a, k):
        """Right action of a + k from the unitalized algebra."""
        alg = self.alg
        p, r = self.to_pair(x)
        left = alg.add(alg.mul(alg.conj(a), r), alg.kmul(k, r))
        return self._law((alg.add(alg.mul(p, a), alg.kmul(k, p)),
                          alg.add(alg.mul(left, a), alg.kmul(k, left))))


@functools.lru_cache(maxsize=None)
def _dict_class(cls):
    return type("Dict" + cls.__name__, (DictLaw, cls), {})


def dict_law(T):
    """A copy of the table T that runs the per-element law."""
    ref = copy.copy(T)
    ref.__class__ = _dict_class(type(T))
    return ref


def walk(seed, sizes, count):
    """The columns of coeff_ring._draw(seed, sizes, count), one list of
    indices per sample, in order: the samples a batched check draws."""
    return _draw(seed, sizes, count).T.tolist()


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix(z):
    """SplitMix64's output mix of a 64-bit int."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def draw_reference(seed, sizes, count):
    """The rows coeff_ring._draw(seed, sizes, count) lists, and the number
    of lanes rejected on the way.  The key folds each 64-bit word of each
    seed int, low word first; counter c gives splitmix(key + c gamma); a
    run of equal sizes s reads lanes of w bits, low lane first, from the
    counters after the run before, a lane x giving (x s) >> w unless
    (x s) mod 2**w < 2**w mod s; the lanes left in the word that completes
    a run are dropped."""
    key = 0
    for s in seed if isinstance(seed, list) else [seed]:
        while True:
            key = splitmix((key + _GAMMA + (s & _M64)) & _M64)
            s >>= 64
            if not s:
                break
    rows, c, rejected = [], 0, 0
    for s, run in itertools.groupby(sizes):
        k = len(list(run))
        w = 8 if s * s <= 1 << 8 else 16 if s * s <= 1 << 16 else 32
        digits = []
        while len(digits) < k * count:
            word = splitmix((key + c * _GAMMA) & _M64)
            c += 1
            for j in range(64 // w):
                if len(digits) == k * count:
                    break
                m = (word >> j * w & (1 << w) - 1) * s
                if m & (1 << w) - 1 < (1 << w) % s:
                    rejected += 1
                else:
                    digits.append(m >> w)
        rows += [digits[i * count:(i + 1) * count] for i in range(k)]
    return rows, rejected
