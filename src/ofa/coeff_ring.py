"""Exact arithmetic for finite commutative coefficient rings.

Rings are described by immutable specs (Z/m, Galois fields, monic
polynomial quotients, finite products).  Elements are canonical
coordinate tuples over the spec's Z-basis: residues in [0, m) for each
basis slot, polynomial coordinates reduced below the modulus degree,
product coordinates concatenated.  All operations are exact.
"""

import itertools
import math

import numpy as np


class StructureError(Exception):
    """An input violates a structural precondition."""


class CapacityError(Exception):
    """An exhaustive computation would exceed desk scale."""


_INV_BRUTE_CAP = 1 << 16
_IDEM_CAP = 1 << 16
_FIELD_CHECK_CAP = 1 << 10
# The cap on the elements of rings read from outside input.  It bounds m^r
# for each component of a ring (slot modulus m, rank r; products stay
# inside a component), so m <= 2^20, and m <= 2^10 with r <= 20 when
# r >= 2.  The weight s of batch_dtype is then 1 at r = 1 and at most
# r^2 (m - 1) otherwise, so s (m - 1)^2 < 2^40 on every ring, and the bound
# there is below (d + 4) 2^40: int64 holds every batch with d < 2^22.
# int32 and int16 hold the bound when it is at most 2^31 - 1 and
# 2^15 - 1, which the tiny rings of the Delta sweeps meet in int16.
RING_CAP = 1 << 20


def batch_dtype(m, s, d):
    """The narrowest of int16, int32 and int64 that holds every unreduced
    sum of the batch law (form_ring) on d x d matrices over a ring whose
    largest slot modulus is m and whose structure tensor has slot weight
    s: the largest sum over (a, b) of S[a, b, c] on one slot c (1 at rank
    1, where SlotRing.contract_raw is the plain product).

    Proof of the bound.  Reduced entries lie in [0, M], M = m - 1, and a
    raw conj_rows, the only signed factor, in [-M, M].  So one contraction
    of two entries is at most c = s M^2 in absolute value on each slot,
    and so is each of its partial sums.  A raw mul_rows adds d products,
    through integer weights with sum |w_j| <= d + 1 or through a dense C
    with X C reduced first, so it is at most (d + 1) c: that bounds the
    sum of the absolute values of its terms s X[i, k, a] Y[k, j, b] on a
    slot c.  SlotRing.matmul_raw adds these terms one (a, b, k) at a
    time, but each of its partial sums is a sum of a subset of them, so it
    stays within (d + 1) c too.  A span adds c_k b_k, and an
    entry of a Delta basis element b_k is 0 or +-1 and nonzero in no
    other b_k, so a span is at most M.  The sums before one reduce are:
      kmul_rows:                                               c
      umul_rows, mul_rows + kmul_rows:                         (d + 2) c
      DeltaShape.residue_rows, mul_rows + 2 (row-0 term):      (d + 3) c
      read_rows, R - residue; to_pair_rows, residue + span:    (d + 3) c + M
      pair_add, R - mul_rows + R:                              (d + 1) c + 2 M
      pair_phi, herm, the a* ops, and the sums of reduced outputs that
      BatchOps and unitary take (ualmul, dmul + B + x, ktab + ttab):  3 M.
    SlotRing.reduce forms (X // m) * m, within M of X.  Every intermediate
    is therefore at most (d + 3) c + 4 M in absolute value.  A Theta
    residue comes from quad_module in int64, which widens its pairs.
    """
    M = m - 1
    bound = (d + 3) * s * M * M + 4 * M
    for dt in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise CapacityError("batch sums up to %d overflow int64" % bound)


def _check_ring_card(card, name):
    if card > RING_CAP:
        raise CapacityError("ring %s has %d elements, over the cap of %d"
                            % (name, card, RING_CAP))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RingSpec:
    """Finite commutative ring with a fixed Z-basis.

    Subclasses set ``rank`` (basis slots), ``moduli`` (additive order per
    slot), ``card`` and ``name``, and implement ``one`` and ``mul``.
    Elements are plain int tuples; every coordinate tuple in range is a
    valid element, so addition is slotwise and lives here.
    """

    rank = None
    moduli = None
    card = None
    name = None

    def __init__(self):
        self._invcache = {}
        self._nonunits = set()

    def zero(self):
        return (0,) * self.rank

    def one(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple(-x % m for x, m in zip(a, self.moduli))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def smul(self, n, a):
        return tuple(n * x % m for x, m in zip(a, self.moduli))

    def from_int(self, n):
        return self.smul(n, self.one())

    def is_zero(self, a):
        return not any(a)

    def rpow(self, a, n):
        assert n >= 0
        r = self.one()
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def elements(self):
        """All elements, lexicographic in the coordinate tuple."""
        return itertools.product(*[range(m) for m in self.moduli])

    def check_element(self, a):
        if len(a) != self.rank or any(not 0 <= x < m for x, m in zip(a, self.moduli)):
            raise StructureError("bad element %r for %s" % (a, self.name))
        return a

    def uniform_modulus(self):
        """Common additive order of the basis slots, or None if mixed."""
        ms = set(self.moduli)
        return ms.pop() if len(ms) == 1 else None

    def try_invert(self, a):
        if a in self._invcache:
            return self._invcache[a]
        if a in self._nonunits:
            return None
        if self.card > _INV_BRUTE_CAP:
            raise CapacityError("inversion scan over %d elements" % self.card)
        one = self.one()
        for b in self.elements():
            if self.mul(a, b) == one:
                self._invcache[a] = b
                self._invcache[b] = a
                return b
        self._nonunits.add(a)
        return None

    def is_unit(self, a):
        return self.try_invert(a) is not None

    def units(self):
        return [a for a in self.elements() if self.is_unit(a)]

    def idempotents(self):
        if self.card > _IDEM_CAP:
            raise CapacityError("idempotent scan over %d elements" % self.card)
        return [a for a in self.elements() if self.mul(a, a) == a]

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "<ring %s>" % self.name


class ZMod(RingSpec):
    """Integers mod m, m >= 2."""

    def __init__(self, m):
        if m < 2:
            raise StructureError("zmod modulus must be >= 2")
        self.m = m
        self.rank = 1
        self.moduli = (m,)
        self.card = m
        self.name = "zmod:%d" % m
        super().__init__()

    def one(self):
        return (1,)

    def mul(self, a, b):
        return (a[0] * b[0] % self.m,)

    def try_invert(self, a):
        try:
            return (pow(a[0], -1, self.m),)
        except ValueError:
            return None


class PolyQuotient(RingSpec):
    """base[x] / (f) for a monic f over any ring spec.

    ``mcoeffs`` is the full coefficient tuple of f, low to high, with
    leading coefficient one(base).  Elements are degree-< deg polynomials
    stored as the concatenation of their base-element coordinates.
    """

    def __init__(self, base, mcoeffs):
        mcoeffs = tuple(tuple(c) for c in mcoeffs)
        if len(mcoeffs) < 2:
            raise StructureError("quotient modulus must have degree >= 1")
        if mcoeffs[-1] != base.one():
            raise StructureError("quotient modulus must be monic")
        self.base = base
        self.mcoeffs = mcoeffs
        self.deg = len(mcoeffs) - 1
        self.rank = self.deg * base.rank
        self.moduli = base.moduli * self.deg
        self.card = base.card ** self.deg
        self.name = "polyquot:%s:%s" % (base.name, _fmt_coeffs(base, mcoeffs))
        self._mulcache = {}
        super().__init__()

    def to_coeffs(self, a):
        r = self.base.rank
        return [tuple(a[i * r:(i + 1) * r]) for i in range(self.deg)]

    def from_coeffs(self, cs):
        assert len(cs) == self.deg
        return tuple(x for c in cs for x in c)

    def const(self, c):
        """Embed a base element as a constant polynomial."""
        return tuple(c) + (0,) * (self.rank - self.base.rank)

    def gen(self):
        """The class of x.  For degree 1 this is the constant -f(0)."""
        if self.deg == 1:
            return self.const(self.base.neg(self.mcoeffs[0]))
        cs = [self.base.zero()] * self.deg
        cs[1] = self.base.one()
        return self.from_coeffs(cs)

    def one(self):
        return self.const(self.base.one())

    def mul(self, a, b):
        key = (a, b) if a <= b else (b, a)
        hit = self._mulcache.get(key)
        if hit is not None:
            return hit
        base, d = self.base, self.deg
        A, B = self.to_coeffs(a), self.to_coeffs(b)
        prod = [base.zero()] * (2 * d - 1)
        for i, ai in enumerate(A):
            if base.is_zero(ai):
                continue
            for j, bj in enumerate(B):
                prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        # monic reduction, high degree down
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if base.is_zero(c):
                continue
            prod[k] = base.zero()
            for i in range(d):
                prod[k - d + i] = base.sub(prod[k - d + i], base.mul(c, self.mcoeffs[i]))
        out = self.from_coeffs(prod[:d])
        self._mulcache[key] = out
        return out


def _has_factor(p, f):
    """Whether the monic f over Z/p (ints, low to high) has a monic factor
    of degree 1 .. deg f // 2, which is when f is reducible: trial
    division by each such factor."""
    n = len(f) - 1
    for k in range(1, n // 2 + 1):
        for g in itertools.product(range(p), repeat=k):
            r = [c % p for c in f]
            for top in range(n, k - 1, -1):
                # subtract r[top] x^(top - k) (g + x^k)
                for i, c in enumerate(g):
                    r[top - k + i] = (r[top - k + i] - r[top] * c) % p
            if not any(r[:k]):
                return True
    return False


class GaloisField(PolyQuotient):
    """F_p[x]/(f) with f checked irreducible by trial division."""

    def __init__(self, p, coeff_ints):
        if not _is_prime(p):
            raise StructureError("gf characteristic %d is not prime" % p)
        base = ZMod(p)
        super().__init__(base, [base.from_int(c) for c in coeff_ints])
        self.name = "gf:%d:%s" % (p, ",".join(str(c % p) for c in coeff_ints))
        if self.card > _FIELD_CHECK_CAP:
            raise CapacityError("field check over %d elements" % self.card)
        if _has_factor(p, coeff_ints):
            raise StructureError("gf modulus %s is reducible" % self.name)


class Product(RingSpec):
    """Finite direct product, coordinates concatenated componentwise."""

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise StructureError("empty product")
        self.specs = specs
        self.rank = sum(s.rank for s in specs)
        self.moduli = tuple(m for s in specs for m in s.moduli)
        self.card = math.prod(s.card for s in specs)
        self.name = "prod:(%s)" % ";".join(s.name for s in specs)
        self._slices = []
        off = 0
        for s in specs:
            self._slices.append(slice(off, off + s.rank))
            off += s.rank
        super().__init__()

    def split(self, a):
        return tuple(tuple(a[sl]) for sl in self._slices)

    def join(self, parts):
        return tuple(x for p in parts for x in p)

    def one(self):
        return self.join([s.one() for s in self.specs])

    def mul(self, a, b):
        pa, pb = self.split(a), self.split(b)
        return self.join([s.mul(x, y) for s, x, y in zip(self.specs, pa, pb)])

    def try_invert(self, a):
        parts = []
        for s, x in zip(self.specs, self.split(a)):
            inv = s.try_invert(x)
            if inv is None:
                return None
            parts.append(inv)
        return self.join(parts)


class SlotRing:
    """A ring spec on signed int arrays in the layout of the array law,
    the K-slot axis second to last and the batch axis last: (..., rk, N).

    ``ktab`` lists K.elements() as (card, rk) rows, the digit columns of
    _mixed_radix over K.moduli transposed, ``S[a, b]`` is the product of
    the basis slots a and b, and ``m`` is the additive modulus: one int
    when the slots share it, else the per-slot moduli as an (rk, 1) column
    (valid because a product only maps slots into slots of the same
    component).  ``reduce`` is the one reduction, ``contract`` the one
    coefficient-product kernel and ``matmul_raw`` the one K-matrix product
    of the numpy engines.  ``ktab`` and a per-slot ``m`` are int64, or
    with d given the batch_dtype of d x d matrices over K, so that they
    do not widen the arrays they meet.
    """

    def __init__(self, K, d=None):
        self.rk = K.rank
        unit = np.eye(self.rk, dtype=np.int64).tolist()
        S = np.array([[K.mul(tuple(ea), tuple(eb)) for eb in unit] for ea in unit],
                     dtype=np.int64).reshape(self.rk, self.rk, self.rk)
        self.S = S % np.array(K.moduli, dtype=np.int64)
        self.dtype = np.dtype(np.int64) if d is None else batch_dtype(
            max(K.moduli), int(self.S.sum(axis=(0, 1)).max()), d)
        m = K.uniform_modulus()
        self.m = m if m is not None else np.array(K.moduli, dtype=self.dtype)[:, None]
        # a shared power-of-two modulus (F_2^k, Z/2^k) reduces by a mask;
        # on two's complement ints that is the residue of negatives too
        self._mask = m - 1 if m is not None and m & (m - 1) == 0 else None
        # K.elements(), in order
        self.ktab = _mixed_radix(K.moduli, K.card).T.astype(self.dtype, order="C")
        # the nonzero (a, b) -> c terms of S; the structure tensor is
        # unrolled into products over whole batches, far faster than einsum
        self._terms = [(a, b, [(int(c), int(self.S[a, b, c]))
                               for c in np.nonzero(self.S[a, b])[0]])
                       for a in range(self.rk) for b in range(self.rk)
                       if self.S[a, b].any()]

    def reduce(self, X):
        """The int array X (..., rk, N) mod the slot moduli, in [0, m) and
        X's dtype.  Floor division rounds down, so X - (X // m) * m is the
        residue of negative entries too; numpy divides by one int far
        faster than it takes %, but not by per-slot moduli."""
        if self._mask is not None:
            return X & self._mask
        if isinstance(self.m, np.ndarray):
            return X % self.m
        q = X // self.m
        q *= self.m
        return np.subtract(X, q, out=q)

    def contract_raw(self, pair):
        """sum over (a, b) of S[a, b, c] * pair(a, b) on slot c, unreduced,
        in the dtype of pair's arrays.

        pair(a, b) is the (..., N) array of products of slot a of one
        factor with slot b of the other; the result puts slot c at
        [..., c, :].  See batch_dtype for how large the sums of the batch
        law get.
        """
        if self.rk == 1:
            return pair(0, 0)[..., None, :]
        out = None
        for a, b, terms in self._terms:
            w = pair(a, b)
            if out is None:
                out = np.zeros(w.shape[:-1] + (self.rk, w.shape[-1]), dtype=w.dtype)
            for c, s in terms:
                out[..., c, :] += s * w
        return out

    def contract(self, pair):
        """contract_raw, reduced."""
        return self.reduce(self.contract_raw(pair))

    def matmul_raw(self, X, Y):
        """The K-matrix products of (d, e, rk, N) and (e, f, rk, N)
        batches, unreduced, in their dtype; a trailing 1 on either side
        broadcasts.  Each term s X[i, k, a] Y[k, j, b] of slot c is one
        multiply-add over the contiguous batch axis, where a stacked
        matmul would loop over N tiny matrices.  See batch_dtype for how
        large the sums get."""
        N = X.shape[-1] if Y.shape[-1] == 1 else Y.shape[-1]
        d, e, f = X.shape[0], X.shape[1], Y.shape[1]
        dt = np.result_type(X, Y)
        out = np.zeros((d, f, self.rk, N), dtype=dt)
        w = np.empty((d, f, N), dtype=dt)
        for a, b, terms in self._terms:
            for k in range(e):
                np.multiply(X[:, k, None, a], Y[k, None, :, b], out=w)
                for c, s in terms:
                    out[:, :, c] += w if s == 1 else s * w
        return out


def _slot_take(tab, idx):
    """The rows of tab, a (card, rk) table of K elements, at the indices
    idx (..., N), in the layout of the array law: (..., rk, N).  take
    gathers from narrow indices as fast as from intp ones; a fancy index
    would cast them first."""
    out = np.empty(idx.shape[:-1] + (tab.shape[1], idx.shape[-1]), dtype=tab.dtype)
    for a in range(tab.shape[1]):
        out[..., a, :] = tab[:, a].take(idx)
    return out


def _mixed_radix(sizes, stop, start=0):
    """Digit columns of the indices start..stop-1 over the radices sizes,
    batch last: column t is the t-th tuple of itertools.product order,
    the first digit most significant, an index past the product read
    modulo it.  The digits are (len(sizes), stop - start) in the
    narrowest unsigned dtype that holds max(sizes) - 1; with sizes
    [K.card] * n a column indexes SlotRing.ktab once per coordinate."""
    idx = np.empty((len(sizes), stop - start), dtype=np.min_scalar_type(max(sizes, default=1) - 1))
    q = np.arange(start, stop, dtype=np.int64)
    for t in reversed(range(len(sizes))):
        q, idx[t] = np.divmod(q, sizes[t])
    return idx


# SplitMix64: the golden-ratio counter step and the two multipliers of its mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _splitmix(z):
    """SplitMix64's output mix of the uint64 array z, in place."""
    z ^= z >> 30
    z *= _MIX[0]
    z ^= z >> 27
    z *= _MIX[1]
    z ^= z >> 31
    return z


def _seed_key(seed):
    """One 64-bit key for a seed, an int or a list of ints >= 0: each
    64-bit word of each int, low word first, is folded in as
    key = mix(key + gamma + word), from key 0."""
    key = np.zeros(1, dtype=np.uint64)
    for s in seed if isinstance(seed, list) else [seed]:
        if s < 0:
            raise StructureError("negative seed %d" % s)
        while True:
            key = _splitmix(key + _GAMMA + (s & (1 << 64) - 1))
            s >>= 64
            if not s:
                break
    return key[0]


def _fill(out, key, c, s):
    """Fill the flat array out with digits in [0, s), read from the lanes
    of counters c, c + 1, ... in order (_draw); return the counter after
    the last one read."""
    w = 8 if s * s <= 1 << 8 else 16 if s * s <= 1 << 16 else 32
    lane, wide = np.dtype("<u%d" % (w // 8)), np.dtype("<u%d" % (w // 4))
    per, t = 64 // w, (1 << w) % s
    done = 0
    while done < out.size:
        need = out.size - done
        # words for the lanes left and their expected rejections, and a margin
        lanes = need + need * t // ((1 << w) - t)
        words = (lanes + lanes // 64) // per + 8
        z = np.arange(c, c + words, dtype=np.uint64)
        z *= _GAMMA
        z += key
        # x * s in the wide dtype: its low half decides, its high half is the digit
        m = np.multiply(_splitmix(z).astype("<u8", copy=False).view(lane), s, dtype=wide)
        rej = np.flatnonzero(m.astype(lane) < t) if t else np.zeros(0, dtype=np.intp)
        # the rejected lanes before the need-th accepted one
        r = int(np.searchsorted(rej - np.arange(len(rej)), need))
        end = min(need + r, m.size)
        got = m[:end] >> w
        if r:
            got = np.delete(got, rej[:r])
        out[done:done + len(got)] = got
        done += len(got)
        c += (end - 1) // per + 1
    return c


def _draw(seed, sizes, count):
    """The sampled counterpart of _mixed_radix: count columns of digits
    over the radices sizes, (len(sizes), count) in _mixed_radix's dtype;
    (0, 1) for no sizes.  A size is 1 .. 2**32 - 1.

    A counter-based SplitMix64 stream: counter c gives the 64-bit word
    mix(key + c * gamma), key folded from seed (_seed_key).  Each run of
    equal sizes s is filled row by row from the counters after those of
    the run before.  A word splits into little-endian lanes of w bits,
    the narrowest of 8 and 16 with s * s <= 2**w, else 32, and a lane x
    gives the digit (x * s) >> w unless (x * s) mod 2**w < 2**w mod s
    (Lemire's multiply-shift).  Each digit is then hit by exactly
    floor(2**w / s) accepted lanes, so the digits are uniform whenever
    the lanes are; a rejected lane is skipped and the run reads on, and
    the lanes left in the word that completes a run are dropped.  The
    lane rule keeps the rejected share below 1 / s."""
    bad = [s for s in sizes if not 1 <= s < 1 << 32]
    if bad:
        raise StructureError("cannot draw a digit below %d: sizes run from 1 to 2**32 - 1"
                             % bad[0])
    dtype = np.min_scalar_type(max(sizes, default=1) - 1)
    if not sizes:
        return np.zeros((0, 1), dtype=dtype)
    out = np.empty((len(sizes), count), dtype=dtype)
    key, c, row = _seed_key(seed), 0, 0
    for s, run in itertools.groupby(sizes):
        k = len(list(run))
        c = _fill(out[row:row + k].reshape(-1), key, c, s)
        row += k
    return out


# The row-word codec, the inverse of _mixed_radix: every set of rows is sorted here.

def _pack_words(digits, base):
    """The (N, W) int64 words of digits, an (L, N) int array, batch last,
    of entries 0 <= d < base: the rows of the words compare as the digit
    columns do as tuples.  As many digits go to a word as base ** per <
    2**63 allows, the first most significant; L = 0 gives one zero word."""
    per = next(p for p in range(1, 63) if base ** (p + 1) >= 1 << 63)
    words = np.zeros((-(-len(digits) // per) or 1, digits.shape[1]), dtype=np.int64)
    for t, d in enumerate(digits):
        words[t // per] *= base
        words[t // per] += d
    return words.T


def _word_order(words):
    """The stable order that sorts the rows of words (N, W): tuple order."""
    return np.lexsort(words.T[::-1])


def _distinct_rows(words):
    """np.unique(words, axis=0, return_index=True, return_inverse=True)[1:]
    of words (N, W): the first row of each distinct run, in word order,
    and the run of each row."""
    order = _word_order(words)
    S = words[order]
    new = (S != np.roll(S, 1, axis=0)).any(axis=1)
    new[:1] = True
    inv = np.empty_like(order)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def _rows_in(words, Q):
    """Whether each row of Q (M, W) is a row of words (N, W)."""
    inv = _distinct_rows(np.concatenate([words, Q]))[1]
    return np.isin(inv[len(words):], inv[:len(words)])


def _fmt_coeffs(base, mcoeffs):
    if base.rank == 1:
        return ",".join(str(c[0]) for c in mcoeffs)
    return ",".join("(" + ".".join(map(str, c)) + ")" for c in mcoeffs)


class RingHom:
    """Additive map between ring specs, tabulated on dom's Z-basis."""

    def __init__(self, dom, cod, table, name="", check=True):
        assert len(table) == dom.rank
        self.dom = dom
        self.cod = cod
        self.table = tuple(tuple(t) for t in table)
        self.name = name
        if check and not self.is_ring_hom():
            raise StructureError("map %r is not a ring hom" % name)

    def __call__(self, a):
        acc = self.cod.zero()
        for x, img in zip(a, self.table):
            if x:
                acc = self.cod.add(acc, self.cod.smul(x, img))
        return acc

    def is_ring_hom(self):
        dom, cod = self.dom, self.cod
        zero = cod.zero()
        for m, img in zip(dom.moduli, self.table):
            if cod.smul(m, img) != zero:
                return False
        if self(dom.one()) != cod.one():
            return False
        basis = _basis(dom)
        for i in range(dom.rank):
            for j in range(i, dom.rank):
                lhs = self(dom.mul(basis[i], basis[j]))
                if lhs != cod.mul(self.table[i], self.table[j]):
                    return False
        return True

    def __repr__(self):
        return "<hom %s: %s -> %s>" % (self.name, self.dom.name, self.cod.name)


def _basis(spec):
    out = []
    for i in range(spec.rank):
        t = [0] * spec.rank
        t[i] = 1
        out.append(tuple(t))
    return out


def identity_hom(spec):
    return RingHom(spec, spec, _basis(spec), name="id", check=False)


def hom_compose(g, f):
    """g after f."""
    assert f.cod == g.dom
    return RingHom(f.dom, g.cod, [g(t) for t in f.table],
                   name="%s.%s" % (g.name, f.name), check=False)


def const_hom(pq):
    """base -> pq, constant-polynomial inclusion."""
    return RingHom(pq.base, pq, [pq.const(b) for b in _basis(pq.base)],
                   name="const", check=False)


def hom_from_gen(dom, cod, base_hom, gen_image, name=""):
    """Ring hom out of a PolyQuotient: base via base_hom, gen to gen_image.

    Checks multiplicativity on the whole basis, which in particular forces
    the modulus of dom to vanish at gen_image.
    """
    assert isinstance(dom, PolyQuotient)
    assert base_hom.dom == dom.base and base_hom.cod == cod
    powers = [cod.one()]
    for _ in range(dom.deg - 1):
        powers.append(cod.mul(powers[-1], gen_image))
    table = []
    for k in range(dom.deg):
        for b in _basis(dom.base):
            table.append(cod.mul(powers[k], base_hom(b)))
    return RingHom(dom, cod, table, name=name, check=True)


class TensorTower:
    """E over K, E (x) E, and E (x) E (x) E with the slot inclusions.

    Tensor products over K are materialized as iterated polynomial
    quotients: E (x) E = E[y]/(f) with the first slot the base line and
    the second the generator, and one more level for the triple.  i1/i2
    are the two inclusions of E; i12/i13/i23 include the square into the
    cube by slot pairs.
    """

    def __init__(self, E):
        self.K = E.base
        self.E = E
        self.EE, self.i1, self.i2 = tensor_square(E)
        EE = self.EE
        lift2 = [EE.const(E.const(c)) for c in E.mcoeffs]
        self.EEE = EEE = PolyQuotient(EE, lift2)
        self.i12 = const_hom(EEE)
        self.i12.name = "i12"
        e_to_eee_slot2 = hom_compose(self.i12, self.i2)
        e_to_eee_slot1 = hom_compose(self.i12, self.i1)
        self.i23 = hom_from_gen(EE, EEE, e_to_eee_slot2, EEE.gen(), name="i23")
        self.i13 = hom_from_gen(EE, EEE, e_to_eee_slot1, EEE.gen(), name="i13")

    def face_maps(self):
        """The three composites E -> E (x) E (x) E, by occupied slot."""
        j1 = hom_compose(self.i12, self.i1)
        j2 = hom_compose(self.i12, self.i2)
        j3 = hom_compose(self.i23, self.i2)
        return j1, j2, j3


def tensor_square(E):
    """E (x) E with its inclusions i1, i2: the square level of TensorTower."""
    assert isinstance(E, PolyQuotient)
    lift1 = [E.const(c) for c in E.mcoeffs]
    EE = PolyQuotient(E, lift1)
    i1 = const_hom(EE)
    i1.name = "i1"
    i2 = hom_from_gen(E, EE, hom_compose(i1, const_hom(E)), EE.gen(), name="i2")
    return EE, i1, i2


_GF_DEFAULT = {
    4: (2, [1, 1, 1]),
    8: (2, [1, 1, 0, 1]),
    9: (3, [1, 0, 1]),
    16: (2, [1, 1, 0, 0, 1]),
    25: (5, [1, 1, 1]),
    27: (3, [1, 2, 0, 1]),
}


def ring_to_json(spec):
    if isinstance(spec, GaloisField):
        return {"gf": {"p": spec.base.m, "modulus": [c[0] for c in spec.mcoeffs]}}
    if isinstance(spec, PolyQuotient):
        return {"polyquot": {"base": ring_to_json(spec.base),
                             "modulus": [list(c) for c in spec.mcoeffs]}}
    if isinstance(spec, ZMod):
        return {"zmod": spec.m}
    if isinstance(spec, Product):
        return {"product": [ring_to_json(s) for s in spec.specs]}
    raise StructureError("no JSON form for %s" % spec.name)


def _int_lists(x, depth):
    """True if x is lists nested ``depth`` deep with ints at the bottom."""
    if depth == 0:
        return isinstance(x, int) and not isinstance(x, bool)
    return isinstance(x, list) and all(_int_lists(y, depth - 1) for y in x)


def ring_from_json(data):
    """The ring of a payload as ring_to_json writes it: one known key,
    ints that are not bools, lists where lists go.  Any other payload (a
    float, a string, a second key) is refused, not read as a ring."""
    items = list(data.items()) if isinstance(data, dict) else []
    key, val = items[0] if len(items) == 1 else (None, None)
    if key == "zmod" and _int_lists(val, 0):
        spec = ZMod(val)
    elif (key == "gf" and isinstance(val, dict) and sorted(val) == ["modulus", "p"]
          and _int_lists(val["p"], 0) and _int_lists(val["modulus"], 1)):
        _check_ring_card(val["p"], "gf:%d" % val["p"])
        spec = GaloisField(val["p"], val["modulus"])
    elif (key == "polyquot" and isinstance(val, dict) and sorted(val) == ["base", "modulus"]
          and _int_lists(val["modulus"], 2)):
        spec = PolyQuotient(ring_from_json(val["base"]), [tuple(c) for c in val["modulus"]])
    elif key == "product" and isinstance(val, list):
        spec = Product([ring_from_json(d) for d in val])
    else:
        raise StructureError("not a ring payload: %.60r" % (data,))
    _check_ring_card(spec.card, spec.name)
    return spec


def parse_ring(s):
    """Parse a ring description.

    Grammar: zmod:m | gf:p | gf:q (q in a small prime-power table) |
    gf:p:c0,c1,...,cd (p prime) | polyquot:<ring>:c0,...,cd |
    prod:(r1;r2;...).  Coefficients are listed low to high and must end
    in 1; a polyquot coefficient is an int (that multiple of one) or the
    base coordinates "(a.b...)", so every ring name parses back.  A ring
    of more than RING_CAP elements is refused.
    """
    spec, rest = _parse_prefix(s.strip())
    if rest:
        raise StructureError("trailing input %r in ring description" % rest)
    _check_ring_card(spec.card, spec.name)
    return spec


def _take_int(s):
    i = 0
    while i < len(s) and "0" <= s[i] <= "9":
        i += 1
    if i == 0:
        raise StructureError("expected an integer at %r" % s)
    return int(s[:i]), s[i:]


def _take_int_list(s):
    out = []
    n, s = _take_int(s)
    out.append(n)
    while s.startswith(","):
        n, s = _take_int(s[1:])
        out.append(n)
    return out, s


def _take_coeff_list(s, base):
    """Modulus coefficients over base: an int n is n times one, and
    "(c0.c1...)" gives base coordinates, as PolyQuotient.name writes them
    over a base of rank > 1."""
    out = []
    while True:
        if s.startswith("("):
            coords, s = _take_int(s[1:])
            coords = [coords]
            while s.startswith("."):
                n, s = _take_int(s[1:])
                coords.append(n)
            if not s.startswith(")"):
                raise StructureError("expected ')' at %r" % s)
            out.append(base.check_element(tuple(coords)))
            s = s[1:]
        else:
            n, s = _take_int(s)
            out.append(base.from_int(n))
        if not s.startswith(","):
            return out, s
        s = s[1:]


def _parse_prefix(s):
    if s.startswith("zmod:"):
        m, rest = _take_int(s[5:])
        return ZMod(m), rest
    if s.startswith("gf:"):
        q, rest = _take_int(s[3:])
        _check_ring_card(q, "gf:%d" % q)  # before the primality scan
        # a ":c0,..." list follows a prime only; after gf:4 it belongs to
        # an enclosing polyquot
        if _is_prime(q):
            if rest.startswith(":"):
                coeffs, rest2 = _take_int_list(rest[1:])
                return GaloisField(q, coeffs), rest2
            return ZMod(q), rest
        if q in _GF_DEFAULT:
            p, coeffs = _GF_DEFAULT[q]
            return GaloisField(p, coeffs), rest
        raise StructureError("no default polynomial for gf:%d" % q)
    if s.startswith("polyquot:"):
        base, rest = _parse_prefix(s[9:])
        if not rest.startswith(":"):
            raise StructureError("polyquot needs a coefficient list")
        coeffs, rest2 = _take_coeff_list(rest[1:], base)
        return PolyQuotient(base, coeffs), rest2
    if s.startswith("prod:("):
        depth = 1
        i = 6
        while i < len(s) and depth:
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise StructureError("unbalanced parens in %r" % s)
        body = s[6:i - 1]
        parts, cur, d = [], [], 0
        for ch in body:
            if ch == "(":
                d += 1
            elif ch == ")":
                d -= 1
            if ch == ";" and d == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        return Product([parse_ring(p) for p in parts]), s[i:]
    raise StructureError("cannot parse ring description %r" % s)
