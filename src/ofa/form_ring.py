"""Split form rings: matrix-type algebras with involution.

Four presets over a coefficient ring spec K.  The linear preset is a
pair of opposite matrix blocks swapped by the involution; the symplectic
and even orthogonal presets are full matrix types over signed indices;
the odd orthogonal preset keeps a middle index 0 whose through-products
are doubled, e_i0 e_0l = 2 e_il, which makes the ring non-unital
whenever 2 is not invertible.  Elements are sparse dicts over basis
pairs (i, j).  The same class, with its contraction and involution tables
read off a Gram table, serves the tensor square of a quadratic module
(quad_module.canon_algebra).

ParamTable is an odd form parameter over any such algebra: the one pair
law and the one coordinate read.  Its two tables are Delta over a preset
(odd_form_param.DeltaShape) and Theta over a tensor square
(quad_module.CanonConstruction).
"""

import itertools

from .coeff_ring import CapacityError, StructureError
from .linalg import k_nullspace

_ENUM_CAP = 1 << 20
_N_CAP = 6


class El:
    """Sparse algebra element: dict (i, j) -> nonzero K coefficient."""

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
        return " + ".join("%s*e(%d,%d)" % (v, i, j) for (i, j), v in self.key)


class SplitAlgebra:
    """A sparse matrix-type algebra with involution over basis pairs.

    Two tables fix the structure.  contract[j] lists (k, f) with
    e(i, j) e(k, l) = f e(i, l); invol[(i, j)] is ((i', j'), negate) with
    conj e(i, j) = +-e(i', j').  The presets are built by ofalin, ofasymp
    and ofaorth; quad_module builds the tensor square of a module.
    """

    def __init__(self, kind, indices, pairs, K, contract, invol, tag):
        self.kind = kind
        self.indices = tuple(indices)
        self.n = sum(1 for i in self.indices if i > 0)
        self.pairs = tuple(pairs)
        self.pairset = frozenset(self.pairs)
        self.K = K
        self.rank = len(self.pairs)
        self.contract = contract
        self.invol = invol
        self.tag = tag

    def eps(self, i):
        if self.kind == "symp":
            return 1 if i > 0 else -1
        return 1

    def el(self, coeffs):
        K = self.K
        c = {}
        for key, v in coeffs.items():
            if key not in self.pairset:
                raise StructureError("pair %r not in %s" % (key, self.tag))
            v = K.check_element(v)
            if not K.is_zero(v):
                c[key] = v
        return El(self, c)

    def e(self, i, j, v=None):
        return self.el({(i, j): self.K.one() if v is None else v})

    def zero(self):
        return El(self, {})

    def add(self, a, b):
        K = self.K
        c = dict(a.c)
        for key, v in b.c.items():
            w = K.add(c.get(key, K.zero()), v)
            if K.is_zero(w):
                c.pop(key, None)
            else:
                c[key] = w
        return El(self, c)

    def neg(self, a):
        K = self.K
        return El(self, {key: K.neg(v) for key, v in a.c.items()})

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def kmul(self, k, a):
        K = self.K
        c = {}
        for key, v in a.c.items():
            w = K.mul(k, v)
            if not K.is_zero(w):
                c[key] = w
        return El(self, c)

    def smul(self, nint, a):
        return self.kmul(self.K.from_int(nint), a)

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

    def coords(self, a):
        return tuple(a.coeff(i, j) for (i, j) in self.pairs)

    def from_coords(self, vec):
        return self.el({key: v for key, v in zip(self.pairs, vec)})

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

    def row(self, a, i):
        return El(self, {key: v for key, v in a.c.items() if key[0] == i})

    def col(self, a, j):
        return El(self, {key: v for key, v in a.c.items() if key[1] == j})

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
    (p, residue(p) + sum c_k b_k); a subclass gives the residue.  The
    read takes p's coefficients, s = r - residue(p), c_k = b_k[pos_k]
    s[pos_k], and the pair is a member exactly when s = sum c_k b_k.
    """

    def __init__(self, alg, pi_pos, aug):
        assert sorted(pi_pos) == sorted(alg.pairs)
        self.alg = alg
        self.pi_pos = tuple(pi_pos)
        self.aug = tuple((pos, b.coeff(*pos), b) for pos, b in aug)
        self.dim = len(self.pi_pos) + len(self.aug)

    def residue(self, p):
        raise NotImplementedError

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

    def _law(self, p, r):
        out = self.read(p, r)
        assert out is not None
        return out

    def add(self, x, y):
        alg = self.alg
        (p, r), (p2, r2) = self.to_pair(x), self.to_pair(y)
        return self._law(alg.add(p, p2), alg.add(alg.sub(r, alg.mul(alg.conj(p), p2)), r2))

    def neg(self, x):
        p, r = self.to_pair(x)
        return self._law(self.alg.neg(p), self.alg.conj(r))

    def phi(self, a):
        alg = self.alg
        return self._law(alg.zero(), alg.sub(a, alg.conj(a)))

    def act(self, x, a, k):
        """Right action of a + k from the unitalized algebra."""
        alg = self.alg
        p, r = self.to_pair(x)
        left = alg.add(alg.mul(alg.conj(a), r), alg.kmul(k, r))
        return self._law(alg.add(alg.mul(p, a), alg.kmul(k, p)),
                         alg.add(alg.mul(left, a), alg.kmul(k, left)))


def rep_odd(alg, a):
    """Matrix image of the odd orthogonal preset, doubling column 0.

    A ring map into the full matrix ring; its kernel is the set of
    k*e(0,0) with 2k = 0.
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
    """Spanning set of the kernel of rep_odd: the 2-torsion of K times e(0,0)."""
    assert alg.kind == "orth" and 0 in alg.indices
    K = alg.K
    out = []
    for vec in k_nullspace(K, [[K.from_int(2)]], 1):
        if not K.is_zero(vec[0]):
            out.append(alg.e(0, 0, vec[0]))
    return out


def x_central(alg, k):
    """Central element k*e(0,0) + 2k*sum of the other diagonal units."""
    assert alg.kind == "orth" and 0 in alg.indices
    K = alg.K
    coeffs = {(0, 0): k}
    for i in alg.indices:
        if i != 0:
            coeffs[(i, i)] = K.smul(2, k)
    return alg.el(coeffs)


def alg_el_to_json(a):
    return [{"i": i, "j": j, "c": list(v)} for (i, j), v in a.key]


def alg_el_from_json(alg, data):
    return alg.el({(int(d["i"]), int(d["j"])): tuple(int(x) for x in d["c"])
                   for d in data})

