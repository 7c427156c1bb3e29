"""Odd form parameters Delta for the split classical presets.

Delta is one table of form_ring.ParamTable, which holds the pair law and
the coordinate read it shares with the tensor square's Theta
(quad_module.CanonConstruction): one law, two tables.  An element has
a unique coordinate word: q-coefficients on the admissible matrix
slots, u-coefficients on the row-0 orbits of the odd orthogonal preset,
then coefficients over the augmentation basis.  Its pair is (pi, rho):
pi carries the q/u coefficients, and rho is the fold residue of the q/u
monomial word (the word folded left to right through the cocycle rule)
plus the augmentation part.  A pair that fails the read is not a
member.  An element is its coordinate tuple over K, as a Theta element
is, and callers use the table's own law (add, neg, phi, act); render
and the JSON form name its nonzero slots, q then u then augmentation.

Axiom sweeps (one table of identities) and the specialness check run
on the numpy batch engine in batch_delta, for every coefficient ring;
the exact per-element functions here serve single elements and render
failure witnesses.
"""

import math
import random

import numpy as np

from .coeff_ring import CapacityError, StructureError, _mixed_radix
from .form_ring import ParamTable, UnitalEl

_ENUM_CAP = 1 << 20
EXH_DELTA_CAP = 1 << 16
_EXH_TUPLE_CAP = 1 << 16


class DeltaShape(ParamTable):
    """Coordinate layout of Delta over one preset algebra."""

    def __init__(self, alg):
        idx = alg.indices
        if alg.kind == "lin":
            q_pairs = list(alg.pairs)
            u_idx = ()
            d_keys = [("f", i, j) for i in idx if i > 0 for j in idx if j > 0]
        elif alg.kind == "symp":
            q_pairs = list(alg.pairs)
            u_idx = ()
            d_keys = [("f", i, j) for (i, j) in alg.pairs if i + j > 0]
            d_keys += [("v", i) for i in idx]
        elif 0 not in idx:
            q_pairs = list(alg.pairs)
            u_idx = ()
            d_keys = [("f", i, j) for (i, j) in alg.pairs if i + j > 0]
        else:
            q_pairs = [(i, j) for (i, j) in alg.pairs if i != 0]
            u_idx = tuple(idx)
            d_keys = [("f", i, j) for (i, j) in alg.pairs if i + j > 0]
        # phi(e(i, j)) is read at (i, j), the generator v_i at (-i, i)
        aug = []
        for key in d_keys:
            if key[0] == "f":
                b = alg.e(key[1], key[2])
                aug.append((key[1:], alg.sub(b, alg.conj(b))))
            else:
                aug.append(((-key[1], key[1]), alg.e(-key[1], key[1])))
        super().__init__(alg, q_pairs + [(0, i) for i in u_idx], aug)
        # the named slots, each section in sorted order: render and the
        # JSON form walk them as they are
        self.q_pairs = tuple(q_pairs)
        self.u_idx = tuple(u_idx)
        self.d_keys = tuple(d_keys)
        self.dplus = alg.el({(k, k): alg.K.one() for k in idx if k > 0})
        self.tag = "delta:" + alg.tag

    def residue(self, p):
        return _fold_residue(self, p)

    def el(self, q=None, u=None, d=None):
        """The element with the given coefficients on named slots: q
        pairs, u indices and augmentation keys."""
        K = self.alg.K
        vec = [K.zero()] * self.dim
        off = 0
        for name, keys, given in (("q", self.q_pairs, q), ("u", self.u_idx, u),
                                  ("d", self.d_keys, d)):
            for key, v in (given or {}).items():
                if key not in keys:
                    raise StructureError("no %s slot %r in %s" % (name, key, self.tag))
                if not K.is_zero(v):
                    vec[off + keys.index(key)] = K.check_element(v)
            off += len(keys)
        return tuple(vec)

    def __repr__(self):
        return "<%s dim=%d>" % (self.tag, self.dim)


def _entries(shape, x):
    """The nonzero coordinates of x as (section, key, value): q slots,
    then u slots, then augmentation slots, in slot order."""
    K = shape.alg.K
    off = 0
    for name, keys in (("q", shape.q_pairs), ("u", shape.u_idx), ("d", shape.d_keys)):
        for key, v in zip(keys, x[off:off + len(keys)]):
            if not K.is_zero(v):
                yield name, key, v
        off += len(keys)


def render(shape, x):
    """The element as witnesses print it; "0." for zero."""
    bits = []
    for name, key, v in _entries(shape, x):
        if name == "q":
            bits.append("q%d*%se(%d,%d)" % (key[0], v, key[0], key[1]))
        elif name == "u":
            bits.append("u%d*%s" % (key, v))
        elif key[0] == "f":
            bits.append("%sphi(e(%d,%d))" % (v, key[1], key[2]))
        else:
            bits.append("%sv%d" % (v, key[1]))
    return " + ".join(bits) if bits else "0."


def _fold_residue(shape, p):
    """rho of the q/u monomial word of p, folded in coordinate order."""
    alg = shape.alg
    base = alg.neg(alg.mul(alg.conj(p), alg.mul(shape.dplus, p)))
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


# to_pair and member are the table's read under names of the Delta layer,
# which bench/tracer.py counts (to_pair_calls, member_calls)
def to_pair(shape, x):
    """(pi(x), rho(x)) of a Delta element; the pair determines x (see
    special_check)."""
    return shape.to_pair(x)


def member(shape, p, r):
    """Read coordinates off a (pi, rho) pair; None if not in Delta."""
    return shape.read(p, r)


def aug_member(shape, x):
    """Whether x lies in the augmentation part: no q or u coordinate."""
    K = shape.alg.K
    return all(K.is_zero(c) for c in x[:len(shape.pi_pos)])


def act_scalar(shape, k, x):
    """Left K-module action on the augmentation part only: the read is
    linear in rho there, so k scales the augmentation coordinates."""
    if not aug_member(shape, x):
        raise StructureError("scalar action is only defined on augmentation elements")
    K = shape.alg.K
    npi = len(shape.pi_pos)
    return x[:npi] + tuple(K.mul(k, c) for c in x[npi:])


def gen_q(shape, i):
    if not any(p == (i, i) for p in shape.q_pairs):
        raise StructureError("no q generator %d" % i)
    return shape.el(q={(i, i): shape.alg.K.one()})


def gen_v(shape, i):
    return shape.el(d={("v", i): shape.alg.K.one()})


def gen_u(shape, i):
    if i not in shape.u_idx:
        raise StructureError("no u generator %d" % i)
    return shape.el(u={i: shape.alg.K.one()})


def central_u(shape, k):
    """u(k) over the odd orthogonal preset: central modulo the q/u word."""
    alg = shape.alg
    if not shape.u_idx:
        raise StructureError("central u needs the odd orthogonal preset")
    K = alg.K
    out = shape.zero()
    two_k = K.smul(2, k)
    for i in alg.indices:
        if i != 0:
            out = shape.add(out, shape.act(gen_q(shape, i), alg.zero(), two_k))
    out = shape.add(out, shape.act(gen_u(shape, 0), alg.zero(), k))
    ksq2 = K.smul(2, K.mul(k, k))
    body = alg.el({(i, i): ksq2 for i in alg.indices if i > 0})
    return shape.add(out, shape.phi(body))


def delta_to_json(shape, x):
    out = {"q": [], "u": [], "d": []}
    for name, key, v in _entries(shape, x):
        key = list(key) if isinstance(key, tuple) else [key]
        out[name].append(key + [list(v)])
    return out


def delta_from_json(shape, data):
    q = {(int(i), int(j)): tuple(int(x) for x in c) for i, j, c in data.get("q", [])}
    u = {int(i): tuple(int(x) for x in c) for i, c in data.get("u", [])}
    d = {}
    for entry in data.get("d", []):
        if entry[0] == "f":
            d[("f", int(entry[1]), int(entry[2]))] = tuple(int(x) for x in entry[3])
        else:
            d[("v", int(entry[1]))] = tuple(int(x) for x in entry[2])
    return shape.el(q=q, u=u, d=d)


def special_check(shape, cap=EXH_DELTA_CAP, count=10000, seed=0):
    """Verify that (pi, rho) determines the coordinates.

    Every element (up to ``cap``) or ``count`` samples drawn as
    shape.sample draws them is mapped to its pair in one batch and read
    back; the report is the one an element-by-element loop of
    ``member(shape, *to_pair(x)) == x`` gives, stopping at the first
    failure.
    """
    from .batch_delta import BatchOps

    ops = BatchOps(shape)
    card = shape.card()
    exhaustive = card <= cap
    if exhaustive:
        if card > _ENUM_CAP:
            raise CapacityError("delta enumeration over %d elements" % card)
        idx = _mixed_radix([ops.K.card] * shape.dim, card)
    else:
        # one randrange per basis slot, in shape.sample's order, then the
        # element's index in K.elements()
        rng = random.Random(seed)
        mods = ops.K.moduli
        digits = np.array([rng.randrange(m) for _ in range(count * shape.dim)
                           for m in mods], dtype=np.int64)
        strides = np.array([math.prod(mods[a + 1:]) for a in range(len(mods))],
                           dtype=np.int64)
        idx = digits.reshape(count, shape.dim, len(mods)) @ strides
    P, R = ops.materialize("delta", idx)
    ok = ops.read_back_ok(idx, P, R)
    fail = None if ok.all() else int(np.argmin(ok))
    if exhaustive:
        # distinct pairs among the rows checked, up to the first failure
        n = card if fail is None else fail + 1
        rows = np.concatenate([P[:n].reshape(n, -1), R[:n].reshape(n, -1)], axis=1)
        distinct = len(np.unique(rows, axis=0))
        return {"pass": fail is None and distinct == card, "mode": "exhaustive",
                "checked": card, "distinct": distinct}
    if fail is not None:
        witness = tuple(tuple(int(c) for c in ops.ktab[t]) for t in idx[fail])
        return {"pass": False, "mode": "sampled", "checked": count,
                "witness": render(shape, witness)}
    return {"pass": True, "mode": "sampled", "checked": count, "flagged": True}


def herm_slots(alg):
    """Slot layout for the involution-fixed elements of the algebra.

    Strict representative pairs carry a free coefficient mirrored with
    the conjugation sign; self-paired slots are free except for the
    symplectic preset, where they range over the 2-torsion of K.
    """
    K = alg.K
    slots = []
    for (i, j) in alg.pairs:
        mir = (-j, -i)
        if (i, j) < mir:
            slots.append(("rep", i, j, K.card))
        elif (i, j) == mir:
            if alg.kind == "symp":
                slots.append(("tors", i, j, len(_torsion_list(K))))
            else:
                slots.append(("free", i, j, K.card))
    return slots


def _torsion_list(K):
    return [k for k in K.elements() if K.is_zero(K.smul(2, k))]


# Axiom table.  Each entry: name, factor kinds, check(ops, *factors).
# Factor kinds: delta, alg, ualg (body+scalar), scalar, aug, herm.

AXIOMS = (
    ("add-assoc", ("delta", "delta", "delta"),
     lambda o, u, v, w: o.deq(o.dadd(o.dadd(u, v), w), o.dadd(u, o.dadd(v, w)))),
    ("add-zero", ("delta",),
     lambda o, u: o.deq(o.dadd(u, o.dzero_like(u)), u)),
    ("add-neg", ("delta",),
     lambda o, u: o.dis0(o.dadd(u, o.dneg(u)))),
    ("pi-additive", ("delta", "delta"),
     lambda o, u, v: o.aeq(o.pi(o.dadd(u, v)), o.aadd(o.pi(u), o.pi(v)))),
    ("pi-action", ("delta", "ualg"),
     lambda o, u, al: o.aeq(o.pi(o.act(u, al)), o.mul_right_ual(o.pi(u), al))),
    ("phi-additive", ("alg", "alg"),
     lambda o, a, b: o.deq(o.phi(o.aadd(a, b)), o.dadd(o.phi(a), o.phi(b)))),
    ("phi-action", ("alg", "ualg"),
     lambda o, b, al: o.deq(o.act(o.phi(b), al), o.phi(o.sandwich(al, b)))),
    ("rho-cocycle", ("delta", "delta"),
     lambda o, u, v: o.aeq(
         o.rho(o.dadd(u, v)),
         o.aadd(o.asub(o.rho(u), o.amul(o.abar(o.pi(u)), o.pi(v))), o.rho(v)))),
    ("rho-action", ("delta", "ualg"),
     lambda o, u, al: o.aeq(o.rho(o.act(u, al)), o.sandwich(al, o.rho(u)))),
    ("rho-symmetry", ("delta",),
     lambda o, u: o.ais0(o.aadd(
         o.aadd(o.rho(u), o.abar(o.rho(u))),
         o.amul(o.abar(o.pi(u)), o.pi(u))))),
    ("pi-phi-zero", ("alg",),
     lambda o, a: o.ais0(o.pi(o.phi(a)))),
    ("rho-phi", ("alg",),
     lambda o, a: o.aeq(o.rho(o.phi(a)), o.asub(a, o.abar(a)))),
    ("commutator", ("delta", "delta"),
     lambda o, u, v: o.deq(
         o.dadd(o.dadd(o.dadd(u, v), o.dneg(u)), o.dneg(v)),
         o.phi(o.aneg(o.amul(o.abar(o.pi(u)), o.pi(v)))))),
    ("phi-hermitian-zero", ("herm",),
     lambda o, h: o.dis0(o.phi(h))),
    ("action-bilinear", ("delta", "ualg", "ualg"),
     lambda o, u, al, be: o.deq(
         o.act(u, o.ual_add(al, be)),
         o.dadd(o.dadd(o.act(u, al), o.phi(o.twosided(be, al, o.rho(u)))),
                o.act(u, be)))),
    ("action-assoc", ("delta", "ualg", "ualg"),
     lambda o, u, al, be: o.deq(o.act(o.act(u, al), be), o.act(u, o.ualmul(al, be)))),
    ("action-unit", ("delta",),
     lambda o, u: o.deq(o.act(u, o.ual_one_like(u)), u)),
    ("action-zero", ("delta",),
     lambda o, u: o.dis0(o.act(u, o.ual_zero_like(u)))),
    ("tau-split", ("delta",),
     lambda o, u: o.deq(o.dadd(u, o.act(u, o.ual_neg_one_like(u))),
                        o.phi(o.rho(u)))),
    ("aug-phi-member", ("alg",),
     lambda o, a: o.daug(o.phi(a))),
    ("aug-phi-scale", ("scalar", "alg"),
     lambda o, k, a: o.deq(o.phi(o.akmul(k, a)), o.kact(k, o.phi(a)))),
    ("aug-pi-zero", ("aug",),
     lambda o, v: o.ais0(o.pi(v))),
    ("aug-scalar-action", ("aug", "scalar"),
     lambda o, v, k: o.deq(o.act(v, o.scalar_ual(k)), o.kact(o.kmul(k, k), v))),
    ("aug-rho-scale", ("scalar", "aug"),
     lambda o, k, v: o.aeq(o.rho(o.kact(k, v)), o.akmul(k, o.rho(v)))),
    ("aug-action-scale", ("scalar", "aug", "ualg"),
     lambda o, k, v, al: o.both(
         o.daug(o.act(v, al)),
         o.deq(o.act(o.kact(k, v), al), o.kact(k, o.act(v, al))))),
)


def slot_sizes(shape, kind):
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


def decode_factor(shape, kind, row):
    """The exact element behind one factor's row of slot indices, as the
    batch materializer builds it; renders failure witnesses."""
    alg = shape.alg
    K = alg.K
    klist = list(K.elements())
    if kind == "delta":
        return tuple(klist[t] for t in row)
    if kind == "alg":
        return alg.from_coords([klist[t] for t in row])
    if kind == "ualg":
        return UnitalEl(alg.from_coords([klist[t] for t in row[:-1]]), klist[row[-1]])
    if kind == "scalar":
        return klist[row[0]]
    if kind == "aug":
        return shape.el(d=dict(zip(shape.d_keys, (klist[t] for t in row))))
    if kind == "herm":
        tors = _torsion_list(K)
        coeffs = {}
        for (stype, i, j, _), t in zip(herm_slots(alg), row):
            v = tors[t] if stype == "tors" else klist[t]
            if K.is_zero(v):
                continue
            coeffs[(i, j)] = K.add(coeffs.get((i, j), K.zero()), v)
            if stype == "rep":
                w = v if alg.eps(i) * alg.eps(j) > 0 else K.neg(v)
                slot = (-j, -i)
                coeffs[slot] = K.add(coeffs.get(slot, K.zero()), w)
        return alg.el(coeffs)
    raise StructureError("unknown factor kind %r" % kind)


def axioms_check(shape, strategy="exhaustive", count=10000, seed=None):
    """Run the axiom table; report per-axiom mode, counts, and witnesses."""
    if strategy not in ("exhaustive", "sampled"):
        raise StructureError("unknown strategy %r" % strategy)
    if strategy == "exhaustive" and shape.card() > EXH_DELTA_CAP:
        raise CapacityError(
            "exhaustive strategy needs |Delta| <= %d, got %d"
            % (EXH_DELTA_CAP, shape.card()))
    from .batch_delta import BatchOps

    ops = BatchOps(shape)
    rows = []
    allpass = True
    for axnum, (name, kinds, fn) in enumerate(AXIOMS):
        sizes = []
        for kind in kinds:
            sizes.extend(slot_sizes(shape, kind))
        total = math.prod(sizes) if sizes else 1
        exhaust = strategy == "exhaustive" and total <= _EXH_TUPLE_CAP
        if exhaust:
            idxmat = _mixed_radix(sizes, total)
            mode, n = "exhaustive", total
        else:
            if seed is None:
                raise StructureError("sampled evaluation of %s requires a seed" % name)
            rng = np.random.default_rng([seed, axnum])
            if sizes:
                idxmat = np.stack(
                    [rng.integers(s, size=count) for s in sizes], axis=1)
            else:
                idxmat = np.zeros((1, 0), dtype=np.int64)
            mode, n = "sampled", idxmat.shape[0]
        ok, failrow = ops.evaluate(kinds, fn, idxmat)
        entry = {"axiom": name, "mode": mode, "tuples": int(n), "pass": bool(ok)}
        if not ok:
            allpass = False
            row = idxmat[failrow]
            off = 0
            witness = []
            for kind in kinds:
                w = len(slot_sizes(shape, kind))
                x = decode_factor(shape, kind, [int(t) for t in row[off:off + w]])
                witness.append(render(shape, x) if kind in ("delta", "aug") else repr(x))
                off += w
            entry["witness"] = witness
        rows.append(entry)
    return {
        "shape": shape.tag,
        "strategy": strategy,
        "dim": shape.dim,
        "card": shape.card(),
        "axioms": rows,
        "pass": allpass,
    }
