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
and the JSON form name its nonzero slots from one slot table, q then u
then augmentation, and the JSON form is written for a batch of rows.

Axiom sweeps (one table of identities) and the specialness check run
on form_ring's array law through batch_delta; residue_rows, the fold
residue on a batch, is all that Delta adds to it.  A single element is
a one-row batch of the same law: to_pair and member below, and the
table's add, neg, phi and act.  render and the JSON form print it.
"""

import math

import numpy as np

from .batch_delta import BatchOps, decode_factor, slot_sizes
from .coeff_ring import (CapacityError, StructureError, _distinct_rows, _draw, _int_lists,
                         _mixed_radix, _pack_words)
from .form_ring import JsonDicts, JsonRows, ParamTable

EXH_DELTA_CAP = 1 << 16
_EXH_TUPLE_CAP = 1 << 16
_SAMPLE_CAP_BYTES = 1 << 28


class DeltaShape(ParamTable):
    """Coordinate layout of Delta over one preset algebra."""

    def __init__(self, alg):
        idx = alg.indices
        # the middle index 0 (odd orthogonal) carries u slots, not q slots;
        # phi(e(i, j)) spans the augmentation on the pairs with i + j > 0,
        # and where the involution negates e(-i, i), phi(e(-i, i)) =
        # 2 e(-i, i), so e(-i, i) itself joins it as the generator v_i
        q_pairs = [(i, j) for (i, j) in alg.pairs if i != 0]
        u_idx = tuple(idx) if 0 in idx else ()
        d_keys = [("f", i, j) for (i, j) in alg.pairs if i + j > 0]
        d_keys += [("v", i) for i in idx if alg.invol.get((-i, i)) == ((-i, i), True)]
        # phi(e(i, j)) is read at (i, j), the generator v_i at (-i, i)
        aug = []
        for key in d_keys:
            if key[0] == "f":
                b = alg.e(key[1], key[2])
                aug.append((key[1:], alg.sub(b, alg.conj(b))))
            else:
                aug.append(((-key[1], key[1]), alg.e(-key[1], key[1])))
        super().__init__(alg, q_pairs + [(0, i) for i in u_idx], aug)
        # the named slots, each section in sorted order
        self.q_pairs = tuple(q_pairs)
        self.u_idx = tuple(u_idx)
        self.d_keys = tuple(d_keys)
        # the slot table render and the JSON form walk: each coordinate
        # slot's section and key prefix, in coordinate order
        self.slots = tuple([("q", key) for key in q_pairs] + [("u", (i,)) for i in u_idx]
                           + [("d", key) for key in d_keys])
        self.tag = "delta:" + alg.tag

    def residue_rows(self, P):
        """The fold residue of each pair's p on a batch, unreduced:
        -conj(P) dplus P, dplus the sum of e(k, k) over k > 0, less the
        row-0 products k_j k_j' at (-j, j'), doubled off the diagonal."""
        alg, d = self.alg, P.shape[0]
        plus = (np.arange(d) >= d - alg.n)[:, None, None, None]  # dplus keeps the last n rows
        R = -alg.mul_rows(alg.conj_rows(P, raw=True), P * plus, raw=True)
        if self.u_idx:
            kv = P[alg.pos[0]]
            kr = kv[::-1]
            # weight 1 on the diagonal, 2 above it, rows reversed; int8 and
            # bool never widen a batch
            uw = np.triu(np.full((d, d), 2, dtype=np.int8), 1) + np.eye(d, dtype=np.int8)
            R -= alg.row_tables().ring.contract_raw(
                lambda a, b: kr[:, None, a] * kv[None, :, b]) * uw[::-1, :, None, None]
        return R

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


def render(shape, x):
    """The element as witnesses print it; "0." for zero."""
    K = shape.alg.K
    bits = []
    for (name, key), v in zip(shape.slots, x):
        if K.is_zero(v):
            continue
        if name == "q":
            bits.append("q%d*%se(%d,%d)" % (key[0], v, key[0], key[1]))
        elif name == "u":
            bits.append("u%d*%s" % (key[0], v))
        elif key[0] == "f":
            bits.append("%sphi(e(%d,%d))" % (v, key[1], key[2]))
        else:
            bits.append("%sv%d" % (v, key[1]))
    return " + ".join(bits) if bits else "0."


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


def delta_rows_to_json(shape, X):
    """The JSON form of each row of X, an (N, dim, rk) array of reduced
    coordinates stored batch first (JSON rows), as a form_ring.JsonDicts:
    per section of the slot table, the key prefix and element of each
    nonzero slot, in order."""
    fields = {}
    for name in ("q", "u", "d"):
        cols = [t for t, (sec, _) in enumerate(shape.slots) if sec == name]
        keys = [list(shape.slots[t][1]) for t in cols]
        fields[name] = JsonRows(shape.alg.K, X[:, cols], lambda s, c, keys=keys: keys[s] + [c])
    return JsonDicts(fields)


def delta_to_json(shape, x):
    """The JSON form of one element: a one-row call of delta_rows_to_json."""
    X = np.array(x, dtype=np.int64).reshape(1, shape.dim, shape.alg.K.rank)
    return delta_rows_to_json(shape, X).objects()[0]


def delta_from_json(shape, data):
    """The element of a payload as delta_to_json writes it: the keys q, u
    and d, each a list of entries [*key prefix, c] on the slot table, the
    prefix ints (and "f" or "v" in d), c an int list; no slot twice."""
    if not isinstance(data, dict) or sorted(data) != ["d", "q", "u"]:
        raise StructureError("not a Delta payload: %.60r" % (data,))
    slot, vec = {s: t for t, s in enumerate(shape.slots)}, list(shape.zero())
    seen = set()
    for name in ("q", "u", "d"):
        for e in data[name] if isinstance(data[name], list) else [data[name]]:
            ok = (isinstance(e, list) and e and _int_lists(e[-1], 1)
                  and all(isinstance(k, str) or _int_lists(k, 0) for k in e[:-1]))
            t = slot.get((name, tuple(e[:-1]))) if ok else None
            if t is None or t in seen:
                raise StructureError("bad Delta entry %.60r in %s" % (e, name))
            seen.add(t)
            vec[t] = shape.alg.K.check_element(tuple(e[-1]))
    return tuple(vec)


def _check_sample_bytes(nslots, count):
    """Refuse a sampled check whose (nslots, count) index matrix, counted
    at 8 bytes a digit, passes _SAMPLE_CAP_BYTES: called before any batch
    is built or drawn."""
    need = 8 * nslots * count
    if need > _SAMPLE_CAP_BYTES:
        raise CapacityError("sampled index matrix of %d bytes for count %d, over %d"
                            % (need, count, _SAMPLE_CAP_BYTES))


def special_check(shape, count=10000, seed=0):
    """Verify that (pi, rho) determines the coordinates.

    Every element (up to EXH_DELTA_CAP) or ``count`` samples, each
    column of coeff_ring._draw(seed, ...) an index into K.elements() per
    coordinate, is mapped to its pair in one batch and read back; the
    report is the one an element-by-element loop of
    ``member(shape, *to_pair(x)) == x`` over those elements gives,
    stopping at the first failure; exhaustively, distinct pairs are
    counted on coeff_ring's words.  A sampled count whose index matrix
    would pass _SAMPLE_CAP_BYTES is refused before any batch or draw.
    """
    card = shape.card()
    exhaustive = card <= EXH_DELTA_CAP
    if not exhaustive:
        _check_sample_bytes(shape.dim, count)
    ops = BatchOps(shape)
    if exhaustive:
        idx = _mixed_radix([ops.K.card] * shape.dim, card)
    else:
        idx = _draw(seed, [ops.K.card] * shape.dim, count)
    P, R = ops.materialize("delta", idx)
    ok = ops.read_back_ok(idx, P, R)
    fail = None if ok.all() else int(np.argmin(ok))
    if exhaustive:
        # distinct pairs among the elements checked, up to the first failure
        n = card if fail is None else fail + 1
        rows = np.concatenate([P[..., :n].reshape(-1, n), R[..., :n].reshape(-1, n)])
        distinct = len(_distinct_rows(_pack_words(rows, int(np.max(ops.m))))[0])
        return {"pass": fail is None and distinct == card, "mode": "exhaustive",
                "checked": card, "distinct": distinct}
    if fail is not None:
        witness = tuple(tuple(int(c) for c in ops.ktab[t]) for t in idx[:, fail])
        return {"pass": False, "mode": "sampled", "checked": count,
                "witness": render(shape, witness)}
    return {"pass": True, "mode": "sampled", "checked": count, "flagged": True}


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
         o.aadd(o.asub(o.rho(u), o.dmul(o.conj(o.pi(u)), o.pi(v))), o.rho(v)))),
    ("rho-action", ("delta", "ualg"),
     lambda o, u, al: o.aeq(o.rho(o.act(u, al)), o.sandwich(al, o.rho(u)))),
    ("rho-symmetry", ("delta",),
     lambda o, u: o.ais0(o.aadd(
         o.aadd(o.rho(u), o.conj(o.rho(u))),
         o.dmul(o.conj(o.pi(u)), o.pi(u))))),
    ("pi-phi-zero", ("alg",),
     lambda o, a: o.ais0(o.pi(o.phi(a)))),
    ("rho-phi", ("alg",),
     lambda o, a: o.aeq(o.rho(o.phi(a)), o.asub(a, o.conj(a)))),
    ("commutator", ("delta", "delta"),
     lambda o, u, v: o.deq(
         o.dadd(o.dadd(o.dadd(u, v), o.dneg(u)), o.dneg(v)),
         o.phi(o.aneg(o.dmul(o.conj(o.pi(u)), o.pi(v)))))),
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
     lambda o, k, a: o.deq(o.phi(o.kscale(k, a)), o.kact(k, o.phi(a)))),
    ("aug-pi-zero", ("aug",),
     lambda o, v: o.ais0(o.pi(v))),
    ("aug-scalar-action", ("aug", "scalar"),
     lambda o, v, k: o.deq(o.act(v, o.scalar_ual(k)), o.kact(o.kmul(k, k), v))),
    ("aug-rho-scale", ("scalar", "aug"),
     lambda o, k, v: o.aeq(o.rho(o.kact(k, v)), o.kscale(k, o.rho(v)))),
    ("aug-action-scale", ("scalar", "aug", "ualg"),
     lambda o, k, v, al: o.both(
         o.daug(o.act(v, al)),
         o.deq(o.act(o.kact(k, v), al), o.kact(k, o.act(v, al))))),
)


def axioms_check(shape, strategy="exhaustive", count=10000, seed=None):
    """Run the axiom table; report per-axiom mode, counts, and witnesses."""
    if strategy not in ("exhaustive", "sampled"):
        raise StructureError("unknown strategy %r" % strategy)
    if strategy == "exhaustive" and shape.card() > EXH_DELTA_CAP:
        raise CapacityError(
            "exhaustive strategy needs |Delta| <= %d, got %d"
            % (EXH_DELTA_CAP, shape.card()))
    slots = [[s for kind in kinds for s in slot_sizes(shape, kind)] for _, kinds, _ in AXIOMS]
    exhaust = [strategy == "exhaustive" and math.prod(sizes) <= _EXH_TUPLE_CAP for sizes in slots]
    _check_sample_bytes(max([len(sizes) for sizes, ex in zip(slots, exhaust) if not ex], default=0),
                        count)
    ops = BatchOps(shape)
    rows = []
    for axnum, ((name, kinds, fn), sizes) in enumerate(zip(AXIOMS, slots)):
        if exhaust[axnum]:
            idxmat, mode = _mixed_radix(sizes, math.prod(sizes)), "exhaustive"
        else:
            if seed is None:
                raise StructureError("sampled evaluation of %s requires a seed" % name)
            idxmat, mode = _draw([seed, axnum], sizes, count), "sampled"
        ok, failrow = ops.evaluate(kinds, fn, idxmat)
        entry = {"axiom": name, "mode": mode, "tuples": idxmat.shape[1], "pass": bool(ok)}
        if not ok:
            cuts = np.cumsum([len(slot_sizes(shape, kind)) for kind in kinds])[:-1]
            xs = [decode_factor(ops, kind, part)
                  for kind, part in zip(kinds, np.split(idxmat[:, failrow], cuts))]
            entry["witness"] = [render(shape, x) if kind in ("delta", "aug") else repr(x)
                                for kind, x in zip(kinds, xs)]
        rows.append(entry)
    return {"shape": shape.tag, "strategy": strategy, "dim": shape.dim, "card": shape.card(),
            "axioms": rows, "pass": all(r["pass"] for r in rows)}
