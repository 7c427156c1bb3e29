"""Command line surface: batch verification, enumeration, and JSON reports.

Every run writes a single JSON document (stdout or --out) with a stable
key order, so identical flags give byte-identical output.  Exit codes:
0 all checks passed, 1 a verification failed (the report carries the
witnesses), 2 usage or structural error, reported as one stderr line
starting "error:".

The document is the text of json.dumps(doc, sort_keys=True, indent=2),
and that call writes it.  The element list of `group enumerate`,
megabytes of it, never meets the encoder: it is spliced in as text
joined from its distinct entries, each encoded once, and _emit writes the
report part by part.

main builds the parser on its first call and reuses it: parse_args keeps
no state in it, so the calls of one process (the tests, a bench pass) pay
for build_parser once.
"""

import argparse
import functools
import itertools
import json
import sys
from collections import Counter

from .coeff_ring import (CapacityError, PolyQuotient, StructureError,
                         const_hom, parse_ring)
from .form_ring import ofalin, ofaorth, ofasymp
from .odd_form_param import DeltaShape, axioms_check
from . import unitary as ug
from .quad_module import (canon_relations_check, canonical_construction, hdet,
                          naive_canon_check, naive_construction, semiregular,
                          split_module)
from . import clifford as cf
from . import nilpotent2 as n2

# family -> the kind of its split module and the rank a n + b as (a, b)
_FAMILIES = {"lin": ("linear", 1, 0), "symp": ("symplectic", 2, 0),
             "orth-even": ("orthogonal", 2, 0), "orth-odd": ("orthogonal", 2, 1)}
FAMILIES = tuple(_FAMILIES)


def _family(family, n):
    if family not in _FAMILIES:
        raise StructureError("unknown family %r" % family)
    kind, a, b = _FAMILIES[family]
    return kind, a * n + b


def family_algebra(family, n, K):
    kind, r = _family(family, n)
    return {"linear": ofalin, "symplectic": ofasymp, "orthogonal": ofaorth}[kind](r, K)


def family_module(family, n, K):
    return split_module(*_family(family, n), K)


def _parts(doc):
    """The text json.dumps(doc, sort_keys=True, indent=2) gives, each
    spliced value in it resolved, as an iterator of parts.  That call
    writes the envelope.  A value with a parts(depth) method is spliced:
    the default hook writes a marker string for it, and its parts at the
    depth of the marker's line replace the marker.  A doc whose strings
    hold the marker is encoded again under the next one.  Iterating the
    result only joins strings."""
    spliced = []
    for mark in map("ofa-splice-%d".__mod__, itertools.count()):
        spliced.clear()
        text = json.dumps(doc, sort_keys=True, indent=2,
                          default=lambda value: spliced.append(value) or mark)
        if text.count(mark) == len(spliced):
            break
    pieces = text.split('"%s"' % mark)
    out = [pieces[:1]]
    for value, head, piece in zip(spliced, pieces, pieces[1:]):
        line = head[head.rfind("\n") + 1:]
        out += [value.parts((len(line) - len(line.lstrip(" "))) // 2), [piece]]
    return itertools.chain.from_iterable(out)


def _emit(args, command, params, report, ok):
    """Write the report to --out or stdout part by part, never whole."""
    parts = itertools.chain(_parts({"schema": "ofa-report/1", "command": command,
                                    "params": params, "pass": bool(ok), "report": report}), "\n")
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise StructureError("cannot write %s: %s" % (out, exc.strerror or exc))
    else:
        sys.stdout.writelines(parts)
    return 0 if ok else 1


def _params(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# ---- subcommand handlers ----------------------------------------------

def cmd_algebra_build(args):
    K = parse_ring(args.ring)
    alg = family_algebra(args.family, args.n, K)
    shape = DeltaShape(alg)
    report = {"kind": alg.kind, "ring": K.name, "indices": sorted(alg.indices),
              "alg_rank": alg.rank, "delta_dim": shape.dim, "delta_card": shape.card()}
    return _emit(args, "algebra build",
                 _params(args, ("family", "n", "ring")), report, True)


def cmd_axioms(args):
    K = parse_ring(args.ring)
    shape = DeltaShape(family_algebra(args.family, args.n, K))
    if args.mode == "sampled" and args.seed is None:
        raise StructureError("sampled mode requires --seed")
    rep = axioms_check(shape, strategy=args.mode, count=args.count,
                       seed=args.seed)
    return _emit(args, "axioms",
                 _params(args, ("family", "n", "ring", "mode", "count",
                                "seed")),
                 rep, rep["pass"])


def cmd_group(args):
    K = parse_ring(args.ring)
    shape = DeltaShape(family_algebra(args.family, args.n, K))
    # --jobs is accepted for old command lines and left out of the
    # echo: it changes neither the work nor the report
    params = _params(args, ("family", "n", "ring"))
    if args.gcmd == "order":
        order = ug.group_order(shape)
        return _emit(args, "group order", params, {"order": order}, True)
    group = ug.enumerate_unitary(shape)
    report = {"order": len(group)}
    if args.gcmd == "enumerate":
        report["elements"] = ug.group_to_json(group)
        return _emit(args, "group enumerate", params, report, True)
    # each class is counted under its JSON text, in order of first sight
    if args.family == "lin":
        dets = ug.det_linear(group)
        report["det_classes"] = dict(Counter(json.dumps([list(c) for c in d]) for d in dets))
        report["sl_order"] = sum(d == (K.one(), K.one()) for d in dets)
    elif args.family in ("orth-even", "orth-odd"):
        dickson = ug.dickson_even if args.family == "orth-even" else ug.dickson_odd
        report["dickson_classes"] = dict(Counter(json.dumps(list(d)) for d in dickson(group)))
    return _emit(args, "group invariants", params, report, True)


def cmd_so_odd_split(args):
    K = parse_ring(args.ring)
    shape = DeltaShape(ofaorth(2 * args.n + 1, K))
    rep = ug.so_odd_split(shape)
    return _emit(args, "so-odd-split", _params(args, ("n", "ring")), rep, rep["pass"])


def cmd_construct(args):
    K = parse_ring(args.ring)
    M = family_module(args.family, args.n, K)
    params = _params(args, ("family", "n", "ring", "seed", "samples"))
    if args.ccmd == "naive":
        F = naive_construction(M)
        report = {"t_card": F.t_card(), "xi_card": F.xi_card(),
                  "naive_unitary_order": len(F.unitary_elements())}
        return _emit(args, "construct naive", params, report, True)
    if args.ccmd == "canonical":
        C = canonical_construction(M)
        failures = canon_relations_check(M, count=args.samples, seed=args.seed or 0)
        report = {"s_card": C.S.card(), "theta_card": C.card(), "relation_failures": failures}
        return _emit(args, "construct canonical", params, report, not failures)
    rep = naive_canon_check(M, seed=args.seed or 0, samples=args.samples)
    return _emit(args, "construct compare", params, rep, rep["pass"])


def cmd_hdet(args):
    K = parse_ring(args.ring)
    M = family_module("orth-odd", args.n, K)
    report = {"rank": 2 * args.n + 1, "hdet": list(hdet(M)), "semiregular": semiregular(M)}
    return _emit(args, "hdet", _params(args, ("n", "ring")), report, True)


def _load_nil2(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StructureError("cannot read %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        raise StructureError("%s is not JSON: %s" % (path, exc))
    return n2.nil2_from_json(data)


def _ext_hom(M, ext):
    E = parse_ring(ext)
    if not isinstance(E, PolyQuotient) or E.base != M.K:
        raise StructureError("--ext must be a quotient ring over the module base")
    return const_hom(E)


def cmd_nil2(args):
    if args.ncmd == "counterexample":
        rep = n2.counterexample_sqrt2(args.modulus)
        return _emit(args, "nil2 counterexample", _params(args, ("modulus",)), rep, True)
    M = _load_nil2(args.module)
    params = _params(args, ("module", "ext"))
    if args.ncmd == "extend":
        f = _ext_hom(M, args.ext)
        N, _ = n2.boxtimes(M, f)
        report = {"ext_card": N.card, "ext_x_card": N.x_card,
                  "module": n2.nil2_to_json(N)}
        return _emit(args, "nil2 extend", params, report, True)
    if args.ncmd == "probe":
        f = _ext_hom(M, args.ext)
        rep = n2.universality_probe(M, f)
        return _emit(args, "nil2 probe", params, rep, True)
    E = parse_ring(args.ext)
    rep = n2.descent_roundtrip(M, E)
    return _emit(args, "nil2 descend", params, rep, rep["iso"])


def cmd_clifford(args):
    K = parse_ring(args.ring)
    params = _params(args, ("n", "ring"))
    if args.kcmd == "spin":
        group = cf.spin_group(args.n, K)
        report = {"order": len(group), "vector_kernel": group.vector_kernel()}
        return _emit(args, "clifford spin", params, report, True)
    if args.kcmd == "relations":
        rep = cf.clif0_relation_check(args.n, K)
        return _emit(args, "clifford relations", params, rep, rep["pass"])
    basis = cf.clif0_center(args.n, K)
    report = {"rank": len(basis), "basis": [cf.clif_to_json(b) for b in basis]}
    return _emit(args, "clifford center", params, report, True)


def cmd_parabolic(args):
    K = parse_ring(args.ring)
    shape = DeltaShape(family_algebra(args.family, args.n, K))
    # the order first: where either side is refused, U's refusal is the
    # cheaper one
    order = ug.group_order(shape)
    P = ug.parabolic_p(shape)
    report = {"parabolic_order": len(P), "group_order": order,
              "proper": len(P) < order}
    return _emit(args, "parabolic", _params(args, ("family", "n", "ring")),
                 report, True)


# ---- parser ------------------------------------------------------------

def _at_least(low):
    """An argparse type: integers >= low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("%d is not an integer >= %d" % (value, low))
        return value
    return integer


def _add_family(p, family=True):
    if family:
        p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", required=True)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one "error:" line, as refusals do."""

    def error(self, message):
        self.exit(2, "error: %s: %s\n" % (self.prog, message))


def build_parser():
    top = _Parser(prog="ofa", description=__doc__)
    top.add_argument("--out", help="write the JSON report to this path")
    sub = top.add_subparsers(dest="cmd", required=True)

    alg = sub.add_parser("algebra").add_subparsers(dest="acmd", required=True)
    p = alg.add_parser("build")
    _add_family(p)
    p.set_defaults(func=cmd_algebra_build)

    p = sub.add_parser("axioms")
    _add_family(p)
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    p.add_argument("--count", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_at_least(0))
    p.set_defaults(func=cmd_axioms)

    grp = sub.add_parser("group").add_subparsers(dest="gcmd", required=True)
    for name in ("enumerate", "order", "invariants"):
        p = grp.add_parser(name)
        _add_family(p)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: the enumeration is "
                            "single-process, the report does not change")
        p.set_defaults(func=cmd_group)

    p = sub.add_parser("so-odd-split")
    _add_family(p, family=False)
    p.set_defaults(func=cmd_so_odd_split)

    con = sub.add_parser("construct").add_subparsers(dest="ccmd",
                                                     required=True)
    for name in ("naive", "canonical", "compare"):
        p = con.add_parser(name)
        _add_family(p)
        p.add_argument("--seed", type=_at_least(0))
        p.add_argument("--samples", type=_at_least(1), default=100)
        p.set_defaults(func=cmd_construct)

    p = sub.add_parser("hdet")
    _add_family(p, family=False)
    p.set_defaults(func=cmd_hdet)

    nil = sub.add_parser("nil2").add_subparsers(dest="ncmd", required=True)
    for name in ("extend", "probe", "descend"):
        p = nil.add_parser(name)
        p.add_argument("--module", required=True,
                       help="path to a module JSON file")
        p.add_argument("--ext", required=True,
                       help="extension ring (quotient over the module base)")
        p.set_defaults(func=cmd_nil2)
    p = nil.add_parser("counterexample")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(func=cmd_nil2)

    klf = sub.add_parser("clifford").add_subparsers(dest="kcmd",
                                                    required=True)
    for name in ("spin", "relations", "center"):
        p = klf.add_parser(name)
        _add_family(p, family=False)
        p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("parabolic")
    _add_family(p)
    p.set_defaults(func=cmd_parabolic)

    return top


@functools.cache
def _parser():
    """The parser, built on the first call: parse_args leaves no state in
    it, so one serves every call of main in a process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (StructureError, CapacityError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
