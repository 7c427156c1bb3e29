"""The three benchmark workloads: job lists, seeded inputs and checks.

A workload is a fixed list of jobs run one at a time (a closed loop with a
single client).  Most jobs are ``ofa.cli.main(argv)`` calls whose stdout is
the report; ``special_check`` has no CLI command, so it is called as a
library function and its report is the sorted-key JSON of its result.

Every job is checked four ways: exit code, hand-written classical values,
``pass`` flags, and the sha256 of the report bytes against the digest that
``reference.json`` stores for the input seed.  Seeded jobs take their
inputs from ``input_seed(seed)``; the reference holds digests for that many
input seeds.
"""

import hashlib
import json
import os
import random
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REF_SEEDS = 32
NIL2_MODULE = "module.json"
NIL2_EXT = "polyquot:zmod:3:1,0,1"


def input_seed(seed):
    """Seed handed to the program; the reference covers 0..REF_SEEDS-1."""
    return seed % REF_SEEDS


def scratch_dir():
    """A fresh directory under ``.bench_tmp`` in the checkout."""
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


class Job:
    """One call into the program and what its report must show.

    ``expect`` maps report keys to required values; a key ending in ``#``
    requires the length of the list under the key without it.
    """

    def __init__(self, name, argv=None, special=None, code=0, seeded=False,
                 expect=None):
        self.name = name
        self.argv = argv
        self.special = special
        self.code = code
        self.seeded = seeded
        self.expect = expect or {}


def _fam(family, n, ring):
    return ["--family", family, "--n", str(n), "--ring", ring]


def _axioms(name, family, n, ring, s, *extra):
    return Job(name, ["axioms", *_fam(family, n, ring), *extra,
                      "--seed", str(s)], seeded=True)


def delta_jobs(s):
    return [
        _axioms("axioms-symp1-zmod4", "symp", 1, "zmod:4", s),
        _axioms("axioms-orthodd1-gf4", "orth-odd", 1, "gf:4", s,
                "--mode", "sampled", "--count", "5000"),
        _axioms("axioms-symp2-zmod3", "symp", 2, "zmod:3", s,
                "--mode", "sampled", "--count", "5000"),
        _axioms("axioms-orthodd1-z2xz3", "orth-odd", 1,
                "prod:(zmod:2;zmod:3)", s, "--mode", "sampled",
                "--count", "50"),
        Job("special-orthodd1-zmod2", special=("orth-odd", 1, "zmod:2", {}),
            expect={"mode": "exhaustive", "checked": 4096,
                    "distinct": 4096}),
        Job("special-symp1-gf4", special=("symp", 1, "gf:4", {}),
            expect={"mode": "exhaustive", "checked": 16384,
                    "distinct": 16384}),
        Job("special-orthodd2-zmod3",
            special=("orth-odd", 2, "zmod:3", {"count": 2500, "seed": s}),
            seeded=True, expect={"mode": "sampled", "checked": 2500}),
    ]


def groups_jobs(s):
    sp4 = _fam("symp", 2, "gf:2")
    o4 = _fam("orth-even", 2, "gf:3")
    z6 = "prod:(zmod:2;zmod:3)"
    return [
        Job("order-sp4-f2", ["group", "order", *sp4], expect={"order": 720}),
        Job("invariants-sp4-f2", ["group", "invariants", *sp4],
            expect={"order": 720}),
        Job("parabolic-sp4-f2", ["parabolic", *sp4],
            expect={"group_order": 720, "proper": True}),
        Job("order-o4-f3", ["group", "order", *o4], expect={"order": 1152}),
        Job("enumerate-o4-f3", ["group", "enumerate", *o4],
            expect={"order": 1152, "elements#": 1152}),
        Job("invariants-gl3-f2",
            ["group", "invariants", *_fam("lin", 3, "gf:2"), "--jobs", "2"],
            expect={"order": 168, "sl_order": 168}),
        Job("so-odd-split-zmod4", ["so-odd-split", "--n", "1",
                                   "--ring", "zmod:4"],
            expect={"order": 96, "so_order": 48, "idempotents": 2}),
        Job("order-sp2-z6", ["group", "order", *_fam("symp", 1, z6)],
            expect={"order": 144}),
        Job("order-gl2-z6", ["group", "order", *_fam("lin", 2, z6)],
            expect={"order": 288}),
    ]


def constructions_jobs(s):
    seed = ["--seed", str(s)]
    nil2 = ["--module", NIL2_MODULE, "--ext", NIL2_EXT]
    return [
        Job("compare-gl2-gf3",
            ["construct", "compare", *_fam("lin", 2, "gf:3"), *seed],
            seeded=True, expect={"surjective": True,
                                 "naive_unitary_order": 48}),
        Job("compare-orthodd1-zmod2",
            ["construct", "compare", *_fam("orth-odd", 1, "zmod:2"), *seed],
            code=1, seeded=True,
            expect={"surjective": False, "naive_unitary_order": 6}),
        Job("canonical-orth4-zmod3",
            ["construct", "canonical", *_fam("orth-even", 2, "zmod:3"),
             *seed], seeded=True, expect={"relation_failures": []}),
        Job("nil2-counterexample-16",
            ["nil2", "counterexample", "--modulus", "16"],
            expect={"m0_image_zero": True}),
        Job("nil2-extend", ["nil2", "extend", *nil2], seeded=True),
        Job("nil2-probe", ["nil2", "probe", *nil2], seeded=True),
        Job("nil2-descend", ["nil2", "descend", *nil2], seeded=True,
            expect={"iso": True}),
        Job("clifford-spin4-gf3",
            ["clifford", "spin", "--n", "4", "--ring", "gf:3"],
            expect={"order": 576, "vector_kernel": 2}),
        Job("clifford-relations6-zmod3",
            ["clifford", "relations", "--n", "6", "--ring", "zmod:3"]),
        Job("clifford-center6-zmod3",
            ["clifford", "center", "--n", "6", "--ring", "zmod:3"]),
        Job("hdet-orth5-zmod9", ["hdet", "--n", "2", "--ring", "zmod:9"],
            expect={"semiregular": True}),
    ]


WORKLOADS = {
    "delta": delta_jobs,
    "groups": groups_jobs,
    "constructions": constructions_jobs,
}


# Per-layer metrics that the traced pass must find nonzero or zero.  The
# nonzero lists also probe the tracer's binding: ``coeff_ring.mul_calls``
# counts only subclass overrides here (no ring uses ``RingSpec.mul``),
# ``odd_form_param.member_calls`` on groups and ``linalg.k_mat_inv_calls``
# reach the layer through names imported by value, and so do the cli
# entries ``axioms_check``, ``naive_canon_check`` and ``hdet``.
LAYER_PATTERN = {
    "delta": {
        "nonzero": ["coeff_ring.calls", "coeff_ring.mul_calls",
                    "form_ring.calls", "odd_form_param.calls",
                    "odd_form_param.axiom_tuples", "batch_delta.calls",
                    "batch_delta.dmul_calls"],
        "zero": ["linalg.calls", "unitary.calls", "quad_module.calls",
                 "nilpotent2.calls", "clifford.calls"],
    },
    "groups": {
        "nonzero": ["coeff_ring.calls", "coeff_ring.mul_calls",
                    "linalg.calls", "linalg.k_mat_inv_calls",
                    "form_ring.calls", "odd_form_param.calls",
                    "odd_form_param.member_calls", "batch_delta.calls",
                    "unitary.calls", "unitary.enumerate_calls",
                    "clifford.calls"],
        "zero": ["quad_module.calls", "nilpotent2.calls"],
    },
    "constructions": {
        "nonzero": ["coeff_ring.calls", "coeff_ring.mul_calls",
                    "linalg.calls", "linalg.k_mat_inv_calls",
                    "quad_module.calls", "quad_module.compare_s",
                    "quad_module.hdet_s", "nilpotent2.calls",
                    "nilpotent2.descent_s", "clifford.calls",
                    "clifford.spin_s"],
        "zero": ["odd_form_param.calls", "batch_delta.calls",
                 "unitary.calls"],
    },
}


def nil2_module_json(s):
    """A seeded split 2-step nilpotent module over Z/3 with r1=3, r0=1:
    a random cocycle table and no quotient."""
    rng = random.Random(s)
    b = [[[[rng.randrange(3)]] for _ in range(3)] for _ in range(3)]
    return json.dumps({"ring": {"zmod": 3}, "r1": 3, "r0": 1, "b": b,
                       "quotient_generators": []}, sort_keys=True)


def write_inputs(workload, s, directory):
    """Write the file inputs a workload reads into ``directory``."""
    if workload == "constructions":
        with open(os.path.join(directory, NIL2_MODULE), "w") as fh:
            fh.write(nil2_module_json(s))


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(reference, workload, job, s):
    table = reference[workload].get(job.name, {})
    return table.get(str(s) if job.seeded else "any")


def check(job, code, text):
    """Every way the job's result differs from what it must be, apart
    from the reference digest."""
    problems = []
    if code != job.code:
        problems.append("exit code %r, expected %r" % (code, job.code))
    try:
        doc = json.loads(text)
    except ValueError:
        return problems + ["report is not JSON"]
    report = doc if job.special else doc.get("report", {})
    if job.special or job.code == 0:
        if doc.get("pass") is not True:
            problems.append("pass is not true")
    for key, want in job.expect.items():
        if key.endswith("#"):
            got = len(report.get(key[:-1], ()))
        else:
            got = report.get(key)
        if got != want:
            problems.append("%s = %r, expected %r" % (key, got, want))
    return problems


def check_digest(job, text, reference, workload, s):
    want = reference_digest(reference, workload, job, s)
    if want is None:
        return ["no reference digest"]
    if digest(text) != want:
        return ["report digest differs from the reference"]
    return []
