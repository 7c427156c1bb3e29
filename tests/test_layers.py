"""Static import layering of the ofa package.

The constructions (quad_module, nilpotent2, clifford) must not reach the
unitary groups or the Delta batch engine, and unitary must not reach the
constructions; shared code lives below both, in linalg or coeff_ring.
Those two bottom layers reach no higher: coeff_ring imports no sibling
module, and linalg imports coeff_ring alone.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ofa")

FORBIDDEN = {
    "quad_module": {"unitary", "batch_delta"},
    "nilpotent2": {"unitary", "batch_delta"},
    "clifford": {"unitary", "batch_delta", "odd_form_param"},
    "unitary": {"quad_module", "nilpotent2"},
}

# the only siblings a bottom layer may import
BOTTOM = {
    "coeff_ring": set(),
    "linalg": {"coeff_ring"},
}


def _imported(name):
    """Sibling modules of ofa that a module imports anywhere in its body,
    function-level imports included."""
    with open(os.path.join(SRC, name + ".py")) as fh:
        tree = ast.parse(fh.read())
    siblings = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ofa" and len(parts) > 1:
                    out.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and not mod.startswith("ofa"):
                continue
            parts = mod.split(".")[1:] if node.level == 0 else mod.split(".")
            if parts and parts[0]:
                out.add(parts[0])
            else:
                out |= {a.name for a in node.names}
    return out & siblings


def test_import_scan_sees_every_form():
    assert {"linalg", "coeff_ring", "odd_form_param", "form_ring"} <= _imported("quad_module")
    assert {"batch_delta", "clifford", "linalg"} <= _imported("unitary")
    assert "odd_form_param" in _imported("nilpotent2")  # from . import x


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_layering(name):
    assert not _imported(name) & FORBIDDEN[name], name


@pytest.mark.parametrize("name", sorted(BOTTOM))
def test_bottom_layers(name):
    assert _imported(name) <= BOTTOM[name], name


def test_batch_delta_keeps_no_array_law_of_its_own():
    """The product, the involution and the unreduced contraction live in
    form_ring; BatchOps only calls them."""
    with open(os.path.join(SRC, "batch_delta.py")) as fh:
        tree = ast.parse(fh.read())
    law = {"matmul", "swapaxes", "contract_raw"}
    found = [ast.dump(node) for node in ast.walk(tree)
             if isinstance(node, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in law
             or isinstance(node, ast.Name) and node.id in law]
    assert not found


def _tree(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read())


def test_one_pair_law_for_single_elements():
    """A table gives its residue only on arrays (residue_rows), and
    ParamTable makes no per-element algebra arithmetic: its single-element
    calls are one-row batches of the array law."""
    residues = [(name, cls.name) for name in sorted(os.listdir(SRC)) if name.endswith(".py")
                for cls in ast.walk(_tree(name)) if isinstance(cls, ast.ClassDef)
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "residue"]
    assert not residues
    (table,) = [cls for cls in ast.walk(_tree("form_ring.py"))
                if isinstance(cls, ast.ClassDef) and cls.name == "ParamTable"]
    found = [ast.unparse(node) for node in ast.walk(table)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in {"mul", "conj", "add", "sub"}
             and (isinstance(node.func.value, ast.Name) and node.func.value.id == "alg"
                  or isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "alg")]
    assert not found


def test_naive_construction_probes_no_element():
    """NaiveConstruction computes xy and the Xi right-hand side on
    batches: it reads no quadratic map off per-element calls."""
    (naive,) = [cls for cls in ast.walk(_tree("quad_module.py"))
                if isinstance(cls, ast.ClassDef) and cls.name == "NaiveConstruction"]
    probes = {"_QuadraticMap", "_w_rhs"}
    found = [ast.dump(node) for node in ast.walk(naive)
             if isinstance(node, ast.Name) and node.id in probes
             or isinstance(node, ast.Attribute) and node.attr in probes
             or isinstance(node, ast.FunctionDef) and node.name in probes]
    assert not found


def _slot_indexed(node, slots):
    """Whether node reads a subscript indexed by one of the lambda's slot
    names at any position (X[a], X[..., a, :], X[:, None, a]), itself or
    inside a call or an operation on it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            elts = sub.slice.elts if isinstance(sub.slice, ast.Tuple) else [sub.slice]
            if any(isinstance(e, ast.Name) and e.id in slots for e in elts):
                return True
    return False


def test_k_matrix_products_go_through_matmul_raw():
    """No lambda handed to SlotRing.contract or contract_raw outside
    coeff_ring is a K-matrix product, a matmul of two slot-indexed
    operands (X[..., a, :] @ Y[..., b, :], or a reshape or transpose of
    such): those are SlotRing.matmul_raw calls.  A matmul by an integer
    table, as in clifford, is not one."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "coeff_ring.py":
            continue
        for node in ast.walk(_tree(name)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"contract", "contract_raw"}):
                continue
            for lam in (a for a in node.args if isinstance(a, ast.Lambda)):
                slots = {a.arg for a in lam.args.args}
                found += [(name, ast.unparse(sub)) for sub in ast.walk(lam)
                          if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)
                          and _slot_indexed(sub.left, slots)
                          and _slot_indexed(sub.right, slots)]
    assert not found


# the row-word codec of coeff_ring, the one place that sorts rows
CODEC = {"_pack_words", "_word_order", "_distinct_rows", "_rows_in"}


def _row_sorts(name):
    """(function, call) for each np.lexsort, np.unique with an axis= and
    .tobytes() call in a module, the function the top-level one that
    holds it (None at module level)."""
    found = []
    for top in _tree(name).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if (attr in {"lexsort", "tobytes"}
                    or attr == "unique" and any(k.arg == "axis" for k in node.keywords)):
                found.append((owner, ast.unparse(node)))
    return found


def test_rows_become_sort_keys_in_the_codec_alone():
    """Rows are sorted, counted and looked up as the words of one codec:
    no module but coeff_ring, and no function of coeff_ring outside the
    codec, lexsorts, takes np.unique over rows or compares row bytes."""
    assert {owner for owner, _ in _row_sorts("coeff_ring.py")} == {"_word_order"}
    found = [(name, owner, call) for name in sorted(os.listdir(SRC)) if name.endswith(".py")
             for owner, call in _row_sorts(name)
             if name != "coeff_ring.py" or owner not in CODEC]
    assert not found


# the functions of unitary that may write an element of U down: the
# admission and the group operations on admitted elements
ADMISSIONS = {"u_try", "u_identity", "u_mul", "u_inv", "_elements"}


def test_group_elements_come_through_one_admission():
    """No function outside ADMISSIONS calls UnitaryElem(...): a generator
    or a decoder builds its beta and admits it through u_try (or
    u_make), so membership is read one way."""
    found = [(name, top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None)
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")
             for top in _tree(name).body for node in ast.walk(top)
             if isinstance(node, ast.Call) and "UnitaryElem" in {
                 getattr(node.func, "id", None), getattr(node.func, "attr", None)}]
    assert ("unitary.py", "u_try") in found
    assert not [f for f in found if f[1] not in ADMISSIONS]


# the one def that keeps a cap parameter: its two callers pass different caps
CAP_PARAMS = {("linalg.py", "form_isometries")}
# the batched sampled checks, by module and path of class and def: their
# samples are the columns of coeff_ring._draw
SAMPLED = (("odd_form_param.py", ()), ("unitary.py", ()), ("quad_module.py", ("_BoxRows",)),
           ("quad_module.py", ("CanonConstruction", "relations_check")),
           ("quad_module.py", ("NaiveConstruction", "xi_sample")))
RANDOM = {"random", "randrange", "getrandbits"}


def _named(node):
    """The names, attributes and imported modules that node mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")


def test_caps_are_constants_and_samples_come_from_one_generator():
    """No def takes a parameter named cap or ending in _cap but those of
    CAP_PARAMS: a capacity limit is a module constant, read where the
    refusal happens.  No batched sampled check names random, randrange
    or getrandbits."""
    caps = [(name, fn.name, a.arg) for name in sorted(os.listdir(SRC)) if name.endswith(".py")
            for fn in ast.walk(_tree(name))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for a in ast.walk(fn.args) if isinstance(a, ast.arg)
            and (a.arg == "cap" or a.arg.endswith("_cap"))]
    assert {(name, fn) for name, fn, _ in caps} == CAP_PARAMS
    found = []
    for name, path in SAMPLED:
        node = _tree(name)
        for part in path:
            (node,) = [n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                       and n.name == part]
        found += [(name, path, word) for word in _named(node) if word in RANDOM]
    assert not found


def _numpy_random(node):
    """The mentions of numpy's random module in node: np.random and
    numpy.random, an import of numpy.random or of random from numpy, and
    any name or attribute default_rng."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Name) and sub.id == "default_rng"
                or isinstance(sub, ast.Attribute) and (
                    sub.attr == "default_rng"
                    or sub.attr == "random" and getattr(sub.value, "id", None) in {"np", "numpy"})):
            yield ast.unparse(sub)
        elif isinstance(sub, ast.Import):
            yield from (a.name for a in sub.names if a.name.startswith("numpy.random"))
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("numpy"):
            if sub.module.startswith("numpy.random") or any(a.name == "random" for a in sub.names):
                yield ast.unparse(sub)


def test_no_numpy_random_in_src():
    """Seeded samples come from coeff_ring._draw's SplitMix64 kernel: no
    module of src names np.random, numpy.random or default_rng, so no
    process imports numpy.random (about 10 ms and 2 MB)."""
    probe = ast.parse("import numpy.random\nfrom numpy import random\n"
                      "g = np.random.default_rng(0)\nh = default_rng")
    assert len(list(_numpy_random(probe))) == 5
    found = [(name, hit) for name in sorted(os.listdir(SRC)) if name.endswith(".py")
             for hit in _numpy_random(_tree(name))]
    assert not found
