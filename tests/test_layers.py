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
