"""Static import layering of the ofa package.

The constructions (quad_module, nilpotent2, clifford) must not reach the
unitary groups or the Delta batch engine, and unitary must not reach the
constructions; shared code lives below both, in linalg or coeff_ring.
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
