import json
import os
import subprocess
import sys

import pytest

import ofa

from ofa import unitary
from ofa.cli import main


def run(tmp_path, *argv, name="r.json"):
    out = tmp_path / name
    code = main(["--out", str(out)] + list(argv))
    return code, json.loads(out.read_text())


def test_axioms_exhaustive_exit0(tmp_path):
    code, doc = run(tmp_path, "axioms", "--family", "orth-even", "--n", "1",
                    "--ring", "zmod:2", "--mode", "exhaustive")
    assert code == 0
    assert doc["schema"] == "ofa-report/1"
    assert doc["pass"] is True
    assert doc["params"]["family"] == "orth-even"
    assert all(row["pass"] for row in doc["report"]["axioms"])


def test_axioms_sampled_requires_and_echoes_seed(tmp_path):
    code = main(["axioms", "--family", "symp", "--n", "1", "--ring",
                 "zmod:3", "--mode", "sampled", "--count", "50"])
    assert code == 2
    code, doc = run(tmp_path, "axioms", "--family", "symp", "--n", "1",
                    "--ring", "zmod:3", "--mode", "sampled", "--count", "50",
                    "--seed", "5")
    assert code == 0 and doc["params"]["seed"] == 5


def test_group_order_symp2_gf2(tmp_path):
    code, doc = run(tmp_path, "group", "order", "--family", "symp",
                    "--n", "2", "--ring", "gf:2")
    assert code == 0 and doc["report"]["order"] == 720


def test_group_invariants_linear(tmp_path):
    code, doc = run(tmp_path, "group", "invariants", "--family", "lin",
                    "--n", "2", "--ring", "zmod:3")
    assert code == 0
    rep = doc["report"]
    assert rep["order"] == 48 and rep["sl_order"] == 24
    assert sorted(rep["det_classes"].values()) == [24, 24]


def test_rerun_byte_identical(tmp_path):
    args = ["group", "order", "--family", "orth-even", "--n", "1",
            "--ring", "zmod:3"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["--out", str(a)] + args) == 0
    assert main(["--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_invariance(tmp_path):
    base = ["group", "enumerate", "--family", "symp", "--n", "1",
            "--ring", "zmod:3"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    unitary._GROUP_CACHE.clear()
    assert main(["--out", str(a)] + base + ["--jobs", "1"]) == 0
    unitary._GROUP_CACHE.clear()
    assert main(["--out", str(b)] + base + ["--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_algebra_build(tmp_path):
    code, doc = run(tmp_path, "algebra", "build", "--family", "lin",
                    "--n", "1", "--ring", "zmod:3")
    assert code == 0
    rep = doc["report"]
    assert rep["indices"] == [-1, 1] and rep["delta_card"] == 27


def test_so_odd_split(tmp_path):
    code, doc = run(tmp_path, "so-odd-split", "--n", "1", "--ring", "zmod:2")
    assert code == 0
    assert doc["report"]["order"] == 12 and doc["report"]["so_order"] == 6


@pytest.mark.parametrize("ring", ["zmod:2", "zmod:4", "gf:3", "prod:(zmod:2;zmod:3)"])
def test_rank0_dickson_class_on_every_ring(tmp_path, ring):
    """The trivial group has one Dickson class, 0, whether or not 2 is
    regular in the ring; the product ring prints its zero as [0, 0]."""
    code, doc = run(tmp_path, "group", "invariants", "--family", "orth-even",
                    "--n", "0", "--ring", ring)
    assert code == 0
    zero = "[0, 0]" if ring.startswith("prod") else "[0]"
    assert doc["report"]["dickson_classes"] == {zero: 1}


def test_construct_compare_pass_and_defect(tmp_path):
    code, doc = run(tmp_path, "construct", "compare", "--family", "symp",
                    "--n", "1", "--ring", "zmod:3", "--seed", "0")
    assert code == 0 and doc["pass"] is True
    code, doc = run(tmp_path, "construct", "compare", "--family", "orth-odd",
                    "--n", "1", "--ring", "zmod:2", "--seed", "0")
    assert code == 1
    rep = doc["report"]
    assert rep["surjective"] is False and rep["theta_card"] == 4096


def test_construct_naive_and_canonical(tmp_path):
    code, doc = run(tmp_path, "construct", "naive", "--family", "lin",
                    "--n", "1", "--ring", "zmod:3")
    assert code == 0
    assert doc["report"]["t_card"] == 9 and doc["report"]["xi_card"] == 27
    code, doc = run(tmp_path, "construct", "canonical", "--family", "lin",
                    "--n", "1", "--ring", "zmod:3", "--seed", "0")
    assert code == 0 and doc["report"]["relation_failures"] == []


def test_hdet(tmp_path):
    code, doc = run(tmp_path, "hdet", "--n", "1", "--ring", "zmod:3")
    assert code == 0
    assert doc["report"]["hdet"] == [2] and doc["report"]["semiregular"]


def test_nil2_file_commands(tmp_path):
    from ofa.coeff_ring import ZMod
    from ofa.nilpotent2 import Nil2Module, nil2_to_json

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(nil2_to_json(
        Nil2Module(ZMod(2), 1, 1, [[((1,),)]]))))
    code, doc = run(tmp_path, "nil2", "extend", "--module", str(mpath),
                    "--ext", "gf:2:1,1,1")
    assert code == 0 and doc["report"]["ext_card"] == 16
    code, doc = run(tmp_path, "nil2", "probe", "--module", str(mpath),
                    "--ext", "gf:2:1,1,1")
    assert code == 0 and doc["report"]["injective"] is True
    code, doc = run(tmp_path, "nil2", "descend", "--module", str(mpath),
                    "--ext", "gf:2:1,1,1")
    assert code == 0 and doc["report"]["iso"] is True


def test_nil2_counterexample(tmp_path):
    code, doc = run(tmp_path, "nil2", "counterexample", "--modulus", "4")
    assert code == 0
    rep = doc["report"]
    assert rep["m0_image_zero"] is True
    assert rep["probe"]["injective"] is False
    assert main(["nil2", "counterexample", "--modulus", "3"]) == 2


def test_clifford_commands(tmp_path):
    code, doc = run(tmp_path, "clifford", "spin", "--n", "3",
                    "--ring", "zmod:3")
    assert code == 0
    assert doc["report"]["order"] == 24
    assert doc["report"]["vector_kernel"] == 2
    code, doc = run(tmp_path, "clifford", "relations", "--n", "2",
                    "--ring", "zmod:2")
    assert code == 0 and doc["pass"] is True
    code, doc = run(tmp_path, "clifford", "center", "--n", "2",
                    "--ring", "zmod:2")
    assert code == 0 and doc["report"]["rank"] == 2


def test_parabolic(tmp_path):
    code, doc = run(tmp_path, "parabolic", "--family", "symp", "--n", "1",
                    "--ring", "zmod:2")
    assert code == 0
    rep = doc["report"]
    assert rep["proper"] and rep["parabolic_order"] == 2


def test_usage_errors():
    assert main(["hdet", "--n", "1", "--ring", "zmod:banana"]) == 2
    with pytest.raises(SystemExit):
        main(["bogus"])


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_malformed_module_json_exits2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["nil2", "extend", "--module", str(bad),
                 "--ext", "gf:2:1,1,1"]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("payload", [
    {}, [1],
    {"ring": {"zmod": 3}, "r1": 1, "r0": 1, "quotient_generators": []},
    {"ring": {"zmod": "x"}, "r1": 1, "r0": 1, "b": [[[[1]]]],
     "quotient_generators": []},
])
def test_module_of_wrong_shape_exits2(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["nil2", "extend", "--module", str(bad),
                 "--ext", "polyquot:zmod:3:1,0,1"]) == 2
    assert _one_line_error(capsys)


def test_missing_module_file_exits2(tmp_path, capsys):
    assert main(["nil2", "extend", "--module", str(tmp_path / "missing.json"),
                 "--ext", "gf:2:1,1,1"]) == 2
    assert _one_line_error(capsys)


def test_unwritable_out_exits2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "r.json"
    code = main(["--out", str(out), "algebra", "build", "--family", "lin",
                 "--n", "1", "--ring", "zmod:3"])
    assert code == 2
    assert _one_line_error(capsys)


def test_cli_import_needs_only_numpy():
    # a fresh interpreter, so modules other tests imported do not count
    src = os.path.dirname(os.path.dirname(ofa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import ofa.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(' '.join(sorted(new - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["numpy", "ofa"]


@pytest.mark.parametrize("argv", [
    ["group", "order", "--family", "symp", "--n", "1",
     "--ring", "zmod:99999999999999999999"],
    ["axioms", "--family", "symp", "--n", "1", "--ring", "zmod:2147483647",
     "--mode", "sampled", "--count", "200", "--seed", "0"],
    ["hdet", "--n", "1", "--ring", "gf:99999999999999999989"],
])
def test_ring_past_the_cap_exits2(argv, capsys):
    assert main(argv) == 2
    assert _one_line_error(capsys)


def test_module_ring_past_the_cap_exits2(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"ring": {"zmod": 2 ** 31 - 1}, "r1": 1, "r0": 1,
                               "b": [[[[1]]]], "quotient_generators": []}))
    assert main(["nil2", "extend", "--module", str(bad),
                 "--ext", "polyquot:zmod:3:1,0,1"]) == 2
    assert _one_line_error(capsys)


def test_ring_at_a_million_elements_parses(tmp_path):
    code, doc = run(tmp_path, "algebra", "build", "--family", "symp", "--n",
                    "1", "--ring", "zmod:1000003")
    assert code == 0 and doc["report"]["ring"] == "zmod:1000003"


@pytest.mark.parametrize("argv,message", [
    # |Delta| = 3^26 is past the exhaustive cap
    (["--n", "2", "--ring", "gf:3"], "exhaustive strategy needs |Delta| <= 65536"),
    # add-assoc has 2187^3 tuples, past the tuple cap, and there is no seed
    (["--n", "1", "--ring", "gf:3"], "sampled evaluation of add-assoc requires a seed"),
])
def test_axioms_exhaustive_refusals(argv, message, capsys):
    assert main(["axioms", "--family", "symp", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
