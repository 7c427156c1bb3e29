import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ofa

from ofa import cli, unitary
from ofa.cli import FAMILIES, main
from ofa.batch_delta import BatchOps
from ofa.coeff_ring import StructureError, parse_ring
from ofa.nilpotent2 import nil2_from_json


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


def test_parabolic_asks_for_the_group_order_first(capsys):
    """U(Sp(6, F3)) is refused at the column frontier; parabolic exits 2 on
    that refusal without closing B."""
    def closure(shape):
        raise AssertionError("parabolic closed B before asking for the order")

    with patch.object(unitary, "parabolic_p", closure):
        code = main(["parabolic", "--family", "symp", "--n", "3", "--ring", "gf:3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: column search frontier past 1048576 rows\n"


def test_usage_errors():
    assert main(["hdet", "--n", "1", "--ring", "zmod:banana"]) == 2
    with pytest.raises(SystemExit):
        main(["bogus"])


_OUT = object()
_SAMPLED = ["axioms", "--family", "symp", "--n", "1", "--ring", "zmod:2",
            "--mode", "sampled", "--seed", "3"]
_ROUND = [
    _SAMPLED,  # a report that echoes the defaults
    ["--out", _OUT] + _SAMPLED,
    ["group", "order", "--family", "symp", "--n", "1"],  # a usage error: no --ring
    _SAMPLED + ["--count", "0"],
    ["axioms", "--family", "symp", "--n", "2", "--ring", "gf:3"],  # a CapacityError refusal
    _SAMPLED,
]


def test_reused_parser_carries_nothing_between_calls(tmp_path):
    """main reuses one parser: two rounds of the same command lines in one
    process give the same stdout bytes, --out bytes, error lines and exit
    codes."""

    def one_round(out):
        seen = []
        for argv in _ROUND:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main([str(out) if a is _OUT else a for a in argv])
                except SystemExit as exc:
                    code = exc.code
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
            seen.append((code, stdout.getvalue(), errors))
        return seen, out.read_bytes()

    first = one_round(tmp_path / "a.json")
    assert first == one_round(tmp_path / "b.json")
    assert [code for code, _, _ in first[0]] == [0, 0, 2, 2, 2, 0]
    assert first[0][-1] == first[0][0] and first[1] == first[0][0][1].encode()
    assert all(len(errors) == (code == 2) for code, _, errors in first[0])


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_a_sample_count_past_the_cap_exits2_before_drawing(capsys):
    """--count sizes the sampled index matrices before any batch is built
    or drawn: past the byte cap the sweep exits 2 with the bytes needed."""
    from ofa import odd_form_param as ofp

    count = 10 ** 15
    argv = _SAMPLED + ["--count", str(count)]
    with patch.object(ofp, "BatchOps", side_effect=AssertionError("batch built")), \
            patch.object(ofp.np.random, "default_rng", side_effect=AssertionError("drawn")):
        assert main(argv) == 2
    err = capsys.readouterr().err
    shape = ofp.DeltaShape(cli.family_algebra("symp", 1, parse_ring("zmod:2")))
    slots = max(sum(len(ofp.slot_sizes(shape, k)) for k in kinds) for _, kinds, _ in ofp.AXIOMS)
    assert err == "error: sampled index matrix of %d bytes for count %d, over %d\n" % (
        8 * slots * count, count, ofp._SAMPLE_CAP_BYTES)


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


# ---- the report writer -------------------------------------------------

# characters that move the writer's string mask, its depth or its breaks
_HOSTILE = st.sampled_from(['"', "\\", "[", "]", "{", "}", ",", ":", " ", "\n",
                            "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600"])
_TEXT = st.text(st.one_of(_HOSTILE, st.characters()), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80) | st.floats() | _TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=30)


ENUM_O4_F3 = ["group", "enumerate", "--family", "orth-even", "--n", "2", "--ring", "gf:3"]


def test_out_file_matches_stdout_on_a_report_of_many_blocks(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(ENUM_O4_F3) == 0
    text = capsys.readouterr().out
    assert main(["--out", str(out)] + ENUM_O4_F3) == 0
    assert out.read_bytes() == text.encode()
    compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ": "))
    assert len(compact) > 7 * 65536


# sha256 of `group enumerate` stdout, computed before the element writer
# streamed its rows: the identity group (empty lists), a rank-2 K, mixed
# moduli, u slots and "v" entries in d, the benchmark's O(4, F3), and the
# 174,573,905-byte Sp(4, F3) report, which is written with --out
ENUMERATE_PINNED = (
    ("lin 1 gf:2", "f09633598439657b20d6818faa0b5857cee2775479b86a017e72a38830a47cd0"),
    ("symp 1 gf:4", "527a56861b35aa949f45a2900bd91d33f363845b4d5d622ee5fe681c9518c6c3"),
    ("lin 2 prod:(zmod:2;zmod:3)",
     "b7f1584931650000f44fc8d4f3235dc90ca256c2b580e6018563233fed160c8d"),
    ("orth-odd 1 zmod:4", "ca7d249f035703022205bf6927401d2eddd120026aaddcc6305fb6dd6c13a1ab"),
    ("orth-even 2 gf:3", "14fdf048738a94b41ae929a254cc8f018baead24793610ab12004f67fc1753f4"),
    ("symp 2 gf:3", "0b93708a829e9f4cede10b40a4987d59da443f5e3d18210513d9314913be3c70"),
)


def _enumerate_argv(case):
    family, n, ring = case.split()
    return ["group", "enumerate", "--family", family, "--n", n, "--ring", ring]


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@pytest.mark.parametrize("case,digest", ENUMERATE_PINNED)
def test_enumerate_report_bytes_pinned(case, digest, tmp_path, capsys):
    if case == "symp 2 gf:3":
        out = tmp_path / "r.json"
        assert main(["--out", str(out)] + _enumerate_argv(case)) == 0
        assert capsys.readouterr().out == "" and _file_sha256(out) == digest
    else:
        assert main(_enumerate_argv(case)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class _Spliced:
    """A value _parts splices in: the indented text of value at the depth
    it is asked for, cut into parts of cut characters."""

    def __init__(self, value, cut):
        self.value, self.cut = value, cut

    def parts(self, depth):
        text = json.dumps(self.value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
        return (text[i:i + self.cut] for i in range(0, len(text), self.cut))


def _resolved(doc):
    if isinstance(doc, _Spliced):
        return doc.value
    if isinstance(doc, dict):
        return {k: _resolved(v) for k, v in doc.items()}
    return [_resolved(v) for v in doc] if isinstance(doc, list) else doc


# strings equal to the markers the writer would put in first; a writer
# that takes the first lookalike for a spliced value puts it in the wrong
# place
_LOOKALIKE = st.sampled_from(["ofa-splice-0", "ofa-splice-1", '"ofa-splice-0"', "ofa-splice-"])
_SPLICE_TEXT = _TEXT | _LOOKALIKE
_SPLICE_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80) | st.floats() | _SPLICE_TEXT
    | st.builds(_Spliced, _JSON, st.integers(1, 9)),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_SPLICE_TEXT, kids, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_SPLICE_JSON)
@example({"a": "ofa-splice-0", "b": [{"c": _Spliced({"x": [1, "ofa-splice-0"]}, 2)}]})
@example(_Spliced([[], {"k": None}], 1))
def test_dumps_splices_each_value_at_its_depth(doc):
    # spliced values sit at every depth, the doc itself at depth 0, inside
    # dicts and lists, beside the hostile strings and the marker lookalikes
    text = "".join(cli._parts(doc))
    assert text == json.dumps(_resolved(doc), sort_keys=True, indent=2)


@pytest.mark.parametrize("cached", [False, True])
def test_a_failing_gamma_read_writes_no_report(cached, tmp_path, capsys):
    # with the group cached, the gamma read of the element list is the
    # first call to fail; without, the enumeration's mask is
    argv = _enumerate_argv("symp 1 gf:4")
    unitary._GROUP_CACHE.clear()
    if cached:
        assert main(argv) == 0
    capsys.readouterr()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("kept")

    def fail(*args):
        raise StructureError("no gamma")

    with patch.object(BatchOps, "dread", fail):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no gamma\n")
        assert main(["--out", str(old)] + argv) == 2
        assert main(["--out", str(new)] + argv) == 2
    assert old.read_text() == "kept" and not new.exists()


def test_enumerate_report_peak_stays_below_the_report(tmp_path):
    # the first run fills the group cache; the second writes the 3.2 MB
    # report of O(4, F3) without holding it (12.0 MB before streaming)
    out = tmp_path / "r.json"
    assert main(["--out", str(out)] + ENUM_O4_F3) == 0
    out.unlink()
    tracemalloc.start()
    try:
        assert main(["--out", str(out)] + ENUM_O4_F3) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert _file_sha256(out) == dict(ENUMERATE_PINNED)["orth-even 2 gf:3"]


def test_dumps_peak_is_below_the_indented_encoder(tmp_path):
    # writing the O(4, F3) report holds less than the indented encoder
    # needs for the same document (about 20 MB), since the element list is
    # spliced in as text and streamed
    out = tmp_path / "r.json"
    assert main(["--out", str(out)] + ENUM_O4_F3) == 0
    doc = json.loads(out.read_text())

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    written = peak(lambda: main(["--out", str(out)] + ENUM_O4_F3))
    assert written <= peak(lambda: json.dumps(doc, sort_keys=True, indent=2))


def test_src_makes_no_indent_call(tmp_path):
    # ... on the element list: in the 3,155,949-byte O(4, F3) report the
    # encoder writes the envelope and each distinct entry, never the
    # element list, so no encode is more than a few KiB
    sizes, dumps = [], json.dumps

    def recorded(*args, **kwargs):
        text = dumps(*args, **kwargs)
        sizes.append(len(text))
        return text

    out = tmp_path / "r.json"
    with patch.object(json, "dumps", recorded):
        assert main(["--out", str(out)] + ENUM_O4_F3) == 0
    assert out.stat().st_size == 3155949 and sizes and max(sizes) <= 4096


# ---- malformed input: exit 2, one error line, no traceback -------------

def _run_malformed(argv):
    err, out = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code == 2, (argv, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


def _refused(fn, *a):
    """True if fn(*a) raises: the input is malformed."""
    try:
        fn(*a)
    except Exception:
        return True
    return False


_RING_HEADS = ("", "zmod:", "gf:", "gf:2:", "gf:3:1,", "gf:4:", "polyquot:", "polyquot:zmod:3:",
               "polyquot:gf:4:", "prod:(", "prod:(zmod:2;", "prod:()", "zmod:0", "zmod:1")
_RING = st.one_of(
    st.text(max_size=16),
    st.builds(str.__add__, st.sampled_from(_RING_HEADS),
              st.text("0123456789-+:;,.() zmodgfpolyquotr²٣", max_size=12)),
    st.builds("zmod:{}".format, st.integers(-10, 1) | st.integers(2 ** 21, 2 ** 90)),
    st.builds("gf:{}".format, st.integers(-10, 1) | st.integers(2 ** 21, 2 ** 90)),
)
_N_CMDS = [["algebra", "build", "--family", "F"], ["axioms", "--family", "F"],
           ["group", "order", "--family", "F"], ["group", "enumerate", "--family", "F"],
           ["group", "invariants", "--family", "F"], ["so-odd-split"],
           ["construct", "naive", "--family", "F"], ["construct", "canonical", "--family", "F"],
           ["construct", "compare", "--family", "F"], ["hdet"], ["clifford", "spin"],
           ["clifford", "relations"], ["clifford", "center"], ["parabolic", "--family", "F"]]
_MODULE = {"ring": {"zmod": 2}, "r1": 1, "r0": 1, "b": [[[[1]]]], "quotient_generators": []}
_JSON_SMALL = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=4),
                           lambda kids: st.lists(kids, max_size=3)
                           | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                           max_leaves=8)
_BAD_INT = st.integers(max_value=-1) | st.integers(2 ** 31, 2 ** 90)
_BAD_RING_JSON = st.one_of(
    _JSON_SMALL,
    st.fixed_dictionaries({"zmod": _BAD_INT | _JSON_SMALL | st.just(0) | st.just(1)}),
    st.fixed_dictionaries({"gf": st.fixed_dictionaries({"p": _BAD_INT | st.integers(0, 9),
                                                        "modulus": _JSON_SMALL})}),
    st.fixed_dictionaries({"product": _JSON_SMALL}),
    st.fixed_dictionaries({"polyquot": st.fixed_dictionaries(
        {"base": st.just({"zmod": 2}) | _JSON_SMALL, "modulus": _JSON_SMALL})}))


_DELETE = object()


def _mutated_module(key, value):
    doc = dict(_MODULE)
    if value is _DELETE:
        del doc[key]
    else:
        doc[key] = value
    return doc


_MODULE_DOC = st.one_of(
    _JSON_SMALL,
    st.builds(_mutated_module, st.sampled_from(sorted(_MODULE)),
              st.just(_DELETE) | _JSON_SMALL),
    st.builds(_mutated_module, st.sampled_from(["r1", "r0"]), _BAD_INT),
    # no cocycle table to check the ranks against
    st.builds(lambda r0: dict(_MODULE, r1=0, b=[], r0=r0), _BAD_INT),
    st.builds(_mutated_module, st.just("ring"), _BAD_RING_JSON),
    st.builds(_mutated_module, st.just("b"), st.lists(_JSON_SMALL, max_size=2)),
    st.builds(_mutated_module, st.just("quotient_generators"),
              st.lists(st.fixed_dictionaries({"m1": _JSON_SMALL, "m0": _JSON_SMALL}),
                       min_size=1, max_size=2)),
)


@settings(max_examples=200, deadline=None)
@given(_RING, st.sampled_from([["algebra", "build", "--family", "lin", "--n", "1"],
                               ["hdet", "--n", "1"], ["clifford", "center", "--n", "1"],
                               ["group", "order", "--family", "symp", "--n", "1"]]))
def test_malformed_ring_exits2(ring, cmd):
    assume(_refused(parse_ring, ring))
    _run_malformed(cmd + ["--ring", ring])


# digits outside ASCII 0-9: str.isdigit holds for the superscripts and
# int() reads the Arabic-Indic three as 3
@pytest.mark.parametrize("ring", ["zmod:²", "gf:³", "zmod:1²", "polyquot:zmod:3:1,0,¹", "zmod:٣"])
def test_ring_with_non_ascii_digits_exits2(ring, capsys):
    assert main(["algebra", "build", "--family", "lin", "--n", "1", "--ring", ring]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=12).filter(lambda f: f not in FAMILIES),
       st.sampled_from([c for c in _N_CMDS if "F" in c]))
def test_unknown_family_exits2(family, cmd):
    _run_malformed([family if w == "F" else w for w in cmd] + ["--n", "1", "--ring", "gf:2"])


@settings(max_examples=200, deadline=None)
@given(st.integers(max_value=-1) | st.integers(10 ** 3, 10 ** 30), st.sampled_from(_N_CMDS),
       st.sampled_from(FAMILIES))
def test_negative_or_huge_rank_exits2(n, cmd, family):
    _run_malformed([family if w == "F" else w for w in cmd] + ["--n", str(n), "--ring", "gf:2"])


_SAMPLE_FLAGS = ([(["axioms", "--mode", "sampled"], flag, low)
                  for flag, low in (("--count", 1), ("--seed", 0))]
                 + [(["construct", ccmd], flag, low) for ccmd in ("naive", "canonical", "compare")
                    for flag, low in (("--samples", 1), ("--seed", 0))])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SAMPLE_FLAGS), st.integers(1, 10 ** 30), st.sampled_from(FAMILIES))
def test_count_samples_or_seed_below_the_range_exits2(where, gap, family):
    """--count and --samples take integers >= 1, --seed integers >= 0:
    below that the parser refuses, before any work."""
    cmd, flag, low = where
    _run_malformed(cmd + ["--family", family, "--n", "1", "--ring", "gf:2", flag, str(low - gap)])


# ring payloads ring_to_json never writes, each with the ring that reading
# it through int() would give: over that ring the command succeeds, so
# only the reader's own check can refuse it
@pytest.mark.parametrize("ring,read_as", [
    ({"zmod": 2.9}, "zmod:2"),
    ({"gf": {"p": 2.5, "modulus": [1, 1, 1]}}, "gf:2:1,1,1"),
    ({"gf": {"p": 2, "modulus": [1, True, 1]}}, "gf:2:1,1,1"),
    ({"polyquot": {"base": {"zmod": 3}, "modulus": [[1], [0], [1.5]]}}, "polyquot:zmod:3:1,0,1"),
    ({"product": [{"zmod": 2}, {"zmod": 3.5}]}, "prod:(zmod:2;zmod:3)"),
    ({"zmod": "3"}, "zmod:3"),
    ({"zmod": 3, "gf": 5}, "zmod:3"),
])
@pytest.mark.parametrize("ncmd", ["extend", "probe"])
def test_module_ring_payload_is_read_exactly(ring, read_as, ncmd, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(_MODULE, ring=ring, r1=0, b=[])))
    assert main(["nil2", ncmd, "--module", str(path), "--ext", "polyquot:%s:1,0,1" % read_as]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=24), _MODULE_DOC.map(lambda d: json.dumps(d).encode())),
       st.sampled_from(["extend", "probe", "descend"]))
def test_malformed_module_file_exits2(tmp_path_factory, payload, ncmd):
    assume(_refused(lambda p: nil2_from_json(json.loads(p)), payload))
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_bytes(payload)
    _run_malformed(["nil2", ncmd, "--module", str(path), "--ext", "gf:2:1,1,1"])


def test_descend_past_the_enumeration_cap_exits2(tmp_path, capsys):
    # r0 = 64 over Z/2: the equalizer spans 2^64 rows, which M.elements()
    # would refuse after them
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(_MODULE, r1=0, b=[], r0=64)))
    assert main(["nil2", "descend", "--module", str(path), "--ext", "gf:2:1,1,1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: module enumeration over %d ambient elements\n" % 2 ** 64
