import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from contlog.cli import CLI_SCHEMA, main
from contlog.serialize import structure_from_json

TENTHS = {"interval": ["0", "1", "1/10"]}
EIGHTHS = {"interval": ["0", "1", "1/8"]}

SIG_DOC = {
    "schema": "contlog.signature/1",
    "relations": [{"name": "P", "arity": 1, "space": TENTHS}],
}

M_DOC = {
    "schema": "contlog.structure/1",
    "signature": SIG_DOC,
    "universe": ["a", "b"],
    "interp": {"P": {"a": "3/10", "b": "4/5"}},
}

METRIC_DOC = {
    "schema": "contlog.structure/1",
    "signature": {
        "relations": [
            {"name": "d", "arity": 2, "space": EIGHTHS},
            {"name": "R", "arity": 1, "space": EIGHTHS},
        ],
        "distance": "d",
        "moduli": {"R": "1"},
    },
    "universe": ["a", "b", "c"],
    "interp": {
        "d": {"a,a": "0", "b,b": "0", "c,c": "0",
              "a,b": "1/2", "b,a": "1/2", "a,c": "1/2", "c,a": "1/2",
              "b,c": "0", "c,b": "0"},
        "R": {"a": "0", "b": "1/2", "c": "1/2"},
    },
}

LIB_DOC = {
    "schema": "contlog.library/1",
    "connectives": {
        "not": {"kind": "neg", "space": TENTHS},
        "and": {"kind": "min", "x": TENTHS, "y": TENTHS},
    },
}

BIT_SIG_DOC = {
    "schema": "contlog.signature/1",
    "relations": [{"name": "B", "arity": 1, "space": {"finite": ["0", "1"]}}],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def write(name, doc):
        path = root / name
        path.write_text(json.dumps(doc))
        return str(path)

    bad_metric = json.loads(json.dumps(METRIC_DOC))
    bad_metric["interp"]["d"]["a,b"] = "1/4"  # breaks symmetry

    # a transported two-point structure over the bit space, and a corruption
    # that parks one value half a unit from both embedded source points
    bit_n = {
        "schema": "contlog.structure/1",
        "signature": {
            "relations": [{"name": "B_0", "arity": 1, "space": EIGHTHS}],
        },
        "universe": ["a", "b"],
        "interp": {"B_0": {"a": "0", "b": "1"}},
    }
    bit_bad = json.loads(json.dumps(bit_n))
    bit_bad["interp"]["B_0"]["a"] = "1/2"

    return {
        "sig": write("sig.json", SIG_DOC),
        "m": write("m.json", M_DOC),
        "metric": write("metric.json", METRIC_DOC),
        "badmetric": write("badmetric.json", bad_metric),
        "lib": write("lib.json", LIB_DOC),
        "bitsig": write("bitsig.json", BIT_SIG_DOC),
        "bit_n": write("bit_n.json", bit_n),
        "bit_bad": write("bit_bad.json", bit_bad),
        "dir": root,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_running_example(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "sup x. P(x)")
        assert code == 0
        assert out == "0.8\n"

    def test_assignment(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "P(x)", "--assign", "x=a")
        assert code == 0 and out == "0.3\n"

    def test_set_value_rendering(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "Q x. P(x)")
        assert code == 0 and out == "{0.3, 0.8}\n"

    def test_json_envelope_is_byte_stable(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "sup x. P(x)", "--json")
        assert code == 0
        doc = json.loads(out)
        net = ["0", "1/10", "1/5", "3/10", "2/5", "1/2",
               "3/5", "7/10", "4/5", "9/10", "1"]
        assert doc == {
            "schema": CLI_SCHEMA,
            "command": "eval",
            "ok": True,
            "value": "4/5",
            "error_bound": "1/20",
            "space": {"net": net, "resolution": "1/20", "label": "[0,1]/1/10"},
        }
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_json_set_value(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "Q x. P(x)", "--json")
        assert json.loads(out)["value"] == {"members": ["3/10", "4/5"]}

    def test_library_connectives(self, files, capsys):
        code, out, _ = run(capsys, "eval", "--structure", files["m"],
                           "--library", files["lib"],
                           "--formula", "and(P(x), not(P(x)))",
                           "--assign", "x=a")
        assert code == 0 and out == "0.3\n"  # min(0.3, 0.7)

    def test_library_connective_past_the_product_cap(self, files, tmp_path, capsys):
        fine = {"interval": ["0", "1", "1/400"]}
        lib = tmp_path / "fine.json"
        lib.write_text(json.dumps({"schema": "contlog.library/1", "connectives": {
            "and": {"kind": "min", "x": fine, "y": fine}}}))
        code, out, err = run(capsys, "eval", "--structure", files["m"], "--library", str(lib),
                             "--formula", "P(x)", "--assign", "x=a")
        assert (code, out) == (2, "")
        assert err == ("error: connective 'and': min over [0,1]/1/400 x [0,1]/1/400 has "
                       "160801 inputs; the cap is 131072\n")

    def test_unassigned_variable(self, files, capsys):
        code, out, err = run(capsys, "eval", "--structure", files["m"],
                             "--formula", "P(x)")
        assert code == 2 and out == "" and "error:" in err

    def test_parse_error(self, files, capsys):
        code, _, err = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "sup x.")
        assert code == 2 and "error:" in err

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "eval", "--structure",
                           str(files["dir"] / "nope.json"),
                           "--formula", "P(x)")
        assert code == 2 and "cannot read" in err

    def test_structure_file_that_is_not_json(self, files, capsys):
        path = files["dir"] / "garbled.json"
        path.write_text("not json")
        code, out, err = run(capsys, "eval", "--structure", str(path), "--formula", "P(x)")
        assert (code, out, err) == (2, "", f"error: {path} is not valid JSON: "
                                           "Expecting value: line 1 column 1 (char 0)\n")

    def test_unreadable_formula_file(self, files, capsys):
        path = files["dir"] / "no-formula.txt"
        code, out, err = run(capsys, "parse", "--signature", files["sig"],
                             "--formula-file", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {path}: ")

    def test_bad_assignment_syntax(self, files, capsys):
        code, _, err = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "P(x)", "--assign", "x")
        assert code == 2 and "VAR=ELEMENT" in err

    def test_repeated_assignment(self, files, capsys):
        # like a repeated JSON key: refused, never read as the last value
        code, out, err = run(capsys, "eval", "--structure", files["m"], "--formula", "P(x)",
                             "--assign", "x=a", "--assign", "x=b")
        assert (code, out, err) == (2, "", "error: repeated assignment of 'x'\n")


class TestMalformedSignature:
    """A malformed field of a signature is refused on one error line, not
    reported as an internal error."""

    @pytest.mark.parametrize("edit, message", [
        (lambda sig: sig.update(moduli=[]), '"moduli" must be a JSON object, got list'),
        (lambda sig: sig["relations"][0].update(name=5), "relation name 5 is not an identifier"),
        (lambda sig: sig["relations"][0].update(space={"net": []}),
         '"net" takes a nonempty list of points'),
        (lambda sig: sig["relations"][0].update(space={"net": 5}),
         '"net" takes a nonempty list of points'),
        (lambda sig: sig["relations"][0].update(arity=True), "arity of 'P' must be an integer"),
    ], ids=["moduli-list", "name-int", "net-empty", "net-int", "arity-bool"])
    def test_structure_file(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(M_DOC))
        edit(doc["signature"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--structure", str(path),
                             "--formula", "sup x. P(x)")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert "internal error" not in err


class TestMalformedFields:
    """A field of the wrong JSON type is refused on one error line: never
    reported as an internal error, nor read as a value of another type."""

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(universe=[["a"]]), "bad element id ['a']"),
        (lambda doc: doc["signature"].update(distance=["P"]),
         "distance symbol ['P'] is not a relation"),
        (lambda doc: doc["signature"]["relations"][0]["space"].update(label=5),
         "space label must be a string, got 5"),
        (lambda doc: doc["signature"]["relations"][0]["space"].update(label=["x"]),
         "space label must be a string, got ['x']"),
        (lambda doc: doc["signature"]["relations"][0]["space"].update(resolution="x"),
         "a \"interval\" space does not read 'resolution'"),
        (lambda doc: doc["signature"]["relations"][0].update(
            space={"finite": ["0", "1"], "resolution": "1/2"}),
         "a \"finite\" space does not read 'resolution'"),
        (lambda doc: doc["signature"]["relations"][0]["space"].update(bogus=1),
         "a \"interval\" space does not read 'bogus'"),
        (lambda doc: doc["signature"]["relations"][0].update(
            space={"hyper": TENTHS, "label": "K"}),
         "hyperspace label 'K' is not the derived 'K([0,1]/1/10)'"),
    ], ids=["universe-list", "distance-list", "label-int", "label-list", "interval-resolution",
            "finite-resolution", "interval-bogus", "hyper-label"])
    def test_structure_file(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(M_DOC))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--structure", str(path),
                             "--formula", "sup x. P(x)")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("entry, message", [
        ({"kind": ["neg"], "space": TENTHS}, "connective kind must be a string, got ['neg']"),
        ({"kind": "proj", "index": True, "space": {"finite": [["0", "1"]]}},
         "proj index must be an integer"),
        ({"kind": "table", "name": ["x"], "domains": [TENTHS], "codomain": TENTHS,
          "lipschitz": 1, "mapping": {}}, "table name must be a string, got ['x']"),
    ], ids=["kind-list", "index-bool", "table-name-list"])
    def test_library_file(self, files, tmp_path, capsys, entry, message):
        path = tmp_path / "lib.json"
        path.write_text(json.dumps({"connectives": {"c": entry}}))
        code, out, err = run(capsys, "eval", "--structure", files["m"], "--library", str(path),
                             "--formula", "sup x. P(x)")
        assert (code, out, err) == (2, "", f"error: connective 'c': {message}\n")

    @pytest.mark.parametrize("doc, message", [
        ({"connectives": {"f": {"kind": "affine", "space": TENTHS, "a": "1/2", "c": "1"}}},
         "connective 'f': a \"affine\" connective does not read 'c'"),
        ({"connectives": {"f": {"kind": "neg", "space": TENTHS, "a": "1/2"}}},
         "connective 'f': a \"neg\" connective does not read 'a'"),
        ({"connectives": {"f": {"kind": "neg", "space": TENTHS}}, "extra": 1},
         "a library does not read 'extra'"),
    ], ids=["affine-c", "neg-a", "library-extra"])
    def test_unread_library_key(self, files, tmp_path, capsys, doc, message):
        # with the unread key ignored, the first two printed 0.15 and 0.7
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--structure", files["m"], "--library", str(path),
                             "--formula", "f(P(x))", "--assign", "x=a")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(extra=1), "a structure does not read 'extra'"),
        (lambda doc: doc["signature"].update(extra=1), "a signature does not read 'extra'"),
        (lambda doc: doc["signature"]["relations"][0].update(extra=1),
         "a relation entry does not read 'extra'"),
    ], ids=["structure", "signature", "relation"])
    def test_unread_structure_key(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(M_DOC))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--structure", str(path), "--formula", "P(x)",
                             "--assign", "x=a")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_high_arity_is_refused_by_its_entry_count(self, tmp_path):
        # 2^40 tuples are never listed.  The command runs in a child process
        # whose address space is capped at 1 GiB, so code that lists them
        # fails this test instead of exhausting the machine's memory
        doc = json.loads(json.dumps(M_DOC))
        doc["signature"]["relations"][0]["arity"] = 40
        doc["interp"] = {"P": {}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        child = ("import resource, sys, time\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from contlog.cli import main\n"
                 "start = time.perf_counter()\n"
                 "code = main(sys.argv[1:])\n"
                 "print(time.perf_counter() - start)\n"
                 "sys.exit(code)\n")
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", child, "eval", "--structure", str(path),
             "--formula", "sup x. P(x)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, "error: P: interpretation is not total over the universe "
               "(0 entries for 2^40 tuples)\n")
        assert float(proc.stdout) < 1


class TestParse:
    def test_human_output(self, files, capsys):
        code, out, _ = run(capsys, "parse", "--signature", files["sig"],
                           "--formula", "inf y. P(y)")
        assert code == 0
        assert "formula: inf y. P(y)" in out
        assert "free variables: (none)" in out

    def test_json_reports_bound_and_frees(self, files, capsys):
        code, out, _ = run(capsys, "parse", "--signature", files["sig"],
                           "--formula", "P(x)", "--json")
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["error_bound"] == "1/20"
        assert doc["free_variables"] == ["x"]

    def test_formula_file(self, files, capsys):
        path = files["dir"] / "phi.txt"
        path.write_text("sup x. P(x)\n")
        code, out, _ = run(capsys, "parse", "--signature", files["sig"],
                           "--formula-file", str(path))
        assert code == 0

    def test_hyperspace_text(self, files, capsys):
        # the space's own summary, not the dataclass fields of a hyperspace
        code, out, _ = run(capsys, "parse", "--signature", files["bitsig"],
                           "--formula", "Q x. B(x)")
        assert code == 0
        assert "space: HyperSpace('K(finite(2p,1d))', dim=2, |net|=3, resolution=0)\n" in out

    def test_type_error_exits_2(self, files, capsys):
        code, _, err = run(capsys, "parse", "--signature", files["sig"],
                           "--formula", "P(x, y)")
        assert code == 2 and "error:" in err


class TestTranslate:
    def test_bare_manifest_to_stdout(self, files, capsys):
        code, out, _ = run(capsys, "translate", "--structure", files["m"],
                           "--step", "1/10")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "contlog.manifest/1"
        assert doc["aligned"] is True
        assert doc["snap_bounds"]["P"] == "0"
        N = structure_from_json(doc["structure"])
        assert N.value("P_0", "b").scalar == F(4, 5)

    def test_json_envelope_wraps_document(self, files, capsys):
        code, out, _ = run(capsys, "translate", "--signature", files["sig"],
                           "--step", "1/4", "--json")
        doc = json.loads(out)
        assert doc["schema"] == CLI_SCHEMA and doc["command"] == "translate"
        assert doc["aligned"] is False  # tenths on a quarter grid snap
        assert doc["document"]["schema"] == "contlog.manifest/1"
        assert "structure" not in doc["document"]

    def test_out_file(self, files, capsys):
        path = files["dir"] / "manifest.json"
        code, out, _ = run(capsys, "translate", "--structure", files["m"],
                           "--step", "1/10", "--out", str(path))
        assert code == 0
        assert f"wrote manifest to {path}" in out
        assert json.loads(path.read_text())["aligned"] is True


class TestCheckT0:
    def test_aligned_passes(self, files, capsys):
        code, out, _ = run(capsys, "check-t0", "--signature", files["bitsig"],
                           "--structure", files["bit_n"], "--step", "1/8")
        assert code == 0 and out == "alignment holds\n"

    def test_violation_witnessed(self, files, capsys):
        code, out, _ = run(capsys, "check-t0", "--signature", files["bitsig"],
                           "--structure", files["bit_bad"], "--step", "1/8")
        assert code == 1
        assert out.startswith("violation: B('a',):")

    def test_tolerance_forgives(self, files, capsys):
        code, out, _ = run(capsys, "check-t0", "--signature", files["bitsig"],
                           "--structure", files["bit_bad"], "--step", "1/8",
                           "--tol", "1/2")
        assert code == 0

    def test_json_lists_violations(self, files, capsys):
        code, out, _ = run(capsys, "check-t0", "--signature", files["bitsig"],
                           "--structure", files["bit_bad"], "--step", "1/8",
                           "--json")
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False and len(doc["violations"]) == 1

    def test_negative_tolerance_exits_2(self, files, capsys):
        code, out, err = run(capsys, "check-t0", "--signature", files["bitsig"],
                             "--structure", files["bit_n"], "--step", "1/8",
                             "--tol=-1")
        assert (code, out, err) == (2, "", "error: tolerance must be nonnegative\n")


class TestCheckMetric:
    def test_axioms_hold(self, files, capsys):
        code, out, _ = run(capsys, "check-metric", "--structure", files["metric"])
        assert code == 0 and out == "pseudometric axioms hold\n"

    def test_violation_witnessed(self, files, capsys):
        code, out, _ = run(capsys, "check-metric", "--structure", files["badmetric"])
        assert code == 1
        assert out.startswith("failure: symmetry")

    def test_json(self, files, capsys):
        code, out, _ = run(capsys, "check-metric", "--structure",
                           files["badmetric"], "--json")
        doc = json.loads(out)
        assert doc["ok"] is False and doc["failures"]

    def test_negative_tolerance_exits_2(self, files, capsys):
        code, out, err = run(capsys, "check-metric", "--structure", files["metric"],
                             "--tol=-1/2")
        assert (code, out, err) == (2, "", "error: tolerance must be nonnegative\n")


class TestQuotient:
    def test_collapses_zero_distance_pair(self, files, capsys):
        code, out, _ = run(capsys, "quotient", "--structure", files["metric"])
        assert code == 0
        Q = structure_from_json(json.loads(out))
        assert Q.universe == ("a", "b")

    def test_json_reports_classes(self, files, capsys):
        code, out, _ = run(capsys, "quotient", "--structure", files["metric"],
                           "--json")
        doc = json.loads(out)
        assert doc["classes"] == [["a"], ["b", "c"]]
        assert doc["collapsed"] == 1

    def test_refuses_broken_metric(self, files, capsys):
        code, out, _ = run(capsys, "quotient", "--structure", files["badmetric"])
        assert code == 1 and out.startswith("failure:")


class TestEncodeFn:
    def test_extends_the_structure(self, files, capsys):
        code, out, _ = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f",
                           "--table", '{"a": "b", "b": "a", "c": "a"}')
        assert code == 0
        doc = json.loads(out)
        N = structure_from_json(doc)
        assert "f" in N.signature.by_name
        assert N.value("f", "a", "b").scalar == 0  # d(f(a), b) = d(b, b)

    def test_json_reports_modulus(self, files, capsys):
        code, out, _ = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f",
                           "--table", '{"a": "b", "b": "a", "c": "a"}',
                           "--json")
        doc = json.loads(out)
        assert doc["symbol"] == "f"
        assert F(doc["modulus"]) >= 1

    def test_impossible_function_exits_1(self, files, capsys):
        # b and c sit at distance zero but are sent to far-apart images
        code, out, _ = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f",
                           "--table", '{"a": "b", "b": "a", "c": "b"}')
        assert code == 1 and out.startswith("failure:")

    def test_mixed_arity_exits_2(self, files, capsys):
        code, _, err = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f",
                           "--table", '{"a": "b", "a,b": "c"}')
        assert code == 2 and "mixed arities" in err

    def test_empty_table_exits_2(self, files, capsys):
        code, out, err = run(capsys, "encode-fn", "--structure", files["metric"],
                             "--name", "f", "--table", "{}")
        assert (code, out, err) == (2, "", "error: function table is empty\n")

    def test_unknown_element_exits_2(self, files, capsys):
        code, _, err = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f", "--table", '{"z": "a"}')
        assert code == 2 and "unknown element" in err

    def test_table_must_be_json(self, files, capsys):
        code, _, err = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f", "--table", "{not json")
        assert code == 2 and "not valid JSON" in err

    DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
    #: a total function on places.json's universe
    TOTAL = '{"cafe": "cafe", "annex": "cafe", "library": "cafe", "gym": "cafe"}'

    def test_blanks_around_elements_are_stripped(self, capsys):
        # every key part and every output element is read without its blanks
        padded = '{" cafe":"cafe ","annex ":" cafe","library":"cafe","gym":" library "}'
        plain = '{"cafe":"cafe","annex":"cafe","library":"cafe","gym":"library"}'
        outputs = []
        for table in (padded, plain):
            code, out, err = run(capsys, "encode-fn", "--structure",
                                 str(self.DATA / "places.json"), "--name", "best",
                                 "--table", table)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("structure, name, table, message", [
        ("places.json", "best", '{"cafe": "cafe"}',
         "function table is not total over the universe"),
        ("places.json", "d", '{"cafe": "cafe", "annex": "cafe", "library": "cafe",'
                             ' "gym": "cafe"}',
         "symbol 'd' already exists"),
        ("mood.json", "f", '{"a": "a", "b": "b"}',
         "signature has no distance symbol"),
        ("places.json", "best", "[1]", "a function table must be a JSON object"),
        ("places.json", "best", '{"cafe": 1}',
         "function table entries map element tuples to elements, got 'cafe': 1"),
        ("places.json", "9x", TOTAL, "relation name '9x' is not an identifier"),
        ("places.json", "sup", TOTAL, "relation name 'sup' is a reserved keyword"),
    ], ids=["not-total", "taken-name", "no-distance", "not-an-object", "non-string-output",
            "not-an-identifier", "keyword-name"])
    def test_malformed_input_exits_2(self, capsys, structure, name, table, message):
        # a malformed table or target is refused like any bad input, not
        # reported as a failed check
        code, out, err = run(capsys, "encode-fn", "--structure", str(self.DATA / structure),
                             "--name", name, "--table", table)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_negative_modulus_exits_2(self, capsys):
        # a constant below zero is malformed, not a constant the table violates
        code, out, err = run(capsys, "encode-fn", "--structure", str(self.DATA / "places.json"),
                             "--name", "best", "--table", self.TOTAL, "--modulus", "-1")
        assert (code, out, err) == (2, "", "error: declared function constant -1 is negative\n")


class TestRepeatedKeys:
    """A key given twice is refused as bad input, never read as the last one."""

    STRUCTURE = ('{"schema": "contlog.structure/1", "signature": {"relations": '
                 '[{"name": "P", "arity": 1, "space": {"finite": ["0", "1"]}}]}, '
                 '"universe": ["a", "b"], "interp": {"P": {"a": "0", "b": "1", %s: "1"}}}')

    @pytest.mark.parametrize("key, message", [
        ('"a"', "repeated JSON key 'a'"),
        ('" a"', "P: two keys name the tuple ('a',)"),
    ], ids=["raw", "padded"])
    def test_structure_file(self, tmp_path, capsys, key, message):
        path = tmp_path / "twice.json"
        path.write_text(self.STRUCTURE % key)
        code, out, err = run(capsys, "eval", "--structure", str(path),
                             "--formula", "Q x. P(x)")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_library_file(self, files, tmp_path, capsys):
        path = tmp_path / "lib.json"
        path.write_text('{"connectives": {"not": {"kind": "neg", "space": {"finite": ["0"]}},'
                        ' "not": {"kind": "neg", "space": {"finite": ["1"]}}}}')
        code, out, err = run(capsys, "eval", "--structure", files["m"], "--library", str(path),
                             "--formula", "sup x. P(x)")
        assert (code, out, err) == (2, "", "error: repeated JSON key 'not'\n")

    def test_function_table(self, files, tmp_path, capsys):
        table = '{"a": "b", "b": "a", "c": "a", "a": "c"}'
        path = tmp_path / "table.json"
        path.write_text(table)
        for source in (("--table", table), ("--table-file", str(path))):
            code, out, err = run(capsys, "encode-fn", "--structure", files["metric"],
                                 "--name", "f", *source)
            assert (code, out, err) == (2, "", "error: repeated JSON key 'a'\n")


class TestFuzz:
    def test_json_lines_and_summary(self, files, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "7", "--trials", "10",
                           "--suite", "roundtrip", "--suite", "quantifier")
        assert code == 0
        lines = out.strip().split("\n")
        *records, last = [json.loads(line) for line in lines]
        assert len(records) == 10
        assert all(r["ok"] for r in records)
        assert {r["kind"] for r in records} == {"roundtrip", "quantifier"}
        assert last["summary"]["trials"] == 10
        assert last["summary"]["failures"] == 0

    def test_seed_repeats_byte_for_byte(self, files, capsys):
        _, first, _ = run(capsys, "fuzz", "--seed", "3", "--trials", "6",
                          "--suite", "quotient")
        _, second, _ = run(capsys, "fuzz", "--seed", "3", "--trials", "6",
                           "--suite", "quotient")
        assert first == second

    PINNED = {7: "c970a1bc4b5b18ec82ba2cb4d8531db1d14e386910b4cc86278f39d99eecd55a",
              4101: "8eb073b4872445d5b537cd0c2a3ae045347dd1fe48757a7e30dfe3f1af1481f2",
              4102: "f3b4eb9752c42c783dabf092487ef2a06c1796a1e39fcb76a4ee112b1ce10a40"}

    @pytest.mark.parametrize("seed", PINNED)
    def test_default_suites_output_is_pinned(self, files, capsys, seed):
        # a change that keeps every value and budget keeps this output
        # byte for byte
        code, out, _ = run(capsys, "fuzz", "--seed", str(seed), "--trials", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[seed]

    def test_unknown_suite_rejected_by_argparse(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seed", "1", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_formula_sources_are_exclusive(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--structure", files["m"],
                  "--formula", "P(x)", "--formula-file", "phi.txt"])
        assert exc.value.code == 2


class TestWriteFailures:
    @pytest.mark.parametrize("argv", [
        ("translate", "--signature", "{sig}", "--step", "1/4"),
        ("quotient", "--structure", "{metric}"),
        ("encode-fn", "--structure", "{metric}", "--name", "f",
         "--table", '{{"a": "b", "b": "a", "c": "a"}}'),
    ])
    @pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/doc.json"])
    def test_unwritable_out_is_a_format_error(self, files, capsys, argv, out):
        out = out.format(**files)
        code, stdout, err = run(capsys, *(a.format(**files) for a in argv),
                                "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: [Errno ")
        assert err.count("\n") == 1

    def test_closed_stdout(self):
        # the reading end of the pipe is closed before the command writes
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "contlog.cli", "translate",
                 "--structure", str(root / "demos" / "data" / "mood.json"),
                 "--step", "1/4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            "error: cannot write output: stdout was closed by its reader\n")


class TestNetCap:
    """A value-space grid beyond the net cap is refused before any point is
    built: exit 2 with one error line, at once and in little memory."""

    MESSAGE = ("error: the interval [0,1] with step 1/1000000000000 has "
               "1000000000001 points; the cap is 65537\n")

    def test_translate_step(self, files, capsys):
        assert run(capsys, "translate", "--structure", files["m"],
                   "--step", "1/1000000000000") == (2, "", self.MESSAGE)

    def test_structure_interval(self, files, capsys):
        doc = json.loads(json.dumps(M_DOC))
        doc["signature"]["relations"][0]["space"] = {"interval": ["0", "1", "1/1000000000000"]}
        path = files["dir"] / "fine.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "eval", "--structure", str(path), "--formula", "sup x. P(x)") == (
            2, "", self.MESSAGE)


class TestUnexpectedErrors:
    def test_deep_formula_exits_2(self, files, capsys):
        formula = "sup x. " * 1500 + "P(x)"
        code, out, err = run(capsys, "eval", "--structure", files["m"],
                             "--formula", formula)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_recursion_error_has_its_own_message(self, capsys):
        mood = Path(__file__).resolve().parents[1] / "demos" / "data" / "mood.json"
        code, out, err = run(capsys, "eval", "--structure", str(mood),
                             "--formula", "sup x. " * 1500 + "P(x)")
        assert (code, out, err) == (2, "", "error: input is nested too deeply to process\n")

    def test_non_contlog_exception_exits_2(self, files, capsys, monkeypatch):
        import contlog.cli

        def boom(*args, **kwargs):
            raise RuntimeError("line one\nline two")

        monkeypatch.setattr(contlog.cli, "evaluate", boom)
        code, out, err = run(capsys, "eval", "--structure", files["m"],
                             "--formula", "P(x)", "--assign", "x=a")
        assert code == 2 and out == ""
        assert err.startswith("error: internal error: RuntimeError") and err.count("\n") == 1
