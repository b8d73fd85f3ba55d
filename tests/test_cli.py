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

    def test_bad_assignment_syntax(self, files, capsys):
        code, _, err = run(capsys, "eval", "--structure", files["m"],
                           "--formula", "P(x)", "--assign", "x")
        assert code == 2 and "VAR=ELEMENT" in err


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

    def test_unknown_element_exits_2(self, files, capsys):
        code, _, err = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f", "--table", '{"z": "a"}')
        assert code == 2 and "unknown element" in err

    def test_table_must_be_json(self, files, capsys):
        code, _, err = run(capsys, "encode-fn", "--structure", files["metric"],
                           "--name", "f", "--table", "{not json")
        assert code == 2 and "not valid JSON" in err


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

    def test_default_suites_output_is_pinned(self, files, capsys):
        # a change that keeps every value and budget keeps this output
        # byte for byte
        code, out, _ = run(capsys, "fuzz", "--seed", "7", "--trials", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c970a1bc4b5b18ec82ba2cb4d8531db1d14e386910b4cc86278f39d99eecd55a")

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
