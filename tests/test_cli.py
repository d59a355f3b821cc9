"""Command-line surface: exit codes, machine output, mode agreement."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctkernel
from ctkernel.cli import _json_text, main
from ctkernel.judgments import Trace, trace_json_valid
from ctkernel.rules import ReadingsReport


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestEval:
    def test_canonical(self):
        code, text = run(["eval", "lam x. <it,it>"])
        assert code == 0
        assert "lam x. <it, it>" in text
        assert "0 steps" in text

    def test_beta(self):
        code, text = run(["eval", "(lam x. x) it"])
        assert code == 0 and text.startswith("it")

    def test_divergence_exit_2(self):
        code, _ = run(["eval", "(lam x. x x) (lam x. x x)", "--fuel", "100"])
        assert code == 2

    def test_triple_self_application_exit_2(self):
        # the spine grows by one application per step: no Python recursion
        code, text = run(["eval", "(lam x. x x x) (lam x. x x x)"])
        assert code == 2
        assert text.startswith("fuel exhausted after 10000 steps at: (lam x. x x x) ")

    def test_stuck_exit_3(self):
        code, _ = run(["eval", "fst inl it"])
        assert code == 3

    def test_parse_error_exit_1(self):
        code, _ = run(["eval", "lam x. <it,"])
        assert code == 1

    def test_sugar_leaves_underscore_unbound(self, capsys):
        code, text = run(["eval", "True => _"])
        assert code == 0 and text.startswith("True => _\n")
        assert capsys.readouterr().err == "warning: term has unbound variables: _\n"


class TestCheck:
    def test_worked_example_five_steps(self):
        code, text = run(["check", "lam x. <it,it>", "in", "False => True"])
        assert code == 0
        assert "verdict: verified" in text
        numbered = [ln for ln in text.splitlines() if ln.startswith("(")]
        assert len(numbered) == 5
        assert "vacuous-discharge" in text

    def test_binary_check(self):
        code, text = run(["check", "--binary", "it", ":", "it", "in", "True"])
        assert code == 0 and "verdict: verified" in text

    def test_refuted_exit_4(self):
        code, _ = run(["check", "it", "in", "False"])
        assert code == 4

    def test_diverged_exit_2(self):
        code, _ = run(["check", "(lam x. x x) (lam x. x x)", "in", "True", "--fuel", "50"])
        assert code == 2

    def test_unknown_exit_5(self):
        # identity claimed at a quantifier over a domain too deep for depth 1
        code, _ = run([
            "check", "lam f. f", "in",
            "((True \\/ True) => True) => ((True \\/ True) => True)",
            "--depth", "1",
        ])
        assert code == 5

    def test_open_term_exit_1(self):
        code, _ = run(["check", "x", "in", "True"])
        assert code == 1

    def test_open_sugar_exit_1(self, capsys):
        code, _ = run(["check", "lam h. h", "in", "True => _"])
        assert code == 1
        assert "error: type has free variables: _" in capsys.readouterr().err

    def test_binary_flag_mismatch(self):
        code, _ = run(["check", "--binary", "it", "in", "True"])
        assert code == 1
        code, _ = run(["check", "it", ":", "it", "in", "True"])
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["it", "True"], "check expects: <term> [: <term>] in <type>"),
        (["--binary", "it", ":", "in", "True"], "check expects: <term> : <term> in <type>"),
    ])
    def test_malformed_check_exit_1(self, argv, message, capsys):
        assert run(["check", *argv]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEnum:
    def test_complete_listing(self):
        code, text = run(["enum", "True \\/ True", "--depth", "2"])
        assert code == 0
        assert text.splitlines() == ["inl it", "inr it", "complete"]

    def test_incomplete_exit_5(self):
        code, text = run(["enum", "True \\/ True", "--depth", "1"])
        assert code == 5
        assert "incomplete" in text

    def test_refuted_type_exit_4(self):
        assert run(["enum", "fst it"]) == (4, "enumeration failed: refuted\n")


class TestRule:
    def test_flagged_quadrant(self):
        code, text = run(["rule", "P /\\ Q true |- P true"])
        assert code == 0
        assert "derivable: no" in text
        assert "admissible: verified at bound" in text
        assert "FLAGGED" in text

    def test_refuted_rule_exit_4(self):
        code, text = run(["rule", "P \\/ Q true |- P true"])
        assert code == 4
        assert "P := False" in text and "Q := True" in text
        assert "inr it" in text

    @pytest.mark.parametrize("text", ["|- P true", "; |- P true"])
    def test_zero_premise_refutation_names_no_witness(self, text):
        code, out = run(["rule", text])
        assert code == 4
        assert out.splitlines()[-1] == "admissible: refuted at [P := False]"
        code, out = run(["rule", text, "--machine"])
        assert code == 4 and json.loads(out)["trace"]["premise_witnesses"] == []

    def test_witness_beyond_depth_refuted(self):
        # the premise witness <it, it> is deeper than --depth 1
        code, text = run(["rule", "P /\\ P true |- False true", "--depth", "1"])
        assert code == 4
        assert "P := True" in text and "<it, it>" in text

    def test_instance_depth_help(self, capsys):
        assert run(["rule", "--help"])[0] == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--instance-depth INSTANCE_DEPTH reported among the bounds; "
                "admissibility is exact over the True/False valuations, "
                "so it changes no verdict") in help_text

    def test_rule_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "P true; Q true |- P /\\ Q true\n\nP /\\ Q true |- P true\n"
        )
        code, text = run(["rule", "--file", str(path)])
        assert code == 0
        assert text.count("rule:") == 2

    def test_rule_file_error_position(self, tmp_path, capsys):
        # the fault is the 'R' on line 4, in the second block
        path = tmp_path / "rules.txt"
        path.write_text("P true |- P true\n\nP true;\n  R |- Q true\n")
        code, text = run(["rule", "--file", str(path)])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == "error: 4:3: a rule judgment must end in 'true'\n"

    def test_rule_file_worst_verdict(self, tmp_path):
        # the refuted rule comes first: the file's verdict is the worst
        # of its rules, not the last one, in both modes
        path = tmp_path / "rules.txt"
        path.write_text("P \\/ Q true |- P true\n\nP true; Q true |- P /\\ Q true\n")
        code, text = run(["rule", "--file", str(path), "--machine"])
        assert code == 4
        assert json.loads(text)["verdict"] == "refuted"
        code, _ = run(["rule", "--file", str(path)])
        assert code == 4

    @pytest.mark.parametrize("text, message", [
        (None, "provide exactly one of an inline rule or --file"),
        ("# only comments\n\n# here\n", "no rules found in file"),
    ])
    def test_no_rule_exit_1(self, tmp_path, capsys, text, message):
        argv = ["rule"]
        if text is not None:
            path = tmp_path / "rules.txt"
            path.write_text(text)
            argv += ["--file", str(path)]
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestKripke:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "world u\nworld v\norder u v\natom A\natom B\nverify v A t0\n"
        )
        return str(path)

    def test_monotone_pass(self, model_file):
        code, text = run(["kripke", model_file, "--judgment", "hyp A B", "--check-monotone"])
        assert code == 0 and "pass" in text

    def test_monotone_counterexample(self, model_file):
        code, text = run(["kripke", model_file, "--judgment", "rule A B", "--check-monotone"])
        assert code == 4 and "u <= v" in text

    def test_forces_table(self, model_file):
        code, text = run(["kripke", model_file, "--judgment", "rule A B"])
        assert code == 0
        assert "u: forced" in text and "v: not-forced" in text

    def test_single_world(self, model_file):
        code, _ = run(["kripke", model_file, "--judgment", "A", "--world", "v"])
        assert code == 0
        code, _ = run(["kripke", model_file, "--judgment", "A", "--world", "u"])
        assert code == 4

    def test_unknown_atom_exit_1(self, model_file):
        code, _ = run(["kripke", model_file, "--judgment", "Z"])
        assert code == 1

    def test_undeclared_atom_anywhere_exit_1(self, model_file, capsys):
        # A is not forced at u, yet the undeclared Z is still an error
        assert run(["kripke", model_file, "--judgment", "rule A Z", "--world", "u"]) == (1, "")
        assert capsys.readouterr().err == "error: unknown atom 'Z'\n"

    @pytest.mark.parametrize("extra", [[], ["--check-monotone"]])
    def test_undeclared_atom_without_worlds_exit_1(self, tmp_path, capsys, extra):
        # no world reads the atom's tokens, yet the undeclared Z is an error
        path = tmp_path / "model.txt"
        path.write_text("atom A\n")
        assert run(["kripke", str(path), "--judgment", "rule A Z", *extra]) == (1, "")
        assert capsys.readouterr().err == "error: unknown atom 'Z'\n"

    @pytest.mark.parametrize("args, message", [
        (["--judgment", "A B"], "trailing input in judgment: B"),
        (["--judgment", "(A"], "missing closing parenthesis"),
        (["--judgment", ")"], "unexpected ')'"),
        (["--judgment", "A", "--world", "w"], "unknown world 'w'"),
    ])
    def test_bad_judgment_or_world_exit_1(self, model_file, capsys, args, message):
        assert run(["kripke", model_file, *args]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_of_unknown_world_exit_1(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        path.write_text("world u\natom A\nverify w A t0\n")
        assert run(["kripke", str(path), "--judgment", "A"]) == (1, "")
        assert capsys.readouterr().err == "error: verify line names unknown world 'w'\n"


class TestMachineMode:
    def test_schema_and_roundtrip(self):
        code, text = run(["check", "lam x. <it,it>", "in", "False => True", "--machine"])
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"command", "config", "verdict", "trace"}
        assert doc["command"] == "check"
        assert doc["verdict"] == "verified"
        assert trace_json_valid(doc["trace"])
        assert json.loads(json.dumps(doc)) == doc

    def test_binary_trace_schema(self):
        code, text = run([
            "check", "--binary", "lam x. x", ":", "lam y. it",
            "in", "True => True", "--machine",
        ])
        assert code == 0
        doc = json.loads(text)
        assert doc["verdict"] == "verified"
        assert doc["config"]["binary"] is True
        assert trace_json_valid(doc["trace"])

    def test_eval_machine(self):
        code, text = run(["eval", "(lam x. x) it", "--machine"])
        doc = json.loads(text)
        assert code == 0
        assert doc["verdict"] == "canonical"
        assert doc["trace"]["result"] == "it"
        assert doc["trace"]["steps"] == 1

    def test_rule_machine(self):
        code, text = run(["rule", "P /\\ Q true |- P true", "--machine"])
        doc = json.loads(text)
        assert code == 0
        assert doc["trace"]["derivable"] is False
        assert doc["trace"]["exhausted"] is True
        assert doc["trace"]["flagged"] is True

    def test_modes_agree_on_verdicts(self):
        battery = [
            (["check", "it", "in", "True"], "verified"),
            (["check", "it", "in", "False"], "refuted"),
            (["check", "lam x. <it,it>", "in", "False => True"], "verified"),
            (["check", "--binary", "inl it", ":", "inr it", "in", "True \\/ True"], "refuted"),
            (["check", "(lam x. x x) (lam x. x x)", "in", "True", "--fuel", "40"], "diverged"),
        ]
        for argv, expected in battery:
            hcode, htext = run(argv)
            mcode, mtext = run(argv + ["--machine"])
            assert hcode == mcode
            doc = json.loads(mtext)
            assert doc["verdict"] == expected
            assert f"verdict: {expected}" in htext

    def test_config_echoed(self):
        _, text = run(["check", "it", "in", "True", "--machine", "--fuel", "77", "--depth", "3"])
        doc = json.loads(text)
        assert doc["config"]["fuel"] == 77
        assert doc["config"]["depth"] == 3

    def test_bad_budget_exit_1(self):
        code, _ = run(["check", "it", "in", "True", "--fuel", "0"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "(lam x. x) it"], ["check", "lam x. <it,it>", "in", "False => True"],
        ["enum", "True \\/ True"], ["rule", "P /\\ Q true |- P true"],
    ])
    def test_each_mode_builds_only_what_it_prints(self, argv, monkeypatch):
        def unused(*args, **kw):
            raise AssertionError("built output that is not printed")

        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", unused)
            assert run(argv)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(Trace, "render", unused)
            patch.setattr(ReadingsReport, "render", unused)
            assert run(argv + ["--machine"])[0] == 0


class TestDeepTrace:
    """A check whose trace is 300 levels deep: its text and its document
    are built by a loop, and each mode builds only what it prints."""

    DEPTH = 300
    ARGV = ["check", "inl " * DEPTH + "it", "in", "True" + " \\/ False" * DEPTH]

    def ctk(self, *extra):
        src = Path(ctkernel.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-m", "ctkernel", *self.ARGV, *extra],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )

    def test_human(self):
        proc = self.ctk()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("verdict: verified\n")

    def test_machine(self):
        proc = self.ctk("--machine")
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "verified"
        assert trace_json_valid(doc["trace"])


class TestDeeperMachineTrace(TestDeepTrace):
    """600 levels: the document is written by a loop, so both modes verify.
    ``json.loads`` recurses on a document this deep, so the verdict is read
    off its top level, which the trace follows."""

    DEPTH = 600
    ARGV = ["check", "inl " * DEPTH + "it", "in", "True" + " \\/ False" * DEPTH]

    def test_machine(self):
        human, machine = self.ctk(), self.ctk("--machine")
        assert (machine.returncode, machine.stderr) == (human.returncode, human.stderr) == (0, "")
        verdict = human.stdout.rsplit("verdict: ", 1)[1].strip()
        head, trace = machine.stdout.split(',\n  "trace": ', 1)
        assert json.loads(head + "\n}")["verdict"] == verdict == "verified"
        assert trace.startswith("[") and trace.endswith("\n  ]\n}\n")


class TestJsonText:
    """The machine document is ``json.dumps(doc, indent=2)``, byte for byte."""

    @pytest.fixture
    def files(self, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("world u\nworld v\norder u v\natom A\natom B\nverify v A t0\n")
        rules = tmp_path / "rules.txt"
        rules.write_text("P \\/ Q true |- P true\n\nP true; Q true |- P /\\ Q true\n")
        return {"MODEL": str(model), "RULES": str(rules)}

    @pytest.mark.parametrize("argv", [
        ["eval", "(lam x. x) it"],
        ["eval", "(lam x. x x x) (lam x. x x x)", "--fuel", "5"],
        ["eval", "fst inl it"],
        ["check", "lam x. <it,it>", "in", "False => True"],
        ["check", "--binary", "lam x. x", ":", "lam y. it", "in", "True => True"],
        ["check", "--binary", "inl it", ":", "inr it", "in", "True \\/ True"],
        ["check", "(lam x. x x) (lam x. x x)", "in", "True", "--fuel", "40"],
        ["check", "it", "in", "False"],
        ["enum", "True \\/ True", "--depth", "2"],
        ["enum", "fst it"],
        ["rule", "P /\\ Q true |- P true"],
        ["rule", "P \\/ Q true |- P true"],
        ["rule", "--file", "RULES"],
        ["kripke", "MODEL", "--judgment", "hyp A B", "--check-monotone"],
        ["kripke", "MODEL", "--judgment", "rule A B", "--check-monotone"],
        ["kripke", "MODEL", "--judgment", "rule A B"],
        ["kripke", "MODEL", "--judgment", "A", "--world", "u"],
        TestDeepTrace.ARGV,
    ])
    def test_same_text_as_json_dumps(self, argv, files):
        _, text = run([files.get(arg, arg) for arg in argv] + ["--machine"])
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {}, [], None, 1.5, "\u00e9\n", {"a": {}, "b": []}, [[]], [[1, [2]], {"c": [None]}],
    ])
    def test_scalars_and_empty_containers(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)


DEEP_TYPE = "True" + " \\/ False" * 1000


class TestTooDeep:
    """Input that a walk still recursing on depth cannot take is an input
    error, exit 1, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["enum", DEEP_TYPE],
        ["rule", DEEP_TYPE + " true |- False true"],
    ])
    def test_exit_1_without_traceback(self, argv):
        proc = ctk_process(argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert "nested too deep" in proc.stderr


class TestDeepKripke:
    """A Kripke judgment 1,000 levels deep is parsed and forced by loops,
    so ``ctk kripke`` prints its verdict."""

    @pytest.mark.parametrize("judgment", ["(" * 1000 + "A" + ")" * 1000, "hyp A " * 1000 + "A"],
                             ids=["brackets", "hyp"])
    def test_exit_0(self, judgment, tmp_path):
        model = tmp_path / "model.txt"
        model.write_text("world u\natom A\nverify u A t0\n")
        proc = ctk_process(["kripke", str(model), "--judgment", judgment])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "u: forced\n", "")


def ctk_process(argv):
    """``ctk`` run as a subprocess, with the stack of a fresh interpreter."""
    src = Path(ctkernel.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "ctkernel", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )
