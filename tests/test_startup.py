"""Start-up: a ``ctk`` call loads only the modules its subcommand runs,
``import ctkernel`` loads none, and nothing in the package imports
``dataclasses``.  Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctkernel

SRC = Path(ctkernel.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
MODULES = sorted(f"ctkernel.{p.stem}" for p in (SRC / "ctkernel").glob("*.py")
                 if p.stem != "__init__")

CLI = {"ctkernel", "ctkernel.cli", "ctkernel.config", "ctkernel.record"}
EVAL = CLI | {"ctkernel.syntax", "ctkernel.terms", "ctkernel.evaluation"}
CHECK = EVAL | {"ctkernel.judgments", "ctkernel.unary"}
COMMANDS = {
    "eval": (["eval", "fst <it, it>"], EVAL),
    "check": (["check", "lam x. <it, it>", "in", "False => True"], CHECK),
    "check-binary": (["check", "--binary", "it", ":", "it", "in", "True", "--machine"],
                     CHECK | {"ctkernel.binary"}),
    "enum": (["enum", "True \\/ True"], CHECK),
    "rule": (["rule", "P /\\ Q true |- P true"], CHECK | {"ctkernel.rules"}),
    "kripke": (["kripke", "{model}", "--judgment", "hyp A B"], CLI | {"ctkernel.worlds"}),
}


def python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("case", COMMANDS)
def test_command_loads_only_what_it_runs(case, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("world u\nworld v\norder u v\natom A\natom B\nverify v A t0\n")
    argv, expected = COMMANDS[case]
    argv = [a.format(model=model) for a in argv]
    proc = python("-X", "importtime", "-m", "ctkernel", *argv)
    loaded = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {m for m in loaded if m.split(".")[0] == "ctkernel"} == expected


def test_package_import_loads_no_module():
    proc = python("-c", "import json, sys, ctkernel; print(json.dumps(["
                        "sorted(m for m in sys.modules if m.startswith('ctkernel')), "
                        "sorted(set(ctkernel.__all__) - set(dir(ctkernel)))]))")
    loaded, unlisted = json.loads(proc.stdout)
    assert loaded == ["ctkernel"]
    assert unlisted == []


def test_no_module_imports_dataclasses():
    proc = python("-S", "-c", f"import importlib, sys\n"
                              f"for name in {MODULES!r}:\n"
                              f"    importlib.import_module(name)\n"
                              f"print('dataclasses' in sys.modules)")
    assert proc.stdout.split() == ["False"]
