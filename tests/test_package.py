"""The package namespace: every public name resolves, and the coder and the
fuzz harness load only when a name from them is asked for.

The checks that must see the package before any lazy name is touched run in
a fresh interpreter, since other tests in the same run load every module
of the package.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contlog
from contlog import cli, oracle

ROOT = Path(__file__).resolve().parents[1]
LAZY_MODULES = "[m for m in ('contlog.oracle', 'contlog.translate') if m in sys.modules]"


def fresh(script: str) -> str:
    """Run `script` in a new interpreter and return what it printed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_resolves():
    for name in contlog.__all__:
        assert getattr(contlog, name) is not None, name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        contlog.no_such_name


def test_dir_lists_every_public_name_before_loading_it():
    out = fresh("import sys, contlog\n"
                "print(set(contlog.__all__) <= set(dir(contlog)))\n"
                f"print({LAZY_MODULES})\n")
    assert out == "True\n[]\n"


def test_star_import_binds_every_public_name():
    out = fresh("from contlog import *\n"
                "import contlog\n"
                "print([n for n in contlog.__all__ if n not in globals()])\n")
    assert out == "[]\n"


def test_suite_names_match_the_harness():
    assert cli.SUITE_NAMES == tuple(name for name, _, _ in oracle.SUITES)


def test_eval_loads_neither_coder_nor_harness():
    out = fresh("import sys\n"
                "import contlog.cli\n"
                "code = contlog.cli.main(['eval', '--structure',\n"
                "                         'demos/data/mood.json',\n"
                "                         '--formula', 'Q x. P(x)'])\n"
                f"print(code, {LAZY_MODULES})\n")
    assert out == "{0.3, 0.8}\n0 []\n"
