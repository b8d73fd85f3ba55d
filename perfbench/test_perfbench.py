"""Checks of the benchmark itself.

Run from the repository root with `python3 -m pytest perfbench`.  The
traced-run test runs every workload's first batch twice, about a minute and
a half in all.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from oracle_workloads import Coding, Quantifier, coding_instance  # noqa: E402
from cli_workload import Cli  # noqa: E402
from ops import Op  # noqa: E402
from contlog.oracle import FuzzConfig, run_coding_trials, run_quantifier_trials  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in run.LAYER_COUNTS


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        done = run_bench("--workload", workload, "--seconds", "0", "--trace", "1")
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        assert doc["correct"]
        assert set(doc["metrics"]) == set(run.per_layer_units())
        counts.append({k: v["value"] for k, v in doc["metrics"].items() if is_count(k)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("kind,seed,trials", [("coding-exact", 4101, 12),
                                               ("coding-grid", 4102, 4)])
def test_coding_instances_are_the_gate_trials(kind, seed, trials):
    cfg = FuzzConfig(seed=seed, universe_size=5, formula_depth=3, trials=trials)
    records = run_coding_trials(cfg, grid=kind == "coding-grid")
    wl = Coding(seed)
    for record in records:
        inst = coding_instance(seed, kind, record.trial)
        check = wl.run(Op(record.trial, inst))
        assert record.detail == f"|diff| {check.max_difference} <= budget {check.budget}"
        assert record.sizes["universe"] == len(inst.M.universe)


def test_quantifier_instances_are_the_gate_trials():
    cfg = FuzzConfig(seed=4203, universe_size=5, formula_depth=3, trials=20)
    wl = Quantifier(4203)
    for record, op in zip(run_quantifier_trials(cfg), wl.batch(0)):
        identity, primordial = wl.run(op)
        assert record.ok == (identity.ok and primordial.ok)
        assert record.detail == f"checked {identity.checked} assignments"
        assert record.sizes["universe"] == len(op.payload.M.universe)
        assert record.sizes["free_vars"] == len(op.payload.body.free_vars)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench("--workload", "coding", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reference_digests_cover_a_default_seed_run():
    ref = run.load_json(run.REFERENCE)
    for cls in (Coding, Quantifier, Cli):
        entry = ref["workloads"][cls.name]
        assert entry["batch_size"] == cls.batch_size
        assert entry["default_seed"] == cls.default_seed
        assert ref["digests"][cls.name]["seed"] == cls.default_seed
        assert len(ref["digests"][cls.name]["ops"]) == (
            cls.batch_size * run.batch_count(cls.name, run.run_seconds()))


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
