"""tools/opcount.py: the per-function tables of `--top` account for every
counted instruction, the per-op percentiles rank each op's own count, and
the default output stays one JSON line."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def opcount():
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leaf(k):
    return k * 2


def _recursive(k):
    return 0 if k == 0 else _leaf(k) + _recursive(k - 1)


def _failing():
    raise ValueError("caught by the caller")


def _outer():
    try:
        _failing()
    except ValueError:
        pass
    return _recursive(4) + sum(_leaf(k) for k in range(3))


def test_self_counts_add_up_and_cumulative_nests(opcount):
    plain, profile = opcount.OpcodeCounter(), opcount.ProfileCounter()
    assert plain.run(_outer) == profile.run(_outer) == 26
    assert profile.count == plain.count > 0
    assert sum(profile.own.values()) == profile.count
    cumulative = {code.co_name: c for code, c in profile.cumulative.items()}
    own = {code.co_name: c for code, c in profile.own.items()}
    # the outermost call holds everything; a recursive function counts each
    # instruction below its outermost call once; a raising frame still returns
    assert cumulative["_outer"] == profile.count
    assert own["_recursive"] < cumulative["_recursive"] < cumulative["_outer"]
    assert cumulative["_leaf"] == own["_leaf"]
    assert cumulative["_failing"] == own["_failing"] > 0


class _Steps:
    """A workload whose op k runs a loop of k steps, so later ops count more."""

    def batch(self, p):
        return [7, 3, 9, 1, 5, 0, 8, 2, 6, 4]

    def run(self, k):
        total = 0
        for i in range(k):
            total += i
        return total


def test_per_op_percentiles_rank_each_ops_own_count(opcount):
    wl = _Steps()
    result = opcount.measure(wl, 0)
    per_op = []
    for k in sorted(wl.batch(0)):
        counter = opcount.OpcodeCounter()
        counter.run(wl.run, k)
        per_op.append(counter.count)
    assert per_op == sorted(set(per_op))  # one more step, more instructions
    assert result["ops"] == 10 and result["run_opcodes"] == sum(per_op)
    # nearest rank over 10 ops: the 5th and the 9th smallest
    assert (result["op_p50_opcodes"], result["op_p90_opcodes"]) == (per_op[4], per_op[8])
    assert opcount.percentile([5], 50) == opcount.percentile([5], 90) == 5


def test_top_table_lists_the_largest(opcount):
    profile = opcount.ProfileCounter()
    profile.run(_outer)
    lines = opcount.top_table(profile.own, 2, "self").splitlines()
    assert lines[0] == "self:" and len(lines) == 3
    counts = [int(line.split()[0].replace(",", "")) for line in lines[1:]]
    assert counts == sorted(profile.own.values(), reverse=True)[:2]
    assert all(":" in line.split()[1] for line in lines[1:])


def test_top_must_be_positive():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "opcount.py"),
                           "--workload", "coding", "--top", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--top needs a positive count" in proc.stderr


def test_label_names_file_and_function(opcount):
    label = opcount._label(_leaf.__code__)
    assert label == "tests/test_opcount.py:_leaf"
    assert opcount._label(json.dumps.__code__) == "__init__.py:dumps"
