"""Count the bytecode instructions one benchmark batch executes.

    python3 tools/opcount.py --workload quantifier --seed 4203 --batch 0
    python3 tools/opcount.py --workload coding --seed 4101 --batch 0 --top 20

Prints one JSON line: the instructions executed by `Workload.batch(P)`
(building the batch's ops), by `Workload.run` over every op of that batch,
and by one op at the 50th and 90th percentiles (nearest rank, as
`perfbench/run.py` takes its op latencies).  Counts are taken with
`sys.settrace` opcode events in every Python frame, so they are
deterministic for a given Python version and do not drift with the machine's
load the way wall-clock times do; time spent inside C code is not counted.
The per-op percentiles so stand in for the benchmark's op_p50_ms and
op_p90_ms where run-to-run noise hides a shift of a few percent.  The
workloads are the in-process ones of `perfbench/oracle_workloads.py`, read
as they are.

With `--top N`, the run's instructions are also attributed to the functions
that execute them, and two tables precede the JSON line: the N functions
with the most instructions of their own ("self"), and the N with the most
instructions executed while they were on the stack ("cumulative", counting
a recursive function once per outermost call).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("coding", "quantifier")


class OpcodeCounter:
    """A `sys.settrace` hook that counts opcode events in every frame."""

    def __init__(self):
        self.count = 0

    def _trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            self.count += 1
        return self._trace

    def run(self, fn, *args):
        """fn(*args) under the hook; returns its result."""
        sys.settrace(self._trace)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


class ProfileCounter(OpcodeCounter):
    """An `OpcodeCounter` that also counts opcodes per code object: `own`
    those a function executes itself, `cumulative` those executed between
    the outermost call of a function and its return."""

    def __init__(self):
        super().__init__()
        self.own: Counter = Counter()
        self.cumulative: Counter = Counter()
        self._active: Counter = Counter()
        self._entered: list[tuple[object, int]] = []

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if event == "opcode":
            self.count += 1
            self.own[code] += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            self._active[code] += 1
            self._entered.append((code, self.count))
        elif event == "return":
            _, start = self._entered.pop()
            self._active[code] -= 1
            if not self._active[code]:
                self.cumulative[code] += self.count - start
        return self._trace


def _label(code) -> str:
    """`file:qualified name`, the file relative to the repository when it lies
    inside it, else by its base name."""
    path = code.co_filename
    path = (os.path.relpath(path, ROOT) if path.startswith(ROOT + os.sep)
            else os.path.basename(path))
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def top_table(counts: Counter, n: int, title: str) -> str:
    """The n largest counts as aligned text lines under a title."""
    lines = [f"{title}:"]
    for code, c in counts.most_common(n):
        lines.append(f"{c:>12,}  {_label(code)}")
    return "\n".join(lines)


def workload(name: str, seed: int | None):
    from oracle_workloads import Coding, Quantifier
    cls = {"coding": Coding, "quantifier": Quantifier}[name]
    return cls(cls.default_seed if seed is None else seed)


def percentile(sorted_counts: list[int], q: int) -> int:
    """The q-th percentile by nearest rank, as `perfbench/run.py` takes it."""
    return sorted_counts[max(1, math.ceil(len(sorted_counts) * q / 100)) - 1]


def measure(wl, p: int, run: OpcodeCounter | None = None) -> dict:
    """The opcodes of the workload's batch p: its build, its run (the sum of
    each op's own count, traced on its own) and the per-op percentiles.
    `run` counts the run (a plain `OpcodeCounter` by default)."""
    build = OpcodeCounter()
    ops = build.run(wl.batch, p)
    run = OpcodeCounter() if run is None else run
    per_op = []
    for op in ops:
        start = run.count
        run.run(wl.run, op)
        per_op.append(run.count - start)
    per_op.sort()
    return {"ops": len(ops), "batch_opcodes": build.count, "run_opcodes": run.count,
            "op_p50_opcodes": percentile(per_op, 50), "op_p90_opcodes": percentile(per_op, 90)}


def count(name: str, seed: int | None, p: int, run: OpcodeCounter | None = None) -> dict:
    """`measure` of batch p of a named workload, labelled."""
    wl = workload(name, seed)
    return {"workload": name, "seed": wl.seed, "batch": p, **measure(wl, p, run),
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, help="default: the workload's default seed")
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--top", type=int, metavar="N",
                    help="also print the N functions with the most run opcodes, "
                         "self and cumulative")
    args = ap.parse_args(argv)
    if args.top is not None and args.top < 1:
        ap.error("--top needs a positive count")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    profile = ProfileCounter() if args.top else None
    result = count(args.workload, args.seed, args.batch, profile)
    if profile is not None:
        print(top_table(profile.own, args.top, "self"))
        print(top_table(profile.cumulative, args.top, "cumulative"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
