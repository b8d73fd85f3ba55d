"""Count the bytecode instructions one benchmark batch executes.

    python3 tools/opcount.py --workload quantifier --seed 4203 --batch 0

Prints one JSON line: the instructions executed by `Workload.batch(P)`
(building the batch's ops) and by `Workload.run` over every op of that
batch.  Counts are taken with `sys.settrace` opcode events in every Python
frame, so they are deterministic for a given Python version and do not drift
with the machine's load the way wall-clock times do; time spent inside C
code is not counted.  The workloads are the in-process ones of
`perfbench/oracle_workloads.py`, read as they are.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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


def count(name: str, seed: int, p: int) -> dict:
    from oracle_workloads import Coding, Quantifier
    wl = {"coding": Coding, "quantifier": Quantifier}[name](seed)
    build = OpcodeCounter()
    ops = build.run(wl.batch, p)
    run = OpcodeCounter()
    run.run(lambda: [wl.run(op) for op in ops])
    return {"workload": name, "seed": seed, "batch": p, "ops": len(ops),
            "batch_opcodes": build.count, "run_opcodes": run.count,
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, help="default: the workload's default seed")
    ap.add_argument("--batch", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    if args.seed is None:
        from oracle_workloads import Coding, Quantifier
        args.seed = {"coding": Coding, "quantifier": Quantifier}[args.workload].default_seed
    print(json.dumps(count(args.workload, args.seed, args.batch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
