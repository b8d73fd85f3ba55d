"""contlog benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]
    python3 perfbench/run.py --record-reference

Workloads (see reference.json for why each was chosen):

    coding      one verify_coding verdict per op, criterion-1 instances
    quantifier  the two set-quantifier verifiers per op, criteria 2-3 instances
    cli         one cold `python -m contlog.cli` request per op

The program is imported from the `src/` directory next to this one; the
benchmark refuses to run without it.  A run is a closed loop with one client
and no threads: it runs a fixed number of whole batches of ops, each batch
in a fresh worker process that times its ops one at a time, and checks every
op's verdict.  The number of batches is the workload's `batches` in
reference.json, the count that fills BENCHMARK.json's run_seconds on the
code the benchmark was defined on, scaled by --seconds / run_seconds (at
least one).  It does not depend on how fast the code under test is, so two
commits are compared over equally many repeats.  Ops whose outputs have a
recorded digest (every op of a default-seed run) must also reproduce that
digest, so a change of value or budget counts as a failed op.

With --trace 0 the last line reports the end-to-end metrics: set-up time
(median over the workers of the time from spawning one to its first op:
interpreter start, imports, instance and input-file generation), ops per
second and op latency p50/p90 over each op position's fastest time across
the batches (every batch of a run repeats the same instance shapes from the
same cold start, and a shared machine only slows ops down), and the first
worker's peak RSS.  ops_per_s is the batch size over the sum of those
fastest times: the throughput of a batch made of every op's fastest repeat.
With --trace 1 it reports the per-layer metrics of the first batch, measured
by wrapping contlog's public functions, and the traced throughput; the spans
are written to .perfbench/trace-NAME-SEED.json.
--all runs every workload both ways at its default seed and reports the
tracing overhead.  --record-reference rewrites reference.json, and is only
for a change that alters the benchmark's inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("coding", "quantifier", "cli")
WORKER_TIMEOUT_S = 170
SETUP_SAMPLES = 5
#: p90 is reported only with at least this many ops beyond it
TAIL_SAMPLES = 10

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
LAYERS = ("serialize.structure_from_json", "formula.parse", "hyperspace.hyper",
          "translate.code", "translate.lattice_approx", "connective.mcshane_extend",
          "semantics.evaluate", "valuespace.nearest", "translate.TranslationContext",
          "translate.transport_structure")
LAYER_COUNTS = ("hyperspace.hyper.points", "hyperspace.hyper.cached_entries",
                "connective.mcshane_extend.net_points", "translate.coded_dag_nodes",
                "translate.coded_tree_nodes", "semantics.evaluate.formula_nodes",
                "semantics.eval_error_bound.cached_entries")


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update((name, "count") for name in LAYER_COUNTS)
    units["trace.ops_per_s"] = "1/s"
    return units


def workload_class(name: str):
    if name == "cli":
        from cli_workload import Cli
        return Cli
    from oracle_workloads import Coding, Quantifier
    return {"coding": Coding, "quantifier": Quantifier}[name]


def make_workload(name: str, seed: int, tracer=None):
    return workload_class(name)(seed, tracer, root=ROOT,
                                workdir=os.path.join(WORKDIR, name))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_seconds() -> int:
    return load_json(BENCHMARK)["run_seconds"]


def batch_count(name: str, seconds: float) -> int:
    """The fixed number of batches a run of `seconds` seconds makes."""
    batches = load_json(REFERENCE)["workloads"][name]["batches"]
    return max(1, round(batches * seconds / run_seconds()))


def reference_digests(name: str, seed: int) -> list[str]:
    """Recorded digests by op index, for the seed they were recorded at."""
    ref = load_json(REFERENCE)["digests"][name]
    return ref["ops"] if ref["seed"] == seed else []


# ---------------------------------------------------------------------------
# Measurement


def run_batch(name: str, seed: int, p: int, trace: bool, setup_only: bool = False) -> dict:
    """Run batch p in this (fresh) process; the worker side of `measure`."""
    tracer = None
    if trace:
        from spans import Tracer, install_layers, module_cache_entries
        tracer = Tracer()
    wl = make_workload(name, seed, tracer)
    in_process_trace = tracer is not None and name != "cli"
    if in_process_trace:
        install_layers(tracer)
    # cache entries added by the verdicts' own evaluations, not by the ops
    verdict_entries = Counter()
    ops = wl.batch(p)
    doc = {"ready": time.perf_counter(), "times": [], "ok": [], "digests": [], "errors": []}
    if setup_only:
        return doc
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.activate(op.index):
                    out = wl.run(op)
            else:
                out = wl.run(op)
        except Exception:  # a crashing op is a failed op; keep measuring
            doc["times"].append(time.perf_counter() - t0)
            ok, text = False, traceback.format_exc()
        else:
            doc["times"].append(time.perf_counter() - t0)
            before = module_cache_entries() if in_process_trace else None
            ok, text = wl.verdict(op, out)
            if before is not None:
                verdict_entries.update(module_cache_entries())
                verdict_entries.subtract(before)
        doc["ok"].append(ok)
        doc["digests"].append(digest(text))
        if not ok and len(doc["errors"]) < 3:
            doc["errors"].append(f"op {op.index}: {text}")
    doc["peak_rss_mb"] = peak_rss_mb(name)
    if tracer is not None:
        doc["layers"] = tracer.snapshot()
        if in_process_trace:
            entries = Counter(module_cache_entries())
            entries.subtract(verdict_entries)
            doc["layers"]["counts"].update(entries)
        if p == 0:
            tracer.dump(trace_path(name, seed))
    return doc


def trace_path(name: str, seed: int) -> str:
    return os.path.join(WORKDIR, f"trace-{name}-{seed}.json")


class Measurement:
    def __init__(self):
        self.batches: list[dict] = []  # one worker report per batch
        self.setup_s: list[float] = []
        self.failed = 0
        self.digests: list[str] = []  # by op index

    @property
    def attempted(self) -> int:
        return sum(len(b["times"]) for b in self.batches)

    def best_times(self) -> list[float]:
        """Each op position's fastest time over the batches.

        Batches repeat the same instance shapes from the same cold start, and
        a shared machine only ever slows an op down, so the fastest of an op's
        repeats is its steadiest reading.
        """
        return [min(times) for times in zip(*(b["times"] for b in self.batches))]


def spawn_worker(name: str, seed: int, p: int, trace: bool,
                 setup_only: bool = False) -> tuple[dict, float]:
    """Run batch p in a fresh process; returns its report and its set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace)), "--batch", str(p)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"batch {p} of {name} failed:\n{done.stderr}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    return doc, doc["ready"] - spawned


def measure(name: str, seed: int, batches: int, trace: bool = False,
            expected: list[str] = ()) -> Measurement:
    """Run `batches` whole batches, each in a fresh process.

    Every batch does equal work from the same cold start, so the batches of
    a run are replicates.  The time from spawning a worker to its first op is
    one set-up sample; workers that only set up top the samples up to
    SETUP_SAMPLES.
    """
    m = Measurement()
    for p in range(batches):
        doc, setup = spawn_worker(name, seed, p, trace)
        m.setup_s.append(setup)
        for err in doc["errors"]:
            print(f"failed {err}", file=sys.stderr)
        for ok, d in zip(doc["ok"], doc["digests"]):
            index = len(m.digests)
            m.digests.append(d)
            if not ok or (index < len(expected) and expected[index] != d):
                m.failed += 1
        m.batches.append(doc)
    while len(m.setup_s) < SETUP_SAMPLES:
        m.setup_s.append(spawn_worker(name, seed, 0, trace, setup_only=True)[1])
    return m


def peak_rss_mb(name: str) -> float:
    """ru_maxrss of this process, or of its largest child for the cli."""
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile of n values."""
    return max(1, math.ceil(n * q / 100))


def percentile(sorted_values: list[float], q: int) -> float:
    return sorted_values[rank(len(sorted_values), q) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHOME", None)
    return env


def end_to_end(m: Measurement) -> dict[str, float]:
    times = sorted(m.best_times())
    n = len(times)
    if n - rank(n, 90) < TAIL_SAMPLES:
        raise RuntimeError(f"{n} ops leave fewer than {TAIL_SAMPLES} beyond p90")
    return {
        "setup_s": statistics.median(m.setup_s),
        "ops_per_s": n / sum(times),
        "op_p50_ms": percentile(times, 50) * 1000,
        "op_p90_ms": percentile(times, 90) * 1000,
        "peak_rss_mb": m.batches[0]["peak_rss_mb"],
    }


def per_layer(m: Measurement) -> dict[str, float]:
    snap = m.batches[0]["layers"]
    out = {"cli.import_s": snap["self_s"].get("cli.import", 0.0)}
    for layer in LAYERS:
        out[f"{layer}.calls"] = snap["calls"].get(layer, 0)
        out[f"{layer}.self_s"] = snap["self_s"].get(layer, 0.0)
    for name in LAYER_COUNTS:
        out[name] = snap["counts"].get(name, 0)
    best = m.best_times()
    out["trace.ops_per_s"] = len(best) / sum(best)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    m = measure(name, seed, batch_count(name, seconds), trace, reference_digests(name, seed))
    attempted = m.attempted
    if trace:
        values, units = per_layer(m), per_layer_units()
        print(f"spans of the first batch: {trace_path(name, seed)}")
    else:
        values, units = end_to_end(m), dict(END_TO_END)
    print(f"workload {name} seed {seed}: {attempted} ops in {len(m.batches)} batches, "
          f"fail_ratio {m.failed / attempted}")
    print("batch ops/s: " + " ".join(f"{len(b['times']) / sum(b['times']):.4g}"
                                     for b in m.batches))
    samples = {"setup_s": len(m.setup_s), "peak_rss_mb": 1}
    for key, value in values.items():
        n = "" if trace else f" (n={samples.get(key, len(m.batches[0]['times']))})"
        print(f"{key} {value} {units[key]}{n}")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Whole-benchmark commands


def run_all(seconds: int) -> int:
    """Every workload untraced and traced at its default seed."""
    status = 0
    for name in WORKLOAD_NAMES:
        seed = workload_class(name).default_seed
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=seconds + 600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} --trace {trace}: exit {done.returncode}")
                status = 1
                continue
            results[trace] = doc = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"== {name} (seed {seed}, trace {trace}): attempted {doc['attempted']}, "
                  f"failed {doc['failed']}, fail_ratio {doc['failed'] / doc['attempted']}")
            for key, metric in doc["metrics"].items():
                print(f"{name} {key} {metric['value']} {metric['unit']}")
            if not doc["correct"]:
                status = 1
        if len(results) == 2:
            overhead = (results[1]["metrics"]["trace.ops_per_s"]["value"]
                        - results[0]["metrics"]["ops_per_s"]["value"])
            print(f"{name} tracing_overhead_ops_per_s {overhead} 1/s")
    return status


def record_reference() -> int:
    """Rewrite reference.json: the digests of every op of a default-seed run."""
    ref = load_json(REFERENCE)
    ref["python"] = platform.python_version()
    ref["nproc"] = os.cpu_count()
    for name in WORKLOAD_NAMES:
        cls = workload_class(name)
        m = measure(name, cls.default_seed, batch_count(name, run_seconds()))
        if m.failed:
            print(f"{name}: {m.failed} failed ops; nothing recorded", file=sys.stderr)
            return 1
        ref["workloads"][name].update(
            default_seed=cls.default_seed, seeds=cls.seeds_note, batch_size=cls.batch_size)
        ref["digests"][name] = {"seed": cls.default_seed, "ops": m.digests}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload both ways")
    p.add_argument("--batch", type=int, help=argparse.SUPPRESS)  # worker mode
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "contlog", "__init__.py")):
        print(f"error: no contlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    if args.all:
        return run_all(args.seconds)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        p.error("--workload is required")
    seed = args.seed if args.seed is not None else workload_class(args.workload).default_seed
    if args.batch is not None:
        print(json.dumps(run_batch(args.workload, seed, args.batch, bool(args.trace),
                                   args.setup_only)))
        return 0
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
