"""The cli workload: cold `python -m contlog.cli` requests, one at a time.

A batch is a fixed, seeded list of requests: the demo commands on
`demos/data`, `Q x. P(x)` evaluations on generated single-symbol structures
with nets of 8 to 16 points, and a small `fuzz` run.  Every request checks
its exit code; every eval answer is compared with one computed here straight
from the input JSON, and every fuzz run must report zero failures.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from ops import Op

HERE = os.path.dirname(os.path.abspath(__file__))


#: Q-evaluation net sizes in one batch: 8..16 once, 8..11 twice more.
CLI_NET_SIZES = tuple(range(8, 17)) + 2 * tuple(range(8, 12))
CLI_FUZZ_REQUESTS = 2
CLI_FUZZ_TRIALS = 30
CLI_TIMEOUT_S = 120

ENCODE_TABLE = '{"cafe":"cafe","annex":"cafe","library":"cafe","gym":"library"}'


# (arguments, expected exit code, eval check or None).  An eval check names
# the structure file, the relation and the reading: "sup", "inf" or "Q".
# Paths under demos/data are relative to the repository root.
CLI_DEMO_REQUESTS = (
    (["eval", "--structure", "demos/data/mood.json", "--formula", "sup x. P(x)"], 0,
     ("demos/data/mood.json", "P", "sup")),
    (["eval", "--structure", "demos/data/mood.json", "--formula", "inf x. P(x)"], 0,
     ("demos/data/mood.json", "P", "inf")),
    (["eval", "--structure", "demos/data/mood.json", "--formula", "Q x. P(x)"], 0,
     ("demos/data/mood.json", "P", "Q")),
    (["eval", "--structure", "demos/data/places.json", "--formula", "inf x. open_late(x)"], 0,
     ("demos/data/places.json", "open_late", "inf")),
    (["translate", "--structure", "demos/data/mood.json", "--step", "1/4"], 0, None),
    (["check-metric", "--structure", "demos/data/places.json"], 0, None),
    (["check-metric", "--structure", "demos/data/places_broken.json"], 1, None),
    (["quotient", "--structure", "demos/data/places.json"], 0, None),
    (["encode-fn", "--structure", "demos/data/places.json", "--name", "best",
      "--table", ENCODE_TABLE], 0, None),
)
CLI_DEMO_REPEATS = 9


@dataclass
class CliRequest:
    args: list
    expect_exit: int
    check: tuple | None  # (structure path, relation, reading)
    fuzz: bool = False


def expected_value(path: str, relation: str, reading: str) -> list[str]:
    """The eval answer computed straight from the structure file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    values = sorted({Fraction(v) for v in doc["interp"][relation].values()})
    picked = {"sup": values[-1:], "inf": values[:1], "Q": values}[reading]
    return [str(v) for v in picked]


def reported_value(doc: dict) -> list[str]:
    value = doc["value"]
    members = value["members"] if isinstance(value, dict) else [value]
    return [str(Fraction(m)) for m in members]


def write_net_structure(path: str, rng: random.Random, points: int) -> None:
    """A single-symbol structure over an evenly spaced net of `points` points."""
    step = Fraction(1, points - 1)
    net = [k * step for k in range(points)]
    universe = [f"e{i}" for i in range(rng.randint(2, 5))]
    doc = {
        "schema": "contlog.structure/1",
        "signature": {"schema": "contlog.signature/1", "relations": [
            {"name": "P", "arity": 1, "space": {"interval": ["0", "1", str(step)]}}]},
        "universe": universe,
        "interp": {"P": {e: str(rng.choice(net)) for e in universe}},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


class Cli:
    name = "cli"
    default_seed = 7
    seeds_note = "the seed orders the requests and fills the generated structures"
    batch_size = len(CLI_DEMO_REQUESTS) * CLI_DEMO_REPEATS + len(CLI_NET_SIZES) + CLI_FUZZ_REQUESTS

    def __init__(self, seed: int, tracer=None, *, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.requests = self._write_inputs()
        src = os.path.join(root, "src")
        self.env = {**os.environ, "PYTHONPATH": src}
        self.env.pop("PYTHONHOME", None)

    def _write_inputs(self) -> list[CliRequest]:
        rng = random.Random(f"cli:{self.seed}")
        os.makedirs(self.workdir, exist_ok=True)
        requests = [CliRequest(list(args), code, check)
                    for _ in range(CLI_DEMO_REPEATS)
                    for args, code, check in CLI_DEMO_REQUESTS]
        for i, points in enumerate(CLI_NET_SIZES):
            path = os.path.join(self.workdir, f"net{i:02d}-{points}.json")
            write_net_structure(path, rng, points)
            requests.append(CliRequest(
                ["eval", "--structure", path, "--formula", "Q x. P(x)"], 0, (path, "P", "Q")))
        for _ in range(CLI_FUZZ_REQUESTS):
            requests.append(CliRequest(
                ["fuzz", "--seed", str(rng.randrange(10**6)), "--trials",
                 str(CLI_FUZZ_TRIALS)], 0, None, fuzz=True))
        rng.shuffle(requests)
        return requests

    def batch(self, p: int) -> list[Op]:
        return [Op(p * self.batch_size + i, req) for i, req in enumerate(self.requests)]

    def _command(self, req: CliRequest, spans_path: str | None) -> list[str]:
        args = req.args if req.fuzz else req.args + ["--json"]
        if spans_path is None:
            return [sys.executable, "-m", "contlog.cli", *args]
        return [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *args]

    def run(self, op: Op):
        traced = self.tracer is not None and self.tracer.active
        spans_path = os.path.join(self.workdir, "child-spans.json") if traced else None
        proc = subprocess.Popen(self._command(op.payload, spans_path), cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, "timed out"
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.add_child_spans(json.load(fh))
            os.remove(spans_path)
        return proc.returncode, out, err

    def verdict(self, op: Op, result) -> tuple[bool, str]:
        code, out, _ = result
        req = op.payload
        if code != req.expect_exit:
            return False, f"exit {code}"
        lines = out.strip().splitlines()
        try:
            if req.fuzz:
                summary = json.loads(lines[-1])["summary"]
                return summary["failures"] == 0 and summary["trials"] == CLI_FUZZ_TRIALS, ""
            doc = json.loads(out)
        except (IndexError, KeyError, ValueError):
            return False, "unreadable output"
        if req.check is None:
            return doc.get("ok") is (code == 0), ""
        path, relation, reading = req.check
        got = reported_value(doc)
        want = expected_value(os.path.join(self.root, path), relation, reading)
        return got == want, ",".join(got)

