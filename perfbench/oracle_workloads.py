"""The in-process workloads: coding and quantifier.

Each workload turns a seed into batches of ops.  `batch(p)` builds the p-th
batch (set-up work, never timed as part of an op), `run(op)` is the timed op,
and `verdict(op, out)` checks the result and returns (ok, digest), where the
digest is a canonical string of the op's semantic outputs: its budget and
check results and the source values the op compared, one per assignment.
`verdict` evaluates those values itself, outside the timed op; the
verifiers compare `evaluate` with `evaluate`, so only a recorded value can
catch a change that shifts both sides alike.

* coding      one `verify_coding` verdict on a criterion-1 instance
* quantifier  `verify_quantifier_identity` plus `verify_primordial_bounds`
              on one criteria 2-3 instance

Instances are built exactly as `run_coding_trials` and
`run_quantifier_trials` build theirs, and their shapes are fixed: every batch
holds the same acceptance-gate trials, with their signatures, universes,
formulas and observables.  The seed draws the structures' values anew for
every batch; only the first batch at the default seed keeps the gate's own
values, so it is the gate's trials verbatim.  Fresh shapes per seed would
not give comparable runs: a few percent of the coding instances take most of
its time, and those take times ten times apart, so a few hundred of them
vary by a fifth from seed to seed.  Equal batches also let a run report its
fastest repeat of each op, which shared machines need.
"""
from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from contlog.formula import Apply, Quant, QuantKind, atom
from contlog.connective import max_of
from contlog.oracle import (EXACT_STEP, GRID_TRANSLATION_STEP, FuzzConfig,
                            _as_point, _assignments, _FormulaBuilder, _rng, random_formula,
                            random_signature, random_structure, random_theta,
                            verify_coding, verify_primordial_bounds,
                            verify_quantifier_identity)
from contlog.semantics import Structure, evaluate
from contlog.translate import TranslationContext

from ops import Op


def _no_span(name: str):
    return contextlib.nullcontext()


def redraw_values(M: Structure, rng: random.Random) -> Structure:
    """The same signature and universe, every value drawn anew from its net."""
    interp = {rel.name: {t: rng.choice(rel.space.net)
                         for t in itertools.product(M.universe, repeat=rel.arity)}
              for rel in M.signature.relations}
    return Structure(M.signature, M.universe, interp)


class FixedShapes:
    """Batches over a fixed list of gate trials whose values the seed redraws."""

    def __init__(self, seed: int, tracer=None, **_):
        self.seed = seed
        self.span = tracer.span if tracer is not None else _no_span

    def batch(self, p: int) -> list[Op]:
        ops = []
        for i, shape in enumerate(self.shapes()):
            inst = self.instance(*shape)
            if (self.seed, p) != (self.default_seed, 0):
                rng = random.Random(f"values:{self.name}:{self.seed}:{p}:{i}")
                inst = replace(inst, M=redraw_values(inst.M, rng))
            ops.append(Op(p * self.batch_size + i, inst))
        return ops


# ---------------------------------------------------------------------------
# coding: criterion 1, exact eighths and misaligned grids in a 1000:300 ratio


@dataclass
class CodingInstance:
    kind: str
    trial: int
    step: Fraction
    sig: object
    M: object
    phi: object
    theta: object


def coding_instance(seed: int, kind: str, trial: int) -> CodingInstance:
    """Trial `trial` of `run_coding_trials` for this seed and kind."""
    grid = kind == "coding-grid"
    cfg = FuzzConfig(seed=seed, universe_size=5, formula_depth=3)
    rng = _rng(cfg, kind, trial)
    sig = random_signature(rng, cfg, grid=grid)
    M = random_structure(cfg, sig, rng)
    phi = random_formula(cfg, sig, rng, grid=grid)
    theta = random_theta(rng, phi.value_space)
    step = GRID_TRANSLATION_STEP if grid else EXACT_STEP
    return CodingInstance(kind, trial, step, sig, M, phi, theta)


class Coding(FixedShapes):
    name = "coding"
    default_seed = 4101
    seeds_note = ("shapes are trials 0-79 of gate seed 4101 (exact) and 0-23 of "
                  "4102 (grid); the seed draws the structures' values")
    exact_per_batch = 80
    grid_per_batch = 24
    batch_size = exact_per_batch + grid_per_batch

    def shapes(self) -> list[tuple[int, str, int]]:
        """(gate seed, kind, trial) per op, 10 exact then 3 grid per block."""
        out = []
        for block in range(self.exact_per_batch // 10):
            out += [(4101, "coding-exact", block * 10 + j) for j in range(10)]
            out += [(4102, "coding-grid", block * 3 + j) for j in range(3)]
        return out

    instance = staticmethod(coding_instance)

    def run(self, op: Op):
        inst = op.payload
        with self.span("translate.TranslationContext"):
            ctx = TranslationContext(inst.sig, inst.step)
        return verify_coding(ctx, inst.M, inst.phi, inst.theta)

    @staticmethod
    def verdict(op: Op, check) -> tuple[bool, str]:
        inst = op.payload
        ok = check.ok
        if inst.kind == "coding-exact":
            ok = ok and check.budget == 0 and check.max_difference == 0
        # theta of the source value, per assignment, as verify_coding takes it
        space = inst.phi.value_space
        values = [inst.theta(_as_point(space, evaluate(inst.M, inst.phi, asg).value)).scalar
                  for asg in _assignments(inst.M, inst.phi.free_vars, None)]
        return ok, (f"{check.checked}|{check.budget}|{check.max_difference}|{check.ok}|"
                    + ",".join(map(str, values)))


# ---------------------------------------------------------------------------
# quantifier: criteria 2-3, the set-quantifier identity and primordial bounds


@dataclass
class QuantifierInstance:
    M: object
    body: object
    theta: object


def quantifier_instance(seed: int, trial: int) -> QuantifierInstance:
    """Trial `trial` of `run_quantifier_trials` for this seed."""
    cfg = FuzzConfig(seed=seed, universe_size=5, formula_depth=3)
    rng = _rng(cfg, "quantifier", trial)
    sig = random_signature(rng, cfg)
    M = random_structure(cfg, sig, rng)
    builder = _FormulaBuilder(cfg, sig, rng, grid=False, stable=False)
    body = builder._as_real(builder._node(min(cfg.formula_depth, 2), (Quantifier.var,)))
    if Quantifier.var not in body.free_vars:
        rel = sig.relations[0]
        extra = builder._as_real(atom(sig, rel.name, *([Quantifier.var] * rel.arity)))
        body = Apply(max_of(body.value_space, extra.value_space), (body, extra))
    theta = random_theta(rng, body.value_space)
    return QuantifierInstance(M, body, theta)


class Quantifier(FixedShapes):
    name = "quantifier"
    default_seed = 4203
    seeds_note = ("shapes are trials 0-249 of gate seed 4203; "
                  "the seed draws the structures' values")
    batch_size = 250
    var = "q"

    def shapes(self) -> list[tuple[int, int]]:
        return [(4203, trial) for trial in range(self.batch_size)]

    instance = staticmethod(quantifier_instance)

    def run(self, op: Op):
        inst = op.payload
        return (verify_quantifier_identity(inst.M, inst.body, inst.theta, var=self.var),
                verify_primordial_bounds(inst.M, inst.body, var=self.var))

    @classmethod
    def verdict(cls, op: Op, checks) -> tuple[bool, str]:
        identity, primordial = checks
        inst = op.payload
        # the members of `Q var. body` and its sup and inf, per assignment
        quants = [Quant(kind, cls.var, inst.body)
                  for kind in (QuantKind.SET, QuantKind.SUP, QuantKind.INF)]
        values = []
        for asg in _assignments(inst.M, inst.body.free_vars - {cls.var}, None):
            kset, sup, inf = (evaluate(inst.M, q, asg) for q in quants)
            members = ",".join(str(m.scalar) for m in kset.value.members)
            values.append(f"{members};{sup.scalar};{inf.scalar}")
        return (identity.ok and primordial.ok,
                f"{identity.checked}|{identity.ok}|{primordial.checked}|{primordial.ok}|"
                + "/".join(values))
