"""Brute-force ground truth and a randomized property harness.

Everything here is recomputed by direct enumeration — the identities'
direct sides as loops over the universe, set values as explicit member
lists, budgets compared against exhaustively evaluated differences — sharing
nothing with the translation pipeline except the evaluator itself.  Each
check tabulates every formula it compares once (`tabulate`) and reads one
row per assignment.  The `quantifier` suite runs both set-quantifier checks
(sup theta over `Q`'s set against `sup theta(phi)`, and `Q`'s extreme
members against `sup`/`inf`) from one tabulation, `verify_quantifier`;
`verify_quantifier_identity` and `verify_primordial_bounds` are its views,
one check each.  The generators produce well-typed formulas and
structures by construction; all randomness flows from explicit seeds, so
every trial is reproducible from its record.

A suite is registered as one entry `(name, trial, weight)` of `SUITES`:
`trial(cfg, i)` builds and checks trial i alone, from `_rng` streams named
after the suite, and returns its `(ok, detail, sizes, witness)`.
`run_suite` runs one suite's trials through the module's one trial loop,
and `fuzz` runs every suite through it.  `run_coding_trials` and
`run_quantifier_trials` are views of that loop kept for the benchmark's
checks under `perfbench/`; the quantifier view also runs one of its two
checks alone, as acceptance criteria 2 and 3 do.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from .connective import (Connective, _value_table, affine, clamp01, identity,
                         max_of, min_of, mul, neg, observable, tight_lipschitz,
                         truncated_sub, bounded_add, const)
from .errors import EvalError, ValidationError
from .formula import (Apply, Formula, Quant, QuantKind,
                      Relation, Signature, atom, cauchy_limit, signature)
from .hyperspace import (MAX_BASE_POINTS, CompactSet, encode_subset,
                         inf_theta, sup_theta)
from .semantics import (Structure, check_pseudometric, evaluate,
                        eval_error_bound, quotient, structure, tabulate,
                        zero_distance_classes)
from .translate import TranslationContext, code_formula, t0_violations, \
    decode_structure, transport_structure
from .valuespace import (ONE, ZERO, Point, Rational, ValueSpace, frac,
                         make_finite, make_interval, nearest, point, tolerance)

#: Exact coordinates are drawn from the eighths so that a step-1/8 grid
#: carries them without snapping.
EXACT_POOL = tuple(Fraction(k, 8) for k in range(9))
EXACT_STEP = Fraction(1, 8)

#: Grid presentations deliberately misaligned with the translation grid.
GRID_STEPS = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 6), Fraction(1, 7))
GRID_TRANSLATION_STEP = Fraction(1, 4)

#: Set-quantifier bodies keep at most this many net points (the coding
#: enumerates every nonempty subset, so this caps the lattice size).
MAX_SET_BODY_POINTS = 4

#: Random formulas use at most this many free variables.
MAX_FREE_VARIABLES = 2

_NAMES = ("R", "S", "T")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for the random generators, with hard caps to stay tractable."""

    seed: int
    universe_size: int = 4
    formula_depth: int = 2
    net_size: int = 4
    trials: int = 100
    tol: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "tol", frac(self.tol))
        if not isinstance(self.seed, int):
            raise ValidationError("seed must be an integer")
        if not 1 <= self.universe_size <= 6:
            raise ValidationError("universe_size must be in 1..6")
        if not 0 <= self.formula_depth <= 4:
            raise ValidationError("formula_depth must be in 0..4")
        if not 1 <= self.net_size <= 5:
            raise ValidationError("net_size must be in 1..5")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        if self.tol < 0:
            raise ValidationError("tol must be nonnegative")


@dataclass(frozen=True)
class TrialRecord:
    """One line of a fuzz report; witness values are pre-stringified."""

    kind: str
    trial: int
    ok: bool
    detail: str = ""
    sizes: Mapping[str, int] = field(default_factory=dict)
    witness: Mapping[str, str] | None = None

    def as_json(self) -> dict:
        doc = {"kind": self.kind, "trial": self.trial, "ok": self.ok,
               "detail": self.detail, "sizes": dict(self.sizes)}
        if self.witness is not None:
            doc["witness"] = dict(self.witness)
        return doc


def _rng(cfg: FuzzConfig, kind: str, trial: int) -> random.Random:
    return random.Random(f"{kind}:{cfg.seed}:{trial}")


# ---------------------------------------------------------------------------
# Random spaces, signatures, structures


def random_space(rng: random.Random, cfg: FuzzConfig, *, grid: bool = False,
                 dim: int = 1, max_points: int | None = None) -> ValueSpace:
    """An exact finite space on the eighths, or a misaligned interval grid."""
    if grid:
        return make_interval(0, 1, rng.choice(GRID_STEPS))
    cap = min(cfg.net_size, max_points or cfg.net_size)
    k = rng.randint(1, cap)
    if dim == 1:
        return make_finite([point(c) for c in rng.sample(EXACT_POOL, k)])
    pts: list[Point] = []
    seen: set[tuple] = set()
    while len(pts) < k:
        coords = tuple(rng.choice(EXACT_POOL) for _ in range(dim))
        if coords not in seen:
            seen.add(coords)
            pts.append(Point(coords))
    return make_finite(pts)


def random_signature(rng: random.Random, cfg: FuzzConfig, *,
                     grid: bool = False) -> Signature:
    """One to three relation symbols; exact mode occasionally vector-valued."""
    count = rng.randint(1, 3)
    relations = []
    for i in range(count):
        arity = rng.choice((1, 1, 2))
        dim = 2 if (not grid and rng.random() < 0.2) else 1
        if grid and i == 0:
            # keep one small-net grid relation so set quantifiers stay codable
            space = make_interval(0, 1, Fraction(1, 3))
        else:
            space = random_space(rng, cfg, grid=grid, dim=dim,
                                 max_points=MAX_SET_BODY_POINTS)
        relations.append(Relation(_NAMES[i], arity, space))
    return signature(relations)


def random_structure(cfg: FuzzConfig, sig: Signature,
                     rng: random.Random | None = None) -> Structure:
    """Uniform interpretations from each symbol's net; deterministic per seed."""
    rng = rng or random.Random(f"structure:{cfg.seed}")
    n = rng.randint(1, cfg.universe_size)
    universe = tuple(f"e{i}" for i in range(n))
    interp: dict[str, dict[tuple[str, ...], Point]] = {}
    for rel in sig.relations:
        tab = {}
        for t in itertools.product(universe, repeat=rel.arity):
            tab[t] = rng.choice(rel.space.net)
        interp[rel.name] = tab
    return Structure(sig, universe, interp)


def random_theta(rng: random.Random, space: ValueSpace, *,
                 stable: bool = False) -> Connective:
    """A random real-valued observable on the given space."""
    if not space.standard_metric:  # hyperspace: extremum of a base observable
        base = space.base  # type: ignore[attr-defined]
        inner = random_theta(rng, base, stable=stable)
        return rng.choice((sup_theta, inf_theta))(inner)
    if space.dimension == 1 and stable:
        return rng.choice((identity, neg))(space)
    if space.dimension == 1:
        pick = rng.random()
        if pick < 0.25:
            return identity(space)
        if pick < 0.5:
            return neg(space)
    mapping = {(p,): point(rng.choice(EXACT_POOL)) for p in space.net}
    # total on the net, valued on the codomain's net, at the tight constant:
    # every check of `table` holds by construction
    return _value_table("obs", space, mapping, tight_lipschitz(space, mapping))


# ---------------------------------------------------------------------------
# Random formulas


def _safe_affine(rng: random.Random, space: ValueSpace) -> Connective | None:
    a = rng.choice((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), ONE))
    values = [a * p.coords[0] for p in space.net]
    b_lo, b_hi = -min(values), ONE - max(values)
    if b_lo > b_hi:
        return None
    b = b_lo + (b_hi - b_lo) * rng.choice((ZERO, Fraction(1, 2), ONE))
    return affine(space, a, b)


class _FormulaBuilder:
    """Recursive generator of well-typed formulas over a signature.

    In stable mode every choice depends only on the shape of the signature
    (names, arities, dimensions), never on net contents, so the same seed
    yields parallel formulas over refined presentations of the same spaces.
    """

    def __init__(self, cfg: FuzzConfig, sig: Signature, rng: random.Random,
                 grid: bool, stable: bool, set_cap: int = MAX_SET_BODY_POINTS):
        self.cfg, self.sig, self.rng = cfg, sig, rng
        self.grid, self.stable = grid, stable
        self.set_cap = set_cap
        self.frees: list[str] = []
        self.bound = 0
        self.set_quota = 1 if grid else 2
        if not any(len(r.space.net) <= set_cap for r in sig.relations):
            self.set_quota = 0

    def build(self) -> Formula:
        depth = self.rng.randint(0, self.cfg.formula_depth)
        return self._node(depth, ())

    # -- variable supply

    def _var(self, scope: tuple[str, ...]) -> str:
        choices = list(scope) + self.frees
        if len(self.frees) < MAX_FREE_VARIABLES:
            choices.append("<new>")
        pick = self.rng.choice(choices)
        if pick == "<new>":
            pick = f"x{len(self.frees)}"
            self.frees.append(pick)
        return pick

    def _fresh_bound(self) -> str:
        self.bound += 1
        return f"v{self.bound}"

    # -- node production

    def _atomic(self, scope: tuple[str, ...]) -> Formula:
        rel = self.rng.choice(self.sig.relations)
        return atom(self.sig, rel.name, *(self._var(scope) for _ in range(rel.arity)))

    def _node(self, depth: int, scope: tuple[str, ...]) -> Formula:
        if depth == 0:
            return self._atomic(scope)
        kinds = ["atomic", "unary", "binary", "extremum", "extremum"]
        if self.set_quota > 0:
            kinds.append("set")
        kind = self.rng.choice(kinds)
        if kind == "atomic":
            return self._atomic(scope)
        if kind == "unary":
            return self._shrink(self._unary(self._node(depth - 1, scope)))
        if kind == "binary":
            return self._shrink(self._binary(self._node(depth - 1, scope),
                                             self._node(depth - 1, scope)))
        if kind == "extremum":
            var = self._fresh_bound()
            body = self._as_real(self._node(depth - 1, scope + (var,)))
            return Quant(self.rng.choice((QuantKind.SUP, QuantKind.INF)), var, body)
        # set quantifier: body restricted to atomic so its value set stays small
        self.set_quota -= 1
        var = self._fresh_bound()
        body = self._set_body(scope + (var,))
        q = Quant(QuantKind.SET, var, body)
        if self.stable or self.rng.random() < 0.6:
            inner = random_theta(self.rng, body.value_space, stable=self.stable)
            wrapped = Apply(self.rng.choice((sup_theta, inf_theta))(inner), (q,))
            return self._shrink(wrapped)
        return q

    def _set_body(self, scope: tuple[str, ...]) -> Formula:
        codable = [r for r in self.sig.relations
                   if len(r.space.net) <= self.set_cap]
        rel = self.rng.choice(codable)
        body: Formula = atom(self.sig, rel.name,
                             *(self._var(scope) for _ in range(rel.arity)))
        if not self.stable and rel.space.dimension == 1 and self.rng.random() < 0.3:
            body = self._unary(body)
        return body

    def _unary(self, child: Formula) -> Formula:
        space = child.value_space
        if not space.real_valued:
            return self._as_real(child)
        if self.stable:
            return Apply(self.rng.choice((neg, clamp01))(space), (child,))
        pick = self.rng.random()
        if pick < 0.3:
            return Apply(neg(space), (child,))
        if pick < 0.45:
            return Apply(clamp01(space), (child,))
        if pick < 0.65:
            conn = _safe_affine(self.rng, space)
            if conn is not None:
                return Apply(conn, (child,))
        return Apply(random_theta(self.rng, space), (child,))

    def _binary(self, a: Formula, b: Formula) -> Formula:
        a, b = self._as_real(a), self._as_real(b)
        ops = [min_of, max_of, bounded_add, truncated_sub]
        if not self.stable:
            ops.append(mul)
        op = self.rng.choice(ops)
        return Apply(op(a.value_space, b.value_space), (a, b))

    def _as_real(self, node: Formula) -> Formula:
        """Coerce any node to a real-valued one with a random observable."""
        space = node.value_space
        if space.real_valued:
            return self._shrink(node)
        wrapped = Apply(random_theta(self.rng, space, stable=self.stable), (node,))
        return self._shrink(wrapped)

    def _shrink(self, node: Formula) -> Formula:
        """Keep value sets small: extrema may be coded over their hyperspace.

        Derived images of binary connectives can outgrow the set-coding cap;
        squashing them through a few-valued table preserves well-typedness
        while keeping every lattice the coder might build enumerable.  Never
        fires in stable mode (net contents must not steer the generator) —
        stable callers evaluate only and face no coding caps.
        """
        space = node.value_space
        if self.stable or not space.real_valued:
            return node
        if len(space.net) <= MAX_SET_BODY_POINTS:
            return node
        vals = self.rng.sample(EXACT_POOL, MAX_SET_BODY_POINTS)
        mapping = {(p,): point(self.rng.choice(vals)) for p in space.net}
        lip = tight_lipschitz(space, mapping)
        return Apply(_value_table("squash", space, mapping, lip), (node,))


def random_formula(cfg: FuzzConfig, sig: Signature,
                   rng: random.Random | None = None, *, grid: bool = False,
                   stable: bool = False,
                   set_cap: int = MAX_SET_BODY_POINTS) -> Formula:
    """A well-typed formula of depth at most cfg.formula_depth.

    set_cap bounds the net size of set-quantifier bodies; the default keeps
    them codable, while evaluation-only callers may raise it to the
    hyperspace capacity.
    """
    rng = rng or random.Random(f"formula:{cfg.seed}")
    return _FormulaBuilder(cfg, sig, rng, grid, stable, set_cap=set_cap).build()


def _assignments(M: Structure, frees, fixed: Mapping[str, str] | None):
    """All total assignments of the free variables, or just the given one."""
    if fixed is not None:
        return [dict(fixed)]
    names = sorted(frees)
    return [dict(zip(names, combo))
            for combo in itertools.product(M.universe, repeat=len(names))]


def _as_point(space: ValueSpace, v) -> Point:
    return encode_subset(space, v.members) if isinstance(v, CompactSet) else v


# ---------------------------------------------------------------------------
# The two central verifiers


@dataclass(frozen=True)
class CodingCheck:
    ok: bool
    checked: int
    budget: Fraction
    max_difference: Fraction
    witness: dict | None = None


def _coding_setup(ctx: TranslationContext, M: Structure, phi: Formula,
                  theta: Connective | None, tol: Rational):
    """What both coding checks start from: the coded formula of theta(phi),
    its budget, the budget plus tolerance, the transported structure and
    every assignment of phi's free variables."""
    tol = tolerance(tol)
    coded = code_formula(ctx, phi)
    target = coded.codes(theta)
    budget = coded.budget_of(theta)
    return (target, budget, budget + tol, transport_structure(ctx, M),
            _assignments(M, phi.free_vars, None))


def verify_coding(ctx: TranslationContext, M: Structure, phi: Formula,
                  theta: Connective | None = None, tol: Rational = ZERO) -> CodingCheck:
    """Compare the coded formula against theta of the source value.

    Both sides are tabulated directly, once each: the source formula in M,
    the coded formula in the transported structure; every assignment of the
    free variables reads one row of each table.
    """
    target, budget, limit, N, asgs = _coding_setup(ctx, M, phi, theta, tol)
    worst, first = _compare(M, phi, theta, N, target, asgs, limit)
    witness = None
    if first is not None:
        asg, lhs, rhs, diff = first
        witness = {
            "assignment": dict(asg),
            "target_value": str(lhs),
            "source_value": str(rhs),
            "difference": str(diff),
            "budget": str(budget),
        }
    return CodingCheck(witness is None, len(asgs), budget, worst, witness)


def _compare(M: Structure, phi: Formula, theta: Connective | None, N: Structure,
             coded: Formula, asgs: Sequence[Mapping[str, str]], limit: Fraction):
    """The largest |coded in N - theta(phi in M)| over the assignments, and
    the first (assignment, coded, source, difference) beyond limit or None.
    Each distinct pair of a source and a coded value is compared once."""
    [source] = tabulate(M, [phi])
    [target] = tabulate(N, [coded])
    compared: dict[tuple[Point, Point], tuple] = {}
    first = None
    for asg in asgs:
        pair = source.at(asg), target.at(asg)
        row = compared.get(pair)
        if row is None:
            p, q = pair
            rhs = theta(p).scalar if theta is not None else p.scalar
            diff = abs(q.scalar - rhs)
            row = compared[pair] = (q.scalar, rhs, diff, diff > limit)
        lhs, rhs, diff, over = row
        if over and first is None:
            first = (asg, lhs, rhs, diff)
    return max((diff for _, _, diff, _ in compared.values()), default=ZERO), first


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    checked: int
    witness: dict | None = None


def _single_free_var(body: Formula, var: str | None) -> str:
    if var is not None:
        return var
    frees = sorted(body.free_vars)
    if len(frees) != 1:
        raise ValidationError(
            f"cannot infer the quantified variable from free vars {frees}; pass var="
        )
    return frees[0]


#: The set quantifier's criteria, in the order `verify_quantifier` checks them.
QUANTIFIER_CHECKS = ("identity", "primordial")

_scalar = attrgetter("scalar")


def _extremes(values: Sequence[Point]) -> tuple[Fraction, Fraction]:
    xs = list(map(_scalar, values))
    return max(xs), min(xs)


def verify_quantifier(M: Structure, body: Formula, theta: Connective | None = None,
                      var: str | None = None, checks: Sequence[str] = QUANTIFIER_CHECKS,
                      ) -> dict[str, IdentityCheck]:
    """The set quantifier's criteria named in `checks`, from one pass.

    `identity`: the sup of theta over the members of `Q var. body` equals
    the direct `sup var. theta(body)`; theta must accept the body's values,
    and defaults to the identity on a real-valued body.  `primordial`: the
    largest and smallest members equal `sup var. body` and `inf var. body`;
    the body must be real-valued.  Names outside `QUANTIFIER_CHECKS` are
    ignored, but one of them is needed.

    One `tabulate` pass takes the roots the selected checks need, sharing
    `Q var. body` and the body, so theta runs once per distinct body value.
    One row loop then reads each assignment: each distinct set row is
    decoded once and reduced by every check, and each check compares the
    result with its direct rows, in exact equality.  A row that differs
    passes only if the set side is the same reduction of the body's values
    snapped as `Q` snaps them (to the nearest net point, ties to the
    earlier, by a scan of the metric apart from `semantics`' own, so that a
    fault there shows here), and the direct side that of the values as they
    are: the two differ only off the net.  The body is tabulated for this
    only if no check needed it already.
    """
    chosen = [name for name in QUANTIFIER_CHECKS if name in checks]
    if not chosen:
        raise ValidationError(f"no known checks among {checks!r}")
    var = _single_free_var(body, var)
    space = body.value_space
    roots: list[Formula] = [Quant(QuantKind.SET, var, body)]
    if "identity" in chosen:
        if theta is None:
            if not space.real_valued:
                raise ValidationError("a non-real body needs an explicit observable")
            theta = identity(space)
        else:
            observable(space, theta)
        observed = Apply(theta, (body,))
        roots += [body, observed, Quant(QuantKind.SUP, var, observed)]
    if "primordial" in chosen:
        if not space.real_valued:
            raise ValidationError("sup/inf comparison needs a real-valued body")
        roots += [Quant(QuantKind.SUP, var, body), Quant(QuantKind.INF, var, body)]
    sets, *tables = tabulate(M, roots)

    # per check: its name, the reduction of a list of values to the numbers
    # it compares, its direct rows, and the witness labels of (set, direct)
    # for each number
    criteria: list[tuple] = []
    values = None
    if "identity" in chosen:
        values, thetas, direct = tables[:3]
        # theta at each value the body takes, from the pass: the tables share rows
        theta_at = dict(zip(values.rows.values(), thetas.rows.values()))

        def observe(m: Point) -> Fraction:
            t = theta_at.get(m)
            if t is None:  # a member the body reaches only by snapping
                t = theta_at[m] = theta(m)
            return t.scalar

        criteria.append(("identity", lambda ps: (max(map(observe, ps)),),
                         zip(direct.rows.values()), ("via_set", "direct")))
    if "primordial" in chosen:
        sups, infs = tables[-2:]
        criteria.append(("primordial", _extremes, zip(sups.rows.values(), infs.rows.values()),
                         ("set_max", "sup", "set_min", "inf")))

    net, member_indices = space.net, sets.space.member_indices
    by_set: dict[Point, list[tuple]] = {}
    witnesses: dict[str, dict] = {}
    for key, k in sets.rows.items():
        on_set = by_set.get(k)
        if on_set is None:
            members = [net[i] for i in member_indices(k)]
            on_set = by_set[k] = [reduce(members) for _, reduce, _, _ in criteria]
        body_values = None
        for (name, reduce, direct, labels), lhs in zip(criteria, on_set):
            rhs = tuple(map(_scalar, next(direct)))
            if lhs != rhs and name not in witnesses:
                if body_values is None:
                    asg = dict(zip(sets.vars, key))
                    if values is None:
                        [values] = tabulate(M, [body])
                    raw = [values.at({**asg, var: e}) for e in M.universe]
                    body_values = raw, [min(net, key=partial(space.metric, v)) for v in raw]
                raw, snapped = body_values
                if (lhs, rhs) != (reduce(snapped), reduce(raw)):
                    sides = [str(x) for pair in zip(lhs, rhs) for x in pair]
                    witnesses[name] = {"assignment": asg, **dict(zip(labels, sides))}
    return {name: IdentityCheck(name not in witnesses, len(sets.rows), witnesses.get(name))
            for name in chosen}


def verify_quantifier_identity(M: Structure, body: Formula,
                               theta: Connective | None = None,
                               var: str | None = None) -> IdentityCheck:
    """sup of theta over the set quantifier's value equals the direct sup:
    the `identity` check of `verify_quantifier`, alone."""
    return verify_quantifier(M, body, theta, var, ("identity",))["identity"]


def verify_primordial_bounds(M: Structure, body: Formula,
                             var: str | None = None) -> IdentityCheck:
    """max/min member of the primordial value set equal the sup/inf values:
    the `primordial` check of `verify_quantifier`, alone."""
    return verify_quantifier(M, body, var=var, checks=("primordial",))["primordial"]


# ---------------------------------------------------------------------------
# Negative controls: corrupted codings and broken pseudometrics


def _bump(conn: Connective, delta: Fraction, grid: ValueSpace) -> Connective:
    """The same connective with every output shifted by delta (clamped).

    Wraps the evaluator rather than tabulating it: a connective of n grid
    inputs has (1/step + 1)^n net points.
    """
    def run(*pts: Point) -> Point:
        return point(min(ONE, max(ZERO, conn.evaluator(*pts).scalar + delta)))

    return Connective(f"{conn.name}~bump", conn.domain, grid, conn.lipschitz, run)


def _bump_first_apply(node: Formula, delta: Fraction, grid: ValueSpace) -> Formula:
    if isinstance(node, Apply):
        return Apply(_bump(node.conn, delta, grid), node.children)
    if isinstance(node, Quant):
        return Quant(node.kind, node.var, _bump_first_apply(node.body, delta, grid))
    raise EvalError(f"nothing to corrupt under {node}")


def verify_corruption_detected(ctx: TranslationContext, M: Structure,
                               phi: Formula, theta: Connective | None = None,
                               tol: Rational = ZERO) -> CodingCheck:
    """Mutate one table of the coded formula and demand the check fails.

    The bump is a uniform 1/4 shift, directed away from the clamping
    boundary of the uncorrupted value so extrema cannot mask it.  `ok`
    means the corruption WAS detected.
    """
    target, budget, limit, N, asgs = _coding_setup(ctx, M, phi, theta, tol)
    base = evaluate(N, target, asgs[0]).scalar
    delta = Fraction(1, 4) if base <= Fraction(1, 2) else Fraction(-1, 4)
    bad = _bump_first_apply(target, delta, ctx.grid)

    worst, first = _compare(M, phi, theta, N, bad, asgs, limit)
    caught = None
    if first is not None:
        asg, _, _, diff = first
        caught = {"assignment": dict(asg), "difference": str(diff),
                  "budget": str(budget), "shift": str(delta)}
    return CodingCheck(caught is not None, len(asgs), budget, worst, caught)


PSEUDOMETRIC_LAWS = ("reflexivity", "symmetry", "triangle", "modulus")


def random_metric_structure(cfg: FuzzConfig, rng: random.Random, *,
                            min_universe: int = 2,
                            force_classes: bool = False) -> Structure:
    """A structure with a genuine pseudometric: distances between placements.

    Every element is placed on the eighths; the distance symbol reads off
    placement gaps and the remaining symbol is a function of placements, so
    zero-distance elements agree and the tight modulus is honest.
    """
    n = rng.randint(max(2, min_universe), max(cfg.universe_size, min_universe, 2))
    universe = tuple(f"e{i}" for i in range(n))
    placement = {e: rng.choice(EXACT_POOL) for e in universe}
    if force_classes:
        placement[universe[1]] = placement[universe[0]]
    pool_space = make_finite([point(c) for c in EXACT_POOL])

    dtab = {(a, b): point(abs(placement[a] - placement[b]))
            for a in universe for b in universe}
    fn = {c: rng.choice(EXACT_POOL) for c in set(placement.values())}
    rtab = {(a,): point(fn[placement[a]]) for a in universe}

    tight = tight_lipschitz(pool_space, {point(c): point(v) for c, v in fn.items()})
    sig = signature(
        [Relation("d", 2, pool_space), Relation("R", 1, pool_space)],
        distance_symbol="d", moduli={"R": max(tight, ONE)},
    )
    return Structure(sig, universe, {"d": dtab, "R": rtab})


def pseudometric_violation(cfg: FuzzConfig, rng: random.Random,
                           law: str | None = None) -> tuple[Structure, str]:
    """A structure breaking one pseudometric law, named so checks can match."""
    law = law or rng.choice(PSEUDOMETRIC_LAWS)
    M = random_metric_structure(cfg, rng, min_universe=3 if law == "triangle" else 2)
    dtab = dict(M.interp["d"])
    rtab = dict(M.interp["R"])
    sig = M.signature
    a, b, c = (M.universe + M.universe)[:3]
    bump = Fraction(1, 4)
    if law == "reflexivity":
        dtab[(a, a)] = point(bump)
    elif law == "symmetry":
        back = dtab[(b, a)].scalar
        dtab[(a, b)] = point(back + bump if back + bump <= ONE else back - bump)
    elif law == "triangle":
        for s, t in ((a, c), (c, a)):
            dtab[(s, t)] = point(ONE)
        for s, t in ((a, b), (b, a), (b, c), (c, b)):
            dtab[(s, t)] = point(bump)
    elif law == "modulus":
        # distinct placements with maximally different values, then lie about L
        dtab[(a, b)] = dtab[(b, a)] = point(Fraction(1, 2))
        dtab[(a, a)] = dtab[(b, b)] = point(ZERO)
        rtab[(a,)] = point(ZERO)
        rtab[(b,)] = point(ONE)
        sig = signature(sig.relations, distance_symbol="d", moduli={"R": ONE})
    else:
        raise ValidationError(f"unknown pseudometric law {law!r}")
    return Structure(sig, M.universe, {"d": dtab, "R": rtab}), law


# ---------------------------------------------------------------------------
# Cauchy-limit declarations


def verify_limit_declaration(M: Structure, formulas: Sequence[Formula],
                             rate: Callable[[int], Fraction], tol: Rational,
                             true_limit: Fraction | None = None) -> IdentityCheck:
    """Spot-check a declared uniformly Cauchy sequence against brute force.

    Verifies the pairwise rate bound on the whole provided prefix, that the
    wrapper picked the least adequate index, and (when the true limit is
    known) that the truncation is within tolerance of it.
    """
    tol = frac(tol)
    vals = [evaluate(M, f).scalar for f in formulas]
    witness = None
    for i, vi in enumerate(vals):
        for j in range(i + 1, len(vals)):
            bound = frac(rate(i))
            if abs(vi - vals[j]) > bound and witness is None:
                witness = {"pair": f"{i},{j}", "gap": str(abs(vi - vals[j])),
                           "rate": str(bound)}
    lim = cauchy_limit(rate, formulas, tol)
    expected_index = next(n for n in range(len(formulas)) if frac(rate(n)) <= tol)
    if lim.index != expected_index and witness is None:
        witness = {"index": str(lim.index), "expected": str(expected_index)}
    chosen = evaluate(M, lim).scalar
    if chosen != vals[lim.index] and witness is None:
        witness = {"wrapped": str(chosen), "direct": str(vals[lim.index])}
    if true_limit is not None and abs(chosen - true_limit) > tol and witness is None:
        witness = {"value": str(chosen), "limit": str(true_limit), "tol": str(tol)}
    return IdentityCheck(witness is None, len(vals), witness)


# ---------------------------------------------------------------------------
# Trials, one function per suite


def _sizes(M: Structure, phi: Formula | None = None) -> dict[str, int]:
    out = {"universe": len(M.universe), "relations": len(M.signature.relations),
           "net": max(len(r.space.net) for r in M.signature.relations)}
    if phi is not None:
        out["free_vars"] = len(phi.free_vars)
    return out


def coding_trial(cfg: FuzzConfig, i: int, *, grid: bool = False) -> tuple:
    """Criterion: the coded formula tracks theta of the source value.

    Exact mode also insists the budget is zero and the agreement literal;
    grid mode checks the difference against the (positive) budget.
    """
    rng = _rng(cfg, "coding-grid" if grid else "coding-exact", i)
    sig = random_signature(rng, cfg, grid=grid)
    M = random_structure(cfg, sig, rng)
    phi = random_formula(cfg, sig, rng, grid=grid)
    theta = random_theta(rng, phi.value_space)
    ctx = TranslationContext(sig, GRID_TRANSLATION_STEP if grid else EXACT_STEP)
    check = verify_coding(ctx, M, phi, theta, tol=cfg.tol)
    if not grid and check.ok and (check.budget != 0 or check.max_difference != 0):
        return (False, "exact trial must have zero budget and zero difference", _sizes(M, phi),
                {"budget": str(check.budget), "difference": str(check.max_difference)})
    return (check.ok, f"|diff| {check.max_difference} <= budget {check.budget}",
            _sizes(M, phi), check.witness)


def quantifier_trial(cfg: FuzzConfig, i: int,
                     checks: Sequence[str] = QUANTIFIER_CHECKS) -> tuple:
    """Criteria: the set-quantifier identity and its sup/inf refinements.

    `checks` selects which verifications run — the instance generated is
    the same either way, so the two criteria can be reported separately.
    """
    rng = _rng(cfg, "quantifier", i)
    sig = random_signature(rng, cfg)
    M = random_structure(cfg, sig, rng)
    builder = _FormulaBuilder(cfg, sig, rng, grid=False, stable=False)
    var = "q"
    body = builder._as_real(builder._node(min(cfg.formula_depth, 2), (var,)))
    if var not in body.free_vars:  # ensure the quantified variable matters
        rel = sig.relations[0]
        extra = builder._as_real(atom(sig, rel.name, *([var] * rel.arity)))
        body = Apply(max_of(body.value_space, extra.value_space), (body, extra))
    theta = random_theta(rng, body.value_space)
    results = list(verify_quantifier(M, body, theta, var, checks).values())
    return (all(r.ok for r in results), f"checked {results[0].checked} assignments",
            _sizes(M, body), next((r.witness for r in results if r.witness), None))


def corruption_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Criterion: mutated translations are detected on exact spaces."""
    rng = _rng(cfg, "corruption", i)
    sig = random_signature(rng, cfg)
    M = random_structure(cfg, sig, rng)
    shape = rng.choice(("atomic", "sup", "infsup", "set"))
    rel = rng.choice([r for r in sig.relations if r.space.dimension == 1]
                     or list(sig.relations))
    base: Formula = atom(sig, rel.name, *["u", "w"][: rel.arity])
    theta = None
    if rel.space.dimension != 1:
        base = Apply(random_theta(rng, rel.space), (base,))
    if shape == "sup":
        phi: Formula = Quant(QuantKind.SUP, "u", base)
    elif shape == "infsup":
        phi = Quant(QuantKind.INF, "w", Quant(QuantKind.SUP, "u", base)) \
            if rel.arity == 2 else Quant(QuantKind.INF, "u", base)
    elif shape == "set" and len(rel.space.net) <= MAX_SET_BODY_POINTS:
        phi = Quant(QuantKind.SET, "u", base)
        theta = sup_theta(identity(base.value_space))
    else:
        phi = base
    check = verify_corruption_detected(TranslationContext(sig, EXACT_STEP), M, phi, theta,
                                       tol=cfg.tol)
    return (check.ok, f"shift detected at difference {check.max_difference}", _sizes(M, phi),
            check.witness if check.ok else {"max_difference": str(check.max_difference)})


def metric_violation_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Criterion: broken pseudometric laws are reported with a witness."""
    M, law = pseudometric_violation(cfg, _rng(cfg, "metric-violation", i))
    report = check_pseudometric(M)
    caught = (not report.ok) and any(f.startswith(law) for f in report.failures)
    return (caught, f"planted {law} violation", _sizes(M),
            {"law": law, "failures": "; ".join(report.failures)})


def roundtrip_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Criterion: aligned transport passes the base-theory check and decodes back."""
    rng = _rng(cfg, "roundtrip", i)
    sig = random_signature(rng, cfg)
    M = random_structure(cfg, sig, rng)
    ctx = TranslationContext(sig, EXACT_STEP)
    N = transport_structure(ctx, M)
    violations = t0_violations(ctx, N, tol=0)
    back = decode_structure(ctx, N)
    same = back.universe == M.universe and back.interp == M.interp
    ok = not violations and same
    witness = None if ok else {"violations": "; ".join(violations),
                               "decoded_equal": str(same)}
    return ok, "transport, base check, decode", _sizes(M), witness


def quotient_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Criterion: collapsing zero-distance classes never moves a value."""
    rng = _rng(cfg, "quotient", i)
    M = random_metric_structure(cfg, rng, force_classes=True)
    classes = zero_distance_classes(M)
    rep = {e: cls[0] for cls in classes for e in cls}
    Mq = quotient(M)
    phi = random_formula(cfg, M.signature, rng, set_cap=MAX_BASE_POINTS)
    [before] = tabulate(M, [phi])
    [after] = tabulate(Mq, [phi])
    witness = None
    for asg in _assignments(M, phi.free_vars, None):
        asg_q = {k: rep[v] for k, v in asg.items()}
        if before.at(asg) != after.at(asg_q) and witness is None:
            witness = {"assignment": dict(asg), "value": str(before.value(asg)),
                       "quotient_value": str(after.value(asg_q))}
    ok = witness is None and any(len(c) > 1 for c in classes)
    if witness is None and ok is False:
        witness = {"classes": str(classes)}
    return (ok, f"{len(M.universe)} elements in {len(classes)} classes", _sizes(M, phi),
            witness)


def refinement_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Criterion: halving every grid moves values at most the coarse bound.

    The same underlying rational values are presented on a step-s grid and a
    step-s/2 grid; parallel formulas are generated shape-deterministically
    from one seed; the evaluation drift must respect the coarse error bound.
    """
    srng = _rng(cfg, "refinement-sig", i)
    step = srng.choice((Fraction(1, 2), Fraction(1, 3)))
    count = srng.randint(1, 2)
    arities = [srng.choice((1, 1, 2)) for _ in range(count)]
    coarse_sig, fine_sig = (
        signature([Relation(_NAMES[k], arities[k], space) for k in range(count)])
        for space in (make_interval(0, 1, step), make_interval(0, 1, step / 2)))

    phi_c, phi_f = (random_formula(cfg, sig, _rng(cfg, "refinement-formula", i),
                                   stable=True, set_cap=MAX_BASE_POINTS)
                    for sig in (coarse_sig, fine_sig))

    vrng = _rng(cfg, "refinement-structure", i)
    universe = tuple(f"e{k}" for k in range(vrng.randint(1, cfg.universe_size)))
    interp_c: dict = {}
    interp_f: dict = {}
    for rel_c, rel_f in zip(coarse_sig.relations, fine_sig.relations):
        tab_c, tab_f = {}, {}
        for t in itertools.product(universe, repeat=rel_c.arity):
            true_value = point(Fraction(vrng.randint(0, 16), 16))
            tab_c[t] = nearest(rel_c.space, true_value)[0]
            tab_f[t] = nearest(rel_f.space, true_value)[0]
        interp_c[rel_c.name] = tab_c
        interp_f[rel_f.name] = tab_f
    M_c = Structure(coarse_sig, universe, interp_c)

    bound = eval_error_bound(phi_c)
    [coarse] = tabulate(M_c, [phi_c])
    [fine] = tabulate(Structure(fine_sig, universe, interp_f), [phi_f])
    witness = None
    worst = ZERO
    for asg in _assignments(M_c, phi_c.free_vars, None):
        drift = abs(coarse.at(asg).scalar - fine.at(asg).scalar)
        worst = max(worst, drift)
        if drift > bound and witness is None:
            witness = {"assignment": dict(asg), "drift": str(drift), "bound": str(bound)}
    return (witness is None, f"drift {worst} <= bound {bound} at step {step}",
            _sizes(M_c, phi_c), witness)


def limit_trial(cfg: FuzzConfig, i: int) -> tuple:
    """Spot-check declared convergence rates of truncated limit formulas."""
    rng = _rng(cfg, "limit", i)
    c = Fraction(rng.randint(2, 6), 8)
    length = rng.randint(3, 6)
    vals = [c + (1 if k % 2 == 0 else -1) * Fraction(1, 2 ** (k + 3))
            for k in range(length)]
    space = make_finite([point(v) for v in vals])
    formulas = [Apply(const(point(v), space), ()) for v in vals]
    rate = lambda n: Fraction(1, 2 ** (n + 2))  # noqa: E731
    tol = rng.choice((Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)))
    M = structure(signature([Relation("R", 1, space)]), ["e0"], {"R": {("e0",): vals[0]}})
    try:
        check = verify_limit_declaration(M, formulas, rate, tol, true_limit=c)
        ok, witness = check.ok, check.witness
    except ValidationError as err:  # rate never adequate for this prefix
        ok = frac(rate(length - 1)) > tol
        witness = None if ok else {"error": str(err)}
    return ok, f"prefix {length}, tol {tol}", _sizes(M), witness


# ---------------------------------------------------------------------------
# The suites and their one trial loop


#: (name, trial, weight) per suite: `trial(cfg, i)` returns trial i's
#: (ok, detail, sizes, witness), and `fuzz` gives each suite a share of
#: cfg.trials in proportion to its weight.
SUITES: tuple[tuple[str, Callable, int], ...] = (
    ("coding-exact", coding_trial, 30),
    ("coding-grid", partial(coding_trial, grid=True), 10),
    ("quantifier", quantifier_trial, 20),
    ("roundtrip", roundtrip_trial, 10),
    ("corruption", corruption_trial, 7),
    ("metric-violation", metric_violation_trial, 7),
    ("quotient", quotient_trial, 6),
    ("refinement", refinement_trial, 6),
    ("limit", limit_trial, 4),
)


def _records(kind: str, trial: Callable, cfg: FuzzConfig,
             trials: int | None) -> list[TrialRecord]:
    """The one trial loop: a record of `trial(cfg, i)` per i below `trials`."""
    return [TrialRecord(kind, i, *trial(cfg, i))
            for i in range(cfg.trials if trials is None else trials)]


def run_suite(name: str, cfg: FuzzConfig, trials: int | None = None) -> list[TrialRecord]:
    """The records of trials 0 .. trials - 1 (cfg.trials by default) of a suite."""
    trial = next((t for n, t, _ in SUITES if n == name), None)
    if trial is None:
        raise ValidationError(f"no such suites: [{name!r}]")
    return _records(name, trial, cfg, trials)


def run_coding_trials(cfg: FuzzConfig, *, grid: bool = False,
                      trials: int | None = None) -> list[TrialRecord]:
    """`run_suite` of a coding suite, kept for the benchmark's own checks."""
    return run_suite("coding-grid" if grid else "coding-exact", cfg, trials)


def run_quantifier_trials(cfg: FuzzConfig, *, trials: int | None = None,
                          checks: Sequence[str] = QUANTIFIER_CHECKS,
                          ) -> list[TrialRecord]:
    """`run_suite("quantifier", ...)` running only `checks` on the same
    instances, kept for the benchmark's own checks."""
    return _records("quantifier", partial(quantifier_trial, checks=checks), cfg, trials)


def fuzz(cfg: FuzzConfig, kinds: Sequence[str] | None = None) -> list[TrialRecord]:
    """Run every suite, splitting cfg.trials across them by fixed weights.

    Every selected suite runs at least once; the largest slice absorbs the
    rounding so the total matches cfg.trials whenever that is possible.
    """
    chosen = [(name, fn, w) for name, fn, w in SUITES
              if kinds is None or name in kinds]
    unknown = sorted(set(kinds or ()) - {name for name, _, _ in chosen})
    if unknown or not chosen:
        raise ValidationError(f"no such suites: {unknown or kinds}")
    total_weight = sum(w for _, _, w in chosen)
    shares = [max(1, (cfg.trials * w) // total_weight) for _, _, w in chosen]
    slack = cfg.trials - sum(shares)
    if slack:
        top = max(range(len(shares)), key=lambda j: shares[j])
        shares[top] = max(1, shares[top] + slack)
    records: list[TrialRecord] = []
    for (name, trial, _), n in zip(chosen, shares):
        records.extend(_records(name, trial, cfg, n))
    return records


def summarize(records: Sequence[TrialRecord]) -> dict:
    by_kind: dict[str, dict[str, int]] = {}
    for r in records:
        slot = by_kind.setdefault(r.kind, {"trials": 0, "failures": 0})
        slot["trials"] += 1
        slot["failures"] += 0 if r.ok else 1
    return {
        "trials": len(records),
        "failures": sum(1 for r in records if not r.ok),
        "by_kind": by_kind,
    }
