"""Finite structures and formula evaluation.

A structure interprets every relation symbol of a signature totally over a
finite universe, with values in the symbol's value space.  Evaluation is
exact rational arithmetic; alongside the value it reports an *uncertainty
bound*: how far the computed value could drift from the value over any
refinement of the participating nets.  On spaces whose nets have resolution
zero the bound is zero and evaluation is exact in the strict sense.

Quantifier semantics over a finite universe:

    sup x. body     max over elements
    inf x. body     min over elements
    Q x. body       the set of body values, as a compact subset of the body
                    space (values are snapped to the space's net; the snap
                    distance is charged to the uncertainty bound)

During evaluation every node yields a Point: a set value is the 0/1
indicator point of its hyperspace (see `hyperspace`), so connectives act on
it directly.  Only the result of `evaluate` is decoded into a `CompactSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence, Union

from .connective import _steepest_pair
from .errors import EvalError, SpaceMismatch, ValidationError
from .formula import (Apply, Atomic, CauchyLimit, Formula, Quant, QuantKind,
                      Relation, Signature)
from .hyperspace import CompactSet, HyperSpace, decode_subset, encode_subset
from .valuespace import (ONE, ZERO, Point, Rational, ValueSpace, frac, membership,
                         nearest, point)

ElementTuple = tuple[str, ...]
Value = Union[Point, CompactSet]


def _as_value(space: ValueSpace, raw) -> Point:
    """Coerce an interpretation entry to a Point of the right dimension."""
    if isinstance(raw, CompactSet):
        if not isinstance(space, HyperSpace):
            raise SpaceMismatch(f"set value supplied for non-hyperspace {space.label}")
        return encode_subset(space, raw.members)
    if isinstance(raw, Point):
        p = raw
    elif isinstance(raw, (tuple, list)):
        p = Point(tuple(frac(v) for v in raw))
    else:
        p = point(frac(raw))
    if p.dimension != space.dimension:
        raise SpaceMismatch(
            f"value {p} has dimension {p.dimension}, space {space.label} "
            f"has dimension {space.dimension}"
        )
    return p


def _normalize_tuple(key, arity: int) -> ElementTuple:
    if isinstance(key, str):
        parts = tuple(s.strip() for s in key.split(",")) if "," in key else (key,)
    else:
        parts = tuple(key)
    if len(parts) != arity:
        raise ValidationError(f"key {key!r} does not have arity {arity}")
    return parts


@dataclass(frozen=True, eq=False)
class Structure:
    """A total interpretation of a signature over a finite universe."""

    signature: Signature
    universe: tuple[str, ...]
    interp: Mapping[str, Mapping[ElementTuple, Point]]

    def __post_init__(self):
        if not self.universe:
            raise ValidationError("universe must be nonempty")
        if len(set(self.universe)) != len(self.universe):
            raise ValidationError("universe elements must be distinct")
        for e in self.universe:
            if not e or not isinstance(e, str) or "," in e or e != e.strip():
                raise ValidationError(f"bad element id {e!r}")
        seen = set(self.interp)
        want = set(self.signature.by_name)
        if seen != want:
            raise ValidationError(
                f"interpretation keys {sorted(seen)} do not match "
                f"signature symbols {sorted(want)}"
            )
        for rel in self.signature.relations:
            entries = self.interp[rel.name]
            expected = self._tuples(rel.arity)
            got = set(entries)
            if got != set(expected):
                missing = sorted(set(expected) - got)[:3]
                extra = sorted(got - set(expected))[:3]
                raise ValidationError(
                    f"{rel.name}: interpretation is not total over the universe "
                    f"(missing {missing}, extra {extra})"
                )
            for t, v in entries.items():
                if not membership(rel.space, v, ZERO):
                    raise ValidationError(
                        f"{rel.name}{t}: value {v} is not within resolution of "
                        f"the net of {rel.space.label}"
                    )

    def _tuples(self, arity: int) -> list[ElementTuple]:
        out: list[ElementTuple] = [()]
        for _ in range(arity):
            out = [t + (e,) for t in out for e in self.universe]
        return out

    def value(self, symbol: str, *elements: str) -> Point:
        return self.interp[symbol][tuple(elements)]

    def distance(self, a: str, b: str) -> Fraction:
        d = self.signature.distance_symbol
        if d is None:
            raise ValidationError("signature has no distance symbol")
        return self.interp[d][(a, b)].scalar


def structure(sig: Signature, universe: Sequence[str],
              interp: Mapping[str, Mapping]) -> Structure:
    """Build a structure, coercing raw interpretation entries to Points."""
    cooked: dict[str, dict[ElementTuple, Point]] = {}
    for name, entries in interp.items():
        rel = sig.by_name.get(name)
        if rel is None:
            raise ValidationError(f"unknown relation {name!r} in interpretation")
        cooked[name] = {
            _normalize_tuple(k, rel.arity): _as_value(rel.space, v)
            for k, v in entries.items()
        }
    return Structure(sig, tuple(universe), cooked)


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True)
class EvalResult:
    value: Value
    error_bound: Fraction
    space: ValueSpace

    @property
    def scalar(self) -> Fraction:
        if isinstance(self.value, CompactSet) or self.value.dimension != 1:
            raise EvalError("result is not real-valued")
        return self.value.scalar


def eval_error_bound(phi: Formula) -> Fraction:
    """Worst-case drift of the computed value under net refinement; see
    Formula.error_bound, which caches it on the node."""
    return phi.error_bound


def _check_symbols(phi: Formula, sig: Signature, _seen: set[int] | None = None):
    # Translated formulas share subtrees heavily; walk each node once.
    seen = set() if _seen is None else _seen
    if id(phi) in seen:
        return
    seen.add(id(phi))
    if isinstance(phi, Atomic):
        rel = sig.by_name.get(phi.symbol)
        if rel is None:
            raise EvalError(f"structure does not interpret {phi.symbol!r}")
        if rel.arity != len(phi.args):
            raise EvalError(f"{phi.symbol} arity mismatch")
        if rel.space != phi.space:
            raise EvalError(
                f"{phi.symbol} is valued in {rel.space.label} in the structure "
                f"but {phi.space.label} in the formula"
            )
    elif isinstance(phi, Apply):
        for c in phi.children:
            _check_symbols(c, sig, seen)
    elif isinstance(phi, (Quant, CauchyLimit)):
        _check_symbols(phi.body, sig, seen)


def evaluate(M: Structure, phi: Formula, assignment: Mapping[str, str] | None = None) -> EvalResult:
    """Evaluate a formula in a structure under an assignment of free variables."""
    asg = dict(assignment or {})
    missing = phi.free_vars - set(asg)
    if missing:
        raise EvalError(f"unassigned free variables: {sorted(missing)}")
    for var, e in asg.items():
        if e not in M.universe:
            raise EvalError(f"assignment sends {var} to {e!r}, not a universe element")
    _check_symbols(phi, M.signature)
    space = phi.value_space  # force a full typecheck before evaluation starts

    memo: dict[tuple[int, tuple[tuple[str, str], ...]], Point] = {}

    def run(node: Formula, env: dict[str, str]) -> Point:
        key = (id(node), tuple(sorted((v, env[v]) for v in node.free_vars)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = _run(node, env)
        memo[key] = out
        return out

    def _run(node: Formula, env: dict[str, str]) -> Point:
        if isinstance(node, Atomic):
            return M.interp[node.symbol][tuple(env[a] for a in node.args)]
        if isinstance(node, Apply):
            return node.conn(*[run(child, env) for child in node.children])
        if isinstance(node, CauchyLimit):
            return run(node.body, env)
        if isinstance(node, Quant):
            results = [run(node.body, {**env, node.var: e}) for e in M.universe]
            if node.kind is QuantKind.SUP:
                return max(results, key=lambda p: p.scalar)
            if node.kind is QuantKind.INF:
                return min(results, key=lambda p: p.scalar)
            # Q: the indicator of the body values, snapped onto the body space's net
            base = node.body.value_space
            return encode_subset(node.value_space, [nearest(base, p)[0] for p in results])
        raise EvalError(f"unknown formula node {type(node).__name__}")

    value = run(phi, asg)
    if isinstance(space, HyperSpace):
        value = decode_subset(space, value)
    return EvalResult(value, eval_error_bound(phi), space)


# ---------------------------------------------------------------------------
# Pseudometric checking, zero-distance classes, quotients

@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_pseudometric(M: Structure, tol: Rational = 0) -> CheckReport:
    """Verify the designated distance is a pseudometric and moduli hold.

    Reports the first counterexample found for each failing law.
    """
    sig = M.signature
    if sig.distance_symbol is None:
        raise ValidationError("signature has no distance symbol")
    tol = frac(tol)
    dtab = M.interp[sig.distance_symbol]
    d = lambda a, b: dtab[(a, b)].scalar  # noqa: E731
    U = M.universe
    found = [
        next((f"reflexivity: d({a},{a}) = {d(a, a)}" for a in U if d(a, a) > tol), None),
        next((f"symmetry: d({a},{b}) = {d(a, b)} but d({b},{a}) = {d(b, a)}"
              for a, b in product(U, U) if abs(d(a, b) - d(b, a)) > tol), None),
        next((f"triangle: d({a},{c}) = {d(a, c)} > d({a},{b}) + d({b},{c}) = {d(a, b) + d(b, c)}"
              for a, b, c in product(U, U, U) if d(a, c) > d(a, b) + d(b, c) + tol), None),
    ]
    for rel in sig.relations:
        if rel.name == sig.distance_symbol:
            continue
        L, table, tuples = sig.modulus(rel.name), M.interp[rel.name], M._tuples(rel.arity)
        pairs = ((s, t, rel.space.metric(table[s], table[t]), max(map(d, s, t)))
                 for s, t in product(tuples, tuples))
        found.append(next((f"modulus: |{rel.name}{s} - {rel.name}{t}| = {gap} > {L} * {move}"
                           for s, t, gap, move in pairs if gap > L * move + tol), None))
    failures = tuple(f for f in found if f is not None)
    return CheckReport(not failures, failures)


def zero_distance_classes(M: Structure) -> tuple[tuple[str, ...], ...]:
    """Partition the universe by distance zero (union-find over d(a,b) == 0)."""
    sig = M.signature
    if sig.distance_symbol is None:
        raise ValidationError("signature has no distance symbol")
    parent = {e: e for e in M.universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in M.universe:
        for b in M.universe:
            if M.distance(a, b) == 0:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[str, list[str]] = {}
    for e in M.universe:
        groups.setdefault(find(e), []).append(e)
    order = {e: i for i, e in enumerate(M.universe)}
    classes = sorted(groups.values(), key=lambda g: min(order[e] for e in g))
    return tuple(tuple(sorted(g, key=order.__getitem__)) for g in classes)


def quotient(M: Structure) -> Structure:
    """Collapse zero-distance elements; representatives are first in universe order.

    Requires a valid pseudometric with moduli, which force interpretations to
    agree across each class; this is re-checked defensively anyway.
    """
    report = check_pseudometric(M)
    if not report.ok:
        raise ValidationError(
            "cannot quotient: distance is not a pseudometric ("
            + "; ".join(report.failures) + ")"
        )
    classes = zero_distance_classes(M)
    rep = {}
    for cls in classes:
        for e in cls:
            rep[e] = cls[0]
    reps = tuple(cls[0] for cls in classes)

    interp: dict[str, dict[ElementTuple, Point]] = {}
    for rel in M.signature.relations:
        table: dict[ElementTuple, Point] = {}
        for t, v in M.interp[rel.name].items():
            rt = tuple(rep[e] for e in t)
            if rt in table and table[rt] != v:
                raise ValidationError(
                    f"{rel.name}: zero-distance elements disagree at {t} "
                    f"({table[rt]} vs {v})"
                )
            table.setdefault(rt, v)
        interp[rel.name] = table
    return Structure(M.signature, reps, interp)


# ---------------------------------------------------------------------------
# Functions as graph relations

def _tight_function_lipschitz(M: Structure, f: Mapping[ElementTuple, str]) -> Fraction:
    steep = _steepest_pair(list(f), lambda s, t: M.distance(f[s], f[t]),
                           lambda s, t: max(M.distance(x, y) for x, y in zip(s, t)))
    if steep is None:
        return ZERO
    s, t, gap, move = steep
    if move == 0:
        raise ValidationError(
            f"function sends zero-distance inputs {s} and {t} "
            f"to outputs at distance {gap}"
        )
    return gap / move


def encode_function(M: Structure, name: str, f_table: Mapping, modulus: Rational | None = None) -> Structure:
    """Add a function to a structure as its graph relation name(x.., y) = d(f(x..), y).

    The new symbol's modulus is L + 1 where L is the function's own constant
    (supplied, or the tightest one measured from the table).
    """
    sig = M.signature
    if sig.distance_symbol is None:
        raise ValidationError("encoding a function needs a distance symbol")
    if name in sig.by_name:
        raise ValidationError(f"symbol {name!r} already exists")

    def key_len(key) -> int:
        return len(key.split(",")) if isinstance(key, str) else len(key)

    arities = {key_len(k) for k in f_table}
    if len(arities) != 1:
        raise ValidationError("function table keys have mixed arities")
    k = arities.pop()
    f: dict[ElementTuple, str] = {}
    for key, out in f_table.items():
        t = _normalize_tuple(key, k)
        for e in t + (out,):
            if e not in M.universe:
                raise ValidationError(f"function table mentions unknown element {e!r}")
        f[t] = out
    if set(f) != set(M._tuples(k)):
        raise ValidationError("function table is not total over the universe")

    tight = _tight_function_lipschitz(M, f)
    if modulus is None:
        lip = tight
    else:
        lip = frac(modulus)
        if tight > lip:
            raise ValidationError(
                f"declared function constant {lip} is violated (needs {tight})"
            )

    dspace = sig.by_name[sig.distance_symbol].space
    graph: dict[ElementTuple, Point] = {}
    for t in M._tuples(k + 1):
        xs, y = t[:-1], t[-1]
        graph[t] = point(M.distance(f[xs], y))

    new_rel = Relation(name, k + 1, dspace)
    moduli = dict(sig.moduli)
    moduli[name] = lip + 1
    new_sig = Signature(sig.relations + (new_rel,), sig.distance_symbol,
                        tuple(sorted(moduli.items())))
    interp = {n: dict(tab) for n, tab in M.interp.items()}
    interp[name] = graph
    return Structure(new_sig, M.universe, interp)


def check_function_axioms(M: Structure, symbol: str, lipschitz: Rational | None = None,
                          tol: Rational = 0) -> CheckReport:
    """Check that a graph relation really encodes a function.

    Three laws: every input row attains value zero somewhere; the relation is
    1-Lipschitz in its output slot; and L-Lipschitz in the input slots.
    """
    sig = M.signature
    if sig.distance_symbol is None:
        raise ValidationError("function axioms need a distance symbol")
    rel = sig.by_name.get(symbol)
    if rel is None:
        raise ValidationError(f"unknown symbol {symbol!r}")
    if rel.arity < 2 or rel.space.dimension != 1:
        raise ValidationError(f"{symbol} cannot be a function graph (needs arity >= 2, real values)")
    tol = frac(tol)
    L = frac(lipschitz) if lipschitz is not None else sig.modulus(symbol)
    P = lambda xs, y: M.interp[symbol][xs + (y,)].scalar  # noqa: E731
    d, U, rows = M.distance, M.universe, M._tuples(rel.arity - 1)
    lows = ((xs, min(P(xs, y) for y in U)) for xs in rows)
    output_gaps = ((xs, y1, y2, abs(P(xs, y1) - P(xs, y2)))
                   for xs, y1, y2 in product(rows, U, U))
    moves = ((xs1, xs2, max(map(d, xs1, xs2))) for xs1, xs2 in product(rows, rows))
    input_gaps = ((xs1, xs2, y, abs(P(xs1, y) - P(xs2, y)), move)
                  for xs1, xs2, move in moves for y in U)
    found = [
        next((f"totality: min_y {symbol}{xs + ('y',)} = {low} > 0"
              for xs, low in lows if low > tol), None),
        next((f"output slot: |{symbol}{xs + (y1,)} - {symbol}{xs + (y2,)}| = {gap} "
              f"> d({y1},{y2}) = {d(y1, y2)}"
              for xs, y1, y2, gap in output_gaps if gap > d(y1, y2) + tol), None),
        next((f"input slots: |{symbol}{xs1 + (y,)} - {symbol}{xs2 + (y,)}| = {gap} "
              f"> {L} * {move}"
              for xs1, xs2, y, gap, move in input_gaps if gap > L * move + tol), None),
    ]
    failures = tuple(f for f in found if f is not None)
    return CheckReport(not failures, failures)


def decode_function(M: Structure, symbol: str) -> dict[ElementTuple, str]:
    """Read a function back off its graph relation: the output where the row is zero."""
    report = check_function_axioms(M, symbol)
    if not report.ok:
        raise ValidationError("not a function graph: " + "; ".join(report.failures))
    rel = M.signature.by_name[symbol]
    k = rel.arity - 1
    out = {}
    for xs in M._tuples(k):
        out[xs] = min(M.universe, key=lambda y: (M.interp[symbol][xs + (y,)].scalar, M.universe.index(y)))
    return out


# ---------------------------------------------------------------------------
# Conditions

@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    value: Value
    distance: Fraction
    error_bound: Fraction

    def __bool__(self) -> bool:
        return self.ok


def _target_points(space: ValueSpace, target) -> list[Point]:
    """Normalize a condition target to points of the formula's value space.

    For a hyperspace-valued formula each target member is itself a set; a
    bare CompactSet then means a single target point.  For other spaces a
    CompactSet's members are the targets, and scalars/tuples/Points work too.
    An empty target is refused.
    """
    if isinstance(target, CompactSet):
        if isinstance(space, HyperSpace):
            return [encode_subset(space, target.members)]
        return [_as_value(space, m) for m in target.members]
    if isinstance(target, (Point, str)) or not isinstance(target, Iterable):
        target = [target]
    out = []
    for m in target:
        if isinstance(m, CompactSet):
            if not isinstance(space, HyperSpace):
                raise SpaceMismatch("set target for a non-hyperspace value")
            out.append(encode_subset(space, m.members))
        else:
            out.append(_as_value(space, m))
    if not out:
        raise ValidationError("condition target is empty")
    return out


def check_condition(M: Structure, phi: Formula, target, tol: Rational = 0,
                    assignment: Mapping[str, str] | None = None) -> ConditionReport:
    """Does the formula's value land in the target set, up to bound + tol?

    The test is: min distance from the value to a target member is at most
    the evaluation's uncertainty bound plus tol.
    """
    result = evaluate(M, phi, assignment)
    space = result.space
    members = _target_points(space, target)
    vp = _as_value(space, result.value)
    dist = min(space.metric(vp, m) for m in members)
    tol = frac(tol)
    return ConditionReport(dist <= result.error_bound + tol, result.value, dist, result.error_bound)
