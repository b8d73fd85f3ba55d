"""Finite structures and formula evaluation.

A structure interprets every relation symbol of a signature totally over a
finite universe, with values in the symbol's value space.  Evaluation is
exact rational arithmetic; alongside the value it reports an *uncertainty
bound*: how far the computed value could drift from the value over any
refinement of the participating nets.  On spaces whose nets have resolution
zero the bound is zero and evaluation is exact in the strict sense.

Evaluation is one bottom-up pass over the formula DAG (`tabulate`).  Each
node gets a table over its free variables, with a row per tuple of
elements; a row's value is a Point, a set value being the 0/1 indicator
point of its hyperspace (see `hyperspace`), so connectives act on it
directly.  The rows run through the product of the variables' domains in
order, so a table is a column, one value per row, and a connective reads a
child over fewer variables through a map from its row positions to the
child's.  A quantifier reduces its body's column along one axis:

    sup x. body     max over the x axis
    inf x. body     min over the x axis
    Q x. body       the set of body values along the x axis, as a compact
                    subset of the body space (values are snapped to the
                    space's net; the snap distance is charged to the
                    uncertainty bound)

Within the pass the columns hold interned int ids, one per distinct Point,
so a connective runs once per distinct tuple of argument ids, sup and inf
compare exact integer keys and Q ORs subset bitmasks, a body value that is a
net point taking its bit from its net position.  A Q node becomes indicator
points only if a node reads it; a Q root nothing reads keeps its masks.
Points are decoded only into the columns of the roots, and a root's rows
are keyed by element tuples only when read.  `evaluate` looks one row up
and decodes a set value into a `CompactSet`.

Nodes come typed (`Formula`), and error bounds derive only on first read,
so a check that never reads one never pays for its Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, count, product, repeat, starmap
from math import lcm, prod
from operator import itemgetter, or_
from typing import Iterable, Mapping, Sequence, Union

from .connective import _steepest_pair
from .errors import EvalError, SpaceMismatch, ValidationError
from .formula import (Apply, Atomic, CauchyLimit, Formula, Quant, QuantKind,
                      Relation, Signature, _check_name, _postorder)
from .hyperspace import CompactSet, HyperSpace, decode_subset, encode_subset
from .valuespace import (ZERO, Point, Rational, ValueSpace, _member, frac,
                         nearest, point, tolerance)

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
    """A table key as a tuple of element ids, each part stripped of blanks:
    a string key is split at its commas.  Element ids carry no blanks at
    their ends and no commas (`Structure`), so stripping is never ambiguous."""
    if isinstance(key, str):
        parts = tuple([part.strip() for part in key.split(",")])
    else:
        try:
            parts = tuple([part.strip() if isinstance(part, str) else part for part in key])
        except TypeError:
            raise ValidationError(f"key {key!r} is not a string or a tuple") from None
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
        for e in self.universe:
            if not e or not isinstance(e, str) or "," in e or e != e.strip():
                raise ValidationError(f"bad element id {e!r}")
        if len(set(self.universe)) != len(self.universe):
            raise ValidationError("universe elements must be distinct")
        seen = set(self.interp)
        want = set(self.signature.by_name)
        if seen != want:
            raise ValidationError(
                f"interpretation keys {sorted(seen)} do not match "
                f"signature symbols {sorted(want)}"
            )
        n = len(self.universe)
        for rel in self.signature.relations:
            entries, k = self.interp[rel.name], rel.arity
            # counted before any tuple is listed: for n >= 2, n^k > len(entries)
            # once k reaches its bit length, and n^k is computed only below that
            if n > 1 and k >= len(entries).bit_length() or len(entries) != n ** k:
                raise ValidationError(f"{rel.name}: interpretation is not total over the "
                                      f"universe ({len(entries)} entries for {n}^{k} tuples)")
            expected = self._tuples(k)
            got = set(entries)
            if got != set(expected):
                missing = sorted(set(expected) - got)[:3]
                extra = sorted(got - set(expected))[:3]
                raise ValidationError(
                    f"{rel.name}: interpretation is not total over the universe "
                    f"(missing {missing}, extra {extra})"
                )
            for t, v in entries.items():
                if not _member(rel.space, v, ZERO):
                    raise ValidationError(
                        f"{rel.name}{t}: value {v} is not within resolution of "
                        f"the net of {rel.space.label}"
                    )

    @classmethod
    def _unchecked(cls, signature: Signature, universe: tuple[str, ...],
                   interp: Mapping[str, Mapping[ElementTuple, Point]]) -> Structure:
        """A structure built without `__post_init__`, for callers whose
        interpretation is total over a checked universe and whose every
        value is a net point of its symbol's space."""
        M = object.__new__(cls)
        for name, value in (("signature", signature), ("universe", universe),
                            ("interp", interp)):
            object.__setattr__(M, name, value)
        return M

    def _tuples(self, arity: int) -> list[ElementTuple]:
        return list(product(self.universe, repeat=arity))

    def value(self, symbol: str, *elements: str) -> Point:
        return self.interp[symbol][tuple(elements)]

    def distance_symbol(self) -> str:
        """The signature's distance symbol; a signature with none is refused."""
        d = self.signature.distance_symbol
        if d is None:
            raise ValidationError("signature has no distance symbol")
        return d

    def distance(self, a: str, b: str) -> Fraction:
        return self.interp[self.distance_symbol()][(a, b)].scalar


def structure(sig: Signature, universe: Sequence[str],
              interp: Mapping[str, Mapping]) -> Structure:
    """Build a structure, coercing raw interpretation entries to Points."""
    if not isinstance(sig, Signature):
        raise ValidationError(f"signature must be a Signature, got {type(sig).__name__}")
    if not isinstance(interp, Mapping):
        raise ValidationError(f"interpretation must be a mapping of symbols to tables, "
                              f"got {type(interp).__name__}")
    cooked: dict[str, dict[ElementTuple, Point]] = {}
    for name, entries in interp.items():
        rel = sig.by_name.get(name)
        if rel is None:
            raise ValidationError(f"unknown relation {name!r} in interpretation")
        if not isinstance(entries, Mapping):
            raise ValidationError(f"{name}: table must be a mapping of tuples to values, "
                                  f"got {type(entries).__name__}")
        cooked[name] = table = {}
        for k, v in entries.items():
            t = _normalize_tuple(k, rel.arity)
            if t in table:
                raise ValidationError(f"{name}: two keys name the tuple {t}")
            table[t] = _as_value(rel.space, v)
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
    Formula.error_bound, which folds it bottom-up over one walk on first
    read and caches it on phi alone."""
    return phi.error_bound


@dataclass(eq=False)
class Table:
    """A formula's values under every assignment of its free variables.

    `vars` are the free variables in sorted order and `domains` the elements
    each ranges over; `column` holds a value per row, the rows running
    through the product of the domains in order.  `rows` keys each value by
    the elements its row takes, and is built on first read.  A set value is
    its indicator point in `space` until `value` decodes it.  A `Q` root
    that no node of its pass reads has subset `masks` instead (base index 0
    the most significant bit), from which `column` is built on first read.
    """

    vars: tuple[str, ...]
    space: ValueSpace
    domains: tuple[tuple[str, ...], ...]
    masks: list[int] | None = None

    @cached_property
    def column(self) -> list[Point]:
        points = {m: self.space.net[m - 1] for m in set(self.masks)}
        return list(map(points.__getitem__, self.masks))

    @cached_property
    def rows(self) -> dict[ElementTuple, Point]:
        return dict(zip(product(*self.domains), self.column))

    def at(self, assignment: Mapping[str, str]) -> Point:
        return self.rows[tuple([assignment[v] for v in self.vars])]

    def value(self, assignment: Mapping[str, str]) -> Value:
        """The row's value, a set value decoded into a CompactSet."""
        p = self.at(assignment)
        return decode_subset(self.space, p) if isinstance(self.space, HyperSpace) else p


def _check_symbol(node: Atomic, sig: Signature):
    rel = sig.by_name.get(node.symbol)
    if rel is None:
        raise EvalError(f"structure does not interpret {node.symbol!r}")
    if rel.arity != len(node.args):
        raise EvalError(f"{node.symbol} arity mismatch")
    if rel.space is not node.space and rel.space != node.space:
        raise EvalError(
            f"{node.symbol} is valued in {rel.space.label} in the structure "
            f"but {node.space.label} in the formula"
        )


def _picker(src: tuple[str, ...], dst: Sequence[str]):
    """The map from a row over the variables `src` to its entries at `dst`:
    an `itemgetter`, so it runs in C.  For one entry or none it takes a
    slice, which keeps the row a tuple."""
    idx = [src.index(v) for v in dst]
    if len(idx) > 1:
        return itemgetter(*idx)
    i = idx[0] if idx else 0
    return itemgetter(slice(i, i + len(idx)))


def _snap_index(base: ValueSpace, p: Point) -> int:
    """The net position of p snapped onto the base space's net.

    A net point takes its own position (`ValueSpace._position`): a set
    value, in a hyperspace base, reads it off its 0/1 mask without the net
    being built.  Only a point off the net goes through `nearest`.
    """
    i = base._position(p)
    return base._index[nearest(base, p)[0]] if i is None else i


def _grouped(column: list[int], size: int, inner: int) -> Iterable[tuple[int, ...]]:
    """The entries of a column over a product of domains, grouped along one
    axis of `size` steps with `inner` rows per step, one tuple per group in
    row order: the column splits into chunks of `inner` entries, one per
    step, and each run of `size` chunks, one block of the axes before it,
    transposes into that block's groups."""
    if inner == 1:
        return zip(*[iter(column)] * size)
    chunks = zip(*[iter(column)] * inner)
    return chain.from_iterable(starmap(zip, zip(*[chunks] * size)))


def _reduce(node: Quant, body_vars: tuple[str, ...], sizes: Sequence[int], body: list[int],
            values: list[Point]) -> list[int]:
    """Reduce the body's column of value ids along the quantified variable's
    axis; `sizes` are the body variables' domain sizes and `values` maps an
    id to its Point.  sup and inf return value ids, `Q` subset masks.

    The body's rows run through the product of its variables' domains in
    order (see `tabulate`), so each group is read off by `_grouped`, without
    a loop per row, and the groups come out in the order of the result's
    rows.
    """
    is_set = node.kind is QuantKind.SET
    if node.var not in body_vars:
        if not is_set:
            return body
        size, inner = 1, 1  # each row is its own group
    else:
        k = body_vars.index(node.var)
        size, inner = sizes[k], prod(sizes[k + 1:])
    distinct = dict.fromkeys(body)
    if is_set:
        # each distinct body value, snapped once onto the body space's net,
        # becomes its bit of a subset mask, base index 0 the most significant
        base, top = node.body.value_space, node.value_space.dimension - 1
        bit = {i: 1 << top - _snap_index(base, values[i]) for i in distinct}
        column = list(map(bit.__getitem__, body))
        return list(map(partial(reduce, or_), _grouped(column, size, inner)))
    # a one-dimensional space has one point per scalar: over one common
    # denominator each distinct value gets an exact integer key, so groups
    # compare ints
    xs = [values[i].coords[0] for i in distinct]
    den = lcm(*[x.denominator for x in xs])
    key = {i: x.numerator * (den // x.denominator) for i, x in zip(distinct, xs)}
    extreme = partial(max if node.kind is QuantKind.SUP else min, key=key.__getitem__)
    return list(map(extreme, _grouped(body, size, inner)))


def tabulate(M: Structure, roots: Sequence[Formula],
             assignment: Mapping[str, str] | None = None) -> list[Table]:
    """The tables of several formulas, from one bottom-up pass over their DAG.

    Nodes shared between the roots are tabulated once.  A variable the
    assignment fixes is a one-row axis, unless some quantifier in the
    formulas rebinds it; every other variable ranges over the universe.
    Every table's rows run through the product of its variables' domains in
    order, so inside the pass a table is its variables and a column, one
    entry per row.  An atomic table reads its column from the structure, a
    connective reads each child's column through the map from its own rows
    to the child's, and a quantifier reduces its body's column along one
    axis.  Intermediate tables are dropped once every parent has read them.

    A column holds int ids: each distinct Point gets one the first time it
    appears, so a connective's evaluator runs once per distinct tuple of
    argument ids, each distinct output's dimension checked (the typecheck
    settled the arguments'), and a quantifier compares ints.  Only the
    roots' columns are decoded back into Points, but a `Q` root that no node
    reads keeps its subset masks (`Table`).

    Nodes are typed when built.  Before any table is built the assignment's
    elements are checked against the universe, then each node's kind and
    each atomic symbol against the signature in the order of the one walk,
    `formula._postorder`, which also gives each table's last reader:
    children first and the leftmost subtree first, so the leftmost error wins.
    """
    asg = dict(assignment or {})
    universe, sig = M.universe, M.signature
    for var, e in asg.items():
        if e not in universe:
            raise EvalError(f"assignment sends {var} to {e!r}, not a universe element")
    order = _postorder(roots)
    rebound = set()
    last: dict[Formula, Formula] = {}  # each table's last reader in `order`
    for node in order:
        if isinstance(node, Quant):
            rebound.add(node.var)
        elif isinstance(node, Atomic):
            _check_symbol(node, sig)
        elif not isinstance(node, (Apply, CauchyLimit)):
            raise EvalError(f"unknown formula node {type(node).__name__}")
        for child in node.children:
            last[child] = node
    domains = {v: (e,) for v, e in asg.items() if v not in rebound}
    unfixed = repeat(universe)  # the domain of a variable the assignment does not fix
    keep, masked = set(roots), set()
    values: list[Point] = []
    ids: dict[Point, int] = {}

    def intern(p: Point) -> int:
        i = ids.get(p)
        if i is None:
            i = ids[p] = len(values)
            values.append(p)
        return i

    grids: dict[tuple[str, ...], list[ElementTuple]] = {}  # rows over variables, once a pass
    # for each row over some variables, the position of the row over a
    # subset of them it projects to, once a pass
    maps: dict[tuple[tuple[str, ...], tuple[str, ...]], list[int]] = {}
    tables: dict[Formula, tuple[tuple[str, ...], list[int]]] = {}  # (variables, column)
    for node in order:
        if isinstance(node, Atomic):  # a leaf: it reads no table
            variables = tuple(sorted(node.free_vars))
            rows = grids.get(variables)
            if rows is None:
                rows = grids[variables] = list(product(*map(domains.get, variables, unfixed)))
            keys = rows if node.args == variables else map(_picker(variables, node.args), rows)
            tables[node] = variables, list(map(intern, map(M.interp[node.symbol].__getitem__, keys)))
            continue
        if isinstance(node, CauchyLimit):
            table = tables[node.body]
        elif isinstance(node, Quant):
            body_vars, body = tables[node.body]
            sizes = list(map(len, map(domains.get, body_vars, unfixed)))
            column = _reduce(node, body_vars, sizes, body, values)
            if node.kind is QuantKind.SET:
                if node not in last:  # a root nothing reads keeps its masks
                    masked.add(node)
                else:  # its reader takes indicator points, net entry mask - 1
                    net = node.value_space.net
                    sets = {m: intern(net[m - 1]) for m in set(column)}
                    column = list(map(sets.__getitem__, column))
            table = tuple(sorted(node.free_vars)), column
        else:
            # the connective runs once per distinct tuple of argument ids
            conn, run = node.conn, node.conn.evaluator
            kids = list(map(tables.__getitem__, node.children))
            if len(kids) == 1:  # its rows are its child's
                [(variables, kid)] = kids
                memo = {i: intern(run(values[i])) for i in dict.fromkeys(kid)}
                table = variables, list(map(memo.__getitem__, kid))
            else:
                variables = tuple(sorted(node.free_vars))
                cols = []
                for sub, kid in kids:
                    if sub != variables:
                        at = maps.get((variables, sub))
                        if at is None:
                            index = dict(zip(product(*map(domains.get, sub, unfixed)), count()))
                            rows = product(*map(domains.get, variables, unfixed))
                            at = maps[variables, sub] = list(map(index.__getitem__,
                                                                 map(_picker(variables, sub), rows)))
                        kid = map(kid.__getitem__, at)
                    cols.append(kid)
                args = list(zip(*cols)) if cols else [()]
                memo = {a: intern(run(*map(values.__getitem__, a))) for a in dict.fromkeys(args)}
                table = variables, list(map(memo.__getitem__, args))
            for out in map(values.__getitem__, dict.fromkeys(memo.values())):
                if len(out.coords) != conn.codomain.dimension:  # the typecheck settled the rest
                    raise conn._misfit(out)
        tables[node] = table
        for child in node.children:
            if last[child] is node and child not in keep:
                tables.pop(child, None)  # a child read twice is dropped once
    out = []
    for root in roots:
        variables, column = tables[root]
        out.append(Table(variables, root.value_space, tuple(map(domains.get, variables, unfixed)),
                         column if root in masked else None))
        if root not in masked:
            out[-1].column = list(map(values.__getitem__, column))
    return out


def _assigned_table(M: Structure, phi: Formula,
                    assignment: Mapping[str, str] | None) -> tuple[Table, dict[str, str]]:
    """phi's table under an assignment that must cover its free variables,
    and the assignment as a dict; the arguments are checked first."""
    if not isinstance(M, Structure):
        raise ValidationError(f"structure must be a Structure, got {type(M).__name__}")
    if not isinstance(phi, Formula):
        raise ValidationError(f"formula must be a Formula, got {type(phi).__name__}")
    if assignment is not None and not isinstance(assignment, Mapping):
        raise ValidationError(f"assignment must be a mapping of variables to elements, "
                              f"got {type(assignment).__name__}")
    asg = dict(assignment or {})
    [table] = tabulate(M, [phi], asg)
    missing = sorted(set(table.vars) - set(asg))
    if missing:
        raise EvalError(f"unassigned free variables: {missing}")
    return table, asg


def evaluate(M: Structure, phi: Formula, assignment: Mapping[str, str] | None = None) -> EvalResult:
    """Evaluate a formula in a structure under an assignment of free variables.

    A lookup into the formula's table; a set value is decoded into a
    CompactSet.  An argument of the wrong type is refused first; then
    errors come in the order `tabulate` checks them, and an unassigned free
    variable is reported last.
    """
    table, asg = _assigned_table(M, phi, assignment)
    value = table.value(asg)
    return EvalResult(value, phi.error_bound, phi.value_space)


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
    tol = tolerance(tol)
    d, U = M.distance, M.universe
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


def _checked_function_table(M: Structure, name: str, f_table: Mapping,
                            modulus: Rational | None = None) -> tuple[dict, Fraction | None]:
    """The table of a function to encode as name, keyed by element tuples,
    and its declared constant or None; refuses a structure with no distance,
    a taken or malformed name, a negative constant and a malformed table."""
    M.distance_symbol()
    if name in M.signature.by_name:
        raise ValidationError(f"symbol {name!r} already exists")
    _check_name(name)
    lip = None if modulus is None else frac(modulus)
    if lip is not None and lip < 0:
        raise ValidationError(f"declared function constant {lip} is negative")

    def key_len(key) -> int:
        return len(key.split(",")) if isinstance(key, str) else len(key)

    if not f_table:
        raise ValidationError("function table is empty")
    arities = {key_len(k) for k in f_table}
    if len(arities) != 1:
        raise ValidationError("function table keys have mixed arities")
    k = arities.pop()
    f: dict[ElementTuple, str] = {}
    for key, out in f_table.items():
        t = _normalize_tuple(key, k)
        if isinstance(out, str):
            out = out.strip()
        for e in t + (out,):
            if e not in M.universe:
                raise ValidationError(f"function table mentions unknown element {e!r}")
        if t in f:
            raise ValidationError(f"function table has two keys for the tuple {t}")
        f[t] = out
    if set(f) != set(M._tuples(k)):
        raise ValidationError("function table is not total over the universe")
    return f, lip


def encode_function(M: Structure, name: str, f_table: Mapping, modulus: Rational | None = None) -> Structure:
    """Add a function to a structure as its graph relation name(x.., y) = d(f(x..), y).

    The new symbol's modulus is L + 1 where L is the function's own constant
    (supplied, or the tightest one measured from the table).
    """
    f, lip = _checked_function_table(M, name, f_table, modulus)
    k = len(next(iter(f)))
    tight = _tight_function_lipschitz(M, f)
    if lip is None:
        lip = tight
    elif tight > lip:
        raise ValidationError(f"declared function constant {lip} is violated (needs {tight})")

    sig = M.signature
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
    M.distance_symbol()  # first: a signature without one has no moduli
    sig = M.signature
    rel = sig.by_name.get(symbol)
    if rel is None:
        raise ValidationError(f"unknown symbol {symbol!r}")
    if rel.arity < 2 or rel.space.dimension != 1:
        raise ValidationError(f"{symbol} cannot be a function graph (needs arity >= 2, real values)")
    tol = tolerance(tol)
    L = frac(lipschitz) if lipschitz is not None else sig.moduli_map.get(symbol)
    if L is None:  # the distance symbol carries no modulus
        raise ValidationError(f"{symbol} has no modulus; give its lipschitz constant")
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
        out[xs] = min(M.universe, key=lambda y: M.interp[symbol][xs + (y,)].scalar)
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
    Every member is coerced by `_as_value`.  An empty target is refused.
    """
    if isinstance(target, CompactSet):
        target = [target] if isinstance(space, HyperSpace) else target.members
    elif isinstance(target, (Point, str)) or not isinstance(target, Iterable):
        target = [target]
    out = [_as_value(space, m) for m in target]
    if not out:
        raise ValidationError("condition target is empty")
    return out


def check_condition(M: Structure, phi: Formula, target, tol: Rational = 0,
                    assignment: Mapping[str, str] | None = None) -> ConditionReport:
    """Does the formula's value land in the target set, up to bound + tol?

    The test is: min distance from the value to a target member is at most
    the evaluation's uncertainty bound plus tol.  The distance is taken from
    the value's point in the formula's table, a set value's indicator point
    included.
    """
    tol = tolerance(tol)
    table, asg = _assigned_table(M, phi, assignment)
    p, space, bound = table.at(asg), phi.value_space, phi.error_bound
    dist = min(space.metric(p, m) for m in _target_points(space, target))
    return ConditionReport(dist <= bound + tol, table.value(asg), dist, bound)
