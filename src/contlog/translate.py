"""Translation between the set-valued and real-valued semantics.

A signature whose symbols take values in arbitrary finite-net spaces is
translated to one whose symbols are all valued on a single [0,1] grid: each
source symbol P valued in X becomes one grid symbol per coordinate of X,
which already sits in a unit cube, so its coordinate projections separate
its points.  Structures transport by snapping each coordinate of a value to
the grid (error at most half the grid step per coordinate), and decode back
by nearest net point, bisecting a one-dimensional net and rounding a set
value's coordinates (`_read_back`).  Every transported value is a grid point
by construction, so the transported structure skips `Structure`'s per-value
membership check; the context keeps each space's snap bound.

Formulas translate by *coding*: for a source formula phi and a real-valued
observable theta on phi's value space, code(phi, theta) is a formula over the
target signature whose value on the transported structure tracks
theta(value of phi) within an explicit budget.  The budget is zero whenever
the source nets already sit on the grid, so on aligned instances the
translation is exact and the two semantics are interchangeable.

The coder has one builder per node kind, a generator that yields each
(formula, observable) pair it reads and is sent that pair's coding.  One
loop runs them on an explicit stack, children first, through the memo, so
no depth of formula recurses.  The builders read typed
connectives through their evaluators and check each distinct output of a
connective application once: the typecheck settled the rest.  An atomic
formula and every connective application, constants included, are coded by
one McShane extension of the observable over their children's coordinates, a
Cauchy limit by its body.  The identity observable is the first coordinate
projection; the sup/inf builder reads its observable on the body net once
and tells the identity from that one pass.  Only `Q`, and a sup/inf read
through another observable, are coded by one min-max connective over the
codings of "sup x. hit_j(body)", one per base net point j that the
observable's values depend on; each reads membership of that point, and
only these are built, one node per variable, body and hit.  Its value is
the lattice interpolant of the observable over these point hits:
the min over net sets k of the max of affines in the hits.  One type,
`LatticeApprox`, holds every such interpolant as an integer min-of-max table
over a common denominator.  The quantifier coder builds its table in closed
form from the point hits; `lattice_approx` builds one for any function on a
hyperspace net, synthesizes separators on the base space when supplied
generators cannot tell two sets apart, and checks it exactly on every net
set.  A generator's sup over each net set is read through `sup_theta`.

The coder and its check read per-space facts from net positions and
integers, not from fresh points and Fractions.  The grid is a
`make_interval` net, capped at `MAX_NET_POINTS` points, whose integer
scalars are known when it is built.  On a plain one-dimensional space:

- the snap bound snaps the net's own integer scalars (`space_snap_bound`);
- a point hit's constant is the gap to a neighbour in the sorted net
  (`_separation`), and its outputs are the points of `_BIT`'s net;
- the coordinate projection is the identity on the net's own points;
- an atomic or connective table is scaled from the nets' integer scalars
  (`_net_table`), and its constant is the steepest slope between neighbours,
  one linear scan (`_tight_constant`; keys of more dimensions take the pair
  scan).

A set value is read by subset mask: a coordinate of a `Q` node is a bit of
the mask, `sup_theta(psi)` or `inf_theta(psi)` of a set takes psi on the
base net and each mask's extreme from the mask without its lowest bit (the
connective's `extremum`), and a table over a hyperspace net keys each set
by its mask's bits and takes the spread of its values as its constant.

Transport snaps each coordinate to the grid point at its integer index
(`_nearest_index`, `nearest`'s bisection).  The McShane extension of a
coded step, whose constant is tight, reads its value at one of its table
keys without scanning the table; it and the quantifier's min-max connective
return the grid's own point when their value lies on the grid
(`_net_point`).  The grid atoms of one symbol and arguments are shared by
all of a coder's observables, so a table of the coded formula reads each once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
# typing's Generator, renamed: `Generator` below is the lattice's generator
from typing import Generator as Steps, Mapping, Sequence

from .connective import (Connective, _integer_table, _mcshane, _tabulated, _tight_constant,
                         _value_table, flat_coords, observable, product_net, proj)
from .errors import CapacityError, SpaceMismatch, ValidationError
from .formula import (Apply, Atomic, CauchyLimit, Formula, Quant, QuantKind,
                      Relation, Signature)
from .hyperspace import (_COORDS, HyperSpace, _extremes_by_mask, decode_subset,
                         nearest_indicator, sup_theta, urysohn_separator)
from .semantics import CheckReport, Structure, _target_points
from .valuespace import (ONE, ZERO, Point, Rational, ValueSpace, _nearest_index, _net_point,
                         _separation, frac, make_finite, make_interval, nearest, point,
                         tolerance)

MAX_SET_CODING_POINTS = 8

_BIT = make_finite([point(0), point(1)], label="bit")


def snap_to_grid(grid: ValueSpace, value: Rational) -> Fraction:
    """Nearest grid value; ties resolve downward."""
    q, _ = nearest(grid, point(frac(value)))
    return q.scalar


class TranslationContext:
    """Holds the grid, the target signature, and all per-space caches."""

    def __init__(self, source: Signature, step: Rational):
        if not isinstance(source, Signature):
            raise ValidationError(f"source signature must be a Signature, "
                                  f"got {type(source).__name__}")
        step = frac(step)
        if not 0 < step <= 1:
            raise ValidationError(f"grid step must be in (0,1], got {step}")
        self.source = source
        self.step = step
        # a step finer than the net cap is refused here, before any point
        self.grid = make_interval(0, 1, step, label=f"grid[{step}]")
        self._coordinates: dict[ValueSpace, tuple[Connective, ...]] = {}
        self._hits: dict = {}
        self._snap_bounds: dict[ValueSpace, Fraction] = {}

        components: dict[str, tuple[str, ...]] = {}
        targets: list[Relation] = []
        taken = set(source.by_name)
        for rel in source.relations:
            names = tuple(f"{rel.name}_{i}" for i in range(rel.space.dimension))
            for n in names:
                if n in taken:
                    raise ValidationError(
                        f"target symbol {n!r} collides with an existing name"
                    )
                taken.add(n)
                targets.append(Relation._unchecked(n, rel.arity, self.grid))  # P was checked
            components[rel.name] = names
        self.components = components
        self.target = Signature(tuple(targets), None, ())

    def coordinates(self, space: ValueSpace) -> tuple[Connective, ...]:
        """The coordinate projections of a space, one per grid symbol."""
        projs = self._coordinates.get(space)
        if projs is None:
            projs = tuple(proj(space, i) for i in range(space.dimension))
            self._coordinates[space] = projs
        return projs

    def point_hit(self, space: ValueSpace, i: int) -> Connective:
        """Observable that is 1 exactly on the i-th net point and 0 elsewhere.

        Its sup over a set reads off membership of that point, so the family
        over all i separates any two distinct sets.  Its gap is 1 only
        between the i-th point and another, so its tight constant is the
        closed form 1 / (distance to the nearest other net point), like
        `proj`'s on a hyperspace, and needs no pairwise scan
        (`_separation`, which refuses a point at distance zero from
        another).  The two outputs are the points of `_BIT`'s net.
        """
        key = (space, i)
        conn = self._hits.get(key)
        if conn is None:
            lip = _separation(space, i)
            miss, hit = _BIT.net
            entries = {(p,): hit if j == i else miss for j, p in enumerate(space.net)}
            conn = _tabulated(f"hit[{i}]", (space,), entries, lip, _BIT)
            self._hits[key] = conn
        return conn

    def snap_bound(self, symbol: str) -> Fraction:
        """Largest per-coordinate snap a value of this symbol can suffer."""
        rel = self.source.by_name[symbol]
        return self.space_snap_bound(rel.space)

    def space_snap_bound(self, space: ValueSpace) -> Fraction:
        """Largest distance from a coordinate value of the space to the grid.

        A plain one-dimensional net snaps its own integer scalars, over one
        denominator, and builds one Fraction; any other space snaps the
        distinct values of each coordinate, each in integers
        (`_nearest_index`), and compares their distances as Fractions.
        """
        bound = self._snap_bounds.get(space)
        if bound is None:
            grid = self.grid
            gden = grid._int_scalars[0]
            if space.real_valued:
                # one denominator: the largest distance is one Fraction
                den, xs = space._int_scalars
                bound = Fraction(max(_nearest_index(grid, x, den)[1] for x in xs), den * gden)
            else:
                bound = max(Fraction(_nearest_index(grid, c.numerator, c.denominator)[1],
                                     c.denominator * gden)
                            for i in range(space.dimension) for c in space.coordinate_values(i))
            self._snap_bounds[space] = bound
        return bound

    @cached_property
    def aligned(self) -> bool:
        """True when every source net sits exactly on the grid."""
        return all(self.snap_bound(r.name) == 0 for r in self.source.relations)


def translate_signature(sig: Signature, step: Rational) -> TranslationContext:
    return TranslationContext(sig, step)


def transport_structure(ctx: TranslationContext, M: Structure) -> Structure:
    """Snap the coordinates of every value onto the grid."""
    if not isinstance(M, Structure):
        raise ValidationError(f"structure must be a Structure, got {type(M).__name__}")
    if M.signature != ctx.source:
        raise SpaceMismatch("structure is not over the source signature")
    grid = ctx.grid
    interp: dict[str, dict] = {name: {} for r in ctx.source.relations
                               for name in ctx.components[r.name]}
    # values repeat across tuples: snap each distinct value once, each
    # coordinate to the grid point at its integer index (`nearest`'s)
    snapped: dict[Point, tuple[Point, ...]] = {}
    for rel in ctx.source.relations:
        columns = [interp[name] for name in ctx.components[rel.name]]
        for t, v in M.interp[rel.name].items():
            qs = snapped.get(v)
            if qs is None:
                qs = snapped[v] = tuple(
                    grid.net[_nearest_index(grid, c.numerator, c.denominator)[0]]
                    for c in v.coords)
            for column, q in zip(columns, qs):
                column[t] = q
    # M is total over its checked universe and every value is a grid point
    return Structure._unchecked(ctx.target, M.universe, interp)


def decode_structure(ctx: TranslationContext, N: Structure) -> Structure:
    """Read a source structure back: each value is the net point nearest to
    its grid values in the flat l-infinity distance on coordinates."""
    interp = {rel.name: {t: q for t, q, _ in rows} for rel, rows in _read_back(ctx, N)}
    return Structure(ctx.source, N.universe, interp)


def t0_violations(ctx: TranslationContext, N: Structure, tol: Rational = 0) -> list[str]:
    """Membership conditions: each transported value vector must lie within
    grid resolution (+ tol) of the coordinates of some source net point."""
    relations = _read_back(ctx, N)
    bound = ctx.grid.resolution + tolerance(tol)
    return [f"{rel.name}{t}: embedded distance {d} to the nearest "
            f"net point of {rel.space.label} exceeds {bound}"
            for rel, rows in relations for t, _, d in rows if d > bound]


def _read_back(ctx: TranslationContext, N: Structure):
    """Each source symbol with its rows (t, q, d), read as iterated: q is the
    first net point in net order nearest to tuple t's grid values in the flat
    l-infinity distance and d that distance, found by `nearest`, or on a
    hyperspace by `nearest_indicator`.  N's signature is checked at the call."""
    if N.signature != ctx.target:
        raise SpaceMismatch("structure is not over the target signature")

    def rows(rel: Relation):
        columns = [N.interp[name] for name in ctx.components[rel.name]]
        read = nearest_indicator if isinstance(rel.space, HyperSpace) else nearest
        for t in columns[0]:
            yield t, *read(rel.space, Point(tuple([c[t].scalar for c in columns])))

    return [(rel, rows(rel)) for rel in ctx.source.relations]


def check_T0(ctx: TranslationContext, N: Structure, tol: Rational = 0) -> CheckReport:
    failures = t0_violations(ctx, N, tol)
    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# The lattice interpolant: a min over rows of a max of affines of generator sups

@dataclass(frozen=True, eq=False)
class Generator:
    """An observable on the base space with its sup over each net set."""

    theta: Connective
    values: Mapping[Point, Fraction] = field(repr=False)


def sup_generator(H: HyperSpace, theta: Connective) -> Generator:
    """Tabulate max of theta over the members of every point of H (`sup_theta`)."""
    observable(H.base, theta)
    run = sup_theta(theta).evaluator
    return Generator(theta, {k: run(k).scalar for k in H.net})


Term = tuple[int, int, int | None]
FracTerm = tuple[Fraction, Fraction, int | None]


@dataclass(frozen=True, eq=False)
class LatticeApprox:
    """Exact min-max-affine interpolant over generator sups.

    `rows` holds tuples of integer terms (A, B, j) over the common
    denominator `scale`.  A term reads (A * x_j + B) / scale, with x_j the
    sup of the j-th generator, or B / scale when j is None.  The interpolant
    is the min over the rows of the max over each row's terms.
    """

    scale: int
    rows: tuple[tuple[Term, ...], ...]
    generators: tuple[Generator, ...] = ()

    @cached_property
    def lipschitz(self) -> Fraction:
        """Constant as a map from generator vectors (sup metric)."""
        return Fraction(max((abs(a) for row in self.rows for a, _, _ in row), default=0),
                        self.scale)

    def value(self, xs: Sequence[Fraction]) -> Fraction:
        """The interpolant at the sups xs of the generators."""
        return Fraction(*self._ratio(xs))

    def _ratio(self, xs: Sequence[Fraction]) -> tuple[int, int]:
        """`value` as an unreduced numerator and denominator."""
        den = lcm(*(x.denominator for x in xs))
        up = [x.numerator * (den // x.denominator) for x in xs]
        best = min(max(b * den if j is None else a * up[j] + b * den for a, b, j in row)
                   for row in self.rows)
        return best, self.scale * den

    def evaluate(self, k: Point) -> Fraction:
        return self.value([g.values[k] for g in self.generators])


def _check_set_capacity(base: ValueSpace) -> None:
    if len(base.net) > MAX_SET_CODING_POINTS:
        raise CapacityError(
            f"set-quantifier coding is capped at base nets of size "
            f"{MAX_SET_CODING_POINTS}; {base.label} has {len(base.net)}"
        )


def lattice_approx(H: HyperSpace, g: Mapping[Point, Fraction],
                   generators: Sequence[Generator] = ()) -> LatticeApprox:
    """Reproduce g: H.net -> [0,1] exactly as a min-max of affines of sups.

    For each ordered pair of net sets with different g-values some generator
    must take different sups on them through an affine that stays in [0,1];
    when none of the supplied generators qualifies, a separator observable is
    synthesized from the base space.  The result is checked exactly on every
    net point before being returned.
    """
    _check_set_capacity(H.base)
    gvals = {}
    for k in H.net:
        if k not in g:
            raise ValidationError("g must be defined on every point of the hyperspace net")
        gvals[k] = frac(g[k])
        if not ZERO <= gvals[k] <= ONE:
            raise ValidationError(f"g value {gvals[k]} is outside [0,1]")

    gens = list(generators)
    for gen in gens:
        for k in H.net:
            if k not in gen.values:
                raise ValidationError("generator sup table misses a net point")

    def fit(j: int, k: Point, f: Point) -> FracTerm | None:
        # the affine through (x_j(k), g(k)) and (x_j(f), g(f)), if x_j
        # tells k and f apart
        wk, wf = gens[j].values[k], gens[j].values[f]
        if wk == wf:
            return None
        a = (gvals[f] - gvals[k]) / (wf - wk)
        return a, gvals[k] - a * wk, j

    def term(k: Point, f: Point) -> FracTerm:
        if gvals[k] == gvals[f]:
            return ZERO, gvals[k], None
        for j in range(len(gens)):
            t = fit(j, k, f)
            # the affine must stay in [0,1] at x_j = 0 and at x_j = 1
            if t is not None and ZERO <= t[1] <= ONE and ZERO <= t[0] + t[1] <= ONE:
                return t
        sep = urysohn_separator(H.base, decode_subset(H, k), decode_subset(H, f))
        gens.append(sup_generator(H, sep))
        t = fit(len(gens) - 1, k, f)
        if t is None:
            raise ValidationError("separator failed to separate two distinct net sets")
        return t

    fracs = [tuple(term(k, f) for f in H.net if f != k) or ((ZERO, gvals[k], None),)
             for k in H.net]
    scale = lcm(*(c.denominator for row in fracs for a, b, _ in row for c in (a, b)))
    rows = tuple(tuple((int(a * scale), int(b * scale), j) for a, b, j in row)
                 for row in fracs)
    approx = LatticeApprox(scale, rows, tuple(gens))
    for k in H.net:
        got = approx.evaluate(k)
        if got != gvals[k]:
            raise ValidationError(
                f"lattice interpolation failed at {k}: got {got}, wanted {gvals[k]}"
            )
    return approx


def _hit_lattice(n: int, gs: Sequence[Fraction]) -> tuple[tuple[int, ...], LatticeApprox]:
    """lattice_approx on the point hits in closed form, from g by subset mask
    (gs[m - 1] at mask m, base index j at bit n - 1 - j): the hits it reads,
    ascending, and the interpolant over their sups in that order.

    With x_j the sup of the j-th point hit, the term of row k for a net set
    f != k reads the lowest base index j at which k and f differ: it is
    g(k) + (g(f) - g(k)) * u, where u = x_j if j is not in k and u = 1 - x_j
    if it is (the constant g(k) when g(f) = g(k)).  Because u lies in
    [0,1], the f that share one j contribute g(k) + u * D, D the largest
    g(f) - g(k) among them, so a row has at most one term per base index.
    The rows are built from the largest g over the sets that share their
    lowest j + 1 base indices, the top j + 1 bits of their masks, so they
    cost O(|H| * n) rather than O(|H|^2); those maxima are lists built level
    by level from the one below, in O(|H|).  The hits read are the j at
    which some row has a term.  The smallest g of a block is never needed:
    where it lies below g(k) for the block's largest g = g(k), the set that
    holds it sees k's block, at the same j, with a larger g, and has a term
    there.  The gs are the scalars of points, so they are Fractions in
    [0,1] already.
    """
    scale = lcm(*(v.denominator for v in gs))
    gint = [v.numerator * (scale // v.denominator) for v in gs]

    # hi[j][p]: the largest g over the sets whose top j + 1 mask bits read p,
    # or None where no set does.  That is only prefix 0 of level n - 1, the
    # empty set, whose sibling is mask 1; level j pairs the prefixes 2p and
    # 2p + 1 of level j + 1
    hi: list = [None] * n
    hi[n - 1] = [None, *gint]
    if n > 1:
        hi[n - 2] = [gint[0], *map(max, gint[1::2], gint[2::2])]
    for j in range(n - 3, -1, -1):
        h = hi[j + 1]
        hi[j] = list(map(max, h[0::2], h[1::2]))

    lone = len(gint) == 1  # a lone set: its row is the constant g(k)
    levels = [(j, n - 1 - j, hi[j]) for j in range(n)]
    used: set[int] = set()
    # each distinct (g(k), flat, terms) once, in mask order: equal ones give
    # equal rows, and distinct ones distinct rows
    raw: dict[tuple, None] = {}
    for m, gk in enumerate(gint, 1):
        flat = lone
        terms = []
        for j, shift, top_of in levels:
            # the sets whose lowest difference from m is at base index j
            prefix = m >> shift
            top = top_of[prefix ^ 1]
            if top is None:
                continue
            if top == gk:
                flat = True
            else:
                # g(k) + D * x_j, or g(k) + D * (1 - x_j) when j is in k
                used.add(j)
                d = top - gk
                terms.append((j, -d, gk + d) if prefix & 1 else (j, d, gk))
        raw[gk, flat, tuple(terms)] = None

    order = tuple(sorted(used))
    slot = {j: i for i, j in enumerate(order)}
    rows = tuple(((0, gk, None),) * flat + tuple((a, b, slot[j]) for j, a, b in terms)
                 for gk, flat, terms in raw)
    return order, LatticeApprox(scale, rows)


# ---------------------------------------------------------------------------
# Formula coding

@dataclass(frozen=True)
class Coded:
    formula: Formula
    budget: Fraction


class CodedFormula:
    """Lazy coder of one source formula against real-valued observables.

    codes(theta) returns a target-signature formula agreeing with
    theta(value of the source formula) within budget(theta) on transported
    structures; both are memoized per observable.  Each builder, picked by
    node class from `_BUILDERS`, yields the pairs it reads and is sent their
    codings; `_code` is the one loop that runs them, children first, and
    memoizes a pair only once it is built.
    """

    def __init__(self, ctx: TranslationContext, source: Formula):
        if not isinstance(source, Formula):
            raise ValidationError(f"source formula must be a Formula, got {type(source).__name__}")
        self.ctx = ctx
        self.source = source
        # keyed on (formula, observable), and on (variable, body, hit) for a
        # point hit's sup, which hash by identity: the memo keeps every
        # observable alive, so a new one can never reuse a stale entry
        self._memo: dict[tuple, Coded] = {}
        # the grid atoms of each (symbol, args), shared by every coding
        self._leaves: dict[tuple[str, tuple[str, ...]], tuple[Atomic, ...]] = {}

    def codes(self, theta: Connective | None = None) -> Formula:
        return self._root(theta).formula

    def budget_of(self, theta: Connective | None = None) -> Fraction:
        return self._root(theta).budget

    def _root(self, theta: Connective | None) -> Coded:
        space = self.source.value_space
        if theta is None:
            if not space.real_valued:
                raise ValidationError(f"a formula valued in {space.label}, which is not "
                                      f"real-valued, needs a real-valued observable")
            theta = self.ctx.coordinates(space)[0]
        else:
            observable(space, theta)
        return self._code(self.source, theta)

    def _code(self, phi: Formula, theta: Connective) -> Coded:
        """Code (phi, theta) and each pair it reads, children first, in one loop:
        the top builder is sent the `Coded` of the pair it yielded, memoized or built."""
        memo, stack, pair = self._memo, [], (phi, theta)
        while True:
            done = memo.get(pair)
            if done is None:
                phi, theta = pair
                if isinstance(phi.value_space, HyperSpace):
                    # coordinates and snap bounds are closed forms, but the
                    # atomic, apply and set builders enumerate the hyperspace net
                    _check_set_capacity(phi.value_space.base)
                build = self._BUILDERS.get(type(phi))
                if build is None:
                    raise ValidationError(f"cannot code {type(phi).__name__}")
                stack.append((pair, build(self, phi, theta)))
            elif not stack:
                return done
            key, steps = stack[-1]
            try:
                pair = steps.send(done)
            except StopIteration as built:
                memo[key] = built.value
                pair = stack.pop()[0]

    def _extend(self, name: str, spaces: Sequence[ValueSpace], values: Sequence[Fraction],
                children: tuple[Formula, ...], error: Fraction) -> Coded:
        """Apply the McShane extension of values, one per point of the product
        net of spaces in its order, to the children, which code the net's
        coordinates within error: the budget is its constant times error.

        The table is scaled to integers over one common denominator once
        (`_net_table`, which also finds the constant); the extension's integer
        kernel runs on it.  The keys are
        distinct tuples of net points, so their flattened coordinates are
        distinct and every distance below is positive.  The constant is tight
        by construction (`_tight_constant`), so mcshane_extend's re-check of
        the same pairs is skipped.
        """
        den, rows, lip = _net_table(spaces, values)
        grid = self.ctx.grid
        ext = _mcshane(den, rows, lip, (grid,) * len(rows[0][0]), grid, name)
        return Coded(Apply(ext, children), lip * error)

    def _build_atomic(self, phi: Atomic, theta: Connective) -> Steps[tuple, Coded, Coded]:
        """theta of a symbol's value, through its grid symbols; the grid
        atoms of one (symbol, args) are shared by every observable, so a
        table of the coded formula reads each once.  It reads no pair."""
        yield from ()
        ctx = self.ctx
        key = (phi.symbol, phi.args)
        children = self._leaves.get(key)
        if children is None:
            rel = ctx.source.by_name.get(phi.symbol)  # its first read: is it the source's?
            if rel is None or rel.arity != len(phi.args) or rel.space != phi.space:
                raise SpaceMismatch(f"{phi.symbol}: no symbol of arity {len(phi.args)} valued "
                                    f"in {phi.space.label} in the source signature")
            children = self._leaves[key] = tuple(
                Atomic(nm, phi.args, ctx.grid) for nm in ctx.components[phi.symbol])
        return self._extend(f"~{theta.name}@{phi.symbol}", (phi.space,),
                            [theta.evaluator(q).scalar for q in phi.space.net], children,
                            ctx.space_snap_bound(phi.space))

    def _build_apply(self, phi: Apply, theta: Connective) -> Steps[tuple, Coded, Coded]:
        ctx = self.ctx
        conn = phi.conn
        child_spaces = [c.value_space for c in phi.children]
        # every child enters through its coordinates; a child valued in a
        # hyperspace over the cap is refused by its own coding
        coded_children = []
        for child, s in zip(phi.children, child_spaces):
            for obs in ctx.coordinates(s):
                coded_children.append((yield child, obs))

        # tabulate theta(conn(..)) over the product of the child nets, an
        # extremum over a set by subset mask: each distinct output's
        # dimension is checked, and theta read, once
        dim = conn.codomain.dimension
        outs = (itertools.starmap(conn.evaluator, product_net(child_spaces))
                if conn.extremum is None else _extremes_by_mask(*conn.extremum))
        thetas: dict[Point, Fraction] = {}
        values = []
        for out in outs:
            v = thetas.get(out)
            if v is None:
                if len(out.coords) != dim:
                    raise conn._misfit(out)
                v = thetas[out] = theta.evaluator(out).scalar
            values.append(v)
        return self._extend(f"~{theta.name}@{conn.name}", child_spaces, values,
                            tuple(c.formula for c in coded_children),
                            sum((c.budget for c in coded_children), start=ZERO))

    def _build_quant(self, phi: Quant, theta: Connective) -> Steps[tuple, Coded, Coded]:
        """Code theta of a quantifier's value through the lattice of g, which
        reads it off the set of the body's values, by subset mask of the base
        (g[m - 1] at mask m) so that no indicator point is needed."""
        ctx = self.ctx
        base = phi.body.value_space
        n = len(base.net)
        if phi.kind is QuantKind.SET:
            coords = ctx._coordinates.get(phi.value_space, ())
            if theta in coords:
                # coordinate k, membership of base point k, is mask bit n - 1 - k
                shift = n - 1 - coords.index(theta)
                g = [_COORDS[m >> shift & 1] for m in range(1, 1 << n)]
            else:
                g = [theta.evaluator(k).scalar for k in phi.value_space.net]
            slack = ZERO
        else:
            # theta(extremum of the collected values) factors through the value
            # set; this one pass also tells the identity, coded by the body's
            outs = [theta.evaluator(p) for p in base.net]
            if theta.codomain == base and outs == list(base.net):
                inner = yield phi.body, ctx.coordinates(base)[0]
                return Coded(Quant(phi.kind, phi.var, inner.formula), inner.budget)
            _check_set_capacity(base)
            # the body net is sorted by value, so a set's largest member is
            # its highest base index (the lowest set bit of its mask) and its
            # smallest is its lowest base index (the highest set bit)
            tv = [p.scalar for p in outs]
            if phi.kind is QuantKind.SUP:
                g = [tv[n - (m & -m).bit_length()] for m in range(1, 1 << n)]
            else:
                g = [tv[n - m.bit_length()] for m in range(1, 1 << n)]
            slack = theta.lipschitz * base.resolution
        # the point hits separate any two distinct sets; a base with a point
        # no hit singles out is refused even if no hit is read (a sorted
        # one-dimensional net has none)
        for i in range(0 if base.real_valued else n):
            _separation(base, i)
        used, lattice = _hit_lattice(n, g)
        sups = []
        for j in used:
            # one node sup x. code(body, hit_j) per variable, body and hit
            hit = ctx.point_hit(base, j)
            key = (phi.var, phi.body, hit)
            if key not in self._memo:
                inner = yield phi.body, hit
                self._memo[key] = Coded(Quant(QuantKind.SUP, phi.var, inner.formula),
                                        inner.budget + hit.lipschitz * base.resolution)
            sups.append(self._memo[key])
        grid = ctx.grid
        conn = Connective(f"~{theta.name}@{phi.kind.keyword}",
                          tuple(c.formula.value_space for c in sups), grid,
                          lattice.lipschitz,
                          lambda *pts: _net_point(grid, *lattice._ratio([p.scalar for p in pts])))
        drift = max((c.budget for c in sups), default=ZERO)
        return Coded(Apply(conn, tuple(c.formula for c in sups)), lattice.lipschitz * drift + slack)

    def _build_limit(self, phi: CauchyLimit, theta: Connective) -> Steps[tuple, Coded, Coded]:
        return (yield phi.body, theta)

    _BUILDERS = {Atomic: _build_atomic, Apply: _build_apply, CauchyLimit: _build_limit,
                 Quant: _build_quant}


def _net_table(spaces: Sequence[ValueSpace], values: Sequence[Fraction]) -> tuple[int, list, Fraction]:
    """`_integer_table` of values over the product net of spaces, one value
    per net tuple in product order, and its tight constant.  When every
    space is plain and one-dimensional the coordinates are read from the
    spaces' integer scalars, and a set's are the bits of its mask, so no
    coordinate of the net is touched.  Two distinct sets lie at flat
    distance 1, so the constant over a set is the spread of the values."""
    if len(spaces) == 1 and isinstance(spaces[0], HyperSpace):
        den = lcm(*(v.denominator for v in values))
        ints = [v.numerator * (den // v.denominator) for v in values]
        keys = itertools.islice(itertools.product((0, den), repeat=spaces[0].dimension), 1, None)
        return den, list(zip(keys, ints)), Fraction(max(ints) - min(ints), den)
    if all(s.real_valued for s in spaces):
        scalars = [s._int_scalars for s in spaces]
        den = lcm(*(d for d, _ in scalars), *(v.denominator for v in values))
        axes = [[x * (den // d) for x in xs] for d, xs in scalars]
        rows = [(k, v.numerator * (den // v.denominator))
                for k, v in zip(itertools.product(*axes), values)]
    else:
        den, rows = _integer_table([(flat_coords(k), v) for k, v in zip(product_net(spaces), values)])
    return den, rows, _tight_constant(rows)


def code_formula(ctx: TranslationContext, phi: Formula) -> CodedFormula:
    return CodedFormula(ctx, phi)


@dataclass(frozen=True, eq=False)
class CodedCondition:
    formula: Formula
    budget: Fraction
    observable: Connective


def code_condition(ctx: TranslationContext, phi: Formula, target) -> CodedCondition:
    """Code the condition "value of phi lies in the target set".

    The observable is the distance to the target (truncated at 1); the coded
    formula is its coding, so the source condition holds exactly when the
    coded formula evaluates within budget of zero on the transported
    structure.
    """
    space = phi.value_space
    members = _target_points(space, target)
    mapping = {(q,): point(min(ONE, min(space.metric(q, m) for m in members)))
               for q in space.net}
    # a distance to a set, truncated at 1, is 1-Lipschitz
    dist = _value_table("dist-to-target", space, mapping, ONE)
    coder = CodedFormula(ctx, phi)
    return CodedCondition(coder.codes(dist), coder.budget_of(dist), dist)
