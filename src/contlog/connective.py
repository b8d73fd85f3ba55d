"""Connectives: Lipschitz-bounded maps between value spaces.

A connective takes one point from each of its domain spaces and returns a
point of its codomain.  Every connective carries a Lipschitz constant with
respect to the l-infinity combination of its domain metrics; constructors
either derive the constant structurally or validate a declared one
exhaustively on the net, each in one scan of its pairs (`_steepest_pair`).
A table of real values on plain l-infinity spaces (`table`,
`tight_lipschitz`, `validate_lipschitz`) is scanned as one integer table
over a common denominator (`_steepest_table`), like the coder's tables,
whose tight constant on one-dimensional keys is one linear scan between
neighbours (`_tight_constant`).  Projections of a hyperspace use a closed
form from the base distances, and their codomains the closed-form
coordinate values of the net.

The nine stock scalar connectives (`neg`, `clamp01`, `affine`, `add`,
`bounded_add`, `truncated_sub`, `mul`, `max_of`, `min_of`) each state their
map once, to `_pointwise`: the same function yields the image that is
checked, the default codomain and the evaluator (the image is the default
codomain's net, so only an explicit codomain is checked against it); the
evaluator reads an input on the product net, of at most
`MAX_PRODUCT_POINTS` inputs, from the image it keeps.  Outputs must always
stay inside the unit cube, so the maps that could leave it (`affine`,
`add`) reject domains whose image escapes.  `table` is the general escape
hatch: any map on a finite net, with any valid declared constant.  It and
`mcshane_extend` read a mapping through `_net_entries`; the built-in finite
observables are tables onto the finite space of their values (`_value_table`).

McShane extensions (`mcshane_extend`, and `_mcshane` for the coder) scale
their table of net coordinates and values to integers over one common
denominator once.  The constant's scan and every evaluation then run on
that integer table in plain ints, and each evaluation builds at most one
Fraction.  Values are exact, so they equal the Fraction definition bit for
bit.  The stock connectives, projections and McShane extensions return
their codomain's own net point when their value lies on that net
(`valuespace._net_point`).  `observable` is the one check that a connective
reads a space's values as reals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import sub
from typing import Callable, Mapping, Sequence, Union

from .errors import CapacityError, EvalError, SpaceMismatch, ValidationError
from .valuespace import (
    ONE,
    ZERO,
    Point,
    Rational,
    ValueSpace,
    _member,
    _separation,
    _net_point,
    frac,
    linf,
    make_finite,
    make_interval,
    membership,
    point,
)

SpaceOrSpaces = Union[ValueSpace, Sequence[ValueSpace]]

#: the most inputs a stock connective computes: a unary one fits on any
#: interval `make_interval` builds, a binary one on two of 362 points each
MAX_PRODUCT_POINTS = 1 << 17


def _spaces(x: SpaceOrSpaces) -> tuple[ValueSpace, ...]:
    if isinstance(x, ValueSpace):
        return (x,)
    out = tuple(x)
    if not all(isinstance(s, ValueSpace) for s in out):
        raise SpaceMismatch("expected a ValueSpace or a sequence of them")
    return out


def flat_coords(pts: Sequence[Point]) -> tuple[Fraction, ...]:
    """Concatenated coordinates of a tuple of points."""
    out: list[Fraction] = []
    for p in pts:
        out.extend(p.coords)
    return tuple(out)


def product_distance(spaces: Sequence[ValueSpace], ps: Sequence[Point], qs: Sequence[Point]) -> Fraction:
    """Product metric: the max of the component metrics."""
    return max(s.metric(p, q) for s, p, q in zip(spaces, ps, qs))


def product_net(spaces: Sequence[ValueSpace]):
    return itertools.product(*(s.net for s in spaces))


def as_point(value) -> Point:
    if isinstance(value, Point):
        return value
    return point(frac(value))


def as_scalar(value) -> Fraction:
    if isinstance(value, Point):
        return value.scalar
    return frac(value)


@dataclass(frozen=True, eq=False)
class Connective:
    """A named Lipschitz map from a product of value spaces to a value space.

    Compares by identity: two connectives are the same connective only if they
    are the same object.  `extremum` is (max, psi) on `sup_theta(psi)`,
    (min, psi) on `inf_theta(psi)` and None on every other connective.
    """

    name: str
    domain: tuple[ValueSpace, ...]
    codomain: ValueSpace
    lipschitz: Fraction
    evaluator: Callable[..., Point] = field(repr=False)
    extremum: tuple[Callable, Connective] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.lipschitz < ZERO:
            raise ValidationError("Lipschitz constant must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.domain)

    def __call__(self, *points: Point) -> Point:
        """The output at the points, every dimension checked; `tabulate`
        calls the evaluator and checks only each distinct output."""
        domain = self.domain
        if len(points) != len(domain):
            raise EvalError(
                f"{self.name} expects {len(domain)} arguments, got {len(points)}"
            )
        for p, s in zip(points, domain):
            if len(p.coords) != s.dimension:
                raise EvalError(
                    f"{self.name}: argument {p} does not fit {s.dimension}-dimensional {s.label}"
                )
        out = self.evaluator(*points)
        if len(out.coords) != self.codomain.dimension:
            raise self._misfit(out)
        return out

    def _misfit(self, out: Point) -> EvalError:
        """The error for an output that does not fit the codomain."""
        return EvalError(f"{self.name}: output {out} does not fit codomain {self.codomain.label}")

    def __repr__(self) -> str:
        doms = ", ".join(s.label for s in self.domain)
        return f"Connective({self.name!r}: [{doms}] -> {self.codomain.label}, L={self.lipschitz})"


def observable(space: ValueSpace | None, theta: Connective) -> ValueSpace:
    """Theta's input space, once theta is checked as an observable on space
    (on a space of its own, when space is None): unary on it and
    real-valued, the only way a set value is read."""
    if not isinstance(theta, Connective):
        raise ValidationError(f"observable must be a Connective, got {type(theta).__name__}")
    if theta.arity != 1 or space not in (None, theta.domain[0]):
        on = "a single space" if space is None else space.label
        raise SpaceMismatch(f"observable {theta.name} does not accept values of {on}")
    if not theta.codomain.real_valued:
        raise SpaceMismatch(f"observable {theta.name} is not real-valued")
    return theta.domain[0]


def unit_interval() -> ValueSpace:
    """The default real codomain: a net of {0,1} whose resolution 1/2 covers [0,1]."""
    return make_interval(0, 1, 1, label="[0,1]")


def _check_unit_range(values, what: str):
    for v in values:
        if v < ZERO or v > ONE:
            raise ValidationError(f"{what} leaves the unit interval (value {v})")


def _covers_unit_interval(space: ValueSpace) -> bool:
    """Whether every value in [0,1] is within `resolution` of the net."""
    if space.dimension != 1:
        return False
    xs = sorted(p.scalar for p in space.net)
    if xs[0] > space.resolution or ONE - xs[-1] > space.resolution:
        return False
    return all((b - a) / 2 <= space.resolution for a, b in zip(xs, xs[1:]))


def const(value, space: ValueSpace, name: str | None = None) -> Connective:
    """Zero-ary connective returning a fixed member of the space."""
    v = as_point(value)
    if not membership(space, v, ZERO):
        raise ValidationError(f"constant {v} is not a member of {space.label}")
    if name is None:
        name = f"const{v}"
    return Connective(name, (), space, ZERO, lambda: v)


def identity(space: ValueSpace, name: str = "id") -> Connective:
    return Connective(name, (space,), space, Fraction(1), _same_point)


def proj(space: ValueSpace, i: int, name: str | None = None) -> Connective:
    """Coordinate projection onto the i-th coordinate.

    1-Lipschitz on plain l-infinity spaces.  On a hyperspace, coordinate i
    is the indicator of base point b_i: it changes only between sets K with
    b_i and F without, where d_H(K, F) >= d(b_i, F), and {b_i, b_j}, {b_j}
    attain that for b_j nearest b_i.  So the tight constant is
    1 / min_{j != i} d(b_i, b_j), and 0 on a one-point base (`_separation`,
    which refuses a base point at distance zero from another); on a plain
    one-dimensional base b_j is a neighbour of b_i.

    On a plain one-dimensional space the projection is the identity: its
    codomain's points are the net's own, and it returns its argument.
    """
    if not (0 <= i < space.dimension):
        raise SpaceMismatch(f"no coordinate {i} in {space.dimension}-dimensional space")
    if name is None:
        name = f"pi{i}"
    label = f"{space.label}[{i}]"
    if space.real_valued:
        codomain = ValueSpace._unchecked(1, space.net, space.resolution, label)
        return Connective(name, (space,), codomain, ONE, _same_point)
    lip = ONE if space.standard_metric else _separation(space.base, i)
    # the coordinate values rise strictly: the net is canonical
    codomain = ValueSpace._unchecked(
        1,
        tuple(Point((c,)) for c in space.coordinate_values(i)),
        lip * space.resolution,
        label,
    )
    return Connective(name, (space,), codomain, lip,
                      lambda p: _net_point(codomain, *p.coords[i].as_integer_ratio()))


def _same_point(p: Point) -> Point:
    return p


def _pointwise(who: str, spaces: tuple[ValueSpace, ...], f: Callable, lip: Rational,
               resolution: Fraction, label: str, codomain: ValueSpace | None, name: str,
               unit_range: str | None = None) -> Connective:
    """The stock connective that applies the scalar map f to one-dimensional spaces.

    The image of f over the product net, of at most MAX_PRODUCT_POINTS
    inputs, is checked against [0,1] when `unit_range` names the map, and
    either fills the default codomain (with the given resolution and label)
    or must fit the given codomain.  The evaluator reads a net input's
    output point from the image, and applies f only off the net.
    """
    for s in spaces:
        if s.dimension != 1:
            raise SpaceMismatch(f"{who} needs a one-dimensional space, got {s.label}")
    size = prod(len(s.net) for s in spaces)
    if size > MAX_PRODUCT_POINTS:
        raise CapacityError(f"{who} over {' x '.join(s.label for s in spaces)} has "
                            f"{size} inputs; the cap is {MAX_PRODUCT_POINTS}")
    scalars = [[p.coords[0] for p in s.net] for s in spaces]
    image = [f(*k) for k in itertools.product(*scalars)]
    if unit_range is not None:
        _check_unit_range(image, unit_range)
    # each distinct image value once, in the order it first appears
    slots: dict[Fraction, int] = {}
    positions = [slots.setdefault(v, len(slots)) for v in image]
    points = [point(v) for v in slots]
    if codomain is None:
        # the net keeps these points, so they are its own
        codomain = ValueSpace(1, tuple(points), resolution, label)
    else:
        for e in points:
            if not _member(codomain, e, ZERO):
                raise ValidationError(
                    f"{who}: image point {e} is not within resolution of {codomain.label}"
                )
        points = [_net_point(codomain, *v.as_integer_ratio()) for v in slots]
    outputs = dict(zip(product_net(spaces), map(points.__getitem__, positions)))

    def run(*pts: Point) -> Point:
        out = outputs.get(pts)
        if out is None:
            return _net_point(codomain, *f(*[p.scalar for p in pts]).as_integer_ratio())
        return out

    return Connective(name, spaces, codomain, Fraction(lip), run)


def neg(space: ValueSpace, codomain: ValueSpace | None = None, name: str = "neg") -> Connective:
    """x -> 1 - x on a one-dimensional space."""
    return _pointwise("neg", (space,), lambda x: ONE - x, 1, space.resolution,
                      f"neg({space.label})", codomain, name)


def clamp01(space: ValueSpace, codomain: ValueSpace | None = None, name: str = "clamp01") -> Connective:
    """x -> min(1, max(0, x)); the identity on anything already in [0,1]."""
    return _pointwise("clamp01", (space,), lambda x: min(ONE, max(ZERO, x)), 1,
                      space.resolution, space.label,
                      space if codomain is None else codomain, name)


def affine(space: ValueSpace, a: Rational, b: Rational, codomain: ValueSpace | None = None,
           name: str | None = None) -> Connective:
    """x -> a*x + b on a one-dimensional space; the image must stay in [0,1].

    Monotone, so checking the net (which for covering grids includes the
    endpoints) bounds the image.  Lipschitz constant |a|.
    """
    a, b = frac(a), frac(b)
    return _pointwise("affine", (space,), lambda x: a * x + b, abs(a),
                      abs(a) * space.resolution, f"affine({space.label})", codomain,
                      f"affine[{a},{b}]" if name is None else name,
                      unit_range=f"affine({a},{b}) on {space.label}")


def add(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None, name: str = "add") -> Connective:
    """Pointwise sum of two one-dimensional spaces; the sums must stay in [0,1]."""
    return _pointwise("add", (x, y), lambda p, q: p + q, 2, x.resolution + y.resolution,
                      f"add({x.label},{y.label})", codomain, name, unit_range="add")


def bounded_add(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None,
                name: str = "badd") -> Connective:
    """Truncated sum min(1, p + q); always lands in [0,1]."""
    return _pointwise("bounded_add", (x, y), lambda p, q: min(ONE, p + q), 2,
                      x.resolution + y.resolution, f"badd({x.label},{y.label})", codomain, name)


def truncated_sub(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None,
                  name: str = "tsub") -> Connective:
    """Truncated difference max(0, p - q)."""
    return _pointwise("truncated_sub", (x, y), lambda p, q: max(ZERO, p - q), 2,
                      x.resolution + y.resolution, f"tsub({x.label},{y.label})", codomain, name)


def mul(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None, name: str = "mul") -> Connective:
    """Pointwise product; 2-Lipschitz on the unit square."""
    return _pointwise("mul", (x, y), lambda p, q: p * q, 2, x.resolution + y.resolution,
                      f"mul({x.label},{y.label})", codomain, name)


def max_of(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None, name: str = "max") -> Connective:
    return _pointwise(name, (x, y), max, 1, max(x.resolution, y.resolution),
                      f"{name}({x.label},{y.label})", codomain, name)


def min_of(x: ValueSpace, y: ValueSpace, codomain: ValueSpace | None = None, name: str = "min") -> Connective:
    return _pointwise(name, (x, y), min, 1, max(x.resolution, y.resolution),
                      f"{name}({x.label},{y.label})", codomain, name)


def compose(outer: Connective, inners: Sequence[Connective], shared: bool = False,
            name: str | None = None) -> Connective:
    """outer after the inners.

    With shared=False the composite consumes the inners' argument lists
    concatenated; with shared=True all inners must have identical domains and
    the composite feeds the same arguments to each.  Lipschitz constant is the
    product of outer's constant with the largest inner constant.
    """
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise SpaceMismatch(
            f"{outer.name} expects {outer.arity} inputs, got {len(inners)} inner connectives"
        )
    for i, (inner, want) in enumerate(zip(inners, outer.domain)):
        if inner.codomain != want:
            raise SpaceMismatch(
                f"inner {inner.name} produces {inner.codomain.label}, "
                f"but {outer.name} wants {want.label} at slot {i}"
            )
    if name is None:
        name = f"{outer.name}({', '.join(c.name for c in inners)})"
    inner_lip = max((c.lipschitz for c in inners), default=ZERO)
    lip = outer.lipschitz * inner_lip

    if shared:
        if not inners:
            raise SpaceMismatch("shared composition needs at least one inner connective")
        dom = inners[0].domain
        for c in inners[1:]:
            if c.domain != dom:
                raise SpaceMismatch("shared composition requires identical inner domains")

        def run_shared(*pts: Point) -> Point:
            return outer.evaluator(*(c.evaluator(*pts) for c in inners))

        return Connective(name, dom, outer.codomain, lip, run_shared)

    dom = tuple(s for c in inners for s in c.domain)
    arities = [c.arity for c in inners]

    def run(*pts: Point) -> Point:
        vals = []
        k = 0
        for c, n in zip(inners, arities):
            vals.append(c.evaluator(*pts[k : k + n]))
            k += n
        return outer.evaluator(*vals)

    return Connective(name, dom, outer.codomain, lip, run)


def _steepest_pair(keys: Sequence, gap: Callable, distance: Callable) -> tuple | None:
    """The pair of keys with the largest gap / distance, as (p, q, gap, d), or
    None if no gap is positive.  A positive gap at distance zero is steepest.
    The distance is computed only for pairs with a positive gap.  Slopes are
    compared by cross-multiplication, so integer gaps and distances stay
    integers; the first of several steepest pairs wins."""
    best = None
    for i, p in enumerate(keys):
        for q in keys[i + 1 :]:
            g = gap(p, q)
            if g > 0:
                d = distance(p, q)
                if d == 0:
                    return p, q, g, d
                if best is None or g * best[3] > best[2] * d:
                    best = (p, q, g, d)
    return best


def _integer_table(flats: Sequence[tuple[Sequence[Fraction], Fraction]]) -> tuple[int, list]:
    """(flat coordinates, value) pairs as integers over their common
    denominator: returns (den, [(coordinates * den, value * den), ...])."""
    den = lcm(*(c.denominator for fp, v in flats for c in (*fp, v)))
    return den, [(tuple(c.numerator * (den // c.denominator) for c in fp),
                  v.numerator * (den // v.denominator)) for fp, v in flats]


def _steepest_entry(rows: Sequence) -> tuple | None:
    """_steepest_pair of an integer table, rows (coordinates, value, ...):
    value gap over l-infinity distance, each pair's in ints without a call
    per pair."""
    best = None
    for i, p in enumerate(rows):
        fp, vp = p[0], p[1]
        for q in rows[i + 1:]:
            g = abs(vp - q[1])
            if g:
                d = max(map(abs, map(sub, fp, q[0])))
                if not d:
                    return p, q, g, d
                if best is None or g * best[3] > best[2] * d:
                    best = p, q, g, d
    return best


def _tight_constant(rows: Sequence) -> Fraction:
    """The smallest Lipschitz constant of an integer table with distinct keys.

    On one-dimensional keys a slope between two keys is at most the largest
    between neighbours in key order, whose gaps sum to the pair's, so one
    linear scan of the sorted table finds it; keys of more dimensions take
    the pair scan (`_steepest_entry`).  Either way the constant is the
    steepest slope as one Fraction, and 0 when every value is equal.
    """
    if len(rows[0][0]) == 1:
        line = sorted(rows)
        g, d = 0, 1
        for ((x0,), v0), ((x1,), v1) in zip(line, line[1:]):
            gap = abs(v1 - v0)
            if gap * d > g * (x1 - x0):
                g, d = gap, x1 - x0
        return Fraction(g, d)
    steep = _steepest_entry(rows)
    return ZERO if steep is None else Fraction(steep[2], steep[3])


def _misfit(key: str, doms: tuple[ValueSpace, ...]) -> ValidationError:
    fits = ", ".join(f"{s.dimension}-dimensional {s.label}" for s in doms)
    return ValidationError(f"mapping key {key} does not fit [{fits}]")


def _normalize_key(key, doms: tuple[ValueSpace, ...]) -> tuple[Point, ...]:
    k = (key,) if isinstance(key, Point) else key
    if isinstance(k, tuple) and all(isinstance(p, Point) for p in k):
        return k
    raise _misfit(repr(key), doms)


def _net_entries(who: str, doms: tuple[ValueSpace, ...], mapping: Mapping,
                 read: Callable) -> tuple[list, dict]:
    """The product net's keys, and the mapping's values read by `read` by
    normalized key; refuses a net point with no entry and entries off the net."""
    entries = {_normalize_key(k, doms): read(v) for k, v in mapping.items()}
    keys = list(product_net(doms))
    for k in keys:
        if k not in entries:
            raise ValidationError(f"{who}: no entry for net point {tuple(map(str, k))}")
    if len(entries) != len(keys):
        raise ValidationError(f"{who}: {len(entries) - len(keys)} entries are off the product net")
    return keys, entries


def table(domains: SpaceOrSpaces, mapping: Mapping, lipschitz: Rational,
          codomain: ValueSpace, name: str = "table") -> Connective:
    """A connective given pointwise on the product net, with a declared constant.

    Validates totality, that entries land within the codomain's resolution of
    its net, and the declared Lipschitz bound on every pair of net points
    (under the product of the domain metrics).
    """
    doms = _spaces(domains)
    lip = frac(lipschitz)
    keys, entries = _net_entries(name, doms, mapping, as_point)
    for k in keys:
        if not _member(codomain, entries[k], ZERO):
            raise ValidationError(
                f"{name}: entry {entries[k]} is not within resolution of {codomain.label}"
            )
    steep = _steepest_table(doms, keys, entries, codomain)
    if steep is not None and steep[2] > lip * steep[3]:
        p, q, gap, d = steep
        raise ValidationError(
            f"{name}: declared Lipschitz {lip} violated: "
            f"|f{tuple(map(str, p))} - f{tuple(map(str, q))}| = {gap} > {lip} * {d}"
        )
    return _tabulated(name, doms, entries, lip, codomain)


def _tabulated(name: str, doms: tuple[ValueSpace, ...], entries: Mapping, lip: Fraction,
               codomain: ValueSpace) -> Connective:
    """`table` without its checks, for entries keyed by tuples of points that
    cover the product net, lie on the codomain's net and satisfy lip."""
    def run(*pts: Point) -> Point:
        try:
            return entries[pts]
        except KeyError:
            raise EvalError(f"{name}: input {tuple(map(str, pts))} is off the table net") from None

    return Connective(name, doms, codomain, lip, run)


def _value_table(name: str, space: ValueSpace, mapping: Mapping, lip: Fraction) -> Connective:
    """`_tabulated` on one space, onto the finite space of the mapping's values."""
    return _tabulated(name, (space,), mapping, lip, make_finite(mapping.values()))


def _steepest_table(doms: tuple[ValueSpace, ...], keys: Sequence[tuple[Point, ...]],
                    entries: Mapping, codomain: ValueSpace | None) -> tuple | None:
    """_steepest_pair of a table's entries over its keys, under the codomain's
    metric (l-infinity without one) and the product of the domain metrics.

    Every key must fit the domains.  When every space is plain l-infinity
    and every value is one-dimensional, the scan runs on one integer table
    over a common denominator (`_integer_table`, `_steepest_entry`).  The
    denominator cancels from every slope, so it returns the same first
    steepest pair as the Fraction scan, with the same gap and distance.
    """
    if ((codomain is None or codomain.standard_metric)
            and all(s.standard_metric for s in doms)
            and all(entries[k].dimension == 1 for k in keys)):
        den, rows = _integer_table([(flat_coords(k), entries[k].coords[0]) for k in keys])
        steep = _steepest_entry([(*row, k) for row, k in zip(rows, keys)])
        if steep is None:
            return None
        p, q, gap, d = steep
        return p[2], q[2], Fraction(gap, den), Fraction(d, den)
    metric = codomain.metric if codomain else linf
    return _steepest_pair(keys, lambda p, q: metric(entries[p], entries[q]),
                          lambda p, q: product_distance(doms, p, q))


def tight_lipschitz(domains: SpaceOrSpaces, mapping: Mapping, codomain: ValueSpace | None = None) -> Fraction:
    """Smallest constant valid for the mapping on the product net."""
    doms = _spaces(domains)
    entries = {_normalize_key(k, doms): as_point(v) for k, v in mapping.items()}
    for k in entries:
        if len(k) != len(doms) or any(p.dimension != s.dimension for p, s in zip(k, doms)):
            raise _misfit(str(tuple(map(str, k))), doms)
    steep = _steepest_table(doms, list(entries), entries, codomain)
    if steep is not None and steep[3] == ZERO:
        raise ValidationError("mapping differs on points at distance zero")
    return ZERO if steep is None else steep[2] / steep[3]


def mcshane_extend(theta: Mapping, lipschitz: Rational, x: SpaceOrSpaces,
                   ambient: SpaceOrSpaces, codomain: ValueSpace | None = None,
                   name: str | None = None) -> Connective:
    """Extend a real-valued map from a net to an ambient cube, keeping its constant.

    theta maps the product net of x, and nothing off it, into [0,1]; the
    extension is

        y  ->  clamp01( min over net points p of  theta(p) + L * d(p, y) )

    with d the flat l-infinity distance on concatenated coordinates.  It agrees
    with theta exactly on the net and is L-Lipschitz on the whole ambient cube.
    The declared L is validated exhaustively on the net.
    """
    xs = _spaces(x)
    amb = _spaces(ambient)
    lip = frac(lipschitz)
    xdim = sum(s.dimension for s in xs)
    adim = sum(s.dimension for s in amb)
    if xdim != adim:
        raise SpaceMismatch(f"net dimension {xdim} does not match ambient dimension {adim}")

    keys, entries = _net_entries("extension", xs, theta, as_scalar)
    _check_unit_range(entries.values(), "extension values")

    den, rows = _integer_table([(flat_coords(k), entries[k]) for k in keys])
    steep = _steepest_entry(rows)
    # both sides are over den, which cancels
    if steep is not None and steep[2] > lip * steep[3]:
        (_, vp), (_, vq), _, d = steep
        raise ValidationError(
            f"declared Lipschitz {lip} violated on the net: "
            f"|{Fraction(vp, den)} - {Fraction(vq, den)}| > {lip} * {Fraction(d, den)}"
        )

    if codomain is None:
        codomain = unit_interval()
    if not _covers_unit_interval(codomain):
        raise ValidationError(
            f"extension codomain {codomain.label} does not cover [0,1] within its resolution"
        )
    if name is None:
        name = f"ext:{len(rows)}p"
    return _mcshane(den, rows, lip, amb, codomain, name)


def _mcshane(den: int, rows: Sequence, lip: Fraction, ambient: tuple[ValueSpace, ...],
             codomain: ValueSpace, name: str) -> Connective:
    """mcshane_extend without its checks, on an integer table over den (see
    `_integer_table`) with distinct keys and values in [0,1], for a
    one-dimensional codomain, where lip is at least the table's steepest
    slope (`mcshane_extend` refuses a smaller one, and the coder passes the
    tight constant).

    With the input y = Y / b over the lcm b of its coordinates' denominators
    and lip = n / m, the candidate of the row (F, V) is

        V / den + (n / m) * max |F / den - Y / b|
            = (V * b * m + n * max |F * b - Y * den|) / (den * b * m),

    so each call scans the rows in ints and clamps.  An input at one of the
    keys, where b divides den and Y * (den / b) is the key, reads that key's
    value V / den without the scan: its own candidate is V / den, and since
    the table satisfies lip no other is smaller.  The result is the
    codomain's own net point when it lands on that net (`_net_point`), else
    one new point.
    """
    n, m = lip.numerator, lip.denominator
    at_key = dict(rows)

    def value(y: tuple[Fraction, ...]) -> tuple[int, int]:
        nums = [c.numerator for c in y]
        dens = [c.denominator for c in y]
        b = lcm(*dens)
        if not den % b:
            v = at_key.get(tuple([t * (den // d) for t, d in zip(nums, dens)]))
            if v is not None:
                return v, den
        ys = [t * (b // d) * den for t, d in zip(nums, dens)]
        vb = b * m
        # max |F * b - Y * den| over the coordinates, in C
        best = min(v * vb + n * max(map(abs, map(sub, map(b.__mul__, fs), ys)))
                   for fs, v in rows)
        top = den * vb
        return min(top, max(0, best)), top

    def run(*pts: Point) -> Point:
        return _net_point(codomain, *value(flat_coords(pts)))

    return Connective(name, ambient, codomain, lip, run)


def validate_lipschitz(conn: Connective) -> tuple | None:
    """Exhaustively check a connective's constant on its product net.

    Returns None when the bound holds, else the steepest pair as a witness
    (inputs_p, inputs_q, gap, distance).
    """
    keys = list(product_net(conn.domain))
    outs = {k: conn.evaluator(*k) for k in keys}
    steep = _steepest_table(conn.domain, keys, outs, conn.codomain)
    if steep is not None and steep[2] > conn.lipschitz * steep[3]:
        return steep
    return None

