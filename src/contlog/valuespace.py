"""Finitely presented compact value spaces inside the unit cube.

A value space is a finite net of rational points in [0,1]^n together with a
resolution: the net stands for a compact set that it covers to within the
resolution under the l-infinity metric.  Resolution 0 means the net *is* the
space.  All arithmetic is exact (`fractions.Fraction`); floats never enter.

Values are validated once, at the boundary: `Point`, `point` and
`ValueSpace` check every input, while `make_interval`, whose grid is sorted
and distinct by construction, checks its arguments, refuses a grid of more
than `MAX_NET_POINTS` points before building any, and then builds its
points and space unchecked, with the grid's integer scalars.  A point keeps
its hash, and one-dimensional `nearest` bisects the net's scalars as
integers over one common denominator (`_nearest_index`).  A value given as
integers num/q that lands on a plain one-dimensional net is that net's own
point (`_net_point`), found by the same bisection.

`membership` answers a net point from its position in the net, with no
scan and no Fraction: a one-dimensional net bisects its integer scalars,
any other plain net looks the point up in its index, and a hyperspace reads
the point's 0/1 mask (`ValueSpace._position`).  Only a point off the net falls
through to `nearest`.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

from .errors import CapacityError, SpaceMismatch, ValidationError

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

#: make_interval refuses grids of more points than this (a step of 1/65536
#: on [0,1] is the finest it accepts)
MAX_NET_POINTS = 65_537

_MODULUS = sys.hash_info.modulus


def frac(x: Rational) -> Fraction:
    """Coerce an int, a string like '2/3', or a Fraction to a Fraction."""
    try:
        return x if isinstance(x, Fraction) else Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as err:
        raise ValidationError(f"bad rational {x!r}: {err}") from None


@dataclass(frozen=True, order=True)
class Point:
    """A point of the unit cube with exact rational coordinates.

    The hash is computed once, at construction, and equals the dataclass
    hash of the coordinates; dicts and sets compare it before equality does.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValidationError("a point needs at least one coordinate")
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise ValidationError(f"coordinate {c!r} is not a Fraction")
            # a Fraction's denominator is positive: 0 <= c <= 1 in integers
            if not 0 <= c.numerator <= c.denominator:
                raise ValidationError(f"coordinate {c} lies outside [0,1]")
        object.__setattr__(self, "_hash", hash((self.coords,)))

    @classmethod
    def _unchecked(cls, coords: tuple[Fraction, ...], coords_hash: int) -> Point:
        """A point built without `__post_init__`, for callers whose
        coordinates are Fractions in [0,1] and who pass `hash((coords,))`,
        which they may compute more cheaply than by hashing the Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        object.__setattr__(p, "_hash", coords_hash)
        return p

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Point:
            return NotImplemented
        return self.coords == other.coords

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def scalar(self) -> Fraction:
        """The sole coordinate of a one-dimensional point."""
        if len(self.coords) != 1:
            raise SpaceMismatch(f"point {self} is not one-dimensional")
        return self.coords[0]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point(*coords: Rational) -> Point:
    return Point(tuple(map(frac, coords)))


def linf_coords(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """l-infinity distance between two coordinate vectors of equal length."""
    return max(abs(x - y) for x, y in zip(a, b))


def linf(p: Point, q: Point) -> Fraction:
    """l-infinity distance between two points of equal dimension."""
    return linf_coords(p.coords, q.coords)


@dataclass(frozen=True)
class ValueSpace:
    """A finite net presenting a compact subset of [0,1]^dimension.

    Equality is structural: dimension, net and resolution.  The label is a
    display name only and never participates in comparisons.
    """

    dimension: int
    net: tuple[Point, ...]
    resolution: Fraction
    label: str = field(compare=False)

    #: True when the metric is plain l-infinity on coordinates.  Subclasses
    #: with an overridden metric (hyperspaces) set this to False.
    standard_metric = True

    @property
    def real_valued(self) -> bool:
        """A one-dimensional space with the plain metric; never a hyperspace."""
        return self.standard_metric and self.dimension == 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError("dimension must be a positive integer")
        if not self.net:
            raise ValidationError("net must be nonempty")
        _check_points(self.net)
        # Point's order, with the coordinates as the key: one tuple
        # comparison per pair, not a call of Point.__lt__
        canonical = tuple(sorted(set(self.net), key=attrgetter("coords")))
        object.__setattr__(self, "net", canonical)
        for p in canonical:
            if p.dimension != self.dimension:
                raise SpaceMismatch(
                    f"net point {p} has dimension {p.dimension}, expected {self.dimension}"
                )
        if self.resolution < ZERO:
            raise ValidationError("resolution must be nonnegative")

    @classmethod
    def _unchecked(cls, dimension: int, net: tuple[Point, ...], resolution: Fraction,
                   label: str, **fields) -> ValueSpace:
        """A space built without `__post_init__`, for callers whose net is
        already sorted, distinct and of the right dimension, and whose
        resolution is a nonnegative Fraction; `fields` fill a subclass's
        own fields."""
        space = object.__new__(cls)
        object.__setattr__(space, "dimension", dimension)
        object.__setattr__(space, "net", net)
        object.__setattr__(space, "resolution", resolution)
        object.__setattr__(space, "label", label)
        for name, value in fields.items():
            object.__setattr__(space, name, value)
        return space

    def metric(self, p: Point, q: Point) -> Fraction:
        return linf(p, q)

    @cached_property
    def _index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.net)}

    def net_index(self, p: Point) -> int:
        """Position of a point in the net; raises if the point is off the net."""
        try:
            return self._index[p]
        except KeyError:
            raise SpaceMismatch(f"{p} is not a net point of {self.label}") from None

    def _position(self, p: Point) -> int | None:
        """The position of p, of the space's dimension, in the net, or None
        when p is not a net point: for a one-dimensional net by an integer
        bisection of `_int_scalars`, for any other net through `_index`."""
        if self.dimension == 1:
            x = p.coords[0]
            return _scalar_index(self, x.numerator, x.denominator)
        return self._index.get(p)

    def coordinate_values(self, i: int) -> tuple[Fraction, ...]:
        """The distinct values of coordinate i over the net, rising."""
        return tuple(sorted({p.coords[i] for p in self.net}))

    @cached_property
    def _int_scalars(self) -> tuple[int, tuple[int, ...]]:
        """The first coordinate of each net point, in net order, over one
        common denominator: (den, the coordinates times den).  For
        one-dimensional nets these are the sorted integers `nearest`
        bisects."""
        xs = [p.coords[0] for p in self.net]
        den = lcm(*(x.denominator for x in xs))
        return den, tuple(x.numerator * (den // x.denominator) for x in xs)

    @cached_property
    def distance_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Pairwise distances between net points, indexed like the net."""
        net = self.net
        return tuple(tuple(self.metric(p, q) for q in net) for p in net)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.label!r}, dim={self.dimension}, "
            f"|net|={len(self.net)}, resolution={self.resolution})"
        )


def make_interval(lo: Rational, hi: Rational, step: Rational, label: str | None = None) -> ValueSpace:
    """A one-dimensional grid lo, lo+step, ... with the final point clamped to hi.

    The resolution is step/2, even when the grid degenerates to a single point.
    A grid of more than MAX_NET_POINTS points is refused before any is built.
    """
    lo, hi, step = frac(lo), frac(hi), frac(step)
    # the checks, and lo + k*step below hi, then hi itself, in integers over
    # one common denominator
    den = lcm(lo.denominator, hi.denominator, step.denominator)
    a, b, s = (v.numerator * (den // v.denominator) for v in (lo, hi, step))
    if s <= 0:
        raise ValidationError("step must be positive")
    if a > b:
        raise ValidationError(f"empty interval: lo={lo} > hi={hi}")
    if a < 0 or b > den:
        raise ValidationError("interval must sit inside [0,1]")
    steps = range(a, b, s)
    if len(steps) + 1 > MAX_NET_POINTS:
        raise CapacityError(
            f"the interval [{lo},{hi}] with step {step} has {len(steps) + 1} points; "
            f"the cap is {MAX_NET_POINTS}"
        )
    if label is None:
        label = f"[{lo},{hi}]/{step}"
    # every point lies in [lo, hi], inside [0,1], and the points rise
    # strictly from lo and stop at hi: the net is canonical
    coords = [(Fraction(x, den),) for x in steps] + [(hi,)]
    # hash(Fraction(x, den)) is x / den modulo the hash modulus, so each
    # point's hash comes from its integer, unless the modulus divides den
    if den % _MODULUS:
        inv = pow(den, -1, _MODULUS)
        hashes = [hash(((x * inv % _MODULUS,),)) for x in (*steps, b)]
    else:
        hashes = [hash((c,)) for c in coords]
    net = tuple(map(Point._unchecked, coords, hashes))
    space = ValueSpace._unchecked(1, net, step / 2, label)
    # the grid's integer scalars are known: over den, the steps and then b
    vars(space)["_int_scalars"] = (den, (*steps, b))
    return space


def _check_points(net: Sequence) -> None:
    """Refuse a net entry that is not a Point."""
    if not all(map(isinstance, net, itertools.repeat(Point))):  # no bytecode per entry
        bad = next(p for p in net if not isinstance(p, Point))
        raise ValidationError(f"net entry {bad!r} is not a Point")


def make_finite(points: Iterable[Point], label: str | None = None) -> ValueSpace:
    """An exact space: the given points with resolution 0, deduplicated."""
    pts = tuple(points)
    if not pts:
        raise ValidationError("make_finite needs at least one point")
    _check_points(pts)
    dim = pts[0].dimension
    if label is None:
        label = f"finite({len(set(pts))}p,{dim}d)"
    return ValueSpace(dim, pts, ZERO, label)


def product(x: ValueSpace, y: ValueSpace, label: str | None = None) -> ValueSpace:
    """Product space: concatenated coordinates, l-infinity metric, max resolution."""
    if not (x.standard_metric and y.standard_metric):
        raise SpaceMismatch(
            "product is defined for plain l-infinity spaces; "
            "spaces with an overridden metric do not combine coordinatewise"
        )
    net = tuple(
        Point(p.coords + q.coords) for p, q in itertools.product(x.net, y.net)
    )
    if label is None:
        label = f"{x.label}*{y.label}"
    return ValueSpace(x.dimension + y.dimension, net, max(x.resolution, y.resolution), label)


def distance(space: ValueSpace, p: Point, q: Point) -> Fraction:
    """Distance between two points under the space's metric."""
    if p.dimension != space.dimension or q.dimension != space.dimension:
        raise SpaceMismatch(
            f"points of dimension {p.dimension}/{q.dimension} in {space.dimension}-dimensional space"
        )
    return space.metric(p, q)


def nearest(space: ValueSpace, p: Point) -> tuple[Point, Fraction]:
    """The net point closest to p and its distance.  Ties pick the smaller point.

    A plain one-dimensional net is bisected in integers and builds one
    Fraction, the distance; any other net is scanned.
    """
    if p.dimension != space.dimension:
        raise SpaceMismatch(
            f"point of dimension {p.dimension} in {space.dimension}-dimensional space"
        )
    if space.real_valued:
        x = p.coords[0]
        i, gap = _nearest_index(space, x.numerator, x.denominator)
        return space.net[i], Fraction(gap, x.denominator * space._int_scalars[0])
    best_p, best_d = None, None
    for q in space.net:
        d = space.metric(p, q)
        if best_d is None or d < best_d:
            best_p, best_d = q, d
    return best_p, best_d


def _scalar_index(space: ValueSpace, num: int, q: int) -> int | None:
    """The net index of the scalar num/q on a one-dimensional net, by an
    integer bisection of `_int_scalars`, or None when it is off the net."""
    den, xs = space._int_scalars
    t, r = divmod(num * den, q)
    if r:
        return None
    i = bisect_left(xs, t)
    return i if i < len(xs) and xs[i] == t else None


def _net_point(space: ValueSpace, num: int, q: int) -> Point:
    """The point num/q, for 0 <= num <= q, of a one-dimensional space: the
    net's own point when the space is plain and num/q is on its net, else a
    new point.  Outputs that land on a net so share its points."""
    if space.standard_metric:
        i = _scalar_index(space, num, q)
        if i is not None:
            return space.net[i]
    return Point((Fraction(num, q),))


def _separation(space: ValueSpace, i: int) -> Fraction:
    """1 / the distance from the i-th net point to the nearest other one, or
    0 on a one-point net.  On a plain one-dimensional net that point is a
    neighbour in the sorted net, read from the integer scalars; on any other
    net the distance matrix is read, and a distance of zero refused."""
    if space.real_valued:
        # the net is sorted and distinct: every gap is positive
        den, xs = space._int_scalars
        gaps = [xs[j + 1] - xs[j] for j in (i - 1, i) if 0 <= j < len(xs) - 1]
        return Fraction(den, min(gaps)) if gaps else ZERO
    gap = min((d for j, d in enumerate(space.distance_matrix[i]) if j != i), default=None)
    if gap == 0:
        raise ValidationError(
            f"{space.label}: net point {space.net[i]} is at distance zero "
            f"from another net point; no observable can single it out"
        )
    return ZERO if gap is None else ONE / gap


def _nearest_index(space: ValueSpace, num: int, q: int) -> tuple[int, int]:
    """`nearest` on a plain one-dimensional net for the scalar num/q, in
    integers: the net index i of the nearest point, and the distance times
    q * den, with den the net's common denominator (`_int_scalars`).

    The net is sorted, so the nearest point is one of the two around
    x = num/q.  Over den, the first scalar >= x is the first at least
    ceil(num*den/q), and the tie x - xs[i-1] <= xs[i] - x, which goes to the
    smaller point, reads 2*num*den <= (xs[i-1] + xs[i])*q.
    """
    den, xs = space._int_scalars
    scaled = num * den
    i = bisect_left(xs, -(-scaled // q))
    if i == len(xs) or (i > 0 and 2 * scaled <= (xs[i - 1] + xs[i]) * q):
        i -= 1
    return i, abs(scaled - xs[i] * q)


def tolerance(tol: Rational) -> Fraction:
    """A check's slack as a Fraction; a negative one is refused."""
    tol = frac(tol)
    if tol < ZERO:
        raise ValidationError("tolerance must be nonnegative")
    return tol


def membership(space: ValueSpace, p: Point, tol: Rational = ZERO) -> bool:
    """Whether p lies within resolution + tol of the net.

    A net point is a member at once, by its position in the net; any other
    point is measured against the net by `nearest`.
    """
    return _member(space, p, tolerance(tol))


def _member(space: ValueSpace, p: Point, tol: Fraction) -> bool:
    """`membership` with a tolerance already checked, for callers that check
    many values against one tolerance."""
    if p.dimension != space.dimension:
        raise SpaceMismatch(
            f"point of dimension {p.dimension} in {space.dimension}-dimensional space"
        )
    return space._position(p) is not None or nearest(space, p)[1] <= space.resolution + tol

