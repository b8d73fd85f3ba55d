"""Finitely presented compact value spaces inside the unit cube.

A value space is a finite net of rational points in [0,1]^n together with a
resolution: the net stands for a compact set that it covers to within the
resolution under the l-infinity metric.  Resolution 0 means the net *is* the
space.  All arithmetic is exact (`fractions.Fraction`); floats never enter.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import SpaceMismatch, ValidationError

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x: Rational) -> Fraction:
    """Coerce an int, a string like '2/3', or a Fraction to a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, order=True)
class Point:
    """A point of the unit cube with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValidationError("a point needs at least one coordinate")
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise ValidationError(f"coordinate {c!r} is not a Fraction")
            if c < ZERO or c > ONE:
                raise ValidationError(f"coordinate {c} lies outside [0,1]")

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
    return Point(tuple(frac(c) for c in coords))


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

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError("dimension must be a positive integer")
        if not self.net:
            raise ValidationError("net must be nonempty")
        canonical = tuple(sorted(set(self.net)))
        object.__setattr__(self, "net", canonical)
        for p in canonical:
            if p.dimension != self.dimension:
                raise SpaceMismatch(
                    f"net point {p} has dimension {p.dimension}, expected {self.dimension}"
                )
        if self.resolution < ZERO:
            raise ValidationError("resolution must be nonnegative")

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

    @cached_property
    def _scalars(self) -> tuple[Fraction, ...]:
        """The first coordinate of each net point, in net order; for
        one-dimensional nets, the sorted scalars `nearest` bisects."""
        return tuple(p.coords[0] for p in self.net)

    @cached_property
    def distance_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Pairwise distances between net points, indexed like the net."""
        net = self.net
        return tuple(tuple(self.metric(p, q) for q in net) for p in net)

    @cached_property
    def separation(self) -> Fraction:
        """Smallest positive distance between net points (0 for singletons)."""
        best = None
        m = self.distance_matrix
        for i in range(len(self.net)):
            for j in range(i + 1, len(self.net)):
                d = m[i][j]
                if d > ZERO and (best is None or d < best):
                    best = d
        return best if best is not None else ZERO

    def __repr__(self) -> str:
        return (
            f"ValueSpace({self.label!r}, dim={self.dimension}, "
            f"|net|={len(self.net)}, resolution={self.resolution})"
        )


def make_interval(lo: Rational, hi: Rational, step: Rational, label: str | None = None) -> ValueSpace:
    """A one-dimensional grid lo, lo+step, ... with the final point clamped to hi.

    The resolution is step/2, even when the grid degenerates to a single point.
    """
    lo, hi, step = frac(lo), frac(hi), frac(step)
    if step <= ZERO:
        raise ValidationError("step must be positive")
    if lo > hi:
        raise ValidationError(f"empty interval: lo={lo} > hi={hi}")
    if lo < ZERO or hi > ONE:
        raise ValidationError("interval must sit inside [0,1]")
    pts: list[Point] = []
    k = 0
    while True:
        x = lo + k * step
        if x >= hi:
            pts.append(point(hi))
            break
        pts.append(point(x))
        k += 1
    if label is None:
        label = f"[{lo},{hi}]/{step}"
    return ValueSpace(1, tuple(pts), step / 2, label)


def make_finite(points: Iterable[Point], label: str | None = None) -> ValueSpace:
    """An exact space: the given points with resolution 0, deduplicated."""
    pts = tuple(points)
    if not pts:
        raise ValidationError("make_finite needs at least one point")
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
    """The net point closest to p and its distance.  Ties pick the smaller point."""
    if p.dimension != space.dimension:
        raise SpaceMismatch(
            f"point of dimension {p.dimension} in {space.dimension}-dimensional space"
        )
    if space.dimension == 1 and space.standard_metric:
        # the net is sorted: the nearest point is one of the two around p
        xs, x = space._scalars, p.coords[0]
        i = bisect_left(xs, x)
        if i == len(xs) or (i > 0 and x - xs[i - 1] <= xs[i] - x):
            i -= 1
        return space.net[i], abs(x - xs[i])
    best_p, best_d = None, None
    for q in space.net:
        d = space.metric(p, q)
        if best_d is None or d < best_d:
            best_p, best_d = q, d
    return best_p, best_d


def tolerance(tol: Rational) -> Fraction:
    """A check's slack as a Fraction; a negative one is refused."""
    tol = frac(tol)
    if tol < ZERO:
        raise ValidationError("tolerance must be nonnegative")
    return tol


def membership(space: ValueSpace, p: Point, tol: Rational = ZERO) -> bool:
    """Whether p lies within resolution + tol of the net."""
    tol = tolerance(tol)
    _, d = nearest(space, p)
    return d <= space.resolution + tol

