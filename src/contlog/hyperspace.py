"""Hyperspaces: spaces of nonempty compact subsets under the Hausdorff metric.

For a finitely presented space X the hyperspace presents every nonempty
subset of X's net, encoded as a 0/1 indicator point whose i-th coordinate says
whether the i-th net point belongs.  The metric is Hausdorff distance computed
through the base space's metric, so hyperspaces nest.

The net of 2^n - 1 indicator points is virtual (`SubsetNet`): its length,
entries and indices come from subset bitmasks, and the points themselves are
built only when a caller iterates the net.  These never do:

- typing a `Q` node as it is built, and evaluating it, so a `Q` value
  costs O(|U| * n) for a universe U and an n-point base; a `Q` root no node
  reads keeps subset masks and builds no indicator point at all;
- `membership`, and so a `Structure` with set values, which reads a value's
  0/1 mask in O(n);
- `proj` and the translation's snap bound, which take the coordinate values
  {0, 1} in closed form (`coordinate_values`);
- decoding and the T0 check, which round each coordinate (`nearest_indicator`);
- coding a coordinate of a `Q` node, or `sup_theta`/`inf_theta` of a set
  value (`_extremes_by_mask`), and the coded table over a hyperspace net.

These do:

- coding any other observable of a set value, which builds the points only
  to apply it to them;
- `lattice_approx`, and exhaustive checks over the whole hyperspace;
- `nearest` on a hyperspace, which scans the net in the Hausdorff metric.

Open behaviour is visible through the two generating families of the Vietoris
topology: "every member inside U" and "some member meets V".
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .connective import Connective, _value_table, observable
from .errors import CapacityError, EvalError, SpaceMismatch, ValidationError
from .valuespace import ONE, ZERO, Point, Rational, ValueSpace, frac, linf_coords, nearest, point

#: hyper() refuses bases beyond this many net points (2^16 subsets).
MAX_BASE_POINTS = 16


_COORDS = (ZERO, ONE)
_SCALAR = attrgetter("scalar")
_DIGITS = {"0": 0, "1": 1}


def _indicator(bits: tuple[int, ...]) -> Point:
    """The indicator point of a tuple of 0/1 ints.  An integral Fraction
    hashes as its integer, so the point's hash is that of the ints."""
    return Point._unchecked(tuple(map(_COORDS.__getitem__, bits)), hash((bits,)))


class SubsetNet(Sequence):
    """The net of a hyperspace over an n-point base, without building it.

    Entry k is the indicator point of the subset mask k + 1, where base index
    0 is the most significant of the n bits.  That is the sorted order of the
    indicator points, so the net is canonical by construction.  Length and
    indexing work on masks; the points are built the first time the net is
    iterated and kept from then on.  Equality and hash depend only on n.
    """

    __slots__ = ("n", "_points")

    def __init__(self, n: int):
        self.n = n
        self._points: tuple[Point, ...] | None = None

    def __len__(self) -> int:
        return (1 << self.n) - 1

    def __getitem__(self, k):
        if self._points is not None or isinstance(k, slice):
            return self.points[k]
        size = (1 << self.n) - 1
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError("subset net index out of range")
        # the mask's n binary digits, base index 0 the most significant
        return _indicator(tuple(map(_DIGITS.__getitem__, format(k + 1, f"0{self.n}b"))))

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> tuple[Point, ...]:
        """The indicator points in net order, built on first use and kept."""
        if self._points is None:
            bits = itertools.product((0, 1), repeat=self.n)
            next(bits)  # the empty set
            self._points = tuple(map(_indicator, bits))
        return self._points

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsetNet):
            return NotImplemented
        return self.n == other.n

    def __hash__(self) -> int:
        return hash((SubsetNet, self.n))

    def __repr__(self) -> str:
        return f"SubsetNet({self.n})"


@dataclass(frozen=True, repr=False)
class HyperSpace(ValueSpace):
    """The space of nonempty subsets of a base space's net.

    Points are 0/1 indicator vectors over the base net (in net order); the
    metric is Hausdorff distance over the base metric.  The resolution equals
    the base resolution: a net that presents X to within eps presents the
    subsets of X to within eps in Hausdorff distance.  The net is the
    `SubsetNet` of the base, indexed by subset masks.
    """

    base: ValueSpace = None

    standard_metric = False

    def __post_init__(self):
        # the SubsetNet is canonical by construction: none of the base
        # class's sorting, deduplication or per-point checks apply
        if self.base is None:
            raise ValidationError("a hyperspace needs a base space")
        n = len(self.base.net)
        if not isinstance(self.net, SubsetNet) or self.net.n != n or self.dimension != n:
            raise ValidationError("a hyperspace's net is the SubsetNet of its base net")
        if self.resolution < ZERO:
            raise ValidationError("resolution must be nonnegative")

    def member_indices(self, p: Point) -> frozenset[int]:
        """Decode an indicator point into base-net indices."""
        if p.dimension != self.dimension:
            raise SpaceMismatch(f"indicator {p} does not fit {self.label}")
        idx = []
        for i, c in enumerate(p.coords):
            # the indicator points built here share ONE and ZERO, so most
            # coordinates are told apart without a Fraction comparison
            if c is ONE or c is not ZERO and c == ONE:
                idx.append(i)
            elif c is not ZERO and c != ZERO:
                raise SpaceMismatch(f"{p} is not a 0/1 indicator point")
        if not idx:
            raise SpaceMismatch("indicator encodes the empty set")
        return frozenset(idx)

    def net_index(self, p: Point) -> int:
        """Position of an indicator point in the net, its subset mask minus
        1, read without building the net.  Every nonempty 0/1 vector is an
        indicator point, so this is also `_position`; `member_indices`
        refuses any other point, with the text the Hausdorff metric gives."""
        n = self.dimension
        return sum(1 << (n - 1 - i) for i in self.member_indices(p)) - 1

    _position = net_index

    def coordinate_values(self, i: int) -> tuple[Fraction, ...]:
        """Coordinate i of an indicator point says whether base point i is a
        member: always on a one-point base, either way on a larger one."""
        return (ONE,) if self.dimension == 1 else (ZERO, ONE)

    def metric(self, p: Point, q: Point) -> Fraction:
        return _hausdorff_by_index(self.base, self.member_indices(p), self.member_indices(q))


def _hausdorff_by_index(base: ValueSpace, ks: Iterable[int], fs: Iterable[int]) -> Fraction:
    m = base.distance_matrix
    ks, fs = tuple(ks), tuple(fs)
    forward = max(min(m[k][f] for f in fs) for k in ks)
    backward = max(min(m[k][f] for k in ks) for f in fs)
    return max(forward, backward)


def hyper(space: ValueSpace) -> HyperSpace:
    """The hyperspace of a finitely presented space.

    Presents all 2^n - 1 nonempty subsets of the net through a lazy
    `SubsetNet`, so this costs O(1) until a caller iterates the net; refuses
    nets beyond MAX_BASE_POINTS.  Each call builds a new space (equal to any
    other over an equal base), so built points live only as long as it does.
    """
    if not isinstance(space, ValueSpace):
        raise ValidationError(f"base of a hyperspace must be a ValueSpace, "
                              f"got {type(space).__name__}")
    n = len(space.net)
    if n > MAX_BASE_POINTS:
        raise CapacityError(
            f"hyperspace of {space.label} would enumerate 2^{n} subsets; "
            f"the cap is 2^{MAX_BASE_POINTS}"
        )
    # the SubsetNet of the base is what `HyperSpace.__post_init__` checks for
    return HyperSpace._unchecked(n, SubsetNet(n), space.resolution, f"K({space.label})", base=space)


@dataclass(frozen=True)
class CompactSet:
    """A nonempty finite subset of a space's net."""

    space: ValueSpace
    members: tuple[Point, ...]

    def __post_init__(self):
        if not self.members:
            raise ValidationError("a compact set needs at least one member")
        canonical = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", canonical)
        for p in canonical:
            self.space.net_index(p)  # raises if off the net

    @cached_property
    def member_indices(self) -> frozenset[int]:
        return frozenset(self.space.net_index(p) for p in self.members)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.members) + "}"


def compact(space: ValueSpace, *members: Point) -> CompactSet:
    return CompactSet(space, tuple(members))


def hausdorff(space: ValueSpace, k: CompactSet, f: CompactSet) -> Fraction:
    """Hausdorff distance between two compact subsets of the same space."""
    if k.space != space or f.space != space:
        raise SpaceMismatch("hausdorff needs both sets to live on the given space")
    return _hausdorff_by_index(space, k.member_indices, f.member_indices)


def encode_subset(h: HyperSpace, members: Iterable[Point]) -> Point:
    """Indicator point of a subset of the base net."""
    idx = {h.base.net_index(p) for p in members}
    if not idx:
        raise ValidationError("cannot encode the empty set")
    return _indicator(tuple([int(i in idx) for i in range(len(h.base.net))]))


def nearest_indicator(h: HyperSpace, p: Point) -> tuple[Point, Fraction]:
    """`nearest` for a point p of h's dimension in the flat l-infinity
    distance on coordinates, not h's Hausdorff metric: the indicator point
    nearest to p and that distance, ties to the first in net order.  Every
    nonempty 0/1 vector is a net point, so each coordinate rounds to the
    nearer of 0 and 1, a tie to 0; if all round to 0, the last coordinate
    holding the largest value becomes 1."""
    xs = p.coords
    bits = [int(2 * x > 1) for x in xs]
    if not any(bits):
        bits[max(range(len(xs)), key=lambda i: (xs[i], i))] = 1
    q = _indicator(tuple(bits))
    return q, linf_coords(q.coords, xs)


def decode_subset(h: HyperSpace, p: Point) -> CompactSet:
    idx = h.member_indices(p)
    return CompactSet(h.base, tuple(h.base.net[i] for i in sorted(idx)))


@dataclass(frozen=True)
class OpenRegion:
    """A finite union of open balls in a space."""

    space: ValueSpace
    balls: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        if not self.balls:
            raise ValidationError("an open region needs at least one ball")
        for center, radius in self.balls:
            if center.dimension != self.space.dimension:
                raise SpaceMismatch(f"ball center {center} does not fit {self.space.label}")
            if radius <= ZERO:
                raise ValidationError("ball radius must be positive")

    def contains(self, p: Point) -> bool:
        return self.depth(p) > 0

    def depth(self, p: Point) -> Fraction:
        """Largest slack r - d(p, center) over the balls; positive iff p is inside."""
        return max(r - self.space.metric(p, c) for c, r in self.balls)


def ball(space: ValueSpace, center: Point, radius: Rational) -> OpenRegion:
    return OpenRegion(space, ((center, frac(radius)),))


def vietoris_member(k: CompactSet, u: OpenRegion, vs: Sequence[OpenRegion] = ()) -> bool:
    """Whether k lies in the basic Vietoris open set determined by u and vs.

    True iff every member of k is inside u and k meets every region in vs.
    """
    return vietoris_slack(k, u, vs) > 0


def vietoris_slack(k: CompactSet, u: OpenRegion, vs: Sequence[OpenRegion] = ()) -> Fraction:
    """How deep k sits inside the basic open set; positive implies membership.

    Any set within Hausdorff distance strictly less than the slack is also a
    member — the stability that makes these sets open in Hausdorff metric.
    """
    if any(region.space != k.space for region in (u, *vs)):
        raise SpaceMismatch("regions must live on the set's space")
    slack = min(u.depth(p) for p in k.members)
    for v in vs:
        slack = min(slack, max(v.depth(p) for p in k.members))
    return slack


def lift(theta: Connective, name: str | None = None) -> Connective:
    """The direct-image action on subsets: K -> theta[K].

    Takes a unary connective X -> Y to a unary connective K(X) -> K(Y) with the
    same Lipschitz constant (now with respect to Hausdorff distances).  Images
    are snapped to Y's net when within Y's resolution; anything farther is an
    error.
    """
    if theta.arity != 1:
        raise SpaceMismatch("lift needs a unary connective")
    hx = hyper(theta.domain[0])
    hy = hyper(theta.codomain)
    y = theta.codomain
    if name is None:
        name = f"K({theta.name})"

    def run(p: Point) -> Point:
        out = []
        for i in sorted(hx.member_indices(p)):
            img = theta.evaluator(hx.base.net[i])
            snapped, d = nearest(y, img)
            if d > y.resolution:
                raise EvalError(
                    f"{name}: image {img} is farther than resolution from the net of {y.label}"
                )
            out.append(snapped)
        return encode_subset(hy, out)

    return Connective(name, (hx,), hy, theta.lipschitz, run)


def sup_theta(theta: Connective, name: str | None = None) -> Connective:
    """K -> max of theta over K, as a connective on the hyperspace.

    Keeps theta's Lipschitz constant: sup respects Hausdorff distance.
    Records (max, theta) as its `extremum`, which the coder reads by mask.
    """
    return _extremum_theta(theta, max, name or f"sup({theta.name})")


def inf_theta(theta: Connective, name: str | None = None) -> Connective:
    """K -> min of theta over K; the dual of sup_theta, recording (min, theta)."""
    return _extremum_theta(theta, min, name or f"inf({theta.name})")


def _extremum_theta(theta: Connective, pick, name: str) -> Connective:
    hx = hyper(observable(None, theta))

    def run(p: Point) -> Point:
        # the extreme member's own output point
        return pick([theta.evaluator(hx.base.net[i]) for i in hx.member_indices(p)],
                    key=_SCALAR)

    return Connective(name, (hx,), theta.codomain, theta.lipschitz, run, (pick, theta))


def _extremes_by_mask(pick, theta: Connective) -> list[Point]:
    """pick (max or min) of theta over each set of its base net, in net
    order: theta runs once per base point, and mask m's extreme is read from
    m without its lowest set bit.  theta is real-valued, so points of equal
    scalars are equal, and which one a tie keeps does not matter."""
    outs = [theta.evaluator(p) for p in theta.domain[0].net]
    n, ext = len(outs), [None]
    for m in range(1, 1 << n):
        low = m & -m
        p = outs[n - low.bit_length()]
        ext.append(p if m == low else pick(ext[m ^ low], p, key=_SCALAR))
    return ext[1:]


def urysohn_separator(space: ValueSpace, k: CompactSet, f: CompactSet) -> Connective:
    """A [0,1]-valued connective whose sup over one set is 0 and over the other is 1.

    Built as  p -> min(1, d(p, K) / d(x, K))  for a witness x in F \\ K, so it
    vanishes on K and reaches 1 inside F.  When F is a subset of K the roles
    swap (then no function can vanish on all of K while reaching 1 on F, but
    the swapped one still separates with |difference| = 1).  Identical sets
    cannot be separated.
    """
    if k.space != space or f.space != space:
        raise SpaceMismatch("separator needs both sets on the given space")
    if k.members == f.members:
        raise ValidationError("identical sets cannot be separated")
    outside = set(f.member_indices) - set(k.member_indices)
    if outside:
        vanish, witness_pool = k, outside
    else:
        vanish, witness_pool = f, set(k.member_indices) - set(f.member_indices)
    witness = min(witness_pool)
    m = space.distance_matrix
    vanish_idx = sorted(vanish.member_indices)
    den = min(m[witness][i] for i in vanish_idx)
    if den <= ZERO:
        raise ValidationError("witness at distance zero from the vanishing set")
    values = {(p,): point(min(ONE, min(m[j][i] for i in vanish_idx) / den))
              for j, p in enumerate(space.net)}
    name = f"usep[{'.'.join(map(str, sorted(k.member_indices)))}|{'.'.join(map(str, sorted(f.member_indices)))}]"
    # a distance to a set is 1-Lipschitz, so min(1, d(., vanish) / den) is 1/den-Lipschitz
    return _value_table(name, space, values, ONE / den)
