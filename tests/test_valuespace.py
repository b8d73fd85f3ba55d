import random
import re
from fractions import Fraction as F
from math import gcd

import pytest

from contlog.errors import CapacityError, SpaceMismatch, ValidationError
from contlog.formula import Relation, signature
from contlog.hyperspace import hyper
from contlog.semantics import structure
from contlog.valuespace import (
    MAX_NET_POINTS,
    Point,
    ValueSpace,
    distance,
    frac,
    linf,
    make_finite,
    make_interval,
    membership,
    nearest,
    point,
    product,
    tolerance,
)


def test_frac_coercions():
    assert frac("2/3") == F(2, 3)
    assert frac(1) == F(1)
    assert frac(F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("build, bad", [
    (lambda: point("zz"), "'zz'"),
    (lambda: point("1/0"), "'1/0'"),
    (lambda: point(None), "None"),
    (lambda: make_interval(0, 1, "abc"), "'abc'"),
    (lambda: structure(signature([Relation("P", 1, make_interval(0, 1, F(1, 2)))]),
                       ["a"], {"P": {"a": "zz"}}), "'zz'"),
], ids=["garbage", "zero-denominator", "none", "interval-step", "structure-value"])
def test_malformed_rationals_are_refused(build, bad):
    with pytest.raises(ValidationError, match=f"^bad rational {re.escape(bad)}: "):
        build()


def test_tolerance_coercion():
    assert tolerance("1/4") == F(1, 4) and tolerance(0) == 0
    with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
        tolerance("-1/2")


class TestPoint:
    def test_basic(self):
        p = point(F(1, 2), F(3, 4))
        assert p.dimension == 2
        assert p.coords == (F(1, 2), F(3, 4))
        assert str(p) == "(1/2, 3/4)"

    def test_scalar(self):
        assert point(F(1, 3)).scalar == F(1, 3)
        with pytest.raises(SpaceMismatch):
            point(0, 1).scalar

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Point(())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Point((F(3, 2),))
        with pytest.raises(ValidationError):
            Point((F(-1, 2),))

    def test_rejects_non_fraction(self):
        with pytest.raises(ValidationError):
            Point((0.5,))

    def test_ordering(self):
        assert point(0) < point(F(1, 2)) < point(1)
        assert sorted([point(1, 0), point(0, 1)]) == [point(0, 1), point(1, 0)]
        assert point(0, 1) <= point(0, 1) and not point(1, 0) < point(0, 1)

    def test_hash_is_the_hash_of_its_coordinates(self):
        # the cached hash equals the dataclass's, so set and dict order is kept
        for p in (point(0), point(1), point(F(1, 3)), point(F(2, 1009), F(96, 97), 1)):
            assert hash(p) == hash((p.coords,))

    def test_equality(self):
        a, b = point(F(1, 3), F(1, 2)), point("1/3", "2/4")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == a
        assert a != point(F(1, 3), F(1, 4)) and a != point(F(1, 3))
        assert point(F(1, 2)) != point(F(1, 2), F(1, 2))
        assert len({a, b, point(0)}) == 2

    def test_comparison_with_a_non_point_is_not_implemented(self):
        p = point(F(1, 2))
        assert p.__eq__((F(1, 2),)) is NotImplemented
        assert p != (F(1, 2),) and p != F(1, 2)
        with pytest.raises(TypeError):
            p < (F(1, 2),)


def test_linf():
    assert linf(point(0, F(1, 2)), point(F(1, 4), F(3, 4))) == F(1, 4)
    assert linf(point(F(1, 3)), point(F(1, 3))) == 0


class TestValueSpace:
    def test_canonicalizes_net(self):
        s = ValueSpace(1, (point(1), point(0), point(1)), F(0), "s")
        assert s.net == (point(0), point(1))

    def test_label_not_compared(self):
        a = ValueSpace(1, (point(0), point(1)), F(0), "a")
        b = ValueSpace(1, (point(0), point(1)), F(0), "b")
        assert a == b

    def test_resolution_distinguishes(self):
        a = ValueSpace(1, (point(0), point(1)), F(0), "a")
        b = ValueSpace(1, (point(0), point(1)), F(1, 2), "a")
        assert a != b

    def test_dimension_mismatch(self):
        with pytest.raises(SpaceMismatch):
            ValueSpace(2, (point(0),), F(0), "bad")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            ValueSpace(0, (point(0),), F(0), "bad")
        with pytest.raises(ValidationError):
            ValueSpace(1, (), F(0), "bad")
        with pytest.raises(ValidationError):
            ValueSpace(1, (point(0),), F(-1), "bad")

    def test_net_index(self):
        s = make_interval(0, 1, F(1, 2))
        assert s.net_index(point(F(1, 2))) == 1
        with pytest.raises(SpaceMismatch):
            s.net_index(point(F(1, 3)))

    def test_distance_matrix(self):
        s = make_finite([point(0), point(F(1, 4)), point(1)])
        assert s.distance_matrix[0][2] == 1
        assert s.distance_matrix[1][2] == F(3, 4)


class TestMakeInterval:
    def test_quarters(self):
        s = make_interval(0, 1, F(1, 4))
        assert [p.scalar for p in s.net] == [0, F(1, 4), F(1, 2), F(3, 4), 1]
        assert s.resolution == F(1, 8)
        assert s.label == "[0,1]/1/4"

    def test_final_point_clamped(self):
        s = make_interval(0, 1, F(2, 5))
        assert [p.scalar for p in s.net] == [0, F(2, 5), F(4, 5), 1]

    @pytest.mark.parametrize("lo, hi, step", [
        (0, 1, F(1, 8)), (F(1, 3), F(5, 7), F(1, 11)), (0, 1, F(1, 65536)),
        # a denominator the hash modulus divides hashes its Fractions
        (F(1, 2**61 - 1), F(3, 2**61 - 1), F(1, 2**61 - 1)),
    ])
    def test_point_hashes_from_integers_equal_the_points_own(self, lo, hi, step):
        for p in make_interval(lo, hi, step).net:
            assert hash(p) == hash(Point(p.coords)), p

    def test_degenerate(self):
        s = make_interval(F(1, 2), F(1, 2), F(1, 4))
        assert [p.scalar for p in s.net] == [F(1, 2)]
        assert s.resolution == F(1, 8)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            make_interval(0, 1, 0)
        with pytest.raises(ValidationError):
            make_interval(F(3, 4), F(1, 4), F(1, 4))
        with pytest.raises(ValidationError):
            make_interval(0, 2, F(1, 2))

    def test_matches_the_checked_constructor(self):
        # make_interval skips ValueSpace's canonicalization; its space must be
        # the one the checked constructor builds from lo, lo + step, ..., hi
        rng = random.Random(15)
        uneven = 0
        for _ in range(250):
            den = rng.choice([1, 2, 3, 8, 12, 97, 1009])
            a, b = sorted(rng.randint(0, den) for _ in range(2))
            lo, hi = F(a, den), F(b, den)
            step = F(rng.randint(1, 30), rng.choice([3, 8, 10, 97, 120]))
            pts, x = [], lo
            while x < hi:
                pts.append(point(x))
                x += step
            pts.append(point(hi))
            label = f"[{lo},{hi}]/{step}"
            want = ValueSpace(1, tuple(pts), step / 2, label)
            got = make_interval(lo, hi, step)
            assert (got.net, got.resolution, got.label) == (want.net, want.resolution, label)
            assert got == want and hash(got) == hash(want)
            uneven += (hi - lo) % step != 0
        assert uneven > 100

    def test_net_cap(self):
        # the cap admits a 1/65536 grid on [0,1] and nothing finer
        assert len(make_interval(0, 1, F(1, 65536)).net) == MAX_NET_POINTS == 65_537
        assert len(make_interval(F(1, 2), 1, F(1, 131072)).net) == MAX_NET_POINTS
        for lo, hi, step, count in ((0, 1, F(1, 65537), 65538),
                                    (F(1, 2), 1, F(1, 131074), 65538),
                                    (0, 1, F(1, 10**12), 10**12 + 1)):
            with pytest.raises(CapacityError, match=(
                    rf"^the interval \[{lo},{hi}\] with step {step} has {count} points; "
                    rf"the cap is 65537$")):
                make_interval(lo, hi, step)


@pytest.mark.parametrize("build, error, message", [
    (lambda: point(-1), ValidationError, "coordinate -1 lies outside [0,1]"),
    (lambda: point(F(1, 2), F(9, 8)), ValidationError, "coordinate 9/8 lies outside [0,1]"),
    (lambda: Point((F(-1, 1009),)), ValidationError, "coordinate -1/1009 lies outside [0,1]"),
    (lambda: Point((F(1, 2), 0.5)), ValidationError, "coordinate 0.5 is not a Fraction"),
    (lambda: Point((1,)), ValidationError, "coordinate 1 is not a Fraction"),
    (lambda: Point(()), ValidationError, "a point needs at least one coordinate"),
    (lambda: ValueSpace(1, (point(0), point(0, 1)), F(0), "X"), SpaceMismatch,
     "net point (0, 1) has dimension 2, expected 1"),
    (lambda: ValueSpace(1, (), F(0), "X"), ValidationError, "net must be nonempty"),
    (lambda: ValueSpace(0, (point(0),), F(0), "X"), ValidationError,
     "dimension must be a positive integer"),
    (lambda: ValueSpace(1, (point(0),), F(-1), "X"), ValidationError,
     "resolution must be nonnegative"),
    (lambda: make_interval(0, 1, 0), ValidationError, "step must be positive"),
    (lambda: make_interval(F(1, 2), F(1, 4), F(1, 8)), ValidationError,
     "empty interval: lo=1/2 > hi=1/4"),
    (lambda: make_interval(F(-1, 8), 1, F(1, 8)), ValidationError,
     "interval must sit inside [0,1]"),
    (lambda: make_interval(0, F(9, 8), F(1, 8)), ValidationError,
     "interval must sit inside [0,1]"),
], ids=["negative", "above-one", "negative-Point", "float", "int", "empty",
        "space-dimension", "space-empty", "space-dimension-0", "space-resolution",
        "interval-step", "interval-empty", "interval-below", "interval-above"])
def test_public_constructors_refuse_bad_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


class TestMakeFinite:
    def test_exact(self):
        s = make_finite([point(F(1, 8)), point(F(7, 8))])
        assert s.resolution == 0
        assert s.dimension == 1

    def test_deduplicates(self):
        s = make_finite([point(0), point(0), point(1)])
        assert len(s.net) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_finite([])

    @pytest.mark.parametrize("points, shown", [([0, 1], "0"), ([[0], [1]], "[0]"),
                                               ([point(0), "1"], "'1'")],
                             ids=["ints", "lists", "str-after-point"])
    def test_rejects_entries_that_are_not_points(self, points, shown):
        message = f"net entry {shown} is not a Point"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_finite(points)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ValueSpace(1, tuple(points), F(0), "bad")


def test_product():
    x = make_interval(0, 1, F(1, 2))
    y = make_finite([point(0), point(1)])
    p = product(x, y)
    assert p.dimension == 2
    assert len(p.net) == 6
    assert p.resolution == F(1, 4)
    assert p.label == f"{x.label}*{y.label}"


def test_distance_checks_dimensions():
    s = make_interval(0, 1, F(1, 2))
    assert distance(s, point(0), point(F(3, 4))) == F(3, 4)
    with pytest.raises(SpaceMismatch):
        distance(s, point(0, 0), point(1, 1))


def _scan(space, p):
    """The documented rule for `nearest`: the first net point at the least
    distance, so a tie picks the smaller point."""
    best = None
    for q in space.net:
        d = space.metric(p, q)
        if best is None or d < best[1]:
            best = (q, d)
    return best


def _random_nets(count):
    rng = random.Random(5)
    for _ in range(count):
        den = rng.choice([3, 8, 10, 12])
        yield make_finite([point(F(rng.randint(0, den), den)) for _ in range(rng.randint(1, 7))])


class TestNearest:
    def test_basic(self):
        s = make_interval(0, 1, F(1, 4))
        q, d = nearest(s, point(F(1, 3)))
        assert q == point(F(1, 4)) and d == F(1, 12)

    def test_tie_picks_smaller(self):
        s = make_interval(0, 1, F(1, 4))
        q, d = nearest(s, point(F(1, 8)))
        assert q == point(0) and d == F(1, 8)

    @pytest.mark.parametrize("space", [
        make_interval(0, 1, F(1, 4)),
        make_interval(F(1, 8), F(7, 8), F(1, 3)),  # last step clamped short
        make_interval(0, 1, F(1, 15)),
        make_finite([point(F(1, 10)), point(F(1, 3)), point(F(1, 2)), point(F(9, 10))]),
        make_finite([point(F(2, 5))]),
        *_random_nets(8),
        # large coprime denominators, alone and mixed
        make_finite([point(F(k, 97)) for k in (0, 5, 13, 48, 49, 96, 97)]),
        make_finite([point(F(k, 1009)) for k in (1, 2, 500, 504, 1008)]),
        make_finite([point(F(1, 97)), point(F(3, 1009)), point(F(50, 97)),
                     point(F(700, 1009)), point(1)]),
        make_interval(F(1, 1009), F(1000, 1009), F(1, 97)),
        make_finite([point(F(500, 1009))]),
        make_finite([point(0)]),
        make_finite([point(1)]),
    ], ids=["quarters", "clamped", "fifteenths", "irregular", "single",
            *(f"random{i}" for i in range(8)),
            "den97", "den1009", "mixed", "mixed-clamped", "single1009", "single0", "single1"])
    def test_bisect_matches_linear_scan(self, space):
        xs = [q.scalar for q in space.net]
        probes = {F(0), F(1), *xs}
        probes |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}  # midpoint ties
        probes |= {x + e for x in list(probes)
                   for e in (F(1, 97), F(-1, 97), F(1, 1009), F(-1, 1009))}
        probes |= {F(k, 16) for k in range(17)}
        for x in sorted(v for v in probes if 0 <= v <= 1):
            got = nearest(space, point(x))
            assert got == _scan(space, point(x)), x
            # the distance is a normalized Fraction, like the scan's
            d = got[1]
            assert type(d) is F and gcd(d.numerator, d.denominator) == 1, x

    def test_hyperspace_scans_its_net(self):
        # the bisection is for plain one-dimensional nets only; a hyperspace,
        # one-dimensional over a one-point base included, scans its net
        for base in (make_finite([point(0), point(F(1, 3)), point(1)]),
                     make_finite([point(F(2, 5))])):
            H = hyper(base)
            for p in H.net:
                assert nearest(H, p) == _scan(H, p) == (p, F(0))


def test_membership():
    s = make_interval(0, 1, F(1, 4))  # covering grid: resolution 1/8
    assert membership(s, point(F(1, 8)))
    assert membership(s, point(F(3, 16)), 0)
    exact = make_finite([point(0), point(1)])
    assert not membership(exact, point(F(1, 2)))
    assert membership(exact, point(F(1, 2)), F(1, 2))
    with pytest.raises(ValidationError):
        membership(s, point(0), F(-1))



def _member_by_scan(space, p, tol):
    """The definition `membership` answers: the least distance to the net
    within resolution + tol."""
    return min(space.metric(p, q) for q in space.net) <= space.resolution + tol


def _membership_spaces():
    rng = random.Random(16)
    for _ in range(6):
        den = rng.choice([3, 8, 10, 12, 97])
        yield make_finite([point(F(rng.randint(0, den), den)) for _ in range(rng.randint(1, 6))])
        yield make_finite([point(F(rng.randint(0, den), den), F(rng.randint(0, den), den))
                           for _ in range(rng.randint(1, 6))])
    yield make_interval(0, 1, F(1, 4))
    yield make_interval(F(1, 8), F(7, 8), F(1, 3))
    yield product(make_interval(0, 1, F(1, 3)), make_finite([point(F(1, 4)), point(1)]))
    yield product(make_finite([point(F(1, 2), F(1, 5))]), make_interval(0, 1, F(1, 2)))
    yield ValueSpace(1, (point(F(1, 3)), point(F(2, 3))), F(1, 12), "coarse")
    for base in (make_finite([point(F(2, 5))]),
                 make_finite([point(0), point(F(1, 3)), point(1)]),
                 make_interval(0, 1, F(1, 4))):
        yield hyper(base)


class TestMembershipByPosition:
    @pytest.mark.parametrize("space", list(_membership_spaces()),
                             ids=lambda s: s.label)
    def test_agrees_with_the_nearest_distance(self, space):
        rng = random.Random(len(space.net))
        probes = list(space.net)
        if space.standard_metric:
            # off the net: small steps from net points (within resolution
            # or beyond it) and arbitrary points of the cube
            for q in space.net:
                for e in (F(1, 97), F(1, 24), F(1, 7), F(1, 3)):
                    shifted = [min(F(1), max(F(0), c + rng.choice((e, -e)))) for c in q.coords]
                    probes.append(Point(tuple(shifted)))
            probes += [Point(tuple(F(rng.randint(0, 60), 60) for _ in range(space.dimension)))
                       for _ in range(10)]
        for p in probes:
            for tol in (F(0), F(1, 50), F(1, 5)):
                assert membership(space, p, tol) == _member_by_scan(space, p, tol), (p, tol)

    def test_net_points_answer_by_position(self):
        # the bisection finds the point among many close, large-denominator ones
        s = make_finite([point(F(k, 1009)) for k in range(0, 1010, 7)])
        assert all(membership(s, p) for p in s.net)
        assert not membership(s, point(F(1, 1009)))
        assert membership(s, point(F(1, 1009)), F(6, 1009))
        # a 2-D net point is found through the net's index
        grid = product(s, make_finite([point(0), point(F(1, 2))]))
        assert all(membership(grid, p) for p in grid.net[::50])
        assert not membership(grid, point(F(1, 1009), 0))

    def test_a_hyperspace_reads_the_mask(self):
        H = hyper(make_interval(0, 1, F(1, 15)))
        assert membership(H, point(*([1] + [0] * 15)))
        assert membership(H, point(*([1] * 16)), F(1, 2))
        for bad, message in ((point(*([F(1, 2)] + [0] * 15)), "is not a 0/1 indicator point"),
                             (point(*([0] * 16)), "^indicator encodes the empty set$")):
            with pytest.raises(SpaceMismatch, match=message):
                membership(H, bad)
        assert H.net._points is None

    @pytest.mark.parametrize("space", [make_interval(0, 1, F(1, 4)),
                                       make_finite([point(0, 1)]),
                                       hyper(make_finite([point(0), point(1)]))],
                             ids=["interval", "2d", "hyper"])
    def test_negative_tolerance_and_wrong_dimension_refused(self, space):
        p = space.net[0]
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            membership(space, p, F(-1, 8))
        wrong = point(*([0] * (space.dimension + 1)))
        with pytest.raises(SpaceMismatch, match="^point of dimension"):
            membership(space, wrong)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_net_order_is_point_order(dim):
    rng = random.Random(dim)
    for _ in range(40):
        pts = [Point(tuple(F(rng.randint(0, d), d) for d in rng.sample([1, 3, 7, 8, 97], dim)))
               for _ in range(rng.randint(1, 9))]
        space = ValueSpace(dim, tuple(pts), F(0), "s")
        assert space.net == tuple(sorted(set(pts)))


def test_product_refuses_a_hyperspace():
    with pytest.raises(SpaceMismatch, match="^product is defined for plain l-infinity spaces; "):
        product(hyper(make_interval(0, 1, F(1, 2))), make_interval(0, 1, F(1, 2)))
