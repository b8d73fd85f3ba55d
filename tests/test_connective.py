import itertools
import random
import re
from fractions import Fraction as F

import pytest

from contlog import connective
from contlog.connective import (
    MAX_PRODUCT_POINTS,
    Connective,
    _integer_table,
    _mcshane,
    _steepest_pair,
    _steepest_table,
    _tight_constant,
    add,
    affine,
    bounded_add,
    clamp01,
    compose,
    const,
    identity,
    max_of,
    mcshane_extend,
    min_of,
    mul,
    neg,
    product_distance,
    proj,
    table,
    tight_lipschitz,
    truncated_sub,
    unit_interval,
    validate_lipschitz,
)
from contlog.errors import CapacityError, EvalError, SpaceMismatch, ValidationError
from contlog.formula import Relation, atom, signature
from contlog.hyperspace import hyper, sup_theta
from contlog.oracle import verify_quantifier_identity
from contlog.semantics import structure
from contlog.translate import CodedFormula, TranslationContext, sup_generator
from contlog.valuespace import (MAX_NET_POINTS, ValueSpace, linf, linf_coords, make_finite,
                                make_interval, point, product)

Q = make_interval(0, 1, F(1, 4), label="quarters")
EIGHTHS = make_interval(0, 1, F(1, 8))
GRID = make_interval(0, F(1, 2), F(1, 4), label="grid")
SPARSE = make_finite([point(0), point(F(1, 8)), point(F(5, 8))], label="eighths")


def test_unit_interval_covers():
    u = unit_interval()
    assert [p.scalar for p in u.net] == [0, 1]
    assert u.resolution == F(1, 2)


class TestBasicConnectives:
    def test_const(self):
        c = const(point(F(1, 2)), Q)
        assert c.arity == 0
        assert c() == point(F(1, 2))
        with pytest.raises(ValidationError):
            const(point(F(1, 3)), make_finite([point(0), point(1)]))

    def test_identity(self):
        i = identity(Q)
        assert i(point(F(3, 4))) == point(F(3, 4))
        assert i.lipschitz == 1

    def test_proj(self):
        s = product(Q, Q)
        p1 = proj(s, 1)
        assert p1(point(F(1, 4), F(3, 4))) == point(F(3, 4))
        assert p1.lipschitz == 1
        with pytest.raises(SpaceMismatch):
            proj(s, 2)

    @pytest.mark.parametrize("space", [
        hyper(make_finite([point(F(1, 3))])),
        hyper(make_finite([point(0), point(F(2, 3))])),
        hyper(make_finite([point(0), point(F(1, 8)), point(F(1, 2)), point(1)])),
        hyper(make_finite([point(0), point(F(1, 5)), point(F(1, 4)), point(F(3, 5)),
                           point(1)])),
        hyper(make_finite([point(0, 0), point(F(1, 2), F(1, 4)), point(F(1, 3), 1)])),
        hyper(hyper(make_finite([point(0), point(F(1, 4))]))),
    ], ids=["base1", "base2", "base4", "base5", "base-2d", "nested"])
    def test_proj_on_hyperspace_is_tight(self, space):
        # the closed form equals the constant scanned from the whole net
        for i in range(space.dimension):
            p = proj(space, i)
            coordinate = {(k,): point(k.coords[i]) for k in space.net}
            assert p.lipschitz == tight_lipschitz([space], coordinate)
            assert all(p(k) == v for (k,), v in coordinate.items())
            # the closed-form codomain is the one built from the whole net
            assert p.codomain == ValueSpace(1, tuple(coordinate.values()),
                                            p.lipschitz * space.resolution, "scanned")
        with pytest.raises(SpaceMismatch):
            proj(space, space.dimension)

    def test_neg(self):
        n = neg(Q)
        assert n(point(F(1, 4))) == point(F(3, 4))
        assert n.lipschitz == 1
        assert n.codomain.resolution == Q.resolution

    def test_clamp01(self):
        c = clamp01(Q)
        assert c(point(F(1, 2))) == point(F(1, 2))
        assert c.codomain == Q

    def test_affine(self):
        a = affine(Q, F(1, 2), F(1, 4))
        assert a(point(1)) == point(F(3, 4))
        assert a.lipschitz == F(1, 2)
        assert a.codomain.resolution == F(1, 2) * Q.resolution

    def test_affine_must_stay_in_unit_range(self):
        with pytest.raises(ValidationError):
            affine(Q, 2, 0)
        with pytest.raises(ValidationError):
            affine(Q, 1, F(1, 2))


class TestArithmetic:
    def test_add_strict_precondition(self):
        halves = make_finite([point(0), point(F(1, 2))])
        plus = add(halves, halves)
        assert plus(point(F(1, 2)), point(F(1, 2))) == point(1)
        assert plus.lipschitz == 2
        # sums exceeding 1 are rejected at construction time
        with pytest.raises(ValidationError):
            add(Q, Q)

    def test_bounded_add_truncates(self):
        b = bounded_add(Q, Q)
        assert b(point(F(3, 4)), point(F(3, 4))) == point(1)
        assert b(point(F(1, 4)), point(F(1, 4))) == point(F(1, 2))

    def test_truncated_sub(self):
        t = truncated_sub(Q, Q)
        assert t(point(F(1, 4)), point(F(3, 4))) == point(0)
        assert t(point(F(3, 4)), point(F(1, 4))) == point(F(1, 2))

    def test_mul(self):
        m = mul(Q, Q)
        assert m(point(F(1, 2)), point(F(1, 2))) == point(F(1, 4))
        assert m.lipschitz == 2

    def test_min_max(self):
        lo, hi = min_of(Q, Q), max_of(Q, Q)
        assert lo(point(F(1, 4)), point(F(3, 4))) == point(F(1, 4))
        assert hi(point(F(1, 4)), point(F(3, 4))) == point(F(3, 4))
        assert lo.lipschitz == hi.lipschitz == 1
        assert lo.codomain.resolution == Q.resolution

    def test_call_arity_checked(self):
        m = mul(Q, Q)
        with pytest.raises(EvalError):
            m(point(F(1, 2)))


def _fracs(text):
    return [F(x) for x in text.split()]


# constructor, spaces, further arguments, name, codomain label, codomain net,
# resolution, Lipschitz constant, the scalar map it must compute
STOCK = {
    "neg-grid": (neg, (GRID,), (), "neg", "neg(grid)", "1/2 3/4 1", "1/8", 1,
                 lambda x: 1 - x),
    "neg-sparse": (neg, (SPARSE,), (), "neg", "neg(eighths)", "3/8 7/8 1", "0", 1,
                   lambda x: 1 - x),
    "clamp01-grid": (clamp01, (GRID,), (), "clamp01", "grid", "0 1/4 1/2", "1/8", 1,
                     lambda x: x),
    "clamp01-sparse": (clamp01, (SPARSE,), (), "clamp01", "eighths", "0 1/8 5/8", "0", 1,
                       lambda x: x),
    "affine-grid": (affine, (GRID,), (-1, F(3, 4)), "affine[-1,3/4]", "affine(grid)",
                    "1/4 1/2 3/4", "1/8", 1, lambda x: F(3, 4) - x),
    "affine-sparse": (affine, (SPARSE,), (F(1, 2), F(1, 8)), "affine[1/2,1/8]",
                      "affine(eighths)", "1/8 3/16 7/16", "0", F(1, 2),
                      lambda x: x / 2 + F(1, 8)),
    "add": (add, (GRID, GRID), (), "add", "add(grid,grid)", "0 1/4 1/2 3/4 1", "1/4", 2,
            lambda x, y: x + y),
    "bounded_add": (bounded_add, (GRID, SPARSE), (), "badd", "badd(grid,eighths)",
                    "0 1/8 1/4 3/8 1/2 5/8 7/8 1", "1/8", 2, lambda x, y: min(1, x + y)),
    "truncated_sub": (truncated_sub, (GRID, SPARSE), (), "tsub", "tsub(grid,eighths)",
                      "0 1/8 1/4 3/8 1/2", "1/8", 2, lambda x, y: max(0, x - y)),
    "mul": (mul, (GRID, SPARSE), (), "mul", "mul(grid,eighths)",
            "0 1/32 1/16 5/32 5/16", "1/8", 2, lambda x, y: x * y),
    "max_of": (max_of, (GRID, SPARSE), (), "max", "max(grid,eighths)",
               "0 1/8 1/4 1/2 5/8", "1/8", 1, max),
    "min_of": (min_of, (GRID, SPARSE), (), "min", "min(grid,eighths)",
               "0 1/8 1/4 1/2", "1/8", 1, min),
}


class TestStockConstructors:
    """Pins the nine stock constructors: default codomains, constants, values
    on the whole product net and the exact error texts."""

    @pytest.mark.parametrize("case", STOCK, ids=list(STOCK))
    def test_codomain_constant_and_values(self, case):
        ctor, spaces, extra, name, label, net, res, lip, f = STOCK[case]
        c = ctor(*spaces, *extra)
        assert (c.name, c.domain, c.lipschitz) == (name, spaces, lip)
        assert c.codomain.label == label
        assert [p.scalar for p in c.codomain.net] == _fracs(net)
        assert c.codomain.resolution == F(res)
        for k in itertools.product(*(s.net for s in spaces)):
            assert c(*k) == point(f(*(p.scalar for p in k)))

    def test_names_and_default_codomains_follow_a_given_name(self):
        join = max_of(GRID, SPARSE, name="join")
        assert (join.name, join.codomain.label) == ("join", "join(grid,eighths)")
        assert affine(GRID, 1, 0, name="copy").name == "copy"
        assert neg(GRID, name="not").codomain.label == "neg(grid)"
        assert clamp01(hyper(make_finite([point(F(1, 3))]))).codomain.label == "K(finite(1p,1d))"

    @pytest.mark.parametrize("case", STOCK, ids=list(STOCK))
    def test_two_dimensional_space_rejected(self, case):
        ctor, spaces, extra, name = STOCK[case][:4]
        who = name if ctor in (max_of, min_of) else ctor.__name__
        plane = product(GRID, SPARSE)
        for i in range(len(spaces)):
            args = spaces[:i] + (plane,) + spaces[i + 1:]
            with pytest.raises(SpaceMismatch) as err:
                ctor(*args, *extra)
            assert str(err.value) == f"{who} needs a one-dimensional space, got grid*eighths"

    @pytest.mark.parametrize("case, first_misfit", [
        ("neg-grid", "1"), ("clamp01-grid", "1/4"), ("affine-grid", "3/4"), ("add", "1/4"),
        ("bounded_add", "1/8"), ("truncated_sub", "1/4"), ("mul", "1/32"), ("max_of", "1/8"),
        ("min_of", "1/8"),
    ])
    def test_explicit_codomain_must_hold_the_image(self, case, first_misfit):
        ctor, spaces, extra, name = STOCK[case][:4]
        who = name if ctor in (max_of, min_of) else ctor.__name__
        zero = make_finite([point(0)], label="zero")
        with pytest.raises(ValidationError) as err:
            ctor(*spaces, *extra, codomain=zero)
        assert str(err.value) == (
            f"{who}: image point ({first_misfit}) is not within resolution of zero")

    def test_sums_and_affine_maps_must_stay_in_unit_range(self):
        with pytest.raises(ValidationError) as err:
            add(GRID, SPARSE)
        assert str(err.value) == "add leaves the unit interval (value 9/8)"
        with pytest.raises(ValidationError) as err:
            affine(GRID, 2, F(1, 8))
        assert str(err.value) == "affine(2,1/8) on grid leaves the unit interval (value 9/8)"
        with pytest.raises(ValidationError) as err:
            affine(SPARSE, -1, F(1, 2))
        assert str(err.value) == (
            "affine(-1,1/2) on eighths leaves the unit interval (value -1/8)")


# constructor, further arguments, scalar map, the largest input drawn
IMAGE_MAPS = {
    "neg": (neg, (), lambda x: 1 - x, 1),
    "clamp01": (clamp01, (), lambda x: x, 1),
    "affine": (affine, (F(1, 2), F(1, 4)), lambda x: x / 2 + F(1, 4), 1),
    "add": (add, (), lambda x, y: x + y, F(1, 2)),
    "bounded_add": (bounded_add, (), lambda x, y: min(1, x + y), 1),
    "truncated_sub": (truncated_sub, (), lambda x, y: max(0, x - y), 1),
    "mul": (mul, (), lambda x, y: x * y, 1),
    "max_of": (max_of, (), max, 1),
    "min_of": (min_of, (), min, 1),
}


class TestImageTable:
    """A stock connective reads an input on its product net from the image it
    computed, and applies its map only to an input off the net: both agree
    with the map, and an output on the codomain's net is that net's own
    point, the same object."""

    @staticmethod
    def random_space(rng, top):
        xs = {F(rng.randint(0, int(16 * top)), 16) for _ in range(rng.randint(1, 5))}
        return ValueSpace(1, tuple(map(point, xs)), F(1, 32), "net")

    @staticmethod
    def off_net(rng, space, top):
        """Points off the net, each within the resolution of a net point."""
        out = []
        for p in space.net:
            x = min(top, max(0, p.scalar + rng.choice((-1, 1)) * F(rng.randint(1, 2), 64)))
            if point(x) not in space.net:
                out.append(point(x))
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("case", IMAGE_MAPS)
    def test_table_agrees_with_the_map(self, case, explicit, seed):
        ctor, extra, f, top = IMAGE_MAPS[case]
        rng = random.Random(f"image:{case}:{explicit}:{seed}")
        arity = 1 if ctor in (neg, clamp01, affine) else 2
        spaces = [self.random_space(rng, top) for _ in range(arity)]
        codomain = make_interval(0, 1, F(1, 64)) if explicit else None
        c = ctor(*spaces, *extra, codomain=codomain)
        on_net = list(itertools.product(*(s.net for s in spaces)))
        near = [[*s.net, *self.off_net(rng, s, top)] for s in spaces]
        off_net = [k for k in itertools.product(*near) if k not in on_net]
        for k in on_net + off_net:
            out = c(*k)
            assert out == c.evaluator(*k) == point(f(*(p.scalar for p in k)))
            own = [q for q in c.codomain.net if q == out]
            assert own == [] or own[0] is out
            if not explicit and k in on_net:
                assert own  # the image is the default codomain's net


class TestProductCap:
    """A stock connective counts its product net before computing any of it."""

    def test_a_unary_connective_fits_on_the_finest_interval(self):
        assert MAX_NET_POINTS <= MAX_PRODUCT_POINTS

    def test_a_product_past_the_cap_is_refused(self):
        fine = make_interval(0, 1, F(1, 362), label="fine")
        with pytest.raises(CapacityError) as err:
            min_of(fine, fine)
        assert str(err.value) == "min over fine x fine has 131769 inputs; the cap is 131072"

    def test_the_cap_is_counted_before_the_map_runs(self, monkeypatch):
        monkeypatch.setattr(connective, "MAX_PRODUCT_POINTS", 11)
        assert mul(GRID, SPARSE).arity == 2  # 3 x 3 inputs
        with pytest.raises(CapacityError, match="^add over quarters x grid has 15 inputs; "
                                                "the cap is 11$"):
            add(Q, GRID)  # its sums would leave [0,1]: the cap comes first


class TestCompose:
    def test_sequential(self):
        n = neg(Q)
        nn = compose(n, [neg(Q, codomain=Q)])
        assert nn(point(F(1, 4))) == point(F(1, 4))
        assert nn.lipschitz == 1

    def test_shared_arguments(self):
        m = min_of(Q, Q)
        both = compose(m, [identity(Q), neg(Q, codomain=Q)], shared=True)
        assert both(point(F(1, 4))) == point(F(1, 4))
        assert both(point(F(3, 4))) == point(F(1, 4))

    def test_codomain_mismatch(self):
        with pytest.raises(SpaceMismatch):
            compose(neg(Q), [identity(EIGHTHS)])


class TestTable:
    def test_lookup_and_declared_constant(self):
        ramp = {(point(0),): point(0), (point(F(1, 2)),): point(F(3, 4)),
                (point(1),): point(1)}
        dom = make_finite([point(0), point(F(1, 2)), point(1)])
        cod = make_finite([point(0), point(F(3, 4)), point(1)])
        t = table([dom], ramp, F(3, 2), codomain=cod, name="ramp")
        assert t(point(F(1, 2))) == point(F(3, 4))
        assert validate_lipschitz(t) is None
        # the tight constant 3/2 is accepted by the extension's check too
        values = {k: v.scalar for k, v in ramp.items()}
        assert mcshane_extend(values, F(3, 2), dom, EIGHTHS).lipschitz == F(3, 2)

    def test_tight_lipschitz_frozen(self):
        # steepest pair: |0 - 3/4| over distance 1/2
        ramp = {(point(0),): point(0), (point(F(1, 2)),): point(F(3, 4)),
                (point(1),): point(1)}
        dom = make_finite([point(0), point(F(1, 2)), point(1)])
        assert tight_lipschitz([dom], ramp) == F(3, 2)

    def test_declared_constant_violation_rejected(self):
        ramp = {(point(0),): point(0), (point(F(1, 2)),): point(F(3, 4)),
                (point(1),): point(1)}
        dom = make_finite([point(0), point(F(1, 2)), point(1)])
        cod = make_finite([point(0), point(F(3, 4)), point(1)])
        with pytest.raises(ValidationError, match="declared Lipschitz"):
            table([dom], ramp, F(1), codomain=cod, name="liar")
        # just below the tight constant 3/2, every check names the steepest pair
        under = F(3, 2) - F(1, 64)
        steepest = re.escape("|f('(0)',) - f('(1/2)',)| = 3/4")
        with pytest.raises(ValidationError, match=steepest):
            table([dom], ramp, under, codomain=cod, name="liar")
        values = {k: v.scalar for k, v in ramp.items()}
        with pytest.raises(ValidationError, match=re.escape("|0 - 3/4| > 95/64 * 1/2")):
            mcshane_extend(values, under, dom, EIGHTHS)
        honest = table([dom], ramp, F(3, 2), codomain=cod, name="ramp")
        liar = Connective("liar", honest.domain, cod, under, honest.evaluator)
        assert validate_lipschitz(liar) == (
            (point(0),), (point(F(1, 2)),), F(3, 4), F(1, 2))

    def test_requires_total_mapping(self):
        dom = make_finite([point(0), point(1)])
        with pytest.raises(ValidationError):
            table([dom], {(point(0),): point(0)}, 1,
                  codomain=make_finite([point(0)]))


class TestMcShane:
    def test_largest_one_lipschitz_extension(self):
        # constant 1/2 on {0,1} extended at L=1 is 1/2 + min(y, 1-y)
        net = make_finite([point(0), point(1)])
        theta = {(point(0),): F(1, 2), (point(1),): F(1, 2)}
        ext = mcshane_extend(theta, 1, net, EIGHTHS)
        for k in range(9):
            y = F(k, 8)
            assert ext(point(y)).scalar == F(1, 2) + min(y, 1 - y)

    def test_zero_constant_stays_flat(self):
        net = make_finite([point(0), point(1)])
        theta = {(point(0),): F(1, 2), (point(1),): F(1, 2)}
        ext = mcshane_extend(theta, 0, net, EIGHTHS)
        for k in range(9):
            assert ext(point(F(k, 8))).scalar == F(1, 2)

    def test_net_agreement(self):
        net = make_finite([point(0), point(F(1, 2)), point(1)])
        theta = {(point(0),): F(1, 8), (point(F(1, 2)),): F(7, 8),
                 (point(1),): F(1, 4)}
        lip = tight_lipschitz([net], {k: point(v) for k, v in theta.items()})
        ext = mcshane_extend(theta, lip, net, EIGHTHS)
        for k, v in theta.items():
            assert ext(*k).scalar == v

    def test_declared_constant_validated(self):
        net = make_finite([point(0), point(1)])
        theta = {(point(0),): F(0), (point(1),): F(1)}
        with pytest.raises(ValidationError):
            mcshane_extend(theta, F(1, 2), net, EIGHTHS)

    def test_missing_net_point_is_refused(self):
        # the same text as `table`'s
        net = make_finite([point(0), point(1)])
        theta = {(point(0),): F(0)}
        with pytest.raises(ValidationError,
                           match=re.escape("extension: no entry for net point ('(1)',)")):
            mcshane_extend(theta, 1, net, EIGHTHS)
        with pytest.raises(ValidationError,
                           match=re.escape("table: no entry for net point ('(1)',)")):
            table([net], {k: point(v) for k, v in theta.items()}, 1, net)

    def test_keys_off_the_net_are_refused(self):
        # as `table` refuses them, rather than dropping the value given there
        net = make_finite([point(0), point(1)])
        theta = {(point(0),): F(0), (point(1),): F(1), (point(F(1, 2)),): F(1)}
        with pytest.raises(ValidationError,
                           match="^extension: 1 entries are off the product net$"):
            mcshane_extend(theta, 1, net, EIGHTHS)
        with pytest.raises(ValidationError, match="1 entries are off the product net$"):
            table([net], {k: point(v) for k, v in theta.items()}, 1, net)


def _random_fraction(rng, dens=(1, 2, 3, 5, 7, 8, 12)):
    d = rng.choice(dens)
    return F(rng.randint(0, d), d)


def _mcshane_reference(flats, lip, pts):
    """The extension in Fractions, as its definition reads."""
    y = [c for p in pts for c in p.coords]
    best = min(v + lip * linf_coords(f, y) for f, v in flats)
    return point(min(F(1), max(F(0), best)))


class TestIntegerMcShane:
    """The McShane kernel runs in ints over a common denominator; its values
    must equal the Fraction definition exactly."""

    def test_integer_table(self):
        den, rows = _integer_table([((F(1, 3), F(1, 2)), F(3, 4)), ((F(0), F(1)), F(1, 6))])
        assert den == 12
        assert rows == [((4, 6), 9), ((0, 12), 2)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        dim = rng.choice([1, 2])
        pts = {tuple(_random_fraction(rng) for _ in range(dim)) for _ in range(rng.randint(1, 6))}
        net = make_finite([point(*c) for c in pts])
        theta = {(q,): _random_fraction(rng, (1, 3, 4, 5, 9)) for q in net.net}
        tight = tight_lipschitz([net], {k: point(v) for k, v in theta.items()})
        lip = tight * rng.choice([1, 1, F(3, 2), F(7, 3)]) + rng.choice([0, F(1, 7)])
        ambient = EIGHTHS if dim == 1 else product(EIGHTHS, EIGHTHS)
        ext = mcshane_extend(theta, lip, net, ambient)
        flats = [(k[0].coords, v) for k, v in theta.items()]
        # exact agreement on the net
        for k, v in theta.items():
            assert ext(*k) == point(v)
        # off the grid, with denominators the keys do not share
        probes = [point(*(_random_fraction(rng, (1, 6, 10, 11, 16)) for _ in range(dim)))
                  for _ in range(40)]
        for y in probes:
            assert ext(y) == _mcshane_reference(flats, lip, (y,)), y
        # a repeated input is served by the memo, which keys on the value
        y = probes[0]
        again = point(*y.coords)
        assert again is not y and ext(again) == ext(y) == _mcshane_reference(flats, lip, (y,))

    def test_clamps_at_zero_and_one(self):
        net = make_finite([point(0), point(F(1, 2)), point(1)])
        theta = {(point(0),): F(0), (point(F(1, 2)),): F(1), (point(1),): F(1)}
        ext = mcshane_extend(theta, 2, net, EIGHTHS)
        flats = [(k[0].coords, v) for k, v in theta.items()]
        assert ext(point(0)) == point(0)
        # at 3/4 every key's candidate is 3/2 (0 + 2 * 3/4, 1 + 2 * 1/4), clamped to 1
        assert ext(point(F(3, 4))) == point(1)
        for k in range(25):
            y = point(F(k, 24))
            assert ext(y) == _mcshane_reference(flats, F(2), (y,))

    def test_unchecked_kernel_on_several_inputs(self):
        # the coder's form: several one-dimensional inputs, and a constant
        # whose denominator is not the table's; the kernel does not check
        # the constant, but reads a key's value only if the table satisfies
        # it, so it is the tight constant scaled up
        rng = random.Random(41)
        keys = list(itertools.product(Q.net, SPARSE.net))
        flats = [(tuple(c for p in k for c in p.coords), _random_fraction(rng)) for k in keys]
        den, rows = _integer_table(flats)
        lip = _tight_constant(rows) * F(9, 7)
        ext = _mcshane(den, rows, lip, (EIGHTHS, EIGHTHS), EIGHTHS, "ext")
        assert ext.lipschitz == lip
        for k, (_, v) in zip(keys, flats):
            assert ext(*k) == _mcshane_reference(flats, lip, k) == point(v)
        for ys in itertools.product(EIGHTHS.net, repeat=2):
            assert ext(*ys) == _mcshane_reference(flats, lip, ys)
        for _ in range(60):
            ys = (point(_random_fraction(rng, (5, 9, 16))), point(_random_fraction(rng)))
            assert ext(*ys) == _mcshane_reference(flats, lip, ys)


def _steepest_pair_by_division(keys, gap, distance):
    """The scan as it read before slopes were compared by cross-multiplication."""
    best, steepest = None, F(0)
    for i, p in enumerate(keys):
        for q in keys[i + 1:]:
            g = gap(p, q)
            if g > 0:
                d = distance(p, q)
                if d == 0:
                    return p, q, g, d
                slope = g / d
                if slope > steepest:
                    best, steepest = (p, q, g, d), slope
    return best


class TestSteepestPair:
    @pytest.mark.parametrize("kind", [int, F])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_division_form(self, kind, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)

        def draw(k):
            return k if kind is int else F(k, rng.choice([1, 2, 3]))

        # few distinct values, so that slopes tie and some gaps are zero
        vals = [draw(rng.randint(0, 3)) for _ in range(n)]
        dist = {}
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = draw(rng.choice([1, 2, 2, 4]))
        if seed % 4 == 3 and n > 2:
            dist[0, n - 1] = dist[n - 1, 0] = kind(0)  # a zero-distance pair
        keys = list(range(n))
        gap = lambda p, q: abs(vals[p] - vals[q])  # noqa: E731
        distance = lambda p, q: dist[p, q]  # noqa: E731
        got = _steepest_pair(keys, gap, distance)
        assert got == _steepest_pair_by_division(keys, gap, distance)
        if got is not None:
            assert all(type(x) is kind for x in got[2:])

    def test_first_of_tied_pairs_wins(self):
        vals = [0, 1, 2, 4]
        dist = lambda p, q: abs(p - q) * 2  # noqa: E731
        gap = lambda p, q: abs(vals[p] - vals[q])  # noqa: E731
        # (0, 1) and (1, 2) have slope 1/2, as does (0, 2); (2, 3) is steeper
        got = _steepest_pair([0, 1, 2, 3], gap, dist)
        assert got == (2, 3, 2, 2)
        assert _steepest_pair([0, 1, 2], gap, dist) == (0, 1, 1, 2)
        assert _steepest_pair([0, 1, 2], gap, dist) == _steepest_pair_by_division(
            [0, 1, 2], gap, dist)

    def test_zero_distance_returns_at_once(self):
        seen = []

        def gap(p, q):
            seen.append((p, q))
            return 1

        assert _steepest_pair([0, 1, 2], gap, lambda p, q: 0) == (0, 1, 1, 0)
        assert seen == [(0, 1)]

    def test_no_positive_gap(self):
        assert _steepest_pair([0, 1, 2], lambda p, q: 0, lambda p, q: 1) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_tight_constant_is_the_largest_slope(self, seed):
        rng = random.Random(seed)
        net = make_finite([point(_random_fraction(rng)) for _ in range(5)])
        mapping = {(q,): point(_random_fraction(rng)) for q in net.net}
        slopes = [linf(mapping[p], mapping[q]) / linf(p[0], q[0])
                  for p, q in itertools.combinations(mapping, 2)]
        assert tight_lipschitz([net], mapping) == max(slopes, default=F(0))


def _fraction_steepest(doms, keys, entries, codomain=None):
    """The Fraction scan of a table, the reference for `_steepest_table`."""
    gap = codomain.metric if codomain else linf
    return _steepest_pair(keys, lambda p, q: gap(entries[p], entries[q]),
                          lambda p, q: product_distance(doms, p, q))


def _random_domains(rng):
    def net(dim):
        dens = (1, 2, 3, 8, 12, 97)
        return make_finite([point(*(_random_fraction(rng, dens) for _ in range(dim)))
                            for _ in range(rng.randint(1, 5))])

    shape = rng.choice(["1d", "1d", "2d", "product", "interval"])
    if shape == "1d":
        return [net(1)]
    if shape == "2d":
        return [net(2)]
    if shape == "product":
        return [net(1), rng.choice([net(1), net(2), make_interval(0, 1, F(1, 3))])]
    return [make_interval(0, 1, rng.choice([F(1, 4), F(1, 5), F(2, 7)]))]


class TestIntegerTableScan:
    """`table`, `tight_lipschitz` and `validate_lipschitz` scan real tables
    on plain spaces in integers; the pair, constant and texts must be the
    Fraction scan's."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_fraction_scan(self, seed):
        rng = random.Random(seed)
        for trial in range(40):
            doms = _random_domains(rng)
            keys = list(itertools.product(*(s.net for s in doms)))
            pool = [_random_fraction(rng, (1, 3, 4, 5, 9, 16)) for _ in range(rng.randint(1, 4))]
            mapping = {k: point(rng.choice(pool)) for k in keys}
            cod = make_finite(set(mapping.values()))
            steep = _fraction_steepest(doms, keys, mapping)
            assert _steepest_table(tuple(doms), keys, mapping, cod) == steep
            assert _steepest_table(tuple(doms), keys, mapping, None) == steep
            tight = F(0) if steep is None else steep[2] / steep[3]
            assert tight_lipschitz(doms, mapping) == tight
            assert tight_lipschitz(doms, mapping, cod) == tight
            honest = table(doms, mapping, tight, cod)
            assert honest.lipschitz == tight and validate_lipschitz(honest) is None
            if steep is not None:
                p, q, gap, d = steep
                under = tight - F(1, 1000)
                liar = Connective("liar", honest.domain, cod, under, honest.evaluator)
                assert validate_lipschitz(liar) == steep
                text = (f"t{trial}: declared Lipschitz {under} violated: "
                        f"|f{tuple(map(str, p))} - f{tuple(map(str, q))}| = {gap} > {under} * {d}")
                with pytest.raises(ValidationError) as caught:
                    table(doms, mapping, under, cod, name=f"t{trial}")
                assert str(caught.value) == text

    def test_distance_zero_and_other_metrics_keep_their_texts(self):
        class Flat(ValueSpace):
            standard_metric = False

            def metric(self, p, q):
                return F(0)

        # two net points at distance zero under a degenerate metric
        flat = Flat(1, (point(0), point(1)), F(0), "flat")
        clash = {(point(0),): point(0), (point(1),): point(1)}
        with pytest.raises(ValidationError, match="^mapping differs on points at distance zero$"):
            tight_lipschitz([flat], clash)
        # a hyperspace domain is scanned under the Hausdorff metric
        H = hyper(make_finite([point(0), point(F(1, 4)), point(1)]))
        mapping = {(k,): point(max(c for c, b in zip((F(0), F(1, 4), F(1)), k.coords) if b))
                   for k in H.net}
        assert tight_lipschitz([H], mapping) == F(1)
        assert _steepest_table((H,), list(mapping), mapping, None) == _fraction_steepest(
            (H,), list(mapping), mapping)

    def test_keys_that_do_not_fit_the_domains_are_refused(self):
        X = make_finite([point(0), point(1)], label="X")
        assert tight_lipschitz([X], {(point(0),): point(0), (point(1),): point(1)}) == 1
        # one point too many: a truncated product distance would read only
        # the first
        longer = {(point(0), point(0)): point(0), (point(1), point(1)): point(1)}
        with pytest.raises(ValidationError) as caught:
            tight_lipschitz([X], longer)
        assert str(caught.value) == "mapping key ('(0)', '(0)') does not fit [1-dimensional X]"
        with pytest.raises(ValidationError, match=r"^mapping key \(\) does not fit"):
            tight_lipschitz([X], {(): point(0)})
        # a point of the wrong dimension
        wide = {(point(0, 1),): point(0), (point(1, 0),): point(1)}
        with pytest.raises(ValidationError) as caught:
            tight_lipschitz([X], wide)
        assert str(caught.value) == "mapping key ('(0, 1)',) does not fit [1-dimensional X]"
        with pytest.raises(ValidationError, match=r"does not fit \[1-dimensional X, 1-dim"):
            tight_lipschitz([X, X], {(point(0), point(0, 1)): point(0)})

    @pytest.mark.parametrize("call, key", [
        (lambda X: tight_lipschitz([X], {(0,): point(0), (1,): point(1)}), "(0,)"),
        (lambda X: tight_lipschitz([X], {0: point(0), 1: point(1)}), "0"),
        (lambda X: table([X], {0: point(0), 1: point(1)}, 1, codomain=X), "0"),
        (lambda X: mcshane_extend({0: 0, 1: 1}, 1, X, X), "0"),
    ], ids=["tight-tuple-of-ints", "tight-int", "table-int", "mcshane-int"])
    def test_keys_that_are_not_points_are_refused(self, call, key):
        X = make_finite([point(0), point(1)], label="X")
        with pytest.raises(ValidationError) as caught:
            call(X)
        assert str(caught.value) == f"mapping key {key} does not fit [1-dimensional X]"


class TestObservableContract:
    """Every reader of a value through an observable refuses a bad one alike.

    The coder, the quantifier identity check and a lattice generator read a
    space's values through theta; `sup_theta` reads its own domain's, so it
    has no other space to refuse and is held to the codomain cases only.
    """

    X = make_finite([point(0), point(F(1, 2)), point(1)], label="X")

    @staticmethod
    def readers(X):
        sig = signature([Relation("P", 1, X)])
        M = structure(sig, ["a", "b"], {"P": {"a": 0, "b": 1}})
        coder = CodedFormula(TranslationContext(sig, F(1, 2)), atom(sig, "P", "x"))
        return {
            "coder": coder.codes,
            "identity-check": lambda theta: verify_quantifier_identity(
                M, atom(sig, "P", "q"), theta),
            "sup-generator": lambda theta: sup_generator(hyper(X), theta),
        }

    @pytest.mark.parametrize("case", ["wrong-space", "plane-valued", "one-point-hyperspace"])
    def test_bad_observables_are_refused_with_one_text(self, case):
        X = self.X
        if case == "wrong-space":
            theta = identity(make_finite([point(0), point(1)]), name="other")
            message = "observable other does not accept values of X"
        elif case == "plane-valued":
            diagonal = make_finite([point(c, c) for c in (0, F(1, 2), 1)])
            theta = table([X], {(p,): point(p.scalar, p.scalar) for p in X.net}, 1,
                          diagonal, name="diag")
            message = "observable diag is not real-valued"
        else:
            # a one-point hyperspace is one-dimensional, but its values are sets
            single = hyper(make_finite([point(1)]))
            theta = table([X], {(p,): single.net[0] for p in X.net}, 0, single,
                          name="single")
            message = "observable single is not real-valued"
        readers = self.readers(X)
        if case != "wrong-space":
            readers["sup_theta"] = sup_theta
        for name, read in readers.items():
            with pytest.raises(SpaceMismatch) as caught:
                read(theta)
            assert str(caught.value) == message, name

    @pytest.mark.parametrize("arity", [0, 2])
    def test_sup_theta_refuses_a_connective_that_is_not_unary(self, arity):
        X = self.X
        theta = const(0, X, name="c") if arity == 0 else max_of(X, X)
        with pytest.raises(SpaceMismatch) as caught:
            sup_theta(theta)
        assert str(caught.value) == (
            f"observable {theta.name} does not accept values of a single space")


class TestRefusals:
    """Each refusal ends in its own error type and message."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Connective("c", (Q,), Q, F(-1), lambda p: p), ValidationError,
         "Lipschitz constant must be nonnegative"),
        (lambda: neg(Q)(point(0, 0)), EvalError,
         "neg: argument (0, 0) does not fit 1-dimensional quarters"),
        (lambda: compose(neg(Q), [neg(Q), neg(Q)]), SpaceMismatch,
         "neg expects 1 inputs, got 2 inner connectives"),
        (lambda: compose(Connective("k", (), Q, F(0), lambda: point(0)), [], shared=True),
         SpaceMismatch, "shared composition needs at least one inner connective"),
        (lambda: compose(min_of(Q, Q), [neg(Q), Connective("c", (EIGHTHS,), Q, F(1), lambda p: p)],
                         shared=True),
         SpaceMismatch, "shared composition requires identical inner domains"),
        (lambda: table(Q, {p: point(1) for p in Q.net}, 0, make_finite([point(0)], label="zero")),
         ValidationError, "table: entry (1) is not within resolution of zero"),
        (lambda: mcshane_extend({p: 0 for p in Q.net}, 1, Q, (Q, Q)), SpaceMismatch,
         "net dimension 1 does not match ambient dimension 2"),
        (lambda: mcshane_extend({p: 0 for p in Q.net}, 1, Q, Q,
                                codomain=make_finite([point(0), point(1)], label="ends")),
         ValidationError, "extension codomain ends does not cover [0,1] within its resolution"),
    ], ids=["negative-lipschitz", "argument-dimension", "compose-arity", "compose-shared-empty",
            "compose-shared-domains", "table-off-codomain", "mcshane-dimension",
            "mcshane-codomain"])
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
