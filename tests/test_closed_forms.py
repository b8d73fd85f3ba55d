"""Each closed form on the coding path against the generic form it replaces.

The coder and its check read per-space facts from net positions and
integers: a plain one-dimensional net's sorted integer scalars, neighbours in
it, and the grid's own points.  Every test here recomputes the same fact the
generic way (pairwise scans, the distance matrix, fresh points, `nearest`)
and asks for the identical value.
"""

import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from contlog.connective import (_integer_table, _mcshane, _steepest_entry, _tight_constant,
                                flat_coords, proj)
from contlog.formula import Relation, signature
from contlog.hyperspace import hyper
from contlog.semantics import structure
from contlog.translate import TranslationContext, _hit_lattice, transport_structure
from contlog.valuespace import (Point, _net_point, make_finite, make_interval, nearest,
                                point)


def _random_fraction(rng, dens=(2, 3, 4, 5, 7, 8, 12)):
    den = rng.choice(dens)
    return F(rng.randint(0, den), den)


def _random_nets(count, seed=20):
    rng = random.Random(seed)
    nets = []
    for _ in range(count):
        values = {_random_fraction(rng, (3, 5, 8, 9, 12, 97)) for _ in range(rng.randint(1, 9))}
        nets.append(make_finite([point(v) for v in values]))
    return nets


NETS = [
    make_finite([point(F(2, 5))], label="one"),
    make_finite([point(0), point(F(1, 4)), point(F(3, 4))], label="X"),
    make_interval(0, 1, F(1, 3), label="thirds"),
    make_interval(F(1, 8), F(7, 8), F(1, 3), label="clamped"),
    make_interval(0, 1, F(1, 8), label="eighths"),
    *_random_nets(8),
]
SPACES = NETS + [
    make_finite([point(0, F(1, 2)), point(F(1, 4), 1), point(1, 0)], label="plane"),
    hyper(make_finite([point(F(1, 2))], label="B1")),  # one-dimensional, not plain
    hyper(make_finite([point(0), point(F(1, 8)), point(F(3, 4))], label="B3")),
]
IDS = [s.label for s in SPACES]


def _context(step=F(1, 4)):
    return TranslationContext(signature([Relation("P", 1, NETS[1])]), step)


# ---------------------------------------------------------------------------
# the point-hit lattice


def _hit_lattice_by_dicts(n, gs):
    """`_hit_lattice` as it read with its prefix extremes in dicts, one
    get/max/min per (mask, level)."""
    scale = lcm(*(v.denominator for v in gs))
    gint = [v.numerator * (scale // v.denominator) for v in gs]
    hi = [{} for _ in range(n)]
    lo = [{} for _ in range(n)]
    for m, v in enumerate(gint, 1):
        for j in range(n):
            p = m >> (n - 1 - j)
            hi[j][p] = max(hi[j].get(p, v), v)
            lo[j][p] = min(lo[j].get(p, v), v)
    used = set()
    raw = []
    for m, gk in enumerate(gint, 1):
        flat = len(gint) == 1
        terms = []
        for j in range(n):
            prefix = m >> (n - 1 - j)
            p = prefix ^ 1
            top = hi[j].get(p)
            if top is None:
                continue
            if top != gk or lo[j][p] != gk:
                used.add(j)
            if top == gk:
                flat = True
            else:
                d = top - gk
                terms.append((j, -d, gk + d) if prefix & 1 else (j, d, gk))
        raw.append((gk, flat, terms))
    order = tuple(sorted(used))
    slot = {j: i for i, j in enumerate(order)}
    rows = dict.fromkeys(
        ((0, gk, None),) * flat + tuple((a, b, slot[j]) for j, a, b in terms)
        for gk, flat, terms in raw
    )
    return order, scale, tuple(rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_hit_lattice_matches_the_dict_form(n):
    rng = random.Random(f"hit-lattice:{n}")
    for trial in range(12 if n < 7 else 3):
        # few distinct values make ties, flat rows and unused levels
        pool = [_random_fraction(rng) for _ in range(rng.choice((1, 2, 3, 9)))]
        gs = [rng.choice(pool) for _ in range((1 << n) - 1)]
        used, lattice = _hit_lattice(n, gs)
        assert (used, lattice.scale, lattice.rows) == _hit_lattice_by_dicts(n, gs), trial


# ---------------------------------------------------------------------------
# the tight constant of an integer table


@pytest.mark.parametrize("size", [1, 2, 3, 5, 9, 17])
def test_linear_scan_on_one_dimensional_keys_matches_the_pair_scan(size):
    rng = random.Random(f"tight:{size}")
    for _ in range(25):
        xs = rng.sample(range(0, 4 * size + 1), size)
        rng.shuffle(xs)  # the scan sorts its table
        rows = [((x,), rng.randint(0, 30)) for x in xs]
        steep = _steepest_entry(rows)
        want = F(0) if steep is None else F(steep[2], steep[3])
        got = _tight_constant(rows)
        assert got == want and type(got) is F


def test_several_dimensions_take_the_pair_scan():
    rng = random.Random("tight:2d")
    keys = list(itertools.product(range(0, 9, 2), range(0, 7, 3)))
    for _ in range(25):
        rows = [(k, rng.randint(0, 12)) for k in keys]
        steep = _steepest_entry(rows)
        assert _tight_constant(rows) == (F(0) if steep is None else F(steep[2], steep[3]))


# ---------------------------------------------------------------------------
# per-space facts of the translation context


@pytest.mark.parametrize("step", [F(1, 4), F(1, 8), F(1, 7), F(2, 5)])
@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_snap_bound_matches_the_coordinate_set(space, step):
    ctx = _context(step)
    coords = {c for i in range(space.dimension) for c in space.coordinate_values(i)}
    want = max(nearest(ctx.grid, Point((c,)))[1] for c in coords)
    assert ctx.space_snap_bound(space) == want


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_point_hit_constant_matches_the_distance_matrix(space):
    ctx = _context()
    for i in range(len(space.net)):
        gaps = [d for j, d in enumerate(space.distance_matrix[i]) if j != i]
        want = 1 / min(gaps) if gaps else F(0)
        hit = ctx.point_hit(space, i)
        assert hit.lipschitz == want
        assert [hit(p) for p in space.net] == [point(int(j == i)) for j in range(len(space.net))]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_projections_match_the_point_forms(space):
    for i in range(space.dimension):
        pi = proj(space, i)
        values = space.coordinate_values(i)
        assert pi.codomain.net == tuple(Point((c,)) for c in values)
        assert pi.codomain.resolution == pi.lipschitz * space.resolution
        for p in space.net:
            assert pi(p) == point(p.coords[i])
        # an input off the net projects to a new point
        off = Point(tuple(F(1, 1009) for _ in range(space.dimension)))
        assert pi(off) == point(F(1, 1009))


@pytest.mark.parametrize("space", NETS, ids=[s.label for s in NETS])
def test_outputs_on_a_net_are_its_own_points(space):
    probes = {p.scalar for p in space.net} | {F(k, 24) for k in range(25)}
    for x in probes:
        got = _net_point(space, x.numerator, x.denominator)
        assert got == point(x)
        on_net = point(x) in space.net
        assert any(got is q for q in space.net) == on_net
        # an unreduced ratio names the same point
        assert _net_point(space, 3 * x.numerator, 3 * x.denominator) == got


@pytest.mark.parametrize("lo, hi, step", [
    (0, 1, F(1, 8)), (0, 1, F(2, 5)), (F(1, 8), F(7, 8), F(1, 3)),
    (F(1, 2), F(1, 2), F(1, 4)), (0, F(1, 2), F(3, 4)), (F(1, 1009), F(1000, 1009), F(1, 97)),
])
def test_interval_integer_scalars_match_its_points(lo, hi, step):
    space = make_interval(lo, hi, step)
    den, xs = space._int_scalars
    assert [F(x, den) for x in xs] == [p.scalar for p in space.net]
    assert list(xs) == sorted(set(xs))


# ---------------------------------------------------------------------------
# transport


def _nearest_by_scan(space, x):
    """The first net point at the least distance from x, in net order."""
    return min(space.net, key=lambda q: abs(q.scalar - x))


@pytest.mark.parametrize("step", [F(1, 4), F(1, 8), F(1, 3), F(2, 7)])
def test_transport_snaps_like_nearest(step):
    # every sixteenth, and the sixteenths in Y's coordinates, include the
    # midpoints of the coarser grids, where nearest breaks the tie downward
    X = make_finite([point(F(k, 16)) for k in range(17)], label="sixteenths")
    Y = make_finite([point(F(k, 16), F(16 - k, 16)) for k in range(0, 17, 3)], label="Y")
    sig = signature([Relation("P", 1, X), Relation("R", 2, Y)])
    ctx = TranslationContext(sig, step)
    rng = random.Random(f"transport:{step}")
    universe = [f"e{i}" for i in range(17)]
    M = structure(sig, universe, {
        "P": {e: p.scalar for e, p in zip(universe, X.net)},
        "R": {t: rng.choice(Y.net) for t in itertools.product(universe, repeat=2)},
    })
    N = transport_structure(ctx, M)
    for rel in sig.relations:
        for t, v in M.interp[rel.name].items():
            for name, c in zip(ctx.components[rel.name], v.coords):
                got = N.interp[name][t]
                assert got == nearest(ctx.grid, point(c))[0] == _nearest_by_scan(ctx.grid, c)


# ---------------------------------------------------------------------------
# the McShane key read


def _mcshane_reference(flats, lip, ys):
    """The extension in Fractions, every key's candidate scanned."""
    y = [c for p in ys for c in p.coords]
    best = min(v + lip * max(abs(a - b) for a, b in zip(f, y)) for f, v in flats)
    return point(min(F(1), max(F(0), best)))


@pytest.mark.parametrize("arity", [1, 2])
def test_key_read_matches_the_kernel_scan(arity):
    # the kernel reads an input at a key without its scan; at the tight
    # constant every other key's candidate is at least the key's value, so
    # the read is the scan's minimum
    rng = random.Random(f"key-read:{arity}")
    grid = make_interval(0, 1, F(1, 24))
    nets = [make_finite([point(F(k, 8)) for k in (0, 1, 3, 6, 8)]),
            make_finite([point(F(k, 12)) for k in (1, 4, 9, 11)])][:arity]
    keys = list(itertools.product(*(s.net for s in nets)))
    for _ in range(5):
        flats = [(flat_coords(k), _random_fraction(rng)) for k in keys]
        den, rows = _integer_table(flats)
        lip = _tight_constant(rows)
        ext = _mcshane(den, rows, lip, (grid,) * arity, grid, "ext")
        assert ext.lipschitz == lip
        for k, (_, v) in zip(keys, flats):
            assert ext(*k) == _mcshane_reference(flats, lip, k) == point(v)
        for ys in itertools.product(grid.net, repeat=arity):
            assert ext(*ys) == _mcshane_reference(flats, lip, ys)
