"""The end-to-end gate: one test per advertised guarantee.

Every test carries an `acceptance(num, title)` marker so the conftest can
print a PASS/FAIL line per criterion after the run.  Trial counts, exactness
demands and wall-clock budgets are asserted inside the tests themselves —
shrinking a criterion fails it.
"""
import random
import time
from fractions import Fraction as F

import pytest

from contlog.connective import (compose, identity, mcshane_extend, neg, table,
                                tight_lipschitz)
from contlog.hyperspace import (ball, decode_subset, hyper, inf_theta, lift,
                                sup_theta, urysohn_separator, vietoris_member,
                                vietoris_slack)
from contlog.oracle import (FuzzConfig, random_theta, run_quantifier_trials,
                            run_suite)
from contlog.translate import lattice_approx, sup_generator
from contlog.valuespace import make_finite, make_interval, point

EIGHTHS = tuple(F(k, 8) for k in range(9))


def eighths_space(rng: random.Random, size: int):
    return make_finite([point(c) for c in rng.sample(EIGHTHS, size)])


def inside(region, p) -> bool:
    """Whether p lies in some open ball of the region, by its distances."""
    return any(region.space.metric(p, c) < r for c, r in region.balls)


# ---------------------------------------------------------------------------
# 1-3: randomized soundness of the translation and the set quantifier


@pytest.mark.acceptance(1, "coded formulas track the source semantics within budget")
def test_coding_soundness():
    start = time.monotonic()
    exact = run_suite(
        "coding-exact", FuzzConfig(seed=4101, universe_size=5, formula_depth=3, trials=1000))
    grid = run_suite(
        "coding-grid", FuzzConfig(seed=4102, universe_size=5, formula_depth=3, trials=300))
    elapsed = time.monotonic() - start
    assert len(exact) == 1000 and len(grid) == 300
    bad = [r.as_json() for r in exact + grid if not r.ok]
    assert not bad, bad[:3]
    assert elapsed < 60, f"fuzz batch took {elapsed:.1f}s, budget is 60s"


@pytest.mark.acceptance(2, "set quantifier suprema match direct suprema")
def test_quantifier_identity():
    records = run_quantifier_trials(
        FuzzConfig(seed=4203, universe_size=5, formula_depth=3, trials=1000),
        checks=("identity",))
    assert len(records) == 1000
    bad = [r.as_json() for r in records if not r.ok]
    assert not bad, bad[:3]


@pytest.mark.acceptance(3, "set extrema agree with sup and inf values")
def test_primordial_extrema():
    records = run_quantifier_trials(
        FuzzConfig(seed=4203, universe_size=5, formula_depth=3, trials=1000),
        checks=("primordial",))
    assert len(records) == 1000
    bad = [r.as_json() for r in records if not r.ok]
    assert not bad, bad[:3]


# ---------------------------------------------------------------------------
# 4: the hyperspace metric, exhaustively


@pytest.mark.acceptance(4, "hyperspace metric laws, continuity and region slack")
def test_hausdorff_axioms_and_slack():
    start = time.monotonic()
    rng = random.Random(4404)
    tables = {}
    for size in (3, 4, 5, 6):
        base = eighths_space(rng, size)
        H = hyper(base)
        D = [[H.metric(p, q) for q in H.net] for p in H.net]
        tables[size] = (base, H, D)

    # metric axioms, exhaustively on every pair and triple
    triangle_checks = 0
    for size in (3, 5, 6):
        base, H, D = tables[size]
        n = len(H.net)
        for i in range(n):
            assert D[i][i] == 0
            for j in range(n):
                assert D[i][j] == D[j][i]
                if i != j:
                    assert D[i][j] > 0  # distinct subsets are told apart
        for i in range(n):
            Di = D[i]
            for j in range(n):
                Dj = D[j]
                dij = Di[j]
                for k in range(n):
                    assert dij <= Di[k] + Dj[k]
                    triangle_checks += 1
    assert triangle_checks == 7**3 + 31**3 + 63**3

    # lifted extrema move at most their observable's constant per unit
    for size in (3, 5):
        base, H, D = tables[size]
        for theta in (identity(base), neg(base), random_theta(rng, base)):
            for lifted in (sup_theta(theta), inf_theta(theta)):
                vals = [lifted(p).scalar for p in H.net]
                for i in range(len(H.net)):
                    for j in range(i + 1, len(H.net)):
                        assert abs(vals[i] - vals[j]) <= theta.lipschitz * D[i][j]

    # region membership slack: positive slack certifies membership and is a
    # genuine robustness radius in the set metric
    radii = (F(1, 16), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(9, 8))
    samples = 0
    for _ in range(500):
        size = rng.choice((3, 4, 5))
        base, H, D = tables[size]
        idx = rng.randrange(len(H.net))
        k = decode_subset(H, H.net[idx])
        u = ball(base, rng.choice(base.net), rng.choice(radii))
        vs = [ball(base, rng.choice(base.net), rng.choice(radii))
              for _ in range(rng.randint(0, 2))]
        member = vietoris_member(k, u, vs)
        slack = vietoris_slack(k, u, vs)
        # membership read straight off the ball distances, not through slack
        direct = (all(inside(u, p) for p in k.members)
                  and all(any(inside(v, p) for p in k.members) for v in vs))
        assert member == direct == (slack > 0)
        if member:
            for j, q in enumerate(H.net):
                if D[idx][j] < slack:
                    assert vietoris_member(decode_subset(H, q), u, vs)
        samples += 1
    assert samples == 500

    elapsed = time.monotonic() - start
    assert elapsed < 30, f"hyperspace batch took {elapsed:.1f}s, budget is 30s"


# ---------------------------------------------------------------------------
# 5-6: the direct image and separation


@pytest.mark.acceptance(5, "direct image preserves identity and composition")
def test_direct_image_functoriality():
    rng = random.Random(4505)
    composite_checks = 0
    for size in (2, 3, 4, 5):
        A = eighths_space(rng, size)
        HA = hyper(A)
        K_id = lift(identity(A))
        for k in HA.net:
            assert K_id(k) == k
        for _ in range(5):
            img1 = {p: point(rng.choice(EIGHTHS)) for p in A.net}
            B = make_finite(set(img1.values()))
            sigma = table(A, {(p,): v for p, v in img1.items()},
                          tight_lipschitz(A, img1), codomain=B, name="sigma")
            img2 = {q: point(rng.choice(EIGHTHS)) for q in B.net}
            C = make_finite(set(img2.values()))
            theta = table(B, {(q,): v for q, v in img2.items()},
                          tight_lipschitz(B, img2), codomain=C, name="theta")
            lhs = lift(compose(theta, [sigma]))
            k_sigma, k_theta = lift(sigma), lift(theta)
            for k in HA.net:
                assert lhs(k) == k_theta(k_sigma(k))
                composite_checks += 1
    assert composite_checks == 5 * (3 + 7 + 15 + 31)


@pytest.mark.acceptance(6, "synthesized observables separate distinct sets")
def test_separation():
    rng = random.Random(4606)
    pairs = 0
    for size in (2, 3, 4, 5):
        base = eighths_space(rng, size)
        H = hyper(base)
        sets = [decode_subset(H, p) for p in H.net]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                theta = urysohn_separator(base, sets[i], sets[j])
                sup_i = max(theta(p).scalar for p in sets[i].members)
                sup_j = max(theta(p).scalar for p in sets[j].members)
                assert abs(sup_i - sup_j) == 1, (str(sets[i]), str(sets[j]))
                pairs += 1
    assert pairs == 3 + 21 + 105 + 465  # every unordered pair, all four sizes


# ---------------------------------------------------------------------------
# 7-8: the function machinery under the coding


@pytest.mark.acceptance(7, "lattice interpolation reproduces set observables exactly")
def test_lattice_exactness():
    rng = random.Random(4707)
    for trial in range(200):
        base = eighths_space(rng, rng.randint(1, 4))
        H = hyper(base)
        g = {k: rng.choice(EIGHTHS) for k in H.net}
        supplied = [] if rng.random() < 0.5 else [sup_generator(H, identity(base))]
        ap = lattice_approx(H, g, supplied)
        for k in H.net:
            members = [base.net[i] for i in sorted(H.member_indices(k))]
            sups = [max(gen.theta(m).scalar for m in members)
                    for gen in ap.generators]
            assert ap.value(sups) == g[k], (trial, str(k))


@pytest.mark.acceptance(8, "extensions agree on the net and keep their constant")
def test_extension_instances():
    rng = random.Random(4808)
    ambient = make_interval(0, 1, F(1, 8))
    for trial in range(200):
        net = eighths_space(rng, rng.randint(2, 5))
        vals = {(p,): rng.choice(EIGHTHS) for p in net.net}
        tight = tight_lipschitz([net], {k: point(v) for k, v in vals.items()})
        lip = tight + rng.choice((0, 0, F(1, 4), 1))
        ext = mcshane_extend(vals, lip, net, ambient)
        for k, v in vals.items():
            assert ext(*k).scalar == v, trial
        evs = [ext(p).scalar for p in ambient.net]
        for i in range(len(ambient.net)):
            for j in range(i + 1, len(ambient.net)):
                gap = abs(ambient.net[i].coords[0] - ambient.net[j].coords[0])
                assert abs(evs[i] - evs[j]) <= lip * gap, trial


# ---------------------------------------------------------------------------
# 9-11: quotients, transport round trips, negative controls


@pytest.mark.acceptance(9, "quotienting zero-distance classes preserves values")
def test_quotient_transparency():
    records = run_suite("quotient", FuzzConfig(seed=4909, trials=200))
    assert len(records) == 200
    bad = [r.as_json() for r in records if not r.ok]
    assert not bad, bad[:3]


@pytest.mark.acceptance(10, "grid transport round-trips and stays aligned")
def test_transport_roundtrip():
    records = run_suite("roundtrip", FuzzConfig(seed=4010, trials=200))
    assert len(records) == 200
    bad = [r.as_json() for r in records if not r.ok]
    assert not bad, bad[:3]


@pytest.mark.acceptance(11, "corrupted translations and broken metrics are caught")
def test_negative_controls():
    corrupted = run_suite("corruption", FuzzConfig(seed=4011, trials=50))
    broken = run_suite("metric-violation", FuzzConfig(seed=4012, trials=20))
    assert len(corrupted) == 50 and len(broken) == 20
    missed = [r.as_json() for r in corrupted + broken if not r.ok]
    assert not missed, missed[:3]
    # a detection without a witness is not a detection
    assert all(r.witness for r in corrupted + broken)
