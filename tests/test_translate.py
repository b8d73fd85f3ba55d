import collections.abc
import itertools
import random
import re
import time
import typing
from fractions import Fraction as F

import pytest

from contlog import connective, hyperspace
from contlog.connective import (const, identity, max_of, mcshane_extend, neg, proj, table,
                                tight_lipschitz, unit_interval)
from contlog.errors import CapacityError, EvalError, SpaceMismatch, ValidationError
from contlog.formula import (Apply, Atomic, CauchyLimit, Quant, QuantKind, Relation, _Parser,
                             atom, cauchy_limit, parse, signature)
from contlog.hyperspace import (HyperSpace, compact, decode_subset, hyper, inf_theta,
                               sup_theta, urysohn_separator)
from contlog.oracle import (FuzzConfig, _rng, random_formula, random_signature,
                            random_structure, random_theta, verify_coding,
                            verify_corruption_detected)
from contlog.semantics import Structure, check_condition, evaluate, structure, tabulate
from contlog.translate import (
    Coded,
    CodedFormula,
    LatticeApprox,
    TranslationContext,
    check_T0,
    code_condition,
    code_formula,
    _hit_lattice,
    _net_table,
    decode_structure,
    lattice_approx,
    snap_to_grid,
    sup_generator,
    t0_violations,
    translate_signature,
    transport_structure,
)
from contlog.valuespace import (ZERO, ValueSpace, linf_coords, make_finite, make_interval,
                                 membership, point)


ALIGNED_X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))], label="X")


def aligned_setup():
    u = unit_interval()
    X = ALIGNED_X
    sig = signature([Relation("P", 1, X), Relation("d", 2, u)],
                    distance_symbol="d", moduli={"P": 1})
    ctx = translate_signature(sig, F(1, 8))
    M = structure(sig, ["a", "b"], {
        "P": {"a": F(1, 4), "b": F(3, 4)},
        "d": {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 1},
    })
    return sig, ctx, M


def misaligned_setup():
    X = make_interval(0, 1, F(1, 3), label="thirds")
    sig = signature([Relation("R", 1, X)])
    ctx = translate_signature(sig, F(1, 4))
    M = structure(sig, ["a", "b", "c"],
                  {"R": {"a": F(1, 3), "b": F(2, 3), "c": 0}})
    return X, sig, ctx, M


class TestTransport:
    def test_aligned_roundtrip(self):
        sig, ctx, M = aligned_setup()
        assert ctx.aligned
        assert ctx.components["P"] == ("P_0",)
        N = transport_structure(ctx, M)
        assert N.value("P_0", "a").scalar == F(1, 4)
        assert N.signature.distance_symbol is None
        back = decode_structure(ctx, N)
        assert back.value("P", "a") == point(F(1, 4))
        assert back.value("d", "a", "b") == point(1)
        assert check_T0(ctx, N).ok

    def test_misaligned_snaps(self):
        X, sig, ctx, M = misaligned_setup()
        assert not ctx.aligned
        assert ctx.snap_bound("R") == F(1, 12)
        N = transport_structure(ctx, M)
        assert N.value("R_0", "a").scalar == F(1, 4)  # 1/3 snapped
        assert check_T0(ctx, N).ok
        back = decode_structure(ctx, N)
        assert back.value("R", "a") == point(F(1, 3))  # nearest recovers

    def test_hyperspace_snap_bound_and_projections_need_no_net(self):
        h = hyper(make_interval(0, 1, F(1, 15)))
        ctx = translate_signature(signature([Relation("P", 1, h)]), F(1, 4))
        assert ctx.aligned and ctx.snap_bound("P") == 0
        assert all(p.codomain.net == (point(0), point(1)) for p in ctx.coordinates(h))
        assert h.net._points is None

    def test_violations_witnessed(self):
        X, sig, ctx, M = misaligned_setup()
        bad = structure(ctx.target, ["a", "b", "c"],
                        {"R_0": {"a": F(1, 2), "b": 0, "c": 0}})
        report = check_T0(ctx, bad)
        assert not report.ok
        assert "R" in report.failures[0]
        assert t0_violations(ctx, bad, tol=1) == []
        for check in (t0_violations, check_T0):
            with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
                check(ctx, bad, tol=-1)

    def test_ties_go_to_the_first_net_point(self):
        X = make_finite([point(0), point(F(1, 2))], label="X")
        sig = signature([Relation("R", 1, X)])
        ctx = translate_signature(sig, F(1, 8))
        N = structure(ctx.target, ["a", "b"], {"R_0": {"a": F(1, 4), "b": F(7, 8)}})
        back = decode_structure(ctx, N)
        assert back.value("R", "a") == point(0)  # 1/4 from both net points
        assert back.value("R", "b") == point(F(1, 2))
        assert t0_violations(ctx, N) == [
            "R('a',): embedded distance 1/4 to the nearest net point of X exceeds 1/16",
            "R('b',): embedded distance 3/8 to the nearest net point of X exceeds 1/16",
        ]

    def test_wrong_signature_rejected(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        with pytest.raises(SpaceMismatch):
            transport_structure(ctx, N)
        with pytest.raises(SpaceMismatch):
            decode_structure(ctx, M)

    @pytest.mark.parametrize("step, budgets", [
        (F(1, 4), (0, 0)),
        (F(1, 3), (0, F(1, 3))),
    ])
    def test_hyperspace_and_plane_relations(self, step, budgets):
        # each relation becomes one grid symbol per coordinate of its values:
        # three indicator bits for S, two coordinates for T
        B = make_finite([point(0), point(F(1, 2)), point(1)], label="B")
        H = hyper(B)
        Y = make_finite([point(0, F(1, 2)), point(F(1, 2), 1), point(1, 0)], label="Y")
        sig = signature([Relation("S", 1, H), Relation("T", 1, Y)])
        M = structure(sig, ["a", "b", "c"], {
            "S": {"a": compact(B, point(0)),
                  "b": compact(B, point(F(1, 2)), point(1)),
                  "c": compact(B, *B.net)},
            "T": {"a": point(0, F(1, 2)), "b": point(F(1, 2), 1), "c": point(1, 0)},
        })
        ctx = translate_signature(sig, step)
        assert ctx.components == {"S": ("S_0", "S_1", "S_2"), "T": ("T_0", "T_1")}
        N = transport_structure(ctx, M)
        assert N.value("S_1", "b") == point(1)
        assert N.value("T_0", "b") == point(snap_to_grid(ctx.grid, F(1, 2)))
        assert decode_structure(ctx, N).interp == M.interp
        assert t0_violations(ctx, N) == []
        # an apply node codes its child against the coordinate projections;
        # on H they are 2-Lipschitz for the Hausdorff metric, not 1
        assert [c.lipschitz for c in ctx.coordinates(H)] == [2, 2, 2]
        phis = (Apply(sup_theta(identity(B)), (Atomic("S", ("x",), H),)),
                Apply(proj(Y, 0), (Atomic("T", ("x",), Y),)))
        checks = [verify_coding(ctx, M, phi) for phi in phis]
        assert all(c.ok for c in checks)
        assert tuple(c.budget for c in checks) == budgets

    @pytest.mark.parametrize("seed", range(4))
    def test_transport_matches_per_coordinate_snap(self, seed):
        # the transported structure is each coordinate snapped on its own,
        # however often a value repeats
        rng = random.Random(seed)
        X = make_interval(0, 1, F(1, 3), label="thirds")
        Y = make_finite([point(0, F(1, 5)), point(F(2, 5), F(1, 3)), point(1, F(1, 5))], label="Y")
        sig = signature([Relation("R", 2, X), Relation("T", 1, Y)])
        universe = ["a", "b", "c"]
        M = structure(sig, universe, {
            "R": {t: rng.choice(X.net) for t in itertools.product(universe, repeat=2)},
            "T": {e: rng.choice(Y.net) for e in universe},
        })
        ctx = translate_signature(sig, rng.choice([F(1, 4), F(1, 6), F(2, 7)]))
        N = transport_structure(ctx, M)
        want = {}
        for rel in sig.relations:
            for i, name in enumerate(ctx.components[rel.name]):
                want[name] = {t: point(snap_to_grid(ctx.grid, v.coords[i]))
                              for t, v in M.interp[rel.name].items()}
        assert N.interp == want
        assert N.signature == ctx.target and N.universe == M.universe

    @pytest.mark.parametrize("seed", range(6))
    def test_transport_passes_the_checked_constructor(self, seed):
        # transport builds its structure unchecked; the checked constructor
        # must accept the same interpretation, every value on the grid
        rng = random.Random(seed)
        X = make_finite([point(F(rng.randint(0, 97), 97)) for _ in range(4)], label="X")
        Y = make_finite([point(F(rng.randint(0, 9), 9), F(rng.randint(0, 1009), 1009))
                         for _ in range(3)], label="Y")
        sig = signature([Relation("R", 2, X), Relation("T", 1, Y)])
        universe = ["a", "b", "c"]
        M = structure(sig, universe, {
            "R": {t: rng.choice(X.net) for t in itertools.product(universe, repeat=2)},
            "T": {e: rng.choice(Y.net) for e in universe},
        })
        ctx = translate_signature(sig, rng.choice([F(1, 4), F(1, 7), F(2, 9), F(1, 3)]))
        N = transport_structure(ctx, M)
        checked = Structure(N.signature, N.universe, N.interp)
        assert checked.interp == N.interp
        for entries in N.interp.values():
            for v in entries.values():
                assert membership(ctx.grid, v) and v in ctx.grid.net

    def test_snap_to_grid(self):
        g4 = make_interval(0, 1, F(1, 4))
        assert snap_to_grid(g4, F(1, 8)) == 0  # ties go down
        assert snap_to_grid(g4, F(3, 8)) == F(1, 4)
        assert snap_to_grid(g4, F(5, 6)) == F(3, 4)

    def test_snap_to_grid_ties_on_a_clamped_grid(self):
        g = make_interval(F(1, 8), F(7, 8), F(1, 3))  # 1/8, 11/24, 19/24, 7/8
        assert snap_to_grid(g, F(7, 24)) == F(1, 8)  # midway: ties go down
        assert snap_to_grid(g, F(5, 6)) == F(19, 24)  # midway to the clamped end
        assert snap_to_grid(g, F(5, 6) + F(1, 1009)) == F(7, 8)
        assert snap_to_grid(g, 0) == F(1, 8) and snap_to_grid(g, 1) == F(7, 8)


def flat_scan(space: ValueSpace, vec: tuple) -> tuple:
    """The reference read-back: the first net point in net order nearest to
    vec in the flat l-infinity distance on coordinates, and that distance."""
    q = min(space.net, key=lambda p: linf_coords(p.coords, vec))
    return q, linf_coords(q.coords, vec)


class TestReadBack:
    """Decoding and the T0 check find each value's nearest net point by the
    rule of its space; a flat scan of the net is the reference."""

    # spaces whose nets leave ties on the quarter grid: 3/4 between 1/2 and 1,
    # 1/4 between 0 and 1/2, and a 1/2 coordinate or equal largest
    # coordinates of an indicator
    SPACES = (
        make_finite([point(0), point(F(1, 3)), point(F(1, 2)), point(1)], label="A"),
        make_finite([point(0, F(1, 2)), point(F(1, 2), 1), point(1, 0), point(F(1, 4), F(1, 4))],
                    label="B"),
        make_interval(0, 1, F(1, 2), label="C"),
        hyper(make_finite([point(F(1, 2))])),
        hyper(make_interval(0, 1, F(1, 3))),
        hyper(make_interval(0, 1, F(1, 5))),
    )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tol", [0, F(1, 4)])
    def test_decode_and_t0_match_a_flat_scan(self, seed, tol):
        rng = random.Random(seed)
        sig = signature([Relation(f"R{i}", 1, space) for i, space in enumerate(self.SPACES)])
        ctx = translate_signature(sig, F(1, 4))
        universe = [f"e{i}" for i in range(40)]
        N = structure(ctx.target, universe, {
            name: {e: rng.choice(ctx.grid.net) for e in universe}
            for name in ctx.target.by_name})
        want, violations = {}, []
        bound = ctx.grid.resolution + tol
        for rel in sig.relations:
            names = ctx.components[rel.name]
            want[rel.name] = {}
            for e in universe:
                q, d = flat_scan(rel.space, tuple(N.value(n, e).scalar for n in names))
                want[rel.name][(e,)] = q
                if d > bound:
                    violations.append(f"{rel.name}{(e,)}: embedded distance {d} to the nearest "
                                      f"net point of {rel.space.label} exceeds {bound}")
        assert decode_structure(ctx, N).interp == want
        assert t0_violations(ctx, N, tol) == violations
        assert violations and len(violations) < len(sig.relations) * len(universe)

    @pytest.mark.parametrize("space, size", [
        (make_interval(0, 1, F(1, 65536)), 20),
        (hyper(make_interval(0, 1, F(1, 15))), 3),
    ], ids=["interval-65537", "hyperspace-16"])
    def test_read_back_scans_no_net(self, space, size):
        rng = random.Random(size)
        sig = signature([Relation("P", 1, space)])
        ctx = translate_signature(sig, F(1, 4))
        universe = [f"e{i}" for i in range(size)]
        N = structure(ctx.target, universe, {
            name: {e: rng.choice(ctx.grid.net) for e in universe}
            for name in ctx.components["P"]})
        for read in (decode_structure, t0_violations):
            start = time.perf_counter()
            read(ctx, N)
            assert time.perf_counter() - start < 0.5
        if isinstance(space, HyperSpace):  # no indicator point was built
            assert space.net._points is None


class TestLatticeExpressions:
    def test_eval_expr(self):
        vals = [F(1, 3), F(2, 3)]
        # (1/2 x0 + 1/4, 1/8) and (x1) over the common denominator 8
        rows = (((4, 2, 0), (0, 1, None)), ((8, 0, 1),))
        ap = LatticeApprox(8, rows)
        want = min(max(F(1, 2) * F(1, 3) + F(1, 4), F(1, 8)), F(2, 3))
        assert ap.value(vals) == want

    def test_expr_lipschitz(self):
        rows = (((3, 0, 0), (1, 0, 1)), ((-5, 1, 1), (0, 7, None)))
        assert LatticeApprox(1, rows).lipschitz == 5
        assert LatticeApprox(2, rows).lipschitz == F(5, 2)
        constant = LatticeApprox(2, (((0, 1, None),),))
        assert constant.lipschitz == 0

    def test_interpolates_min_member(self):
        B = make_interval(0, 1, F(1, 2), label="B")
        H = hyper(B)
        g = {k: min(B.net[i].scalar for i in sorted(H.member_indices(k)))
             for k in H.net}
        ap = lattice_approx(H, g)
        for k in H.net:
            assert ap.evaluate(k) == g[k]
        assert ap.lipschitz >= 0
        assert len(ap.generators) >= 1

    def test_supplied_generator_suffices_for_max(self):
        B = make_interval(0, 1, F(1, 2), label="B")
        H = hyper(B)
        ident = table([B], {(p,): p for p in B.net}, F(1), codomain=B, name="idB")
        gen0 = sup_generator(H, ident)
        g = {k: max(B.net[i].scalar for i in sorted(H.member_indices(k)))
             for k in H.net}
        ap = lattice_approx(H, g, [gen0])
        for k in H.net:
            assert ap.evaluate(k) == g[k]
        assert len(ap.generators) == 1  # no separators were needed

    def test_g_values_outside_unit_rejected(self):
        B = make_interval(0, 1, F(1, 2))
        H = hyper(B)
        g = {k: F(2) for k in H.net}
        with pytest.raises(ValidationError):
            lattice_approx(H, g)

    def test_g_must_be_total(self):
        B = make_interval(0, 1, F(1, 2))
        H = hyper(B)
        g = {H.net[0]: F(0)}
        with pytest.raises(ValidationError):
            lattice_approx(H, g)


class TestCoding:
    def test_aligned_sup_exact(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        phi = parse("sup x. P(x)", sig)
        coder = code_formula(ctx, phi)
        assert coder.budget_of() == 0
        assert evaluate(N, coder.codes()).scalar == evaluate(M, phi).scalar == F(3, 4)

    def test_aligned_inf_through_connective(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        X = sig.by_name["P"].space
        phi = Quant(QuantKind.INF, "x", Apply(neg(X), (Atomic("P", ("x",), X),)))
        coder = code_formula(ctx, phi)
        assert coder.budget_of() == 0
        assert evaluate(N, coder.codes()).scalar == evaluate(M, phi).scalar == F(1, 4)

    def test_aligned_set_coding_exact(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        X = sig.by_name["P"].space
        sq = table([X], {(point(0),): point(0),
                         (point(F(1, 4)),): point(F(1, 16)),
                         (point(F(3, 4)),): point(F(9, 16))},
                   lipschitz=F(1),
                   codomain=make_finite([point(0), point(F(1, 16)), point(F(9, 16))]),
                   name="sqX")
        top = Apply(sup_theta(sq), (Quant(QuantKind.SET, "x", Atomic("P", ("x",), X)),))
        coder = code_formula(ctx, top)
        assert coder.budget_of() == 0
        assert evaluate(M, top).scalar == F(9, 16)
        assert evaluate(N, coder.codes()).scalar == F(9, 16)

    def test_observable_applied_at_the_root(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        X = sig.by_name["P"].space
        sq = table([X], {(point(0),): point(0),
                         (point(F(1, 4)),): point(F(1, 16)),
                         (point(F(3, 4)),): point(F(9, 16))},
                   lipschitz=F(1),
                   codomain=make_finite([point(0), point(F(1, 16)), point(F(9, 16))]),
                   name="sqX")
        phi = parse("sup x. P(x)", sig)
        coder = code_formula(ctx, phi)
        assert coder.budget_of(sq) == 0
        assert evaluate(N, coder.codes(sq)).scalar == F(9, 16)

    def test_misaligned_budget_frozen(self):
        X, sig, ctx, M = misaligned_setup()
        N = transport_structure(ctx, M)
        phi = parse("sup x. R(x)", sig)
        coder = code_formula(ctx, phi)
        assert coder.budget_of() == F(1, 12)
        src = evaluate(M, phi).scalar
        tgt = evaluate(N, coder.codes()).scalar
        assert (src, tgt) == (F(2, 3), F(3, 4))
        assert abs(tgt - src) <= coder.budget_of()

    def test_misaligned_observable_within_budget(self):
        X, sig, ctx, M = misaligned_setup()
        N = transport_structure(ctx, M)
        phi = parse("sup x. R(x)", sig)
        coder = code_formula(ctx, phi)
        nX = neg(X)
        src = nX(evaluate(M, phi).value).scalar
        tgt = evaluate(N, coder.codes(nX)).scalar
        assert abs(tgt - src) <= coder.budget_of(nX)

    def test_misaligned_set_coding_within_budget(self):
        X, sig, ctx, M = misaligned_setup()
        N = transport_structure(ctx, M)
        sq = table([X], {(p,): point(p.scalar * p.scalar) for p in X.net},
                   lipschitz=F(2),
                   codomain=make_finite([point(p.scalar * p.scalar) for p in X.net]),
                   name="sq3")
        top = Apply(sup_theta(sq), (Quant(QuantKind.SET, "x", Atomic("R", ("x",), X)),))
        coder = code_formula(ctx, top)
        src = evaluate(M, top).scalar
        tgt = evaluate(N, coder.codes()).scalar
        assert src == F(4, 9)
        assert abs(tgt - src) <= coder.budget_of()

    def test_nested_quantifiers_within_budget(self):
        X, sig, ctx, M = misaligned_setup()
        N = transport_structure(ctx, M)
        mx = max_of(X, X)
        body = Quant(QuantKind.INF, "y",
                     Apply(mx, (Atomic("R", ("x",), X), Atomic("R", ("y",), X))))
        inner_space = body.value_space
        ident = table([inner_space], {(p,): p for p in inner_space.net}, F(1),
                      codomain=inner_space, name="idB")
        top = Apply(sup_theta(ident), (Quant(QuantKind.SET, "x", body),))
        coder = code_formula(ctx, top)
        src = evaluate(M, top).scalar
        tgt = evaluate(N, coder.codes()).scalar
        assert (src, tgt) == (F(2, 3), F(3, 4))
        assert abs(tgt - src) <= coder.budget_of() <= 8

    def test_condition_coding(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        cond = code_condition(ctx, parse("sup x. P(x)", sig), [point(F(3, 4))])
        assert cond.budget == 0
        dist = cond.observable  # onto the finite space of its values
        assert dist.codomain == make_finite([dist.evaluator(p) for p in ALIGNED_X.net])
        assert evaluate(N, cond.formula).scalar == 0  # distance to target
        cond2 = code_condition(ctx, parse("inf x. P(x)", sig), [point(F(3, 4))])
        assert evaluate(N, cond2.formula).scalar == F(1, 2)

    @pytest.mark.parametrize("text, target", [
        ("Q x. P(x)", [compact(ALIGNED_X, point(F(1, 4))),
                       compact(ALIGNED_X, point(F(1, 4)), point(F(3, 4)))]),
        ("Q x. P(x)", compact(ALIGNED_X, point(0), point(F(3, 4)))),
        ("sup x. P(x)", F(1, 4)),
        ("sup x. P(x)", compact(ALIGNED_X, point(0), point(F(3, 4)))),
        ("inf x. P(x)", [F(3, 4), point(0)]),
        ("sup x. P(x)", F(1, 2)),  # not a net point of X
    ])
    def test_condition_coding_reads_targets_like_check_condition(self, text, target):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        phi = parse(text, sig)
        report = check_condition(M, phi, target)
        cond = code_condition(ctx, phi, target)
        assert cond.budget == 0
        assert evaluate(N, cond.formula).scalar == report.distance

    @pytest.mark.parametrize("binary", [False, True], ids=["atomic", "apply"])
    def test_extension_is_the_checked_mcshane_extension(self, binary):
        # the coder's unchecked extension, at its scanned constant, is the
        # one mcshane_extend validates and builds at the tight constant
        Y = make_finite([point(0), point(F(1, 2)), point(1)], label="Y")
        sig = signature([Relation("P", 1, ALIGNED_X), Relation("R", 1, Y)])
        ctx = translate_signature(sig, F(1, 4))
        p = Atomic("P", ("x",), ALIGNED_X)
        if binary:
            conn = max_of(ALIGNED_X, Y)
            phi, spaces = Apply(conn, (p, Atomic("R", ("x",), Y))), [ALIGNED_X, Y]
            theta = neg(conn.codomain)
            mapping = {k: theta(conn(*k)).scalar
                       for k in itertools.product(ALIGNED_X.net, Y.net)}
        else:
            phi, spaces = p, [ALIGNED_X]
            values = {point(0): F(1, 2), point(F(1, 4)): F(1), point(F(3, 4)): F(0)}
            theta = table([ALIGNED_X], {(q,): point(v) for q, v in values.items()}, 2,
                          codomain=make_finite([point(v) for v in values.values()]))
            mapping = {(q,): v for q, v in values.items()}
        ext = code_formula(ctx, phi).codes(theta).conn
        tight = tight_lipschitz(spaces, {k: point(v) for k, v in mapping.items()})
        ref = mcshane_extend(mapping, tight, spaces, [ctx.grid] * len(spaces),
                             codomain=ctx.grid)
        assert ext.lipschitz == tight > 0
        for y in itertools.product(ctx.grid.net, repeat=len(spaces)):
            assert ext(*y) == ref(*y)

    def test_set_body_capacity_capped(self):
        big = make_interval(0, 1, F(1, 10), label="dense")
        sig = signature([Relation("R", 1, big)])
        ctx = translate_signature(sig, F(1, 4))
        top = Quant(QuantKind.SET, "x", Atomic("R", ("x",), big))
        ident = table([big], {(p,): p for p in big.net}, F(1), codomain=big)
        with pytest.raises(CapacityError,
                           match="set-quantifier coding is capped at base nets of size 8"):
            code_formula(ctx, Apply(sup_theta(ident), (top,))).codes()

    def test_constant_codes_exactly(self):
        X = make_finite([point(0), point(F(1, 2)), point(1)], label="X")
        sig = signature([Relation("P", 1, X)])
        M = structure(sig, ["a"], {"P": {"a": 0}})
        ctx = translate_signature(sig, F(1, 4))
        phi = Apply(const(point(F(1, 2)), X), ())
        flip = table([X], {(q,): point(1 - q.scalar) for q in X.net}, 1, codomain=X)
        N = transport_structure(ctx, M)
        for theta in (None, flip):
            check = verify_coding(ctx, M, phi, theta)
            assert check.ok and check.checked == 1
            assert check.budget == check.max_difference == 0
            # a McShane extension over zero coordinates, like any application
            coder = code_formula(ctx, phi)
            coded = coder.codes(theta)
            obs = theta or ctx.coordinates(X)[0]
            assert isinstance(coded, Apply) and coded.children == ()
            assert coded.conn.name == f"~{obs.name}@{phi.conn.name}"
            assert coded.conn.lipschitz == coder.budget_of(theta) == 0
            assert evaluate(N, coded).value == obs(point(F(1, 2)))

    @pytest.mark.parametrize("text", ["Q x. P(x)", "V(x)"])
    def test_identity_needs_a_real_valued_space(self, text):
        V = make_finite([point(0, F(1, 2)), point(1, 0)], label="plane")
        sig = signature([Relation("P", 1, ALIGNED_X), Relation("V", 1, V)])
        ctx = translate_signature(sig, F(1, 4))
        phi = parse(text, sig)
        label = phi.value_space.label
        with pytest.raises(ValidationError, match=re.escape(
                f"a formula valued in {label}, which is not real-valued, needs a real-valued "
                f"observable")):
            code_formula(ctx, phi).codes()

    def test_cauchy_limit_codes_as_its_chosen_body(self):
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        X = sig.by_name["P"].space
        bodies = [parse(text, sig) for text in ("P(x)", "sup y. P(y)", "inf y. P(y)")]
        lim = cauchy_limit([1, F(1, 8), 0], bodies, F(1, 4))
        assert lim.body is bodies[1]
        flip = table([X], {(q,): point(1 - q.scalar) for q in X.net}, 1,
                     codomain=make_finite([point(1 - q.scalar) for q in X.net]))
        for theta in (ctx.coordinates(X)[0], flip):
            coder = code_formula(ctx, lim)
            coded = coder.codes(theta)
            assert coder._code(lim, theta) is coder._code(lim.body, theta)
            alone = code_formula(ctx, lim.body)
            assert str(alone.codes(theta)) == str(coded)
            assert alone.budget_of(theta) == coder.budget_of(theta)
            assert not any(isinstance(node, CauchyLimit) for node in dag_nodes(coded))
            assert evaluate(N, coded).value == theta(evaluate(M, lim).value)


def dag_nodes(phi) -> list:
    seen = {}
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, "children", None) or
                         ([node.body] if hasattr(node, "body") else []))
    return list(seen.values())


def dag_size(phi) -> int:
    return len(dag_nodes(phi))


# base nets of 1-4 points on a grid of step 1/4: on the grid (quarters) and
# off it (thirds)
ALIGNED = ([F(k, 4) for k in range(5)], F(1, 4))
MISALIGNED = ([F(k, 3) for k in range(4)], F(1, 4))


class TestSetConnective:
    """The set node's one min-max connective against the reference lattice."""

    @pytest.mark.parametrize("layout", [ALIGNED, MISALIGNED], ids=["aligned", "misaligned"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_reference_lattice(self, layout, size):
        values, step = layout
        rng = random.Random(f"set-connective:{step}:{size}")
        base = make_finite([point(v) for v in sorted(rng.sample(values, size))],
                           label="B")
        sig = signature([Relation("P", 1, base)])
        ctx = translate_signature(sig, step)
        H = hyper(base)
        eighths = [F(e, 8) for e in range(9)]
        g = {k: rng.choice(eighths) for k in H.net}
        mapping = {(k,): point(v) for k, v in g.items()}
        theta = table([H], mapping, tight_lipschitz([H], mapping),
                      codomain=make_finite(sorted(set(mapping.values()))), name="g")
        body = Atomic("P", ("x",), base)
        coder = code_formula(ctx, Quant(QuantKind.SET, "x", body))
        coded = coder.codes(theta)

        hits = [ctx.point_hit(base, j) for j in range(size)]
        approx = lattice_approx(H, g, [sup_generator(H, h) for h in hits])
        assert len(approx.generators) == size  # the hits separate every pair
        used = sorted({j for row in approx.rows for _, _, j in row if j is not None})
        lattice_used, lattice = _hit_lattice(size, [g[k] for k in H.net])
        assert lattice_used == tuple(used)
        assert lattice.lipschitz == approx.lipschitz
        assert isinstance(coded, Apply) and len(coded.children) == len(used)

        grid = [p.scalar for p in ctx.grid.net]
        for v in itertools.product(grid, repeat=size):
            got = coded.conn(*(point(v[j]) for j in used)).scalar
            assert got == approx.value(v) == lattice.value([v[j] for j in used]), v

        drift = max((code_formula(ctx, body).budget_of(hits[j])
                     + hits[j].lipschitz * base.resolution for j in used),
                    default=F(0))
        assert coder.budget_of(theta) == approx.lipschitz * drift
        assert (coder.budget_of(theta) > 0) == (not ctx.aligned and bool(used))

    def test_eight_point_base_is_linear_in_points(self):
        base = make_finite([point(F(k, 8)) for k in range(8)], label="B8")
        sig = signature([Relation("P", 1, base)])
        ctx = translate_signature(sig, F(1, 8))
        M = structure(sig, ["a", "b", "c"], {"P": {"a": F(1, 8), "b": F(5, 8), "c": F(3, 8)}})
        N = transport_structure(ctx, M)
        phi = parse("Q x. P(x)", sig)
        for theta, want in ((sup_theta(identity(base)), F(5, 8)),
                            (inf_theta(identity(base)), F(1, 8))):
            coder = code_formula(ctx, phi)
            coded = coder.codes(theta)
            assert coder.budget_of(theta) == 0
            assert evaluate(N, coded).scalar == want
            # one connective over at most one coded sup per base point: O(k)
            # nodes, not O(|H|^2)
            assert len(coded.children) <= 8
            assert dag_size(coded) <= 4 * 8 + 1


class TestPointHit:
    SPACES = [
        make_finite([point(F(1, 2))], label="one"),
        ALIGNED_X,
        make_interval(0, 1, F(1, 3), label="thirds"),
        make_finite([point(0, F(1, 2)), point(F(1, 4), 1), point(1, 0)], label="plane"),
        hyper(make_finite([point(0), point(F(1, 8)), point(F(3, 4))], label="B")),
    ]

    @staticmethod
    def as_table(space, i):
        """The hit as a validated `table` connective at its tight constant."""
        mapping = {(p,): point(1 if j == i else 0) for j, p in enumerate(space.net)}
        tight = tight_lipschitz([space], mapping)
        return tight, table([space], mapping, tight, codomain=make_finite(
            [point(0), point(1)]), name=f"hit[{i}]")

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label)
    def test_closed_form_constant_is_tight(self, space):
        ctx = TranslationContext(signature([Relation("P", 1, ALIGNED_X)]), F(1, 4))
        for i in range(len(space.net)):
            hit = ctx.point_hit(space, i)
            tight, ref = self.as_table(space, i)
            assert hit.lipschitz == tight, i
            assert [hit(p) for p in space.net] == [ref(p) for p in space.net]
            assert ctx.point_hit(space, i) is hit

    @pytest.mark.parametrize("space, off", [
        (ALIGNED_X, point(F(1, 2))),
        (SPACES[4], point(1, F(1, 2), 0)),
        (SPACES[4], point(0, 0, 0)),
    ])
    def test_off_net_input_raises_the_table_text(self, space, off):
        ctx = TranslationContext(signature([Relation("P", 1, ALIGNED_X)]), F(1, 4))
        with pytest.raises(EvalError) as want:
            self.as_table(space, 0)[1](off)
        with pytest.raises(EvalError) as got:
            ctx.point_hit(space, 0)(off)
        assert str(got.value) == str(want.value)

    def test_zero_separation_refused(self):
        class Flat(ValueSpace):
            standard_metric = False

            def metric(self, p, q):
                return ZERO

        flat = Flat(1, (point(0), point(1)), ZERO, "flat")
        ctx = TranslationContext(signature([Relation("P", 1, ALIGNED_X)]), F(1, 4))
        with pytest.raises(ValidationError, match="at distance zero from another net point"):
            ctx.point_hit(flat, 0)


class TestClosedFormConstants:
    """The distance observable of `code_condition` and the separators of
    `urysohn_separator` declare their constants in closed form; a scan of
    every pair of net points finds no steeper slope."""

    @staticmethod
    def random_base(rng):
        dim = rng.choice([1, 2])
        pts = {tuple(F(rng.randint(0, 8), 8) for _ in range(dim))
               for _ in range(rng.randint(1, 5))}
        return make_finite([point(*c) for c in pts], label="B")

    @pytest.mark.parametrize("seed", range(12))
    def test_distance_observable_is_1_lipschitz(self, seed):
        rng = random.Random(seed)
        base = self.random_base(rng)
        sig = signature([Relation("P", 1, base)])
        ctx = translate_signature(sig, F(1, 4))
        for text in ("P(x)", "Q x. P(x)"):
            phi = parse(text, sig)
            space = phi.value_space
            net = list(space.net)
            target = rng.sample(net, rng.randint(1, len(net)))
            dist = code_condition(ctx, phi, target).observable
            assert dist.lipschitz == 1
            mapping = {(q,): dist(q) for q in net}
            assert tight_lipschitz([space], mapping, dist.codomain) <= 1

    @pytest.mark.parametrize("seed", range(12))
    def test_separator_keeps_its_constant(self, seed):
        rng = random.Random(seed)
        base = self.random_base(rng)
        H = hyper(base)
        net = list(H.net)
        for _ in range(6):
            if len(net) < 2:
                break
            k, f = rng.sample(net, 2)
            sep = urysohn_separator(base, decode_subset(H, k), decode_subset(H, f))
            mapping = {(p,): sep(p) for p in base.net}
            assert tight_lipschitz([base], mapping, sep.codomain) <= sep.lipschitz

    def test_condition_on_eight_points_scans_no_pair(self, monkeypatch):
        # the distance observable's constant is taken, not re-checked by a
        # pair scan over the 255 sets of the base
        def scan(*args):
            raise AssertionError("pair scan")

        monkeypatch.setattr(connective, "_steepest_pair", scan)
        X = make_finite([point(F(i, 8)) for i in range(8)], label="X8")
        sig = signature([Relation("P", 1, X)])
        ctx = translate_signature(sig, F(1, 8))
        M = structure(sig, ["a", "b"], {"P": {"a": F(1, 8), "b": F(3, 4)}})
        phi = parse("Q x. P(x)", sig)
        target = compact(X, point(0), point(F(3, 4)))
        cond = code_condition(ctx, phi, target)
        assert cond.budget == 0
        assert (evaluate(transport_structure(ctx, M), cond.formula).scalar
                == check_condition(M, phi, target).distance == F(1, 8))


class TestCodingMemo:
    def test_identity_is_the_first_coordinate_projection(self):
        sig, ctx, _ = aligned_setup()
        coder = code_formula(ctx, parse("sup x. P(x)", sig))
        pi0 = ctx.coordinates(sig.by_name["P"].space)[0]
        assert coder._root(None) is coder._root(pi0)
        assert coder.codes() is coder.codes(pi0)

    def test_fresh_observables_never_reuse_a_coding(self):
        # observables that die after use may be reallocated at the same
        # address; a memo keyed on id() then hands out a stale coding
        sig, ctx, M = aligned_setup()
        N = transport_structure(ctx, M)
        X = sig.by_name["P"].space
        coder = code_formula(ctx, parse("sup x. P(x)", sig))
        for i in range(200):
            c = F(i % 9, 8)
            theta = table([X], {(p,): point(c) for p in X.net}, 0,
                          codomain=make_finite([point(c)]), name="c")
            assert evaluate(N, coder.codes(theta)).scalar == c, i
            assert coder.budget_of(theta) == 0

    def test_capacity_error_deep_in_a_formula_is_raised_again(self):
        # the set coding of Q x. P(x) over a 9-point base is refused after
        # the left argument of m is coded; the memo keeps only finished pairs
        base = make_interval(0, 1, F(1, 8), label="B9")
        sig = signature([Relation("P", 1, base)])
        ctx = TranslationContext(sig, F(1, 8))
        library = {"m": connective.min_of(base, base), "top": sup_theta(identity(base))}
        phi = parse("m(sup y. P(y), top(Q x. P(x)))", sig, library)
        coder = code_formula(ctx, phi)
        message = "^set-quantifier coding is capped at base nets of size 8; B9 has 9$"
        with pytest.raises(CapacityError, match=message) as first:
            coder.codes()
        memo = dict(coder._memo)
        assert [key[0] for key in memo] == [phi.children[0].body, phi.children[0]]
        assert all(type(coded) is Coded for coded in memo.values())
        with pytest.raises(CapacityError, match=message) as second:
            coder.codes()
        assert str(second.value) == str(first.value)
        assert coder._memo == memo


class TestResolutionTerms:
    def test_set_coding_resolution_term_is_load_bearing(self):
        """Off-net values exercise the set coding's resolution term.

        P lies on the thirds and takes every pair of values on the twelfths,
        up to the net's resolution 1/6 off it.  Dropping the set coding's
        term hits[j].lipschitz * base.resolution puts 294 of these 676 cases
        over budget, the first at step 1/4 with P = (0, 1/6) under
        inf(neg): |diff| 1/2 > 1/4.  Dropping only the extremum's slack
        leaves all 676 within budget, so the slack waits for an off-net
        suite.
        """
        X = make_interval(0, 1, F(1, 3))
        sig = signature([Relation("P", 1, X)])
        phi = parse("Q x. P(x)", sig)
        thetas = (sup_theta(neg(X)), inf_theta(neg(X)))
        for step in (F(1, 4), F(1, 64)):
            ctx = TranslationContext(sig, step)
            for a, b in itertools.product(range(13), repeat=2):
                M = structure(sig, ["a", "b"], {"P": {"a": F(a, 12), "b": F(b, 12)}})
                for theta in thetas:
                    check = verify_coding(ctx, M, phi, theta)
                    assert check.ok, (step, a, b, theta.name, check.witness)


class TestRefinement:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_budgets_never_rise_as_the_grid_refines(self, seed):
        # the coding-grid suite's instances, each coded at three nested steps
        cfg = FuzzConfig(seed, universe_size=4, formula_depth=3)
        steps = (F(1, 8), F(1, 32), F(1, 128))
        for i in range(500):
            rng = _rng(cfg, "coding-grid", i)
            sig = random_signature(rng, cfg, grid=True)
            random_structure(cfg, sig, rng)  # drawn to keep the suite's stream
            phi = random_formula(cfg, sig, rng, grid=True)
            theta = random_theta(rng, phi.value_space)
            budgets = [CodedFormula(TranslationContext(sig, s), phi).budget_of(theta)
                       for s in steps]
            assert budgets == sorted(budgets, reverse=True), (i, budgets)


class TestOutputCheck:
    def test_output_that_does_not_fit_the_codomain_is_refused(self):
        # the typecheck settles a connective's inputs; the coder checks each
        # distinct output of an application once
        sig, ctx, M = aligned_setup()
        bad = connective.Connective("bad", (ALIGNED_X,), ALIGNED_X, F(1),
                                    lambda p: point(0, 0))
        coder = code_formula(ctx, Apply(bad, (Atomic("P", ("x",), ALIGNED_X),)))
        with pytest.raises(EvalError, match=re.escape(
                "bad: output (0, 0) does not fit codomain X") + "$"):
            coder.codes()


class TestDeepFormulas:
    """The coder builds every pair in one loop, not by recursion: chains far
    deeper than the recursion limit code with budget 0, and the coded
    formula tabulates on the transported structure as the source does."""

    @staticmethod
    def deep(depth, kind="sup"):
        sig, ctx, M = aligned_setup()
        # neg(X) is valued in another space: two negations alternate
        flips = (neg(ALIGNED_X), neg(neg(ALIGNED_X).codomain))
        phi = Atomic("P", ("x",), ALIGNED_X)
        for i in range(depth):
            # typed as it is built
            phi = Quant(QuantKind.SUP, "x", phi) if kind == "sup" else Apply(flips[i % 2], (phi,))
        return ctx, M, phi

    @staticmethod
    def assert_codes_exactly(ctx, M, phi, read="codes"):
        coder = code_formula(ctx, phi)
        getattr(coder, read)()  # the first read builds every pair
        assert coder.budget_of() == 0
        coded = coder.codes()
        assert coded.value_space == ctx.grid
        N = transport_structure(ctx, M)
        assert tabulate(N, [coded])[0].rows == tabulate(M, [phi])[0].rows

    @pytest.mark.parametrize("read", ["codes", "budget_of"])
    def test_untyped_formula_constructs_and_codes(self, read):
        # no read of the chain comes before the coder: each node got its
        # value space when it was built, so nothing derives it recursively
        # later, and the coder builds the chain without recursion too
        sig, ctx, M = aligned_setup()
        phi = Atomic("P", ("x",), ALIGNED_X)
        for _ in range(5000):
            phi = Quant(QuantKind.SUP, "x", phi)
        assert "value_space" in vars(phi)
        assert phi.value_space == ALIGNED_X
        self.assert_codes_exactly(ctx, M, phi, read)

    @pytest.mark.parametrize("read", ["codes", "budget_of"])
    def test_coding(self, read):
        ctx, M, phi = self.deep(5000)
        self.assert_codes_exactly(ctx, M, phi, read)

    @pytest.mark.parametrize("read", ["codes", "budget_of"])
    def test_negation_chain_codes(self, read):
        ctx, M, phi = self.deep(5000, "neg")
        assert phi.free_vars == {"x"}
        self.assert_codes_exactly(ctx, M, phi, read)

    def test_chain_of_400_extrema_codes(self):
        # each level is one builder on the coder's stack, not a frame
        ctx, M, phi = self.deep(400)
        coder = code_formula(ctx, phi)
        assert coder.budget_of() == 0
        assert coder.codes().value_space == ctx.grid

    def test_parsed_formula(self):
        sig, ctx, M = aligned_setup()
        self.assert_codes_exactly(ctx, M, parse("sup x. " * 900 + "P(x)", sig))

    def test_verifiers_pass_on_a_deep_chain(self):
        # the corruption check bumps the first Apply under the coded chain
        # of quantifiers and rebuilds the chain above it without recursion
        ctx, M, phi = self.deep(5000)
        assert verify_coding(ctx, M, phi).ok
        assert verify_corruption_detected(ctx, M, phi).ok


def _plain_copy(conn):
    """conn as a new connective with its evaluator alone: no coordinate of a
    context and no recorded extremum, so the coder reads it on the net."""
    return connective.Connective(conn.name, conn.domain, conn.codomain, conn.lipschitz,
                                 conn.evaluator)


def _random_base(rng, size):
    pool = [F(k, 8) for k in range(9)] + [F(k, 3) for k in (1, 2)]
    return make_finite([point(v) for v in rng.sample(pool, size)], label="B")


class TestSetsByMask:
    """A coordinate of a `Q` node, an extremum of a set value and a table
    over a hyperspace net are read from subset masks; each equals what its
    observable gives over the built net."""

    SIZES = [1, 2, 3, 4, 5, 6, 7, 8]

    @staticmethod
    def observables(rng, base):
        """psi on the base: the identity, a negation and a random table."""
        values = {(p,): point(F(rng.randint(0, 8), 8)) for p in base.net}
        obs = table([base], values, tight_lipschitz([base], values),
                    codomain=make_finite(set(values.values())), name="obs")
        return [identity(base), neg(base), obs]

    @pytest.mark.parametrize("size", SIZES)
    def test_extremes_by_mask_match_the_extremum_over_the_net(self, size):
        rng = random.Random(f"extremes:{size}")
        for _ in range(4):
            base = _random_base(rng, size)
            H = hyper(base)
            for psi in self.observables(rng, base):
                for extremum in (sup_theta(psi), inf_theta(psi)):
                    assert extremum.extremum[1] is psi
                    got = hyperspace._extremes_by_mask(*extremum.extremum)
                    assert got == [extremum.evaluator(k) for k in H.net]

    @pytest.mark.parametrize("size", SIZES)
    def test_set_table_matches_the_integer_table_of_the_net(self, size):
        rng = random.Random(f"set-table:{size}")
        H = hyper(_random_base(rng, size))
        for _ in range(4):
            values = [F(rng.randint(0, 12), 12) for _ in H.net]
            den, rows = connective._integer_table(
                [(connective.flat_coords((k,)), v) for k, v in zip(H.net, values)])
            assert _net_table([H], values) == (den, rows, connective._tight_constant(rows))

    @pytest.mark.parametrize("size", SIZES)
    def test_coding_by_mask_matches_coding_over_the_net(self, size):
        # each observable of Q x. P(x) and each extremum of it, read by mask,
        # codes to the same formula and budget as a plain copy, which the
        # coder reads on the built net
        rng = random.Random(f"by-mask:{size}")
        base = _random_base(rng, size)
        sig = signature([Relation("P", 1, base)])
        ctx = TranslationContext(sig, F(1, 4))
        M = structure(sig, ["a", "b", "c"], {"P": {e: rng.choice(base.net) for e in "abc"}})
        N = transport_structure(ctx, M)
        Q = parse("Q x. P(x)", sig)
        extrema = [f(psi) for psi in self.observables(rng, base) for f in (sup_theta, inf_theta)]
        cases = [(Q, theta) for theta in ctx.coordinates(Q.value_space) + tuple(extrema)]
        cases += [(Apply(theta, (Q,)), None) for theta in extrema]
        for phi, theta in cases:
            plain = (phi, _plain_copy(theta)) if theta else (
                Apply(_plain_copy(phi.conn), phi.children), None)
            coder, other = code_formula(ctx, phi), code_formula(ctx, plain[0])
            assert str(coder.codes(theta)) == str(other.codes(plain[1]))
            assert coder.budget_of(theta) == other.budget_of(plain[1])
            assert (evaluate(N, coder.codes(theta)).value
                    == evaluate(N, other.codes(plain[1])).value)

    def test_coding_a_set_by_mask_builds_no_indicator_point(self, monkeypatch):
        calls, build = [], hyperspace._indicator

        def counted(bits):
            calls.append(bits)
            return build(bits)

        monkeypatch.setattr(hyperspace, "_indicator", counted)
        base = make_finite([point(F(k, 8)) for k in (0, 1, 3, 6)], label="B")
        sig = signature([Relation("P", 1, base)])
        ctx = TranslationContext(sig, F(1, 8))
        Q = parse("Q x. P(x)", sig)
        coder = code_formula(ctx, Q)
        for theta in ctx.coordinates(Q.value_space):
            assert coder.budget_of(theta) == 0
        for extremum in (sup_theta(neg(base)), inf_theta(identity(base))):
            assert code_formula(ctx, Apply(extremum, (Q,))).budget_of() == 0
        assert calls == []

    def test_one_sup_node_per_hit_read(self):
        base = make_finite([point(F(k, 8)) for k in (0, 2, 5, 8)], label="B")
        sig = signature([Relation("R", 1, base)])
        ctx = TranslationContext(sig, F(1, 8))
        Q = parse("Q v. R(v)", sig)
        obs = table([base], {(p,): point(F(k, 4)) for k, p in zip((1, 3, 0, 2), base.net)},
                    F(4), codomain=make_finite([point(F(k, 4)) for k in range(4)]), name="obs")
        n = len(base.net)

        def sups(phi):
            return {node for node in dag_nodes(phi) if isinstance(node, Quant)
                    and node.kind is QuantKind.SUP}

        coded = code_formula(ctx, Apply(sup_theta(obs), (Q,))).codes()
        # the coordinates are coded through the Q node, each through the
        # hits its lattice reads
        read = {j for k in range(n)
                for j in _hit_lattice(n, [F(m >> (n - 1 - k) & 1) for m in range(1, 1 << n)])[0]}
        assert len(sups(coded)) == len(read) == n
        assert len({str(s) for s in sups(coded)}) == n
        # two observables of one Q node that read the same hit share its node
        coder = code_formula(ctx, Q)
        top, bottom = (sups(coder.codes(f(obs))) for f in (sup_theta, inf_theta))
        assert top and bottom and top & bottom
        assert len({str(s) for s in top | bottom}) == len(top | bottom)


class TestSourceSignature:
    """A formula over another signature is refused at its first symbol."""

    def test_symbol_missing_from_the_source(self):
        sig, ctx, _ = aligned_setup()
        other = signature([Relation("R", 1, ALIGNED_X)])
        with pytest.raises(SpaceMismatch, match="^R: no symbol of arity 1 valued in X in "
                                                "the source signature$"):
            code_formula(ctx, parse("sup x. R(x)", other)).codes()

    def test_symbol_valued_in_another_space(self):
        thirds = make_interval(0, 1, F(1, 3))
        quarters = make_interval(0, 1, F(1, 4))
        ctx = TranslationContext(signature([Relation("P", 1, quarters)]), F(1, 4))
        phi = parse("neg(P(y))", signature([Relation("P", 1, thirds)]),
                    library={"neg": neg(thirds)})
        with pytest.raises(SpaceMismatch, match=re.escape(
                "P: no symbol of arity 1 valued in [0,1]/1/3 in the source signature")):
            code_formula(ctx, phi).codes()

    def test_symbol_of_another_arity(self):
        sig, ctx, _ = aligned_setup()
        other = signature([Relation("P", 2, ALIGNED_X)])
        with pytest.raises(SpaceMismatch, match="^P: no symbol of arity 2"):
            code_formula(ctx, parse("sup x. P(x, y)", other)).codes()


class TestZeroSeparation:
    """A base point at distance zero from another has no separation
    constant: `proj`, `point_hit` and the set coder refuse it with one text."""

    TEXT = "flat: net point (0) is at distance zero from another net point"

    @staticmethod
    def flat():
        class Flat(ValueSpace):
            standard_metric = False

            def metric(self, p, q):
                return ZERO

        return Flat(1, (point(0), point(1)), ZERO, "flat")

    def test_proj_on_its_hyperspace(self):
        with pytest.raises(ValidationError, match=re.escape(self.TEXT)):
            proj(hyper(self.flat()), 0)

    def test_point_hit(self):
        ctx = TranslationContext(signature([Relation("P", 1, ALIGNED_X)]), F(1, 4))
        with pytest.raises(ValidationError, match=re.escape(self.TEXT)):
            ctx.point_hit(self.flat(), 0)

    def test_set_quantifier_coding(self):
        flat = self.flat()
        sig = signature([Relation("P", 1, flat)])
        ctx = TranslationContext(sig, F(1, 4))
        Q = parse("Q x. P(x)", sig)
        zero = table([flat], {(p,): point(0) for p in flat.net}, 0,
                     codomain=make_finite([point(0)]), name="zero")
        # through a coordinate, and through an observable whose lattice
        # reads no hit at all
        for theta in (None, sup_theta(zero)):
            with pytest.raises(ValidationError, match=re.escape(self.TEXT)):
                coder = code_formula(ctx, Q)
                coder.codes(theta or ctx.coordinates(Q.value_space)[0])


class TestContextRefusals:
    @pytest.mark.parametrize("step", [0, 2, F(-1, 2)])
    def test_grid_step_outside_the_unit_interval(self, step):
        sig = signature([Relation("P", 1, ALIGNED_X)])
        with pytest.raises(ValidationError, match=re.escape(f"grid step must be in (0,1], got {step}")):
            TranslationContext(sig, step)

    def test_source_must_be_a_signature(self):
        with pytest.raises(ValidationError, match="^source signature must be a Signature, got int$"):
            TranslationContext(5, F(1, 4))

    @pytest.mark.parametrize("build, message", [
        (lambda ctx, phi: CodedFormula(ctx, 5).codes(), "source formula must be a Formula, got int"),
        (lambda ctx, phi: code_formula(ctx, phi).codes(5), "observable must be a Connective, got int"),
        (lambda ctx, phi: transport_structure(ctx, 5), "structure must be a Structure, got int"),
        (lambda ctx, phi: TranslationContext(ctx.source, 0.1),
         "bad rational 0.1: give an int, a string like '2/3' or a Fraction, not a float"),
    ], ids=["coder-source-int", "observable-int", "transport-int", "step-float"])
    def test_malformed_arguments_refused(self, build, message):
        sig, ctx, _ = aligned_setup()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(ctx, atom(sig, "P", "x"))

    def test_target_symbol_collision(self):
        sig = signature([Relation("P", 1, ALIGNED_X), Relation("P_0", 1, ALIGNED_X)])
        with pytest.raises(ValidationError,
                           match="^target symbol 'P_0' collides with an existing name$"):
            TranslationContext(sig, F(1, 4))


@pytest.mark.parametrize("steps", [*CodedFormula._BUILDERS.values(), _Parser.formula],
                         ids=lambda f: f.__name__)
def test_step_annotations_name_a_generator(steps):
    """The coder's builders and the parser are generators, and say so in
    annotations that resolve: `Generator`, the lattice dataclass, does not
    shadow `typing.Generator` in them."""
    returns = typing.get_type_hints(steps)["return"]
    assert typing.get_origin(returns) is collections.abc.Generator
