import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from contlog import oracle, semantics
from contlog.errors import SpaceMismatch, ValidationError
from contlog.formula import Apply, QuantKind, Relation, atom, parse, signature
from contlog.connective import Connective, const, identity, neg, table, tight_lipschitz
from contlog.oracle import (
    EXACT_STEP,
    PSEUDOMETRIC_LAWS,
    SUITES,
    FuzzConfig,
    _FormulaBuilder,
    fuzz,
    pseudometric_violation,
    random_metric_structure,
    random_signature,
    random_space,
    random_structure,
    random_theta,
    run_coding_trials,
    run_quantifier_trials,
    run_suite,
    summarize,
    verify_coding,
    verify_corruption_detected,
    verify_limit_declaration,
    verify_quantifier,
    verify_quantifier_identity,
    verify_primordial_bounds,
)
from contlog.semantics import Structure, check_pseudometric, structure, zero_distance_classes
from contlog.translate import TranslationContext, transport_structure
from contlog.valuespace import make_finite, make_interval, point


CFG = FuzzConfig(seed=20260816)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValidationError, match="universe_size"):
            FuzzConfig(seed=1, universe_size=0)
        with pytest.raises(ValidationError, match="universe_size"):
            FuzzConfig(seed=1, universe_size=7)
        with pytest.raises(ValidationError, match="formula_depth"):
            FuzzConfig(seed=1, formula_depth=5)
        with pytest.raises(ValidationError, match="net_size"):
            FuzzConfig(seed=1, net_size=0)
        with pytest.raises(ValidationError, match="trials"):
            FuzzConfig(seed=1, trials=0)
        with pytest.raises(ValidationError, match="tol"):
            FuzzConfig(seed=1, tol=-1)
        with pytest.raises(ValidationError, match="seed"):
            FuzzConfig(seed="not-a-seed")

    @pytest.mark.parametrize("fields, message", [
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"seed": 1, "trials": 3 / 2}, "trials must be a positive integer"),
        ({"seed": 1, "trials": True}, "trials must be a positive integer"),
        ({"seed": 1, "universe_size": 1.5}, r"universe_size must be in 1\.\.6"),
        ({"seed": 1, "formula_depth": "2"}, r"formula_depth must be in 0\.\.4"),
        ({"seed": 1, "net_size": True}, r"net_size must be in 1\.\.5"),
    ], ids=["seed-bool", "seed-float", "trials-float", "trials-bool", "universe-float",
            "depth-str", "net-bool"])
    def test_integer_fields(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FuzzConfig(**fields)

    def test_tol_coerced(self):
        assert FuzzConfig(seed=1, tol="1/8").tol == F(1, 8)


class TestGenerators:
    def test_spaces_land_on_the_exact_pool(self):
        rng = random.Random(7)
        for _ in range(20):
            X = random_space(rng, CFG)
            assert 1 <= len(X.net) <= CFG.net_size
            for p in X.net:
                assert p.coords[0].denominator in (1, 2, 4, 8)

    def test_grid_spaces_are_misaligned_intervals(self):
        rng = random.Random(7)
        for _ in range(20):
            X = random_space(rng, CFG, grid=True)
            assert X.net[0] == point(0) and X.net[-1] == point(1)

    def test_structures_are_total_and_on_net(self):
        rng = random.Random(3)
        sig = random_signature(rng, CFG)
        M = random_structure(CFG, sig, rng)
        for rel in sig.relations:
            tab = M.interp[rel.name]
            assert len(tab) == len(M.universe) ** rel.arity
            for v in tab.values():
                assert v in rel.space.net

    def test_metric_structures_pass_the_checker(self):
        for i in range(10):
            M = random_metric_structure(CFG, random.Random(i))
            assert check_pseudometric(M).ok

    def test_forced_classes_collapse(self):
        M = random_metric_structure(CFG, random.Random(5), force_classes=True)
        assert any(len(c) > 1 for c in zero_distance_classes(M))


class TestVerifiers:
    def setup_method(self):
        X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))])
        self.sig = signature([Relation("P", 1, X)])
        self.M = structure(self.sig, ["a", "b"],
                           {"P": {"a": F(1, 4), "b": F(3, 4)}})

    def test_coding_on_aligned_instance(self):
        ctx = TranslationContext(self.sig, EXACT_STEP)
        phi = atom(self.sig, "P", "x")
        check = verify_coding(ctx, self.M, phi)
        assert check.ok and check.budget == 0 and check.max_difference == 0
        assert check.checked == 2  # one per assignment of x

    def test_quantifier_identity_by_hand(self):
        body = atom(self.sig, "P", "q")
        check = verify_quantifier_identity(self.M, body)
        assert check.ok and check.checked == 1
        assert verify_primordial_bounds(self.M, body).ok

    def test_theta_runs_once_per_distinct_body_value(self):
        X = self.sig.by_name["P"].space
        sig = signature([Relation("R", 2, X)])
        # R takes the values 0, 1/4 and 3/4 over its nine rows
        M = structure(sig, ["a", "b", "c"], {"R": {
            "a,a": F(1, 4), "a,b": F(3, 4), "a,c": F(1, 4),
            "b,a": 0, "b,b": F(3, 4), "b,c": F(3, 4),
            "c,a": 0, "c,b": 0, "c,c": F(1, 4)}})
        flip = {point(0): point(F(1, 4)), point(F(1, 4)): point(F(3, 4)),
                point(F(3, 4)): point(F(1, 4))}
        calls = []

        def run(p):
            calls.append(p)
            return flip[p]

        theta = Connective("count", (X,), X, F(2), run)
        check = verify_quantifier_identity(M, atom(sig, "R", "p", "q"), theta, var="q")
        assert check.ok and check.checked == 3
        assert sorted(calls) == [point(0), point(F(1, 4)), point(F(3, 4))]

    def test_identity_refuses_an_observable_off_the_body_space(self):
        other = make_finite([point(0), point(1)])
        body = atom(self.sig, "P", "q")
        with pytest.raises(SpaceMismatch, match="does not accept values of"):
            verify_quantifier_identity(self.M, body, identity(other))

    def test_identity_needs_a_lone_variable(self):
        from contlog.connective import max_of
        from contlog.formula import Apply

        u = self.sig.by_name["P"].space
        two_frees = Apply(max_of(u, u),
                          (atom(self.sig, "P", "q"), atom(self.sig, "P", "r")))
        with pytest.raises(ValidationError, match="pass var="):
            verify_quantifier_identity(self.M, two_frees)
        # naming the variable resolves the ambiguity
        assert verify_quantifier_identity(self.M, two_frees, var="q").ok

    def test_corruption_is_detected(self):
        ctx = TranslationContext(self.sig, EXACT_STEP)
        phi = atom(self.sig, "P", "x")
        check = verify_corruption_detected(ctx, self.M, phi)
        assert check.ok  # ok == the planted shift was caught
        assert check.witness is not None and "shift" in check.witness

    def test_set_quantifier_faults_are_witnessed(self, monkeypatch):
        # plant a fault: every set row of `Q` loses its largest member
        reduce = semantics._reduce

        def faulty(node, body_vars, sizes, body, values):
            out = reduce(node, body_vars, sizes, body, values)
            if node.kind is not QuantKind.SET:
                return out
            # a mask of two members or more loses its lowest bit, the
            # member of the largest base index
            return [m & m - 1 or m for m in out]

        monkeypatch.setattr(semantics, "_reduce", faulty)
        X = self.sig.by_name["P"].space
        sig = signature([Relation("R", 2, X)])
        M = structure(sig, ["a", "b"], {"R": {"a,a": 0, "a,b": F(3, 4),
                                              "b,a": F(1, 4), "b,b": F(1, 4)}})
        body = atom(sig, "R", "p", "q")
        # p = a has the set {0, 3/4}, which the fault cuts to {0}; p = b has {1/4}
        identity = verify_quantifier_identity(M, body, var="q")
        assert not identity.ok and identity.checked == 2
        assert identity.witness == {"assignment": {"p": "a"}, "via_set": "0", "direct": "3/4"}
        bounds = verify_primordial_bounds(M, body, var="q")
        assert not bounds.ok and bounds.checked == 2
        assert bounds.witness == {"assignment": {"p": "a"}, "set_max": "0", "sup": "3/4",
                                  "set_min": "0", "inf": "0"}
        monkeypatch.undo()
        assert verify_quantifier_identity(M, body, var="q").ok
        assert verify_primordial_bounds(M, body, var="q").ok

    def test_values_off_the_net_pass_both_checks(self):
        # 1/6 and 1/2 lie within resolution 1/6 of the thirds, and Q snaps
        # them down to 0 and 1/3, where sup and inf read them as they are
        X = make_interval(0, 1, F(1, 3))
        sig = signature([Relation("P", 1, X)])
        M = structure(sig, ["a", "b"], {"P": {"a": F(1, 6), "b": F(1, 2)}})
        body = atom(sig, "P", "x")
        calls = []

        def run(p):
            calls.append(p)
            return neg(X).evaluator(p)

        theta = Connective("neg", (X,), X, F(1), run)
        assert verify_quantifier_identity(M, body, theta, var="x").ok
        # theta was read at the snapped members, which the body never takes
        assert {point(0), point(F(1, 3))} <= set(calls)
        assert verify_primordial_bounds(M, body, var="x").ok

    def test_set_quantifier_faults_are_witnessed_off_the_net(self, monkeypatch):
        # the fault of the test above, on values Q snaps: p = a has the set
        # {0, 1} (1/6 snaps to 0), which the fault cuts to {0}; p = b has
        # {1/3} (1/2 snaps down), which differs from sup and inf unsnapped
        reduce = semantics._reduce

        def faulty(node, body_vars, sizes, body, values):
            out = reduce(node, body_vars, sizes, body, values)
            if node.kind is not QuantKind.SET:
                return out
            # a mask of two members or more loses its lowest bit, the
            # member of the largest base index
            return [m & m - 1 or m for m in out]

        X = make_interval(0, 1, F(1, 3))
        sig = signature([Relation("R", 2, X)])
        M = structure(sig, ["a", "b"], {"R": {"a,a": F(1, 6), "a,b": 1,
                                              "b,a": F(1, 2), "b,b": F(1, 2)}})
        body = atom(sig, "R", "p", "q")
        assert verify_quantifier_identity(M, body, var="q").ok
        assert verify_primordial_bounds(M, body, var="q").ok
        monkeypatch.setattr(semantics, "_reduce", faulty)
        identity = verify_quantifier_identity(M, body, var="q")
        assert not identity.ok and identity.checked == 2
        assert identity.witness == {"assignment": {"p": "a"}, "via_set": "0", "direct": "1"}
        bounds = verify_primordial_bounds(M, body, var="q")
        assert not bounds.ok and bounds.checked == 2
        assert bounds.witness == {"assignment": {"p": "a"}, "set_max": "0", "sup": "1",
                                  "set_min": "0", "inf": "1/6"}

    @pytest.mark.parametrize("net", ["on", "off"])
    @pytest.mark.parametrize("kind", [QuantKind.SUP, QuantKind.INF])
    def test_sup_and_inf_faults_are_witnessed(self, monkeypatch, kind, net):
        # plant a fault: the direct quantifier of one kind reduces as the
        # other; p = a takes two values, so its row swaps its sup and inf
        reduce = semantics._reduce
        other = QuantKind.INF if kind is QuantKind.SUP else QuantKind.SUP

        def faulty(node, body_vars, sizes, body, values):
            if node.kind is kind:
                node = replace(node, kind=other)
            return reduce(node, body_vars, sizes, body, values)

        if net == "on":
            X = self.sig.by_name["P"].space
            low, high, b = F(1, 4), F(3, 4), F(1, 4)
        else:
            # 1/6 snaps to 0 for Q, and 1/2 to 1/3
            X = make_interval(0, 1, F(1, 3))
            low, high, b = F(1, 6), F(1), F(1, 2)
        sig = signature([Relation("R", 2, X)])
        M = structure(sig, ["a", "b"], {"R": {"a,a": low, "a,b": high, "b,a": b, "b,b": b}})
        body = atom(sig, "R", "p", "q")
        set_min = low if net == "on" else F(0)
        monkeypatch.setattr(semantics, "_reduce", faulty)
        sup, inf = (low, low) if kind is QuantKind.SUP else (high, high)
        bounds = verify_primordial_bounds(M, body, var="q")
        assert not bounds.ok and bounds.checked == 2
        assert bounds.witness == {"assignment": {"p": "a"}, "set_max": str(high),
                                  "sup": str(sup), "set_min": str(set_min), "inf": str(inf)}
        # the identity check reads the direct sup only
        identity = verify_quantifier_identity(M, body, var="q")
        if kind is QuantKind.SUP:
            assert not identity.ok
            assert identity.witness == {"assignment": {"p": "a"}, "via_set": str(high),
                                        "direct": str(low)}
        else:
            assert identity.ok

    def test_snapping_faults_are_witnessed(self, monkeypatch):
        # plant a fault: Q breaks a tie between two net points upward; 1/6
        # and 1/2 lie halfway between thirds, so the set is {1/3, 2/3}
        snap = semantics._snap_index

        def ties_up(base, p):
            i = snap(base, p)
            q, up = base.net[i], base.net[i + 1:i + 2]
            if q != p and up and base.metric(p, up[0]) == base.metric(p, q):
                return i + 1
            return i

        X = make_interval(0, 1, F(1, 3))
        sig = signature([Relation("P", 1, X)])
        M = structure(sig, ["a", "b"], {"P": {"a": F(1, 6), "b": F(1, 2)}})
        body = atom(sig, "P", "x")
        monkeypatch.setattr(semantics, "_snap_index", ties_up)
        identity = verify_quantifier_identity(M, body, neg(X), var="x")
        assert identity.witness == {"assignment": {}, "via_set": "2/3", "direct": "5/6"}
        bounds = verify_primordial_bounds(M, body, var="x")
        assert bounds.witness == {"assignment": {}, "set_max": "2/3", "sup": "1/2",
                                  "set_min": "1/3", "inf": "1/6"}

    def test_coding_faults_are_witnessed(self, monkeypatch):
        # plant a fault: transport snaps every value one grid step down
        def faulty(ctx, M):
            N = transport_structure(ctx, M)
            down = {name: {t: point(max(F(0), v.scalar - ctx.step)) for t, v in rows.items()}
                    for name, rows in N.interp.items()}
            return Structure(N.signature, N.universe, down)

        monkeypatch.setattr(oracle, "transport_structure", faulty)
        ctx = TranslationContext(self.sig, EXACT_STEP)
        phi = atom(self.sig, "P", "x")
        check = verify_coding(ctx, self.M, phi)
        assert not check.ok and check.checked == 2
        assert check.budget == 0 and check.max_difference == F(1, 8)
        # a reads 1/4, transported to 1/8; the coded identity reads it back
        assert check.witness == {"assignment": {"x": "a"}, "target_value": "1/8",
                                 "source_value": "1/4", "difference": "1/8", "budget": "0"}
        monkeypatch.undo()
        assert verify_coding(ctx, self.M, phi).ok

    @pytest.mark.parametrize("verify", [verify_coding, verify_corruption_detected])
    def test_negative_tolerance_rejected(self, verify):
        ctx = TranslationContext(self.sig, EXACT_STEP)
        phi = atom(self.sig, "P", "x")
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            verify(ctx, self.M, phi, tol=F(-1, 4))


def _plant(monkeypatch, fault):
    """The planted evaluation faults of `TestVerifiers`, by name."""
    reduce, snap = semantics._reduce, semantics._snap_index
    if fault == "drop-largest":  # every set row of `Q` loses its largest member
        def faulty(node, body_vars, sizes, body, values):
            out = reduce(node, body_vars, sizes, body, values)
            if node.kind is not QuantKind.SET:
                return out
            # a mask of two members or more loses its lowest bit, the
            # member of the largest base index
            return [m & m - 1 or m for m in out]

        monkeypatch.setattr(semantics, "_reduce", faulty)
    elif fault in ("sup-as-inf", "inf-as-sup"):  # one direct kind reduces as the other
        kind, other = ((QuantKind.SUP, QuantKind.INF) if fault == "sup-as-inf"
                       else (QuantKind.INF, QuantKind.SUP))

        def swapped(node, body_vars, sizes, body, values):
            if node.kind is kind:
                node = replace(node, kind=other)
            return reduce(node, body_vars, sizes, body, values)

        monkeypatch.setattr(semantics, "_reduce", swapped)
    elif fault == "ties-up":  # `Q` breaks a tie between two net points upward
        def ties_up(base, p):
            i = snap(base, p)
            q, up = base.net[i], base.net[i + 1:i + 2]
            if q != p and up and base.metric(p, up[0]) == base.metric(p, q):
                return i + 1
            return i

        monkeypatch.setattr(semantics, "_snap_index", ties_up)


class TestOneQuantifierCheck:
    """`verify_quantifier` decides both criteria in one call, and the two
    verifiers are its views."""

    @staticmethod
    def views(M, body, theta, var):
        return {"identity": verify_quantifier_identity(M, body, theta, var),
                "primordial": verify_primordial_bounds(M, body, var)}

    def test_one_call_equals_the_two_views_on_random_instances(self, monkeypatch):
        real, instances = oracle.verify_quantifier, []

        def spy(M, body, theta, var, checks):
            instances.append((M, body, theta, var))
            return real(M, body, theta, var, checks)

        monkeypatch.setattr(oracle, "verify_quantifier", spy)
        records = run_suite("quantifier", FuzzConfig(seed=4203, universe_size=5,
                                                     formula_depth=3, trials=60))
        monkeypatch.undo()
        assert len(instances) == len(records) == 60
        for M, body, theta, var in instances:
            assert verify_quantifier(M, body, theta, var) == self.views(M, body, theta, var)

    @pytest.mark.parametrize("fault", ["drop-largest", "sup-as-inf", "inf-as-sup", "ties-up"])
    @pytest.mark.parametrize("net", ["on", "off"])
    def test_one_call_equals_the_two_views_under_planted_faults(self, monkeypatch, fault, net):
        if net == "on":
            X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))])
            rows = {"a,a": 0, "a,b": F(3, 4), "b,a": F(1, 4), "b,b": F(1, 4)}
        else:
            # 1/6 and 1/2 lie halfway between thirds, which `Q` snaps them to
            X = make_interval(0, 1, F(1, 3))
            rows = {"a,a": F(1, 6), "a,b": 1, "b,a": F(1, 2), "b,b": F(1, 2)}
        M = structure(signature([Relation("R", 2, X)]), ["a", "b"], {"R": rows})
        body = atom(M.signature, "R", "p", "q")
        _plant(monkeypatch, fault)
        found = set()
        for theta in (None, neg(X)):
            both = verify_quantifier(M, body, theta, "q")
            assert both == self.views(M, body, theta, "q")
            found |= {name for name, check in both.items() if not check.ok}
        # every fault but a tie on the net is witnessed
        assert found if (fault, net) != ("ties-up", "on") else not found

    def test_a_body_connective_runs_once_per_argument_tuple(self):
        X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))])
        M = structure(signature([Relation("R", 2, X)]), ["a", "b", "c"], {"R": {
            "a,a": F(1, 4), "a,b": F(3, 4), "a,c": F(1, 4),
            "b,a": 0, "b,b": F(3, 4), "b,c": F(3, 4),
            "c,a": 0, "c,b": 0, "c,c": F(1, 4)}})
        calls = []

        def run(p):
            calls.append(p)
            return neg(X).evaluator(p)

        flip = neg(X)
        body = Apply(Connective("count", (X,), flip.codomain, F(1), run),
                     (atom(M.signature, "R", "p", "q"),))
        both = verify_quantifier(M, body, var="q")
        assert all(check.ok for check in both.values())
        # R takes 0, 1/4 and 3/4: one call each
        assert sorted(calls) == [point(0), point(F(1, 4)), point(F(3, 4))]
        calls.clear()
        assert self.views(M, body, None, "q") == both
        assert sorted(calls) == sorted([point(0), point(F(1, 4)), point(F(3, 4))] * 2)

    def test_unknown_checks_are_refused_before_any_work(self):
        X = make_finite([point(0), point(1)])
        M = structure(signature([Relation("P", 1, X)]), ["a"], {"P": {"a": 1}})
        body = atom(M.signature, "P", "x")
        assert set(verify_quantifier(M, body, checks=("primordial", "typo"))) == {"primordial"}
        with pytest.raises(ValidationError, match="no known checks"):
            verify_quantifier(M, body, checks=("typo",))


class TestWitnesses:
    """Each witness of the limit, quotient and refinement checks, reached by
    a planted fault."""

    # the limit trial's sequence: c +- 1/2^(k+3) around c = 1/2, at rate
    # 1/2^(n+2); at tolerance 1/16 the least adequate index is 2
    LIMIT_VALUES = [F(5, 8), F(7, 16), F(17, 32), F(31, 64), F(65, 128)]

    def limit_instance(self):
        space = make_finite([point(v) for v in self.LIMIT_VALUES])
        formulas = [Apply(const(point(v), space), ()) for v in self.LIMIT_VALUES]
        M = structure(signature([Relation("R", 1, space)]), ["e0"], {"R": {"e0": F(5, 8)}})
        return M, formulas

    def verify_limit(self, rate=lambda n: F(1, 2 ** (n + 2))):
        M, formulas = self.limit_instance()
        return verify_limit_declaration(M, formulas, rate, F(1, 16), true_limit=F(1, 2))

    def test_an_honest_limit_passes(self):
        check = self.verify_limit()
        assert check.ok and check.checked == 5 and check.witness is None

    def test_limit_pair_gap_above_the_rate(self):
        # a declared rate four times too fast: the first pair already breaks it
        check = self.verify_limit(lambda n: F(1, 2 ** (n + 4)))
        assert not check.ok
        assert check.witness == {"pair": "0,1", "gap": "3/16", "rate": "1/16"}

    @staticmethod
    def plant_truncation(monkeypatch, body_at, index_at):
        # plant a fault: the truncation wraps formula body_at(N) at index
        # index_at(N), where N is the least adequate index
        real = oracle.cauchy_limit

        def faulty(rate, formulas, tol):
            lim = real(rate, formulas, tol)
            return replace(lim, body=formulas[body_at(lim.index)], index=index_at(lim.index))

        monkeypatch.setattr(oracle, "cauchy_limit", faulty)

    def test_limit_wrong_index(self, monkeypatch):
        self.plant_truncation(monkeypatch, lambda n: n + 1, lambda n: n + 1)
        check = self.verify_limit()
        assert not check.ok and check.witness == {"index": "3", "expected": "2"}

    def test_limit_wrapped_value_differs_from_the_direct_one(self, monkeypatch):
        self.plant_truncation(monkeypatch, lambda n: n + 1, lambda n: n)
        check = self.verify_limit()
        assert not check.ok and check.witness == {"wrapped": "31/64", "direct": "17/32"}

    def test_limit_value_off_the_true_limit(self, monkeypatch):
        # plant a fault: evaluation reads every value 1/8 too high, so the
        # gaps, the index and the wrapper all still agree
        real = oracle.evaluate
        monkeypatch.setattr(oracle, "evaluate",
                            lambda M, phi: point(real(M, phi).scalar + F(1, 8)))
        check = self.verify_limit()
        assert not check.ok
        assert check.witness == {"value": "21/32", "limit": "1/2", "tol": "1/16"}

    def test_quotient_value_witness(self, monkeypatch):
        # plant a fault: the quotient reads R as the least pool value at
        # every class; the trial's formula is R(x)
        real = oracle.quotient

        def faulty(M):
            Mq = real(M)
            low = Mq.signature.by_name["R"].space.net[0]
            interp = {**Mq.interp, "R": {t: low for t in Mq.interp["R"]}}
            return Structure(Mq.signature, Mq.universe, interp)

        monkeypatch.setattr(oracle, "random_formula",
                            lambda cfg, sig, rng, **kw: atom(sig, "R", "x"))
        records = run_suite("quotient", FuzzConfig(seed=11, trials=2))
        assert all(r.ok for r in records)
        monkeypatch.setattr(oracle, "quotient", faulty)
        records = run_suite("quotient", FuzzConfig(seed=11, trials=2))
        assert [r.ok for r in records] == [False, False]
        assert [r.witness for r in records] == [
            {"assignment": {"x": "e0"}, "value": "(1)", "quotient_value": "(0)"},
            {"assignment": {"x": "e0"}, "value": "(5/8)", "quotient_value": "(0)"},
        ]

    def test_quotient_without_a_collapse_is_witnessed(self, monkeypatch):
        # plant a fault: the generator no longer forces a zero-distance
        # class, so a trial can pass without collapsing anything
        real = oracle.random_metric_structure
        monkeypatch.setattr(oracle, "random_metric_structure",
                            lambda cfg, rng, **kw: real(cfg, rng))
        records = run_suite("quotient", FuzzConfig(seed=11, trials=2))
        assert [r.ok for r in records] == [False, True]
        assert records[0].witness == {"classes": "(('e0',), ('e1',), ('e2',))"}

    def test_refinement_drift_witness(self, monkeypatch):
        # plant a fault: the coarse error bound reads zero; the trial's
        # formula is its first relation at its variables
        monkeypatch.setattr(oracle, "random_formula", lambda cfg, sig, rng, **kw: atom(
            sig, sig.relations[0].name, *("x", "y")[:sig.relations[0].arity]))
        records = run_suite("refinement", FuzzConfig(seed=11, trials=2))
        assert all(r.ok for r in records)
        monkeypatch.setattr(oracle, "eval_error_bound", lambda phi: F(0))
        records = run_suite("refinement", FuzzConfig(seed=11, trials=2))
        assert [r.ok for r in records] == [False, False]
        assert [r.witness for r in records] == [
            {"assignment": {"x": "e0", "y": "e1"}, "drift": "1/6", "bound": "0"},
            {"assignment": {"x": "e3"}, "drift": "1/4", "bound": "0"},
        ]


class TestDrivers:
    def test_each_driver_runs_clean(self):
        cfg = FuzzConfig(seed=11, trials=8)
        for name, _, _ in SUITES:
            records = run_suite(name, cfg)
            assert len(records) == 8
            bad = [r for r in records if not r.ok]
            assert not bad, (name, bad[0].as_json() if bad else None)

    def test_exact_coding_must_have_zero_budget(self, monkeypatch):
        # plant a fault: the coder charges half a grid step of snap on nets
        # that sit on the grid, so exact trials pass their check with a
        # positive budget
        monkeypatch.setattr(TranslationContext, "space_snap_bound",
                            lambda self, space: self.step / 2)
        cfg = FuzzConfig(seed=11, trials=8)
        records = run_suite("coding-exact", cfg)
        bad = [r for r in records if not r.ok]
        assert [r.trial for r in bad] == [0, 3, 4, 7]
        assert bad[0].witness == {"budget": "1/2", "difference": "0"}
        for r in bad:
            assert r.detail == "exact trial must have zero budget and zero difference"
            assert set(r.witness) == {"budget", "difference"}
            assert F(r.witness["budget"]) > 0 and r.witness["difference"] == "0"
        monkeypatch.undo()
        assert all(r.ok for r in run_suite("coding-exact", cfg))

    def test_grid_coding_runs_clean(self):
        records = run_suite("coding-grid", FuzzConfig(seed=12, trials=8))
        assert all(r.ok for r in records)

    def test_trials_override(self):
        assert len(run_suite("roundtrip", replace(CFG, trials=3))) == 3

    def test_determinism(self):
        a = run_suite("coding-exact", FuzzConfig(seed=99, trials=5))
        b = run_suite("coding-exact", FuzzConfig(seed=99, trials=5))
        assert [r.as_json() for r in a] == [r.as_json() for r in b]

    def test_records_shape(self):
        r = run_suite("quantifier", replace(CFG, trials=1))[0]
        doc = r.as_json()
        assert doc["kind"] == "quantifier" and doc["trial"] == 0
        assert set(doc) >= {"kind", "trial", "ok", "detail", "sizes"}
        assert "witness" not in doc  # only failures carry one here

    def test_quantifier_checks_split(self):
        both = run_quantifier_trials(replace(CFG, trials=4))
        ident = run_quantifier_trials(replace(CFG, trials=4), checks=("identity",))
        prim = run_quantifier_trials(replace(CFG, trials=4), checks=("primordial",))
        assert all(r.ok for r in both + ident + prim)
        # same instances underneath: the size fingerprints agree
        assert [r.sizes for r in ident] == [r.sizes for r in both]
        assert [r.sizes for r in prim] == [r.sizes for r in both]

    def test_quantifier_checks_must_name_one(self):
        with pytest.raises(ValidationError, match="no known checks"):
            run_quantifier_trials(replace(CFG, trials=1), checks=("typo",))

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match=r"no such suites: \['nonsense'\]"):
            run_suite("nonsense", CFG)

    def test_views_are_the_suites(self):
        # the two views the benchmark's checks call run the suites' own trials
        cfg = FuzzConfig(seed=13, trials=4)
        for name, records in (("coding-exact", run_coding_trials(cfg)),
                              ("coding-grid", run_coding_trials(cfg, grid=True)),
                              ("quantifier", run_quantifier_trials(cfg))):
            assert records == run_suite(name, cfg)


class TestPlantedViolations:
    @pytest.mark.parametrize("law", PSEUDOMETRIC_LAWS)
    def test_each_law_is_caught_by_name(self, law):
        for i in range(5):
            M, named = pseudometric_violation(CFG, random.Random(i), law)
            assert named == law
            report = check_pseudometric(M)
            assert not report.ok
            assert any(f.startswith(law) for f in report.failures), report.failures

    def test_unknown_law(self):
        with pytest.raises(ValidationError, match="unknown pseudometric law"):
            pseudometric_violation(CFG, random.Random(0), "frobnication")


class TestSuiteRunner:
    def test_every_suite_gets_a_slice(self):
        cfg = FuzzConfig(seed=5, trials=len(SUITES))
        records = fuzz(cfg)
        assert {r.kind for r in records} == {name for name, _, _ in SUITES}
        assert len(records) == cfg.trials

    def test_weighted_split(self):
        cfg = FuzzConfig(seed=5, trials=10)
        records = fuzz(cfg, kinds=["coding-exact", "quantifier"])
        counts = summarize(records)["by_kind"]
        assert counts["coding-exact"]["trials"] == 6  # 10 * 30 // 50
        assert counts["quantifier"]["trials"] == 4

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="no such suites"):
            fuzz(CFG, kinds=["nonsense"])

    def test_unknown_suite_beside_a_known_one(self):
        # a typo next to a real suite is refused, not silently dropped
        with pytest.raises(ValidationError, match=r"no such suites: \['typo'\]"):
            fuzz(CFG, kinds=["quantifier", "typo"])

    def test_summary_shape(self):
        records = fuzz(FuzzConfig(seed=5, trials=10), kinds=["roundtrip"])
        s = summarize(records)
        assert s["trials"] == 10 and s["failures"] == 0
        assert s["by_kind"]["roundtrip"] == {"trials": 10, "failures": 0}


class TestDirectTables:
    """The generator builds its observables and squashes at their measured
    constant without `table`'s checks; each must equal the checked table."""

    @staticmethod
    def _assert_equals_its_table(conn):
        [space] = conn.domain
        mapping = {(p,): conn(p) for p in space.net}
        checked = table(space, mapping, conn.lipschitz, conn.codomain, name=conn.name)
        assert conn.lipschitz == tight_lipschitz(space, mapping)
        assert conn.codomain == make_finite(set(mapping.values()))
        for p in space.net:
            assert conn(p) == checked(p)

    def test_observables(self):
        rng = random.Random(11)
        built = 0
        for _ in range(80):
            space = random_space(rng, CFG, dim=rng.choice([1, 1, 2]))
            theta = random_theta(rng, space)
            if theta.name == "obs":
                self._assert_equals_its_table(theta)
                built += 1
        assert built >= 40

    def test_squashes(self):
        rng = random.Random(12)
        sig = signature([Relation("P", 1, make_finite([point(F(k, 8)) for k in range(9)]))])
        builder = _FormulaBuilder(CFG, sig, rng, grid=False, stable=False)
        for _ in range(30):
            squashed = builder._shrink(atom(sig, "P", "x"))
            assert squashed.conn.name == "squash"
            self._assert_equals_its_table(squashed.conn)


def _compare_by_assignments(M, phi, theta, N, coded, limit):
    """`oracle._compare` as a loop over the assignments, each reading one
    row of each table by its elements: (checked, worst, first)."""
    asgs = oracle._assignments(M, phi.free_vars, None)
    [source] = semantics.tabulate(M, [phi])
    [target] = semantics.tabulate(N, [coded])
    compared, first = {}, None
    for asg in asgs:
        pair = source.at(asg), target.at(asg)
        if pair not in compared:
            p, q = pair
            rhs = theta(p).scalar if theta is not None else p.scalar
            compared[pair] = (q.scalar, rhs, abs(q.scalar - rhs))
        lhs, rhs, diff = compared[pair]
        if diff > limit and first is None:
            first = (asg, lhs, rhs, diff)
    return len(asgs), max((row[2] for row in compared.values()), default=F(0)), first


class TestCompareColumns:
    """The coding check compares two columns in row order; it equals the
    loop over assignments field by field, witness included."""

    @pytest.mark.parametrize("seed", [4101, 4102])
    @pytest.mark.parametrize("grid", [False, True], ids=["exact", "grid"])
    def test_columns_match_the_assignment_loop(self, seed, grid):
        cfg = FuzzConfig(seed=seed, universe_size=5, formula_depth=3)
        fewer = later = 0
        for i in range(80):
            rng = oracle._rng(cfg, "coding-grid" if grid else "coding-exact", i)
            sig = random_signature(rng, cfg, grid=grid)
            M = random_structure(cfg, sig, rng)
            phi = oracle.random_formula(cfg, sig, rng, grid=grid)
            theta = random_theta(rng, phi.value_space)
            ctx = TranslationContext(sig, oracle.GRID_TRANSLATION_STEP if grid else EXACT_STEP)
            target, budget, limit, N = oracle._coding_setup(ctx, M, phi, theta, 0)
            fewer += target.free_vars != phi.free_vars
            bad = oracle._bump_first_apply(target, F(1, 4), ctx.grid)
            for coded in (target, bad):
                checked, worst, _ = oracle._compare(M, phi, theta, N, coded, limit)
                # the budget, and limits that put the first row over, or a later one
                for lim in (limit, F(-1), worst / 2, worst):
                    got = oracle._compare(M, phi, theta, N, coded, lim)
                    assert got == _compare_by_assignments(M, phi, theta, N, coded, lim), i
                    later += got[2] is not None and got[2][0] != dict.fromkeys(
                        phi.free_vars, M.universe[0])
        assert later > 0
        assert fewer > 0 or grid

    def test_coded_root_over_fewer_variables(self):
        # an observable of inf over a one-point net, other than the
        # identity, codes to a constant, which has no variable
        S = make_finite([point(F(1, 2))], label="S")
        sig = signature([Relation("S", 1, S)])
        M = structure(sig, ["a", "b", "c"], {"S": {e: F(1, 2) for e in "abc"}})
        phi = parse("inf v1. S(x0)", sig)
        theta = table([S], {(point(F(1, 2)),): point(F(1, 4))}, 0,
                      codomain=make_finite([point(F(1, 4))]), name="quarter")
        ctx = TranslationContext(sig, EXACT_STEP)
        target, _, limit, N = oracle._coding_setup(ctx, M, phi, theta, 0)
        assert target.free_vars == frozenset() and phi.free_vars == {"x0"}
        for lim in (limit, F(-1)):
            got = oracle._compare(M, phi, theta, N, target, lim)
            assert got == _compare_by_assignments(M, phi, theta, N, target, lim)
            assert got[0] == 3
        assert got[2] == ({"x0": "a"}, F(1, 4), F(1, 4), F(0))
        check = verify_coding(ctx, M, phi, theta)
        assert check.ok and check.checked == 3 and check.max_difference == 0

    @pytest.mark.parametrize("seed", [7, 4101])
    def test_corruption_check_matches_the_assignment_loop(self, seed, monkeypatch):
        cfg = FuzzConfig(seed=seed, trials=40)
        records = run_suite("corruption", cfg)
        monkeypatch.setattr(oracle, "_compare", lambda M, phi, theta, N, coded, limit:
                            _compare_by_assignments(M, phi, theta, N, coded, limit))
        assert run_suite("corruption", cfg) == records
        assert all(r.ok for r in records)
