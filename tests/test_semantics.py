import json
import random
import re
from fractions import Fraction as F
from itertools import product
from operator import itemgetter
from pathlib import Path

import pytest

from contlog import hyperspace, semantics
from contlog.connective import Connective, identity, max_of, min_of, neg
from contlog.errors import EvalError, SpaceMismatch, TypeCheckError, ValidationError
from contlog.hyperspace import (MAX_BASE_POINTS, encode_subset, hyper, inf_theta,
                                lift, sup_theta)
from contlog.formula import (
    Apply,
    Atomic,
    CauchyLimit,
    Formula,
    Quant,
    QuantKind,
    Relation,
    atom,
    cauchy_limit,
    parse,
    signature,
)
from contlog.hyperspace import CompactSet, compact
from contlog.semantics import (
    Structure,
    _picker,
    check_condition,
    check_function_axioms,
    check_pseudometric,
    decode_function,
    encode_function,
    eval_error_bound,
    evaluate,
    quotient,
    structure,
    tabulate,
    zero_distance_classes,
)
from contlog.oracle import (FuzzConfig, _FormulaBuilder, random_formula, random_signature,
                            random_space, random_structure, verify_quantifier)
from contlog.serialize import structure_from_json
from contlog.valuespace import make_finite, make_interval, nearest, point

G = make_interval(0, 1, F(1, 4), label="G")
SIG = signature([Relation("P", 1, G)])
M = structure(SIG, ["a", "b"], {"P": {"a": F(1, 4), "b": F(3, 4)}})


def metric_structure(values=(0, F(1, 2), F(1, 2))):
    D = make_interval(0, 1, F(1, 8))
    sig = signature([Relation("d", 2, D), Relation("R", 1, D)],
                    distance_symbol="d", moduli={"R": 1})
    names = ["a", "b", "c"][: len(values)]
    placement = dict(zip(names, map(F, values)))
    d_tab = {(x, y): abs(placement[x] - placement[y]) for x in names for y in names}
    r_tab = {x: placement[x] for x in names}
    return structure(sig, names, {"d": d_tab, "R": r_tab})


def mutated(N, name, changes):
    """N with some entries of one relation's table replaced."""
    tables = {n: dict(t) for n, t in N.interp.items()}
    for key, value in changes.items():
        tables[name][key] = point(value)
    return structure(N.signature, list(N.universe), tables)


class TestStructure:
    def test_value_lookup(self):
        assert M.value("P", "a") == point(F(1, 4))

    def test_totality_enforced(self):
        with pytest.raises(ValidationError, match="not total"):
            structure(SIG, ["a", "b"], {"P": {"a": F(1, 4)}})

    def test_a_key_outside_the_universe_is_refused(self):
        # the entry count is right, so the refusal names the tuples
        with pytest.raises(ValidationError, match="^" + re.escape(
                "P: interpretation is not total over the universe "
                "(missing [('b',)], extra [('c',)])") + "$"):
            Structure(SIG, ("a", "b"), {"P": {("a",): point(0), ("c",): point(0)}})

    def test_blanks_around_key_parts_are_stripped(self):
        # with or without a comma, every part of a key loses its blanks
        N = structure(SIG, ["a", "b"], {"P": {" a": F(1, 4), "b ": F(3, 4)}})
        assert N.interp == M.interp
        sig = signature([Relation("R", 2, G)])
        N = structure(sig, ["a", "b"], {"R": {" a , b": 0, ("a ", " a"): 0,
                                              "b,a": 1, "b, b ": 1}})
        assert set(N.interp["R"]) == {("a", "b"), ("a", "a"), ("b", "a"), ("b", "b")}

    def test_keys_naming_one_tuple_are_refused(self):
        with pytest.raises(ValidationError, match=r"^P: two keys name the tuple \('a',\)$"):
            structure(SIG, ["a", "b"], {"P": {"a": F(1, 4), " a": F(1, 4), "b": 0}})

    def test_values_must_sit_near_net(self):
        exact = signature([Relation("P", 1, make_finite([point(0), point(1)]))])
        with pytest.raises(ValidationError, match="not within resolution"):
            structure(exact, ["a"], {"P": {"a": F(1, 2)}})

    def test_constructor_refuses_an_off_net_value(self):
        exact = signature([Relation("P", 1, make_finite([point(0), point(1)], label="B"))])
        with pytest.raises(ValidationError, match="^" + re.escape(
                "P('a',): value (1/2) is not within resolution of the net of B") + "$"):
            Structure(exact, ("a",), {"P": {("a",): point(F(1, 2))}})

    def test_bad_element_ids(self):
        for bad in ("", "a,b", " a"):
            with pytest.raises(ValidationError):
                structure(SIG, [bad], {"P": {bad: 0}})

    def test_interp_keys_must_match(self):
        with pytest.raises(ValidationError):
            structure(SIG, ["a"], {"Wrong": {"a": 0}})

    def test_comma_keys_normalized(self):
        sig = signature([Relation("E", 2, G)])
        N = structure(sig, ["a", "b"], {"E": {
            "a,a": 0, "a,b": 1, "b,a": 1, "b,b": 0}})
        assert N.value("E", "a", "b") == point(1)


class TestEvaluate:
    def test_atomic_with_assignment(self):
        res = evaluate(M, atom(SIG, "P", "x"), {"x": "b"})
        assert res.scalar == F(3, 4)

    def test_unassigned_variable(self):
        with pytest.raises(EvalError):
            evaluate(M, atom(SIG, "P", "x"))

    def test_unknown_element(self):
        with pytest.raises(EvalError):
            evaluate(M, atom(SIG, "P", "x"), {"x": "zz"})

    def test_sup_inf(self):
        assert evaluate(M, parse("sup x. P(x)", SIG)).scalar == F(3, 4)
        assert evaluate(M, parse("inf x. P(x)", SIG)).scalar == F(1, 4)

    def test_connectives(self):
        lib = {"neg": neg(G), "min": min_of(G, G)}
        phi = parse("min(P(x), neg(P(x)))", SIG, lib)
        assert evaluate(M, phi, {"x": "b"}).scalar == F(1, 4)

    def test_set_quantifier_collects_values(self):
        res = evaluate(M, parse("Q x. P(x)", SIG))
        assert isinstance(res.value, CompactSet)
        assert res.value.members == (point(F(1, 4)), point(F(3, 4)))

    def test_set_then_sup_theta(self):
        phi = Apply(sup_theta(identity(G)), (parse("Q x. P(x)", SIG),))
        assert evaluate(M, phi).scalar == F(3, 4)

    def test_scalar_rejects_sets(self):
        res = evaluate(M, parse("Q x. P(x)", SIG))
        with pytest.raises(EvalError):
            res.scalar

    def test_cauchy_limit_evaluates_as_truncation(self):
        formulas = [parse("inf x. P(x)", SIG), parse("sup x. P(x)", SIG)]
        lim = cauchy_limit([F(1, 2), F(0)], formulas, 0)
        assert lim.index == 1
        assert evaluate(M, lim).scalar == F(3, 4)


G3 = make_interval(0, 1, F(1, 2), label="G3")
SET_SIG = signature([Relation("P", 1, G3), Relation("S", 1, hyper(G3))])
SET_M = structure(SET_SIG, ["a", "b", "c"], {
    "P": {"a": 0, "b": F(1, 2), "c": F(1, 2)},
    "S": {"a": compact(G3, point(0), point(1)),
          "b": compact(G3, point(F(1, 2))),
          "c": compact(G3, point(0), point(F(1, 2)), point(1))},
})
S_X = atom(SET_SIG, "S", "x")
NEG_S_X = Apply(lift(neg(G3)), (S_X,))
Q_S = Quant(QuantKind.SET, "x", S_X)
Q_Q_P = Quant(QuantKind.SET, "y", parse("Q x. P(x)", SET_SIG))


class TestSetValues:
    """Set values inside formulas: hyperspace-valued symbols, lifted
    connectives, Q over set-valued bodies and nested Q."""

    @pytest.mark.parametrize("phi, asg, members, label, bound", [
        (S_X, {"x": "a"}, ((0,), (1,)), "K(G3)", F(1, 4)),
        (NEG_S_X, {"x": "c"}, ((0,), (F(1, 2),), (1,)), "K(neg(G3))", F(1, 2)),
        (NEG_S_X, {"x": "b"}, ((F(1, 2),),), "K(neg(G3))", F(1, 2)),
        (Q_S, None, ((0, 1, 0), (1, 0, 1), (1, 1, 1)), "K(K(G3))", F(1, 2)),
        (Q_Q_P, None, ((1, 1, 0),), "K(K(G3))", F(3, 4)),
    ])
    def test_set_results(self, phi, asg, members, label, bound):
        res = evaluate(SET_M, phi, asg)
        assert isinstance(res.value, CompactSet)
        assert res.value.members == tuple(point(*m) for m in members)
        assert res.value.space == res.space.base
        assert (res.space.label, res.error_bound) == (label, bound)

    @pytest.mark.parametrize("phi, asg, value, bound", [
        (Apply(sup_theta(identity(G3)), (S_X,)), {"x": "a"}, 1, F(1, 2)),
        (Apply(inf_theta(identity(G3)), (S_X,)), {"x": "c"}, 0, F(1, 2)),
        (Apply(inf_theta(identity(G3)), (NEG_S_X,)), {"x": "b"}, F(1, 2), F(3, 4)),
        (Apply(sup_theta(inf_theta(identity(G3))), (Q_S,)), None, F(1, 2), F(3, 4)),
        (Apply(inf_theta(sup_theta(identity(G3))), (Q_Q_P,)), None, F(1, 2), 1),
    ])
    def test_extrema_on_top(self, phi, asg, value, bound):
        res = evaluate(SET_M, phi, asg)
        assert (res.value, res.space, res.error_bound) == (point(value), G3, bound)

    def test_condition_on_a_set_with_an_assignment(self):
        hit = check_condition(SET_M, S_X, compact(G3, point(0), point(1)),
                              assignment={"x": "a"})
        assert hit.ok and hit.distance == 0 and hit.error_bound == F(1, 4)
        assert hit.value == compact(G3, point(0), point(1))
        miss = check_condition(SET_M, S_X, compact(G3, point(0)), assignment={"x": "a"})
        assert not miss.ok and miss.distance == 1

    def test_condition_on_a_set_of_sets(self):
        want = compact(hyper(G3), point(1, 0, 1), point(0, 1, 0), point(1, 1, 1))
        report = check_condition(SET_M, Q_S, want)
        assert report.ok and report.distance == 0 and report.error_bound == F(1, 2)
        assert report.value == want


def reference(M, phi, env):
    """Naive recursive evaluation under one assignment; set values are
    indicator points.  Each quantifier loops over the universe."""
    if isinstance(phi, Atomic):
        return M.interp[phi.symbol][tuple(env[a] for a in phi.args)]
    if isinstance(phi, Apply):
        return phi.conn(*[reference(M, c, env) for c in phi.children])
    if isinstance(phi, CauchyLimit):
        return reference(M, phi.body, env)
    results = [reference(M, phi.body, {**env, phi.var: e}) for e in M.universe]
    if phi.kind is QuantKind.SUP:
        return max(results, key=lambda p: p.scalar)
    if phi.kind is QuantKind.INF:
        return min(results, key=lambda p: p.scalar)
    base = phi.body.value_space
    return encode_subset(phi.value_space, [nearest(base, p)[0] for p in results])


def assert_rows_match(M, phi, assignment=None):
    """Every row of phi's table equals the reference at the row's assignment;
    without an assignment there is a row per tuple of universe elements."""
    asg = assignment or {}
    [table] = tabulate(M, [phi], asg)
    assert table.vars == tuple(sorted(phi.free_vars))
    for key, value in table.rows.items():
        assert value == reference(M, phi, {**asg, **dict(zip(table.vars, key))})
    if not asg:
        assert len(table.rows) == len(M.universe) ** len(table.vars)
    return table


MOOD = structure_from_json(json.loads(
    (Path(__file__).resolve().parents[1] / "demos" / "data" / "mood.json").read_text()))


class TestTables:
    """Every table row against the naive recursive reference."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_formulas(self, seed):
        cfg = FuzzConfig(seed=seed, universe_size=4, formula_depth=3)
        set_valued = 0
        for trial in range(25):
            rng = random.Random(f"tables:{seed}:{trial}")
            sig = random_signature(rng, cfg)
            N = random_structure(cfg, sig, rng)
            phi = random_formula(cfg, sig, rng, set_cap=MAX_BASE_POINTS)
            set_valued += not phi.value_space.standard_metric
            assert_rows_match(N, phi)
            fixed = {v: rng.choice(N.universe) for v in sorted(phi.free_vars)}
            assert len(assert_rows_match(N, phi, fixed).rows) == 1
        assert set_valued > 0

    @pytest.mark.parametrize("phi", [
        Q_S, Q_Q_P, Apply(sup_theta(inf_theta(identity(G3))), (Q_S,)),
        Quant(QuantKind.SET, "x", Apply(min_of(G3, G3), (atom(SET_SIG, "P", "x"),
                                                     atom(SET_SIG, "P", "y")))),
        cauchy_limit([F(1, 2), F(0)], [parse("inf x. P(x)", SET_SIG),
                                       parse("sup x. P(y)", SET_SIG)], 0),
        Quant(QuantKind.SUP, "y", atom(SET_SIG, "P", "x")),
        Quant(QuantKind.SET, "y", atom(SET_SIG, "P", "x")),
        Quant(QuantKind.SET, "y", S_X),
    ], ids=["Q", "QQ", "theta-of-Q", "Q-binary", "limit", "vacuous-sup",
            "vacuous-Q", "vacuous-Q-of-sets"])
    def test_hand_written(self, phi):
        assert_rows_match(SET_M, phi)

    def test_several_roots_in_one_pass(self):
        body = atom(SET_SIG, "P", "x")
        sets, sups = tabulate(SET_M, [Quant(QuantKind.SET, "x", body),
                                      Quant(QuantKind.SUP, "x", body)])
        assert sets.rows == {(): point(1, 1, 0)} and sups.rows == {(): point(F(1, 2))}

    def test_assigned_variable_rebound_by_a_quantifier(self):
        phi = parse("sup x. P(x)", MOOD.signature)
        assert evaluate(MOOD, phi, {"x": "a"}).scalar == F(4, 5)
        space = MOOD.signature.by_name["P"].space
        both = Apply(min_of(space, space), (atom(MOOD.signature, "P", "x"), phi))
        assert evaluate(MOOD, both, {"x": "a"}).scalar == F(3, 10)
        assert evaluate(MOOD, both, {"x": "b"}).scalar == F(4, 5)
        assert_rows_match(MOOD, both, {"x": "a"})

    def test_deep_formula_evaluates_without_recursion(self):
        phi = parse("sup x. " * 900 + "P(x)", MOOD.signature)
        assert evaluate(MOOD, phi).value.scalar == F(4, 5)


class DagBuilder:
    """Random well-typed formulas that share subformulas.  Each new node
    reads nodes built before it, so one node can have several parents, and
    atoms draw their variables from four names, which quantifiers bind too:
    a node can range over up to four free variables."""

    VARS = ("w", "x", "y", "z")

    def __init__(self, cfg, sig, rng):
        self.rng, self.sig, self.nodes = rng, sig, []
        self.make = _FormulaBuilder(cfg, sig, rng, grid=False, stable=False)

    def atomic(self):
        rel = self.rng.choice(self.sig.relations)
        return atom(self.sig, rel.name, *(self.rng.choice(self.VARS) for _ in range(rel.arity)))

    def node(self):
        rng, make = self.rng, self.make
        if not self.nodes:
            return self.atomic()
        kind = rng.choice(("atomic", "unary", "binary", "binary", "binary", "sup", "inf", "set"))
        if kind == "atomic":
            return self.atomic()
        if kind == "unary":
            return make._unary(rng.choice(self.nodes))
        if kind == "binary":
            return make._binary(rng.choice(self.nodes), rng.choice(self.nodes))
        body = rng.choice(self.nodes)
        # mostly a variable the body reads; now and then a vacuous one
        var = rng.choice(sorted(body.free_vars) if rng.random() < 0.8 and body.free_vars
                         else self.VARS)
        space = body.value_space
        if kind == "set":
            if not space.standard_metric or len(space.net) > 4:
                return make._as_real(body)
            return Quant(QuantKind.SET, var, body)
        return Quant(QuantKind[kind.upper()], var, make._as_real(body))

    def roots(self, size):
        """`size` new nodes, then the last of them and up to two others."""
        for _ in range(size):
            self.nodes.append(self.node())
        others = self.rng.sample(self.nodes[:-1], min(len(self.nodes) - 1, self.rng.randint(0, 2)))
        return [self.nodes[-1], *others]


def below(roots):
    """Every node under the roots, and how many times each is read."""
    readers, stack, seen = {}, list(roots), set(roots)
    while stack:
        for child in stack.pop().children:
            readers[child] = readers.get(child, 0) + 1
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen, readers


class TestRandomDags:
    """Every row of every root of a pass over random DAGs against the naive
    recursive reference: several roots per pass, shared subformulas, up to
    four variables, with and without fixed variables."""

    @pytest.mark.parametrize("seed", [5, 17])
    def test_rows_match_the_reference(self, seed):
        cfg = FuzzConfig(seed=seed, universe_size=3, formula_depth=3)
        formulas = shared = wide = widest = 0
        for trial in range(120):
            rng = random.Random(f"dags:{seed}:{trial}")
            sig = signature([Relation(name, rng.choice((1, 2, 3)),
                                      random_space(rng, cfg, dim=rng.choice((1, 1, 2))))
                             for name in ("R", "S", "T")[:rng.randint(1, 3)]])
            N = random_structure(cfg, sig, rng)
            roots = DagBuilder(cfg, sig, rng).roots(rng.randint(2, 9))
            nodes, _ = below(roots)
            rebound = {n.var for n in nodes if isinstance(n, Quant)}
            fixed = {v: rng.choice(N.universe)
                     for v in rng.sample(DagBuilder.VARS, rng.randint(1, 3))}
            for asg in ({}, fixed):
                for phi, table in zip(roots, tabulate(N, roots, asg)):
                    # a fixed variable that some quantifier binds ranges freely
                    domains = [(asg[v],) if v in asg and v not in rebound else N.universe
                               for v in sorted(phi.free_vars)]
                    assert table.vars == tuple(sorted(phi.free_vars))
                    assert list(table.rows) == list(product(*domains))
                    for key, value in table.rows.items():
                        assert value == reference(N, phi, {**asg, **dict(zip(table.vars, key))})
            for phi in roots:
                nodes, readers = below([phi])
                most = max(len(n.free_vars) for n in nodes)
                formulas, shared = formulas + 1, shared + (max(readers.values(), default=0) > 1)
                wide, widest = wide + (most >= 3), widest + (most == 4)
        assert formulas >= 200 and 4 * shared >= formulas
        assert wide > 0 and widest > 0

    def test_one_walk_per_pass(self, monkeypatch):
        # a pass over several roots that share nodes lists them with one
        # `_postorder` call, and its tables match the reference on every row
        walks = []
        walk = semantics._postorder
        monkeypatch.setattr(semantics, "_postorder", lambda roots: walks.append(roots) or walk(roots))
        cfg = FuzzConfig(seed=5, universe_size=3, formula_depth=3)
        sig = signature([Relation("R", 2, G), Relation("S", 1, G)])
        rng = random.Random("one walk")
        N = random_structure(cfg, sig, rng)
        shared = 0
        for _ in range(20):
            roots = DagBuilder(cfg, sig, rng).roots(rng.randint(3, 6))
            _, readers = below(roots)
            shared += max(readers.values(), default=0) > 1
            walks.clear()
            tables = tabulate(N, roots)
            assert walks == [roots]
            for phi, table in zip(roots, tables):
                for key, value in table.rows.items():
                    assert value == reference(N, phi, dict(zip(table.vars, key)))
        assert shared >= 10


class TestPositionMaps:
    """A connective reads each child's column through the map from its own
    rows to the child's, over any universe order and any fixed variables."""

    X = make_interval(0, 1, F(1, 4))
    SIG = signature([Relation("T", 3, X), Relation("P", 1, X)])
    T, P = atom(SIG, "T", "z", "x", "y"), atom(SIG, "P", "y")

    @classmethod
    def structure(cls, universe):
        rng = random.Random(f"maps:{','.join(universe)}")
        grid = [F(k, 4) for k in range(5)]
        return structure(cls.SIG, universe, {
            "T": {t: rng.choice(grid) for t in product(universe, repeat=3)},
            "P": {(e,): rng.choice(grid) for e in universe}})

    def lo(self, *kids):
        return Apply(min_of(self.X, self.X), kids)

    def formulas(self):
        X, T, P = self.X, self.T, self.P
        # T(y, y, x) repeats a variable; inf y. rebinds y, which P(y) beside
        # it reads free
        T_yyx = atom(self.SIG, "T", "y", "y", "x")
        return [self.lo(T, P), self.lo(atom(self.SIG, "P", "z"), T_yyx),
                Quant(QuantKind.SUP, "y", self.lo(T, atom(self.SIG, "P", "x"))),
                self.lo(P, Quant(QuantKind.INF, "y", T)),
                Apply(max_of(X, X), (self.lo(P, Quant(QuantKind.SUP, "z", T)), T_yyx))]

    @pytest.mark.parametrize("assignment", [
        None, {"x": "b"}, {"z": "c", "x": "a"}, {"y": "a"}, {"x": "c", "y": "b", "z": "a"},
    ], ids=["free", "x-fixed", "x-z-fixed", "y-fixed-and-rebound", "all-fixed"])
    @pytest.mark.parametrize("universe", [("a", "b", "c"), ("c", "a", "b")],
                             ids=["sorted", "unsorted"])
    def test_partial_and_permuted_children(self, universe, assignment):
        N = self.structure(universe)
        for phi in self.formulas():
            assert_rows_match(N, phi, assignment)

    def test_a_child_read_by_its_parent_and_its_grandparent(self):
        # T is read by min and by the max above it; P(y) by min and by a max
        # four levels up, and min by both roots: none is dropped before its
        # last reader
        N = self.structure(("b", "c", "a"))
        inner = self.lo(self.T, self.P)
        roots = [Apply(max_of(self.X, self.X), (inner, self.T)),
                 Apply(max_of(self.X, self.X),
                       (Quant(QuantKind.SUP, "z", Apply(neg(self.X), (inner,))), self.P))]
        for phi, table in zip(roots, tabulate(N, roots)):
            assert table.rows == assert_rows_match(N, phi).rows

    def test_rows_follow_the_universe_order(self):
        universe = ("c", "a", "b")
        N = self.structure(universe)
        for phi in self.formulas():
            table = assert_rows_match(N, phi)
            assert list(table.rows) == list(product(universe, repeat=len(table.vars)))
            assert list(table.rows.values()) == table.column


class TestInterning:
    """Rows hold value ids: equal Points share one however they were built."""

    PX, PY = atom(SET_SIG, "P", "x"), atom(SET_SIG, "P", "y")

    def test_connective_runs_once_per_distinct_argument_tuple(self):
        calls = []
        inner = min_of(G3, G3)

        def run(p, q):
            calls.append((p, q))
            return inner(p, q)

        counting = Connective("count", inner.domain, inner.codomain, inner.lipschitz, run)
        phi = Apply(counting, (self.PX, self.PY))
        for _ in range(2):
            calls.clear()
            [table] = tabulate(SET_M, [phi])
            # 9 rows over P's values 0, 1/2, 1/2: 4 distinct argument tuples
            assert len(table.rows) == 9
            assert len(calls) == len(set(calls)) == 4
        assert_rows_match(SET_M, phi)

    @pytest.mark.parametrize("kind, rows", [
        (QuantKind.SET, [point(1, 1, 0), point(0, 1, 0), point(0, 1, 0)]),
        (QuantKind.SUP, [point(F(1, 2))] * 3),
        (QuantKind.INF, [point(0), point(F(1, 2)), point(F(1, 2))]),
    ])
    def test_quantifiers_over_equal_points_from_different_objects(self, kind, rows):
        column = SET_M.interp["P"]
        assert column[("b",)] == column[("c",)] and column[("b",)] is not column[("c",)]
        # max(P(x), P(y)), rebuilt as a new point on every call: a stock
        # max returns its codomain's own net point, so the quantifier would
        # see one 1/2 object; this one sees a new 1/2 for each argument
        # tuple (0, 1/2), (1/2, 0) and (1/2, 1/2)
        inner, outs = max_of(G3, G3), []

        def fresh(p, q):
            outs.append(point(*inner(p, q).coords))
            return outs[-1]

        conn = Connective("fresh-max", inner.domain, inner.codomain, inner.lipschitz, fresh)
        phi = Quant(kind, "x", Apply(conn, (self.PX, self.PY)))
        [table] = tabulate(SET_M, [phi])
        halves = [p for p in outs if p == point(F(1, 2))]
        assert len(halves) == 3 and len(set(map(id, halves))) == 3
        assert [table.rows[(y,)] for y in SET_M.universe] == rows
        assert table.rows == assert_rows_match(SET_M, phi).rows


    def test_roots_sharing_a_dag_run_each_connective_once_per_argument_tuple(self):
        calls = {"min": [], "neg": []}

        def counting(conn, key):
            def run(*pts):
                calls[key].append(pts)
                return conn.evaluator(*pts)
            return Connective(key, conn.domain, conn.codomain, conn.lipschitz, run)

        lo = min_of(G3, G3)
        shared = Apply(counting(lo, "min"), (self.PX, self.PY))
        flipped = Apply(counting(neg(lo.codomain), "neg"), (shared,))
        roots = [Quant(QuantKind.SUP, "x", shared), flipped, Quant(QuantKind.INF, "y", flipped)]
        tables = tabulate(SET_M, roots)
        # P reads 0, 1/2, 1/2: 4 distinct argument tuples of min, whose
        # outputs 0 and 1/2 are the 2 distinct arguments of neg
        assert len(calls["min"]) == len(set(calls["min"])) == 4
        assert len(calls["neg"]) == len(set(calls["neg"])) == 2
        for phi, table in zip(roots, tables):
            assert table.rows == assert_rows_match(SET_M, phi).rows


class TestOutputDimension:
    """An output that does not fit the codomain is refused with one text,
    however the connective is reached."""

    TEXT = "bad: output (0, 0) does not fit codomain G3"

    def bad(self, arity):
        def run(*pts):
            return point(0, 0)
        return Connective("bad", (G3,) * arity, G3, F(1), run)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_path_raises_the_same_error(self, arity):
        conn = self.bad(arity)
        phi = Apply(conn, (atom(SET_SIG, "P", "x"),) * arity)
        calls = [lambda: conn(*[point(0)] * arity), lambda: tabulate(SET_M, [phi]),
                 lambda: evaluate(SET_M, phi, {"x": "a"})]
        for call in calls:
            with pytest.raises(EvalError) as err:
                call()
            assert str(err.value) == self.TEXT

    def test_a_misfit_equal_to_an_earlier_value_is_refused(self):
        # the point (0, 0) is already a value of the pass when `bad` returns it
        plane = make_finite([point(0, 0)], label="plane")
        sig = signature([Relation("P", 1, G3), Relation("R", 1, plane)])
        N = structure(sig, ["a"], {"P": {"a": 0}, "R": {"a": (0, 0)}})
        phi = Apply(self.bad(1), (atom(sig, "P", "x"),))
        with pytest.raises(EvalError) as err:
            tabulate(N, [atom(sig, "R", "x"), phi])
        assert str(err.value) == self.TEXT


class TestQuantifierAxes:
    """A quantifier reduces the axis of its variable wherever that axis sits
    among the body's variables, over any universe order and with some
    variables fixed."""

    SPACE = make_interval(0, 1, F(1, 4))
    SIG = signature([Relation("T", 3, SPACE)])

    def structure(self):
        rng = random.Random("axes")
        universe = ["c", "a", "b"]  # not sorted: rows follow the universe's order
        values = {f"{x},{y},{z}": rng.choice(self.SPACE.net)
                  for x in universe for y in universe for z in universe}
        return structure(self.SIG, universe, {"T": values})

    @pytest.mark.parametrize("kind", list(QuantKind))
    @pytest.mark.parametrize("var", ["x", "y", "z"])
    @pytest.mark.parametrize("fixed", [{}, {"x": "a"}, {"z": "b"}, {"x": "b", "y": "c"}])
    def test_every_axis(self, kind, var, fixed):
        N = self.structure()
        phi = Quant(kind, var, atom(self.SIG, "T", "z", "x", "y"))
        assert_rows_match(N, phi, fixed)


class TestPickers:
    @pytest.mark.parametrize("dst, want", [
        ((), ()), (("y",), ("b",)), (("z", "x", "y"), ("c", "a", "b")),
    ])
    def test_arities(self, dst, want):
        pick = _picker(("x", "y", "z"), dst)
        assert isinstance(pick, itemgetter)  # runs in C
        assert pick(("a", "b", "c")) == want


class TestLazyErrorBounds:
    def test_tabulate_leaves_error_bounds_underived(self):
        body = Apply(min_of(G, G), (atom(SIG, "P", "x"), atom(SIG, "P", "y")))
        phi = Quant(QuantKind.SUP, "x", body)
        nodes = (phi, body, *body.children)
        tabulate(M, [phi])
        for node in nodes:
            assert "value_space" in node.__dict__ and "free_vars" in node.__dict__
            assert "error_bound" not in node.__dict__
        # L * (1/8 + 1/8) + 1/8, derived when the result reads it and kept
        # on the node read
        assert evaluate(M, phi, {"y": "a"}).error_bound == F(3, 8)
        assert phi.__dict__["error_bound"] == F(3, 8)


class TestSetMasks:
    """A `Q` root that no node of its pass reads keeps subset masks and
    builds no indicator point until its column is read; a `Q` that a node
    reads becomes indicator points in the pass."""

    PHI = parse("Q x. P(x)", SIG)  # P takes 1/4 and 3/4: net indices 1 and 3 of 5

    @pytest.fixture
    def indicators(self, monkeypatch):
        calls, build = [], hyperspace._indicator

        def counted(bits):
            calls.append(bits)
            return build(bits)

        monkeypatch.setattr(hyperspace, "_indicator", counted)
        return calls

    def test_a_root_checked_by_verify_quantifier_builds_none(self, indicators):
        body = atom(TestPositionMaps.SIG, "T", "z", "x", "y")
        checks = verify_quantifier(TestPositionMaps.structure(("a", "b", "c")), body, var="y")
        assert [(c.ok, c.checked) for c in checks.values()] == [(True, 9), (True, 9)]
        assert indicators == []

    def test_a_root_keeps_masks_until_its_column_is_read(self, indicators):
        [table] = tabulate(M, [self.PHI])
        assert table.masks == [0b01010] and indicators == []
        assert table.column == [point(0, 1, 0, 1, 0)] and len(indicators) == 1

    @pytest.mark.parametrize("roots", [1, 2], ids=["under-sup", "also-a-root"])
    def test_a_set_read_by_sup_theta_builds_them(self, indicators, roots):
        top = Apply(sup_theta(identity(G)), (self.PHI,))
        tables = tabulate(M, [top, self.PHI][:roots])
        assert tables[0].column == [point(F(3, 4))] and len(indicators) == 1
        assert all(table.masks is None for table in tables)

    def test_evaluate_decodes_a_masked_root(self, indicators):
        res = evaluate(M, self.PHI)
        assert res.value == compact(G, point(F(1, 4)), point(F(3, 4)))
        assert res.value == semantics.decode_subset(res.space, reference(M, self.PHI, {}))


class TestSnapByIndex:
    """Q snaps a body value that is a net point by its index; only a value
    off the net goes through `nearest`."""

    @pytest.fixture
    def nearest_calls(self, monkeypatch):
        calls = []

        def counted(space, p):
            calls.append(p)
            return nearest(space, p)

        monkeypatch.setattr(semantics, "nearest", counted)
        return calls

    def test_net_values_need_no_nearest(self, nearest_calls):
        res = evaluate(M, parse("Q x. P(x)", SIG))
        assert res.value.members == (point(F(1, 4)), point(F(3, 4)))
        assert nearest_calls == []

    def test_off_net_values_snap_as_nearest_does(self, nearest_calls):
        # P(a) = 1/4 moves to 3/8, midway between the net points 1/4 and
        # 1/2, and snaps to the smaller; P(b) = 3/4 stays on the net
        up = Connective("up", (G,), G, F(1),
                        lambda p: point(p.scalar + F(1, 8)) if p.scalar < F(1, 2) else p)
        phi = Quant(QuantKind.SET, "x", Apply(up, (atom(SIG, "P", "x"),)))
        res = evaluate(M, phi)
        assert res.value.members == (point(F(1, 4)), point(F(3, 4)))
        assert nearest_calls == [point(F(3, 8))]
        nearest_calls.clear()
        assert_rows_match(M, phi)

    def test_set_values_snap_without_building_the_net(self, nearest_calls):
        base = make_interval(0, 1, F(1, 3))
        sig = signature([Relation("S", 1, hyper(base))])
        ind = lambda *ks: [int(k in ks) for k in range(4)]  # noqa: E731
        N = structure(sig, ["a", "b", "c"], {"S": {"a": ind(0, 3), "b": ind(1), "c": ind(0, 3)}})
        phi = parse("Q x. S(x)", sig)
        assert evaluate(N, phi).value.members == (point(*ind(1)), point(*ind(0, 3)))
        assert phi.body.value_space.net._points is None
        assert nearest_calls == []


class Typed(Formula):
    """A node typed when built, but of no kind evaluation knows."""

    def _space(self):
        return G

    def _free(self):
        return frozenset()


class TestCheckSymbols:
    def test_unknown_symbol(self):
        other = signature([Relation("T", 1, G)])
        with pytest.raises(EvalError, match="^structure does not interpret 'T'$"):
            evaluate(M, atom(other, "T", "x"), {"x": "a"})

    def test_arity_mismatch(self):
        other = signature([Relation("P", 2, G)])
        with pytest.raises(EvalError, match="^P arity mismatch$"):
            evaluate(M, atom(other, "P", "x", "y"), {"x": "a", "y": "b"})

    def test_space_mismatch(self):
        other = signature([Relation("P", 1, G3)])
        with pytest.raises(EvalError, match=r"^P is valued in G in the structure "
                                            r"but G3 in the formula$"):
            evaluate(M, parse("sup x. P(x)", other))

    def test_unknown_node_kind(self):
        class Odd(Formula):
            pass

        # refused when built; its error bound, derived on read, the same way
        with pytest.raises(EvalError, match="^unknown formula node Odd$"):
            Odd()
        with pytest.raises(EvalError, match="^unknown formula node Odd$"):
            object.__new__(Odd).error_bound

        for phi in (Typed(), Apply(neg(G), (Typed(),)), Quant(QuantKind.SUP, "x", Typed())):
            with pytest.raises(EvalError, match="^unknown formula node Typed$"):
                tabulate(M, [phi])


class TestErrorOrder:
    """Types as each node is built; then, in evaluation, assignment
    elements, then symbols left to right, then unassigned variables."""

    OTHER = signature([Relation("T", 1, G), Relation("U", 1, G)])

    def test_element_before_symbols(self):
        with pytest.raises(EvalError, match=r"^assignment sends x to 'zz', not a universe element$"):
            evaluate(M, atom(self.OTHER, "T", "x"), {"x": "zz"})

    def test_leftmost_symbol_first(self):
        phi = Apply(min_of(G, G), (atom(self.OTHER, "T", "x"), atom(self.OTHER, "U", "x")))
        with pytest.raises(EvalError, match="^structure does not interpret 'T'$"):
            evaluate(M, phi, {"x": "a"})

    def test_leftmost_of_a_kind_and_a_symbol_error_first(self):
        unknown = atom(self.OTHER, "U", "x")
        with pytest.raises(EvalError, match="^unknown formula node Typed$"):
            evaluate(M, Apply(min_of(G, G), (Typed(), unknown)), {"x": "a"})
        with pytest.raises(EvalError, match="^structure does not interpret 'U'$"):
            evaluate(M, Apply(min_of(G, G), (unknown, Typed())), {"x": "a"})

    def test_types_before_symbols(self):
        # an ill-typed node is refused when built, before the unknown symbol
        # U beside it could reach evaluation
        with pytest.raises(TypeCheckError, match="^argument 0 of min"):
            Apply(min_of(G, G), (Apply(min_of(G3, G3), (atom(SIG, "P", "x"),) * 2),
                                 atom(self.OTHER, "U", "x")))
        phi = Apply(min_of(G, G), (atom(SIG, "P", "x"), atom(self.OTHER, "U", "x")))
        with pytest.raises(EvalError, match="^structure does not interpret 'U'$"):
            evaluate(M, phi, {"x": "a"})

    def test_unassigned_variable_last(self):
        with pytest.raises(EvalError, match="^structure does not interpret 'T'$"):
            evaluate(M, atom(self.OTHER, "T", "x"))
        with pytest.raises(EvalError, match=r"^unassigned free variables: \['x'\]$"):
            check_condition(M, atom(SIG, "P", "x"), F(1, 4), assignment={"y": "a"})


class TestErrorBound:
    def test_atomic_bound_is_resolution(self):
        assert eval_error_bound(atom(SIG, "P", "x")) == F(1, 8)

    def test_apply_bound_compounds(self):
        # L * (sum of child bounds) + codomain resolution
        phi = Apply(min_of(G, G), (atom(SIG, "P", "x"), atom(SIG, "P", "y")))
        assert eval_error_bound(phi) == 1 * (F(1, 8) + F(1, 8)) + F(1, 8)

    def test_exact_spaces_have_zero_bound(self):
        E = make_finite([point(0), point(F(1, 2)), point(1)])
        sig = signature([Relation("R", 1, E)])
        phi = Quant(QuantKind.SUP, "x", atom(sig, "R", "x"))
        assert eval_error_bound(phi) == 0

    def test_set_quantifier_adds_body_resolution(self):
        body = atom(SIG, "P", "x")
        assert eval_error_bound(Quant(QuantKind.SET, "x", body)) == F(1, 8) + F(1, 8)

    def test_result_carries_bound(self):
        assert evaluate(M, parse("sup x. P(x)", SIG)).error_bound == F(1, 8)


class TestPseudometric:
    def test_metric_structure_passes(self):
        assert check_pseudometric(metric_structure()).ok

    def test_needs_distance_symbol(self):
        with pytest.raises(ValidationError):
            check_pseudometric(M)

    def test_reflexivity_violation(self):
        N = metric_structure()
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["d"][("a", "a")] = point(F(1, 4))
        broken = structure(N.signature, list(N.universe), tables)
        report = check_pseudometric(broken)
        assert not report.ok
        assert any(f.startswith("reflexivity") for f in report.failures)

    def test_symmetry_violation(self):
        N = metric_structure()
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["d"][("a", "b")] = point(F(1, 4))
        broken = structure(N.signature, list(N.universe), tables)
        assert any(f.startswith("symmetry")
                   for f in check_pseudometric(broken).failures)

    def test_triangle_violation(self):
        N = metric_structure((0, F(1, 8), F(1, 4)))
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["d"][("a", "c")] = point(1)
        tables["d"][("c", "a")] = point(1)
        broken = structure(N.signature, list(N.universe), tables)
        assert any(f.startswith("triangle")
                   for f in check_pseudometric(broken).failures)

    def test_modulus_violation(self):
        N = metric_structure()
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["R"][("b",)] = point(0)
        tables["R"][("c",)] = point(1)  # zero-distance pair, different values
        broken = structure(N.signature, list(N.universe), tables)
        assert any(f.startswith("modulus")
                   for f in check_pseudometric(broken).failures)


    @pytest.mark.parametrize("values, name, changes, failures", [
        ((0, F(1, 2), F(1, 2)), "d", {("a", "a"): F(1, 4)},
         ("reflexivity: d(a,a) = 1/4",)),
        ((0, F(1, 2), F(1, 2)), "d", {("a", "b"): F(1, 4)},
         ("symmetry: d(a,b) = 1/4 but d(b,a) = 1/2",
          "triangle: d(a,c) = 1/2 > d(a,b) + d(b,c) = 1/4",
          "modulus: |R('a',) - R('b',)| = 1/2 > 1 * 1/4")),
        ((0, F(1, 8), F(1, 4)), "d", {("a", "c"): 1, ("c", "a"): 1},
         ("triangle: d(a,c) = 1 > d(a,b) + d(b,c) = 1/4",)),
        ((0, F(1, 2), F(1, 2)), "R", {("b",): 0, ("c",): 1},
         ("modulus: |R('a',) - R('c',)| = 1 > 1 * 1/2",)),
    ])
    def test_first_counterexample_texts(self, values, name, changes, failures):
        report = check_pseudometric(mutated(metric_structure(values), name, changes))
        assert report.failures == failures

    def test_tolerance_forgives(self):
        N = metric_structure()
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["d"][("a", "a")] = point(F(1, 8))
        broken = structure(N.signature, list(N.universe), tables)
        assert not check_pseudometric(broken).ok
        assert check_pseudometric(broken, tol=F(1, 8)).ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            check_pseudometric(metric_structure(), tol=F(-1, 2))

    def test_no_distance_symbol(self):
        # distances are read through Structure.distance, so a bad tolerance
        # is reported before the missing distance symbol
        with pytest.raises(ValidationError, match="^signature has no distance symbol$"):
            check_pseudometric(M)
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            check_pseudometric(M, tol=F(-1, 2))


class TestQuotient:
    def test_classes_and_reps(self):
        N = metric_structure()  # b and c sit at distance 0
        assert zero_distance_classes(N) == (("a",), ("b", "c"))
        Z = quotient(N)
        assert Z.universe == ("a", "b")  # first element of each class
        assert Z.value("R", "b") == N.value("R", "b")
        assert Z.distance("a", "b") == N.distance("a", "b")

    def test_quotient_is_a_metric(self):
        Z = quotient(metric_structure())
        report = check_pseudometric(Z)
        assert report.ok
        assert zero_distance_classes(Z) == (("a",), ("b",))

    def test_classes_need_a_distance_symbol(self):
        with pytest.raises(ValidationError, match="^signature has no distance symbol$"):
            zero_distance_classes(M)

    def test_requires_pseudometric(self):
        N = metric_structure()
        tables = {n: dict(t) for n, t in N.interp.items()}
        tables["d"][("a", "b")] = point(F(1, 4))
        broken = structure(N.signature, list(N.universe), tables)
        with pytest.raises(ValidationError):
            quotient(broken)

    def test_evaluation_commutes(self):
        N = metric_structure()
        Z = quotient(N)
        phi_n = parse("sup x. R(x)", N.signature)
        phi_z = parse("sup x. R(x)", Z.signature)
        assert evaluate(N, phi_n).scalar == evaluate(Z, phi_z).scalar


class TestFunctions:
    def test_encode_decode_roundtrip(self):
        N = metric_structure((0, F(1, 2), 1))
        f = {"a": "b", "b": "c", "c": "c"}
        N2 = encode_function(N, "f", f)
        assert N2.value("f", "a", "b") == point(0)
        assert N2.value("f", "a", "a").scalar == N.distance("b", "a")
        assert N2.value("f", "a", "c").scalar == N.distance("b", "c")
        assert check_function_axioms(N2, "f").ok
        decoded = decode_function(N2, "f")
        assert decoded == {("a",): "b", ("b",): "c", ("c",): "c"}

    def test_decode_breaks_ties_in_universe_order(self):
        # b and c sit at distance 0, so every row of the graph is zero at both
        N2 = encode_function(metric_structure(), "f", {"a": "c", "b": "c", "c": "b"})
        assert decode_function(N2, "f") == {("a",): "b", ("b",): "b", ("c",): "b"}

    def test_blanks_around_elements_are_stripped(self):
        N = metric_structure((0, F(1, 2), 1))
        padded = encode_function(N, "f", {" a": "b ", "b ": " c", " c ": "c"})
        plain = encode_function(N, "f", {"a": "b", "b": "c", "c": "c"})
        assert padded.interp == plain.interp
        with pytest.raises(ValidationError, match=r"^function table has two keys for the tuple"):
            encode_function(N, "f", {"a": "b", " a": "b", "b": "c", "c": "c"})

    def test_modulus_is_function_constant_plus_one(self):
        N = metric_structure((0, F(1, 2), 1))
        N2 = encode_function(N, "f", {"a": "b", "b": "c", "c": "c"})
        # f moves a,b (distance 1/2) to b,c (distance 1/2): constant 1
        assert N2.signature.modulus("f") == 2

    def test_declared_modulus_checked(self):
        N = metric_structure((0, F(1, 2), 1))
        with pytest.raises(ValidationError, match="violated"):
            encode_function(N, "f", {"a": "c", "b": "b", "c": "c"},
                            modulus=F(1, 2))

    def test_table_validation(self):
        N = metric_structure()
        with pytest.raises(ValidationError, match="not total"):
            encode_function(N, "f", {"a": "b"})
        with pytest.raises(ValidationError, match="unknown element"):
            encode_function(N, "f", {"a": "zz", "b": "a", "c": "a"})
        with pytest.raises(ValidationError, match="already exists"):
            encode_function(N, "R", {"a": "a", "b": "b", "c": "c"})
        with pytest.raises(ValidationError, match="distance"):
            encode_function(M, "f", {"a": "a", "b": "b"})
        with pytest.raises(ValidationError, match="^function table is empty$"):
            encode_function(N, "f", {})
        # a bad name or constant is refused before the table is read
        with pytest.raises(ValidationError, match="^relation name '9x' is not an identifier$"):
            encode_function(N, "9x", {})
        with pytest.raises(ValidationError, match="^declared function constant -1 is negative$"):
            encode_function(N, "f", {}, modulus=-1)

    def test_no_distance_is_refused_first(self):
        # Structure's one refusal, before the taken name, the empty table and
        # the arity, and before check_function_axioms reads a modulus
        for call in (lambda: encode_function(M, "P", {}), lambda: check_function_axioms(M, "P")):
            with pytest.raises(ValidationError, match="^signature has no distance symbol$"):
                call()

    def test_distance_symbol_needs_a_given_constant(self):
        # the distance symbol carries no modulus: without a lipschitz
        # constant both calls refuse it by name, with one d is the graph of
        # the identity
        N = metric_structure((0, F(1, 2), 1))
        for call in (lambda: check_function_axioms(N, "d"), lambda: decode_function(N, "d")):
            with pytest.raises(ValidationError,
                               match="^d has no modulus; give its lipschitz constant$"):
                call()
        assert check_function_axioms(N, "d", lipschitz=1).ok

    def test_negative_tolerance_rejected(self):
        N = encode_function(metric_structure((0, F(1, 2), 1)), "f",
                            {"a": "b", "b": "c", "c": "c"})
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            check_function_axioms(N, "f", tol=-1)


    @pytest.mark.parametrize("changes, lipschitz, failures", [
        ({}, None, ()),
        ({}, F(1, 2), ("input slots: |f('a', 'a') - f('b', 'a')| = 1/2 > 1/2 * 1/2",)),
        ({("a", "b"): F(1, 2)}, None, ("totality: min_y f('a', 'y') = 1/2 > 0",)),
        ({("a", "a"): 1}, None,
         ("output slot: |f('a', 'a') - f('a', 'b')| = 1 > d(a,b) = 1/2",)),
        ({("c", "b"): 1}, None,
         ("output slot: |f('c', 'b') - f('c', 'c')| = 1 > d(b,c) = 1/2",)),
        ({("b", "a"): F(1, 8), ("b", "b"): 1, ("b", "c"): F(1, 8)}, F(1, 2),
         ("totality: min_y f('b', 'y') = 1/8 > 0",
          "output slot: |f('b', 'a') - f('b', 'b')| = 7/8 > d(a,b) = 1/2",
          "input slots: |f('a', 'a') - f('b', 'a')| = 3/8 > 1/2 * 1/2")),
    ])
    def test_law_failure_texts(self, changes, lipschitz, failures):
        N = encode_function(metric_structure((0, F(1, 2), 1)), "f",
                            {"a": "b", "b": "c", "c": "c"})
        report = check_function_axioms(mutated(N, "f", changes), "f", lipschitz)
        assert report.failures == failures and report.ok == (not failures)

    def test_axioms_detect_non_function(self):
        N = metric_structure((0, F(1, 2), 1))
        N2 = encode_function(N, "f", {"a": "b", "b": "c", "c": "c"})
        tables = {n: dict(t) for n, t in N2.interp.items()}
        for y in N2.universe:  # row "a" never reaches zero
            tables["f"][("a", y)] = point(1)
        broken = structure(N2.signature, list(N2.universe), tables)
        report = check_function_axioms(broken, "f")
        assert not report.ok
        assert any("totality" in f for f in report.failures)


class TestCheckCondition:
    def test_hit_and_miss_on_exact_space(self):
        E = make_finite([point(0), point(F(1, 2)), point(1)])
        sig = signature([Relation("R", 1, E)])
        N = structure(sig, ["a", "b"], {"R": {"a": F(1, 2), "b": 1}})
        phi = parse("sup x. R(x)", sig)
        assert check_condition(N, phi, point(1)).ok
        report = check_condition(N, phi, point(0))
        assert not report.ok
        assert report.distance == 1

    def test_tolerance_and_multiple_targets(self):
        phi = parse("sup x. P(x)", SIG)
        report = check_condition(M, phi, [point(F(1, 2)), point(1)])
        assert report.distance == F(1, 4)
        assert not report.ok  # bound 1/8 < distance 1/4
        assert check_condition(M, phi, [point(F(1, 2))], tol=F(1, 8)).ok
        with pytest.raises(ValidationError, match="^tolerance must be nonnegative$"):
            check_condition(M, phi, [point(F(1, 2))], tol=F(-1, 8))

    def test_set_valued_target(self):
        phi = parse("Q x. P(x)", SIG)
        want = compact(G, point(F(1, 4)), point(F(3, 4)))
        assert check_condition(M, phi, want).ok

    def test_set_target_on_a_real_valued_formula(self):
        phi = parse("sup x. P(x)", SIG)
        with pytest.raises(SpaceMismatch, match="^set value supplied for non-hyperspace G$"):
            check_condition(M, phi, [compact(G, point(F(3, 4)))])


class TestRefusals:
    """Each refusal ends in its own error type and message."""

    DSIG = signature([Relation("d", 2, G), Relation("P", 1, G)], distance_symbol="d",
                     moduli={"P": 1})

    @pytest.mark.parametrize("build, message", [
        (lambda: Structure(SIG, (), {}), "universe must be nonempty"),
        (lambda: structure(SIG, ["a", "a"], {"P": {"a": 0}}), "universe elements must be distinct"),
        (lambda: Structure(SIG, ("a",), {}),
         "interpretation keys [] do not match signature symbols ['P']"),
        (lambda: structure(SIG, ["a"], {"P": {5: "0"}}),
         "key 5 is not a string or a tuple"),
        (lambda: check_function_axioms(
            structure(TestRefusals.DSIG, ["a"], {"d": {"a,a": 0}, "P": {"a": 0}}), "nope"),
         "unknown symbol 'nope'"),
        (lambda: check_function_axioms(
            structure(TestRefusals.DSIG, ["a"], {"d": {"a,a": 0}, "P": {"a": 0}}), "P"),
         "P cannot be a function graph (needs arity >= 2, real values)"),
        (lambda: check_condition(M, atom(SIG, "P", "x"), [], assignment={"x": "a"}),
         "condition target is empty"),
        (lambda: structure(5, ["a"], {"P": {"a": 0}}), "signature must be a Signature, got int"),
        (lambda: structure(SIG, ["a"], [("P", {"a": 0})]),
         "interpretation must be a mapping of symbols to tables, got list"),
        (lambda: structure(SIG, ["a"], {"P": [1]}),
         "P: table must be a mapping of tuples to values, got list"),
        (lambda: evaluate(M, atom(SIG, "P", "x"), ["x"]),
         "assignment must be a mapping of variables to elements, got list"),
        (lambda: evaluate(M, "P(x)"), "formula must be a Formula, got str"),
        (lambda: evaluate(SIG, atom(SIG, "P", "x")), "structure must be a Structure, got Signature"),
        (lambda: check_condition(M, atom(SIG, "P", "x"), F(1, 4), assignment=["x"]),
         "assignment must be a mapping of variables to elements, got list"),
    ], ids=["empty-universe", "repeated-element", "keys-off-signature", "key-not-a-tuple",
            "function-unknown-symbol", "function-unary-symbol", "empty-condition-target",
            "structure-signature-int", "structure-interp-list", "structure-table-list",
            "evaluate-assignment-list", "evaluate-formula-str", "evaluate-structure-signature",
            "condition-assignment-list"])
    def test_refused(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
