import re
from fractions import Fraction as F

import pytest

from contlog.connective import min_of, neg
from contlog.errors import CapacityError, ParseError, TypeCheckError, ValidationError
from contlog.formula import (
    Apply,
    CauchyLimit,
    Quant,
    QuantKind,
    Relation,
    atom,
    cauchy_limit,
    parse,
    signature,
)
from contlog.hyperspace import HyperSpace, hyper
from contlog.valuespace import make_finite, make_interval, point

X = make_interval(0, 1, F(1, 4), label="X")
SIG = signature([Relation("P", 1, X), Relation("E", 2, X)])


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            signature([Relation("P", 1, X), Relation("P", 2, X)])

    def test_relation_arity_positive(self):
        with pytest.raises(ValidationError):
            Relation("P", 0, X)

    @pytest.mark.parametrize("arity", ["1", True, 1.0], ids=["str", "bool", "float"])
    def test_relation_arity_is_an_integer(self, arity):
        with pytest.raises(ValidationError, match="^arity of 'P' must be an integer$"):
            Relation("P", arity, X)

    def test_moduli_nonnegative(self):
        with pytest.raises(ValidationError, match="^moduli must be nonnegative$"):
            signature([Relation("d", 2, X), Relation("P", 1, X)], distance_symbol="d",
                      moduli={"P": -1})

    def test_distance_must_be_binary_real(self):
        with pytest.raises(ValidationError):
            signature([Relation("d", 1, X)], distance_symbol="d")
        with pytest.raises(ValidationError):
            signature([Relation("P", 1, X)], distance_symbol="d")

    def test_distance_in_one_point_hyperspace_refused(self):
        # one-dimensional, but a set value is not a real distance
        H = hyper(make_finite([point(1)]))
        assert H.dimension == 1
        with pytest.raises(ValidationError,
                           match="the distance symbol must be binary and real-valued"):
            signature([Relation("d", 2, H)], distance_symbol="d")

    def test_moduli_must_cover_non_distance_symbols(self):
        with pytest.raises(ValidationError):
            signature([Relation("d", 2, X), Relation("P", 1, X)],
                      distance_symbol="d")
        sig = signature([Relation("d", 2, X), Relation("P", 1, X)],
                        distance_symbol="d", moduli={"P": 2})
        assert sig.modulus("P") == 2

    def test_moduli_without_distance_rejected(self):
        with pytest.raises(ValidationError):
            signature([Relation("P", 1, X)], moduli={"P": 1})

    def test_reserved_keywords_rejected(self):
        for bad in ("sup", "inf", "Q"):
            with pytest.raises(ValidationError):
                Relation(bad, 1, X)

    @pytest.mark.parametrize("build, message", [
        (lambda: signature([Relation("P", 1, X)], moduli=5),
         "moduli must be a mapping of symbols to constants, got int"),
        (lambda: signature(["P"]), "signature entry 'P' is not a Relation"),
        (lambda: Relation("P", 1, None), "space of 'P' must be a ValueSpace, got NoneType"),
    ], ids=["moduli-int", "entry-str", "space-none"])
    def test_malformed_arguments_refused(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("bad", ["", "2P", 5, None])
    def test_non_identifier_names_rejected(self, bad):
        with pytest.raises(ValidationError, match="is not an identifier"):
            Relation(bad, 1, X)


class TestNodes:
    def test_atomic(self):
        a = atom(SIG, "P", "x")
        assert a.value_space == X
        assert a.free_vars == frozenset({"x"})
        assert str(a) == "P(x)"

    def test_atom_checks_arity(self):
        with pytest.raises(TypeCheckError):
            atom(SIG, "P", "x", "y")
        with pytest.raises(TypeCheckError):
            atom(SIG, "missing", "x")

    def test_apply_typechecks(self):
        a = atom(SIG, "P", "x")
        good = Apply(neg(X), (a,))
        assert good.value_space.dimension == 1
        # a node is typed when it is built
        with pytest.raises(TypeCheckError):
            Apply(neg(make_finite([point(0)])), (a,))
        with pytest.raises(TypeCheckError, match="^neg expects 1 arguments, got 2$"):
            Apply(neg(X), (a, atom(SIG, "P", "y")))

    def test_quant_spaces(self):
        a = atom(SIG, "P", "x")
        assert Quant(QuantKind.SUP, "x", a).value_space == X
        assert isinstance(Quant(QuantKind.SET, "x", a).value_space, HyperSpace)
        assert Quant(QuantKind.SUP, "x", a).free_vars == frozenset()

    @pytest.mark.parametrize("kind, shown", [("sup", "'sup'"), ("Q", "'Q'"), (1, "1"),
                                             (None, "None")], ids=["sup", "Q", "int", "none"])
    def test_quant_kind_must_be_a_quant_kind(self, kind, shown):
        # a kind that is no QuantKind once evaluated as inf; it is refused when built
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'quantifier kind {shown} is not a QuantKind')}$"):
            Quant(kind, "x", atom(SIG, "P", "x"))

    def test_sup_needs_real_body(self):
        q = Quant(QuantKind.SET, "x", atom(SIG, "P", "x"))
        with pytest.raises(TypeCheckError):
            Quant(QuantKind.SUP, "y", q).value_space

    def test_nodes_compare_by_identity(self):
        # structural equality is deliberately not part of the contract;
        # compare canonical strings instead
        a, b = atom(SIG, "P", "x"), atom(SIG, "P", "x")
        assert a != b
        assert str(a) == str(b)

    def test_validate_forces_children(self):
        # an ill-typed child is refused when it is built, so no parent can
        # be built over it; a parent is built over typed children and typed
        # with them
        with pytest.raises(TypeCheckError):
            Apply(neg(make_finite([point(0)])), (atom(SIG, "P", "x"),))
        child = Apply(neg(X), (atom(SIG, "P", "x"),))
        top = Quant(QuantKind.SUP, "x", child)
        for node in (top, child, child.children[0]):
            assert node.__dict__["value_space"] == X


class TestDeepFormulas:
    """A node's derived properties and its text come bottom-up, without
    recursion, on a chain far deeper than the recursion limit."""

    DEPTH = 5000

    def chain(self):
        phi = atom(SIG, "E", "x", "y")
        for _ in range(self.DEPTH):
            phi = Quant(QuantKind.SUP, "x", phi)
        return phi

    def test_value_space(self):
        phi = self.chain()
        assert phi.value_space == X
        node = phi
        while isinstance(node, Quant):  # every node below is filled on the way
            assert node.__dict__["value_space"] == X
            node = node.body

    def test_free_vars(self):
        assert self.chain().free_vars == frozenset({"y"})

    def test_error_bound(self):
        assert self.chain().error_bound == F(1, 8)
        phi = atom(SIG, "P", "x")
        for _ in range(self.DEPTH):
            phi = Apply(neg(X), (phi,))
        # each neg adds its codomain's resolution to the bound below it
        assert phi.error_bound == F(1, 8) * (self.DEPTH + 1)

    def test_str(self):
        assert str(self.chain()) == "sup x. " * self.DEPTH + "E(x, y)"

    def test_shared_subformulas_are_derived_once(self, monkeypatch):
        calls = []
        free = Apply._free

        def counted(node):
            calls.append(node)
            return free(node)

        monkeypatch.setattr(Apply, "_free", counted)
        inner = min_of(X, X)
        phi = Apply(inner, (atom(SIG, "P", "x"),) * 2)
        for _ in range(self.DEPTH):
            phi = Apply(inner, (phi, phi))  # a DAG with 2^5000 paths to the atom
        assert phi.free_vars == frozenset({"x"})
        assert len(calls) == len(set(calls)) == self.DEPTH + 1

    def test_shared_subformulas_are_bounded_once_per_read(self, monkeypatch):
        calls = []
        bound = Apply._error_bound

        def counted(node, bounds):
            calls.append(node)
            return bound(node, bounds)

        monkeypatch.setattr(Apply, "_error_bound", counted)
        inner = min_of(X, X)
        phi = Apply(inner, (atom(SIG, "P", "x"),) * 2)
        for _ in range(self.DEPTH):
            phi = Apply(inner, (phi, phi))  # a DAG with 2^5000 paths to the atom
        # Lipschitz 1: each level doubles the bound below and adds 1/8
        assert phi.error_bound == F(1, 8) * (2 ** (self.DEPTH + 2) - 1)
        assert len(calls) == len(set(calls)) == self.DEPTH + 1
        assert phi.error_bound == F(1, 8) * (2 ** (self.DEPTH + 2) - 1)  # kept, no new walk
        assert len(calls) == self.DEPTH + 1

    def test_a_failing_node_leaves_the_nodes_below_filled(self):
        chain = self.chain()
        with pytest.raises(TypeCheckError):
            Apply(neg(make_finite([point(0)])), (chain,))
        assert chain.__dict__["value_space"] == X


class TestParse:
    def test_roundtrip_through_str(self):
        for text in [
            "P(x)",
            "E(x, y)",
            "sup x. P(x)",
            "inf y. E(x, y)",
            "Q x. P(x)",
            "sup x. inf y. E(x, y)",
        ]:
            phi = parse(text, SIG)
            assert str(phi) == text
            assert str(parse(str(phi), SIG)) == text

    def test_library_connectives(self):
        lib = {"neg": neg(X), "min": min_of(X, X)}
        phi = parse("min(P(x), neg(P(y)))", SIG, lib)
        assert str(phi) == "min(P(x), neg(P(y)))"
        assert phi.free_vars == frozenset({"x", "y"})

    def test_error_positions(self):
        with pytest.raises(ParseError, match="^P has arity 1, got 2 variables at position 7 ") as err:
            parse("sup x. P(x,y)", SIG)
        assert err.value.position == 7
        with pytest.raises(ParseError):
            parse("P(x) extra", SIG)
        with pytest.raises(ParseError):
            parse("unknown(x)", SIG)
        with pytest.raises(ParseError):
            parse("sup sup. P(x)", SIG)
        with pytest.raises(ParseError):
            parse("@", SIG)

    @pytest.mark.parametrize("text, message", [
        ("neg(Q x. P(x))", "argument 0 of neg has value space K(X) (dim 5), expected X (dim 1)"),
        ("sup y. Q x. P(x)", "sup needs a real-valued body, got K(X)"),
        ("min(P(x))", "min expects 2 arguments, got 1"),
    ], ids=["argument-space", "set-valued-sup-body", "connective-arity"])
    def test_type_errors_are_parse_errors_at_the_node(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text, SIG, {"neg": neg(X), "min": min_of(X, X)})
        assert err.value.position == 0
        assert str(err.value).startswith(message + " at position 0 ")

    def test_deep_connective_chain_parses(self):
        depth = 900
        phi = parse("neg(" * depth + "P(x)" + ")" * depth, SIG, {"neg": neg(X)})
        assert str(phi) == "neg(" * depth + "P(x)" + ")" * depth

    @pytest.mark.parametrize("text", [5, None, b"P(x)"], ids=["int", "none", "bytes"])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(ValidationError, match="^formula text must be a string, got "):
            parse(text, SIG)

    @pytest.mark.parametrize("text", ["sup x. " * 5000 + "P(x)",
                                      "neg(" * 5000 + "P(x)" + ")" * 5000],
                             ids=["quantifiers", "connectives"])
    def test_deep_input_is_a_capacity_error(self, text):
        with pytest.raises(CapacityError, match="^input is nested too deeply to process$"):
            parse(text, SIG, {"neg": neg(X)})

    @pytest.mark.parametrize("args, message", [
        ((SIG, ["neg"]), "connective library must be a mapping of names to connectives, got list"),
        ((SIG, {"neg": 5}), "library entry 'neg' is not a Connective"),
        ((5,), "signature must be a Signature, got int"),
    ], ids=["library-list", "library-entry", "signature-int"])
    def test_malformed_arguments_refused(self, args, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse("P(x)", *args)

    def test_library_name_clashes_rejected(self):
        with pytest.raises(ValidationError):
            parse("P(x)", SIG, {"P": neg(X)})
        with pytest.raises(ValidationError):
            parse("P(x)", SIG, {"sup": neg(X)})


class TestCauchyLimit:
    def _formulas(self, n=5):
        return [atom(SIG, "P", "x") for _ in range(n)]

    def test_picks_least_index(self):
        lim = cauchy_limit(lambda n: F(1, 2 ** n), self._formulas(), F(1, 4))
        assert isinstance(lim, CauchyLimit)
        assert lim.index == 2
        assert lim.rate_at_index == F(1, 4)
        assert lim.tol == F(1, 4)

    def test_rate_as_mapping_and_sequence(self):
        rates = {0: F(1, 2), 1: F(1, 4), 2: F(1, 8), 3: F(1, 8), 4: F(1, 8)}
        assert cauchy_limit(rates, self._formulas(), F(1, 4)).index == 1
        seq = [F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6)]
        assert cauchy_limit(seq, self._formulas(), F(1, 5)).index == 3

    def test_sequence_must_cover_formulas(self):
        with pytest.raises(ValidationError):
            cauchy_limit([F(1, 2)], self._formulas(3), F(1, 4))

    def test_mapping_must_hold_each_index_read(self):
        with pytest.raises(ValidationError, match="^rate has no value at 0$"):
            cauchy_limit({}, self._formulas(1), 0)
        with pytest.raises(ValidationError, match="^rate has no value at 1$"):
            cauchy_limit({0: F(1, 2)}, self._formulas(3), F(1, 4))
        # an index past the one picked is never read
        assert cauchy_limit({0: F(1, 2), 1: F(1, 4)}, self._formulas(3), F(1, 4)).index == 1

    def test_needs_a_formula(self):
        with pytest.raises(ValidationError, match="^cauchy_limit needs at least one formula$"):
            cauchy_limit([F(0)], [], 0)

    def test_rate_must_be_nonincreasing(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            cauchy_limit([F(1, 4), F(1, 2), F(1, 8)], self._formulas(3), F(1, 8))

    def test_rate_never_reaching_tolerance(self):
        with pytest.raises(ValidationError, match="never reaches"):
            cauchy_limit(lambda n: F(1, 2), self._formulas(), F(1, 4))

    def test_needs_real_valued_formulas(self):
        q = Quant(QuantKind.SET, "x", atom(SIG, "P", "x"))
        with pytest.raises(TypeCheckError):
            cauchy_limit(lambda n: F(0), [q], F(1, 4))

    def test_str_is_transparent(self):
        lim = cauchy_limit(lambda n: F(0), self._formulas(1), 0)
        assert str(lim) == "P(x)"
        assert lim.value_space == X
