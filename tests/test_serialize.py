import json
import re
from fractions import Fraction as F

import pytest

from contlog.connective import unit_interval
from contlog.errors import FormatError, ValidationError
from contlog.formula import Relation, signature
from contlog.hyperspace import encode_subset, hyper
from contlog.semantics import structure
from contlog.serialize import (
    LIBRARY_SCHEMA,
    MANIFEST_SCHEMA,
    SIGNATURE_SCHEMA,
    STRUCTURE_SCHEMA,
    library_from_json,
    manifest_to_json,
    point_from_json,
    point_to_json,
    rational_from_str,
    rational_to_str,
    signature_from_json,
    signature_to_json,
    space_from_json,
    space_to_json,
    structure_from_json,
    structure_to_json,
)
from contlog.translate import translate_signature
from contlog.valuespace import make_finite, make_interval, point, product


def reencode(doc):
    """Force a pass through actual JSON so nothing leans on rich types."""
    return json.loads(json.dumps(doc))


class TestRationals:
    def test_round_trip(self):
        for x in (F(3, 4), F(0), F(1), F(7, 12)):
            assert rational_from_str(rational_to_str(x)) == x

    def test_integers_and_decimal_strings(self):
        assert rational_from_str(1) == F(1)
        assert rational_from_str("0.25") == F(1, 4)

    def test_floats_rejected(self):
        with pytest.raises(FormatError, match="strings or integers"):
            rational_from_str(0.25)

    def test_bools_rejected(self):
        with pytest.raises(FormatError, match="strings or integers"):
            rational_from_str(True)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError, match="bad rational"):
            rational_from_str("three quarters")
        with pytest.raises(FormatError, match="bad rational"):
            rational_from_str("1/0")


class TestPoints:
    def test_scalar_form(self):
        assert point_to_json(point(F(1, 2))) == "1/2"
        assert point_from_json("1/2") == point(F(1, 2))

    def test_vector_form(self):
        p = point(F(1, 2), F(1, 3))
        doc = point_to_json(p)
        assert doc == ["1/2", "1/3"]
        assert point_from_json(reencode(doc)) == p

    def test_empty_rejected(self):
        with pytest.raises(FormatError, match="at least one coordinate"):
            point_from_json([])


class TestSpaces:
    def test_interval_round_trip(self):
        X = make_interval(0, 1, F(1, 4), label="quarters")
        back = space_from_json(reencode(space_to_json(X)))
        assert back == X
        assert back.label == "quarters"

    def test_interval_spec_input(self):
        X = space_from_json({"interval": ["0", "1", "1/4"]})
        assert X == make_interval(0, 1, F(1, 4))

    def test_interval_spec_shape(self):
        with pytest.raises(FormatError, match=r"\[lo, hi, step\]"):
            space_from_json({"interval": ["0", "1"]})

    def test_finite_round_trip(self):
        X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))], label="X")
        back = space_from_json(reencode(space_to_json(X)))
        assert back == X
        assert back.resolution == 0

    def test_finite_spec_input(self):
        X = space_from_json({"finite": ["0", "1/2", "1"]})
        assert X.net == (point(0), point(F(1, 2)), point(1))

    def test_finite_needs_points(self):
        with pytest.raises(FormatError, match="nonempty list"):
            space_from_json({"finite": []})

    def test_product_round_trip(self):
        X = product(make_interval(0, 1, F(1, 2)), make_finite([point(0), point(1)]))
        back = space_from_json(reencode(space_to_json(X)))
        assert back == X
        assert back.dimension == 2

    def test_hyper_round_trip(self):
        H = hyper(make_interval(0, 1, F(1, 2), label="halves"))
        doc = space_to_json(H)
        assert "hyper" in doc
        back = space_from_json(reencode(doc))
        assert back == H  # the derived label it writes is read back
        assert back.net == H.net
        assert back.resolution == H.resolution
        assert not back.standard_metric
        k = encode_subset(back, [point(0), point(1)])
        assert back.metric(k, k) == 0

    @pytest.mark.parametrize("doc, message", [
        ({"interval": ["0", "1", "1/2"], "resolution": "x"},
         "^a \"interval\" space does not read 'resolution'$"),
        ({"finite": ["0", "1"], "resolution": "1/2"},
         "^a \"finite\" space does not read 'resolution'$"),
        ({"interval": ["0", "1", "1/2"], "bogus": 1, "also": 2},
         "^a \"interval\" space does not read 'also', 'bogus'$"),
        ({"net": ["0", "1"], "finite": ["0", "1"]}, "^a \"finite\" space does not read 'net'$"),
        ({"hyper": {"finite": ["0", "1"]}, "label": "K"},
         "^hyperspace label 'K' is not the derived 'K\\(finite\\(2p,1d\\)\\)'$"),
    ], ids=["interval-resolution", "finite-resolution", "interval-bogus", "two-shapes",
            "hyper-label"])
    def test_keys_a_shape_does_not_read_are_refused(self, doc, message):
        with pytest.raises(FormatError, match=message):
            space_from_json(doc)

    def test_unrecognized_shape(self):
        with pytest.raises(FormatError, match="needs one of"):
            space_from_json({"label": "nothing else"})
        with pytest.raises(FormatError, match="JSON object"):
            space_from_json(["0", "1"])


def small_signature():
    X = make_finite([point(0), point(F(1, 4)), point(F(3, 4))], label="X")
    return signature(
        [Relation("P", 1, X), Relation("d", 2, unit_interval())],
        distance_symbol="d",
        moduli={"P": 1},
    )


class TestSignatures:
    def test_round_trip(self):
        sig = small_signature()
        doc = reencode(signature_to_json(sig))
        assert doc["schema"] == SIGNATURE_SCHEMA
        back = signature_from_json(doc)
        assert [r.name for r in back.relations] == ["P", "d"]
        assert back.by_name["P"].space == sig.by_name["P"].space
        assert back.distance_symbol == "d"
        assert back.moduli == (("P", F(1)),)

    def test_plain_round_trip(self):
        sig = signature([Relation("R", 2, unit_interval())])
        back = signature_from_json(reencode(signature_to_json(sig)))
        assert back.distance_symbol is None
        assert back.moduli == ()

    def test_wrong_schema_tag(self):
        doc = signature_to_json(small_signature())
        doc["schema"] = "contlog.other/9"
        with pytest.raises(FormatError, match="unexpected schema"):
            signature_from_json(doc)

    def test_missing_tag_accepted(self):
        doc = signature_to_json(small_signature())
        del doc["schema"]
        assert signature_from_json(doc).by_name["P"].arity == 1

    def test_relations_required(self):
        with pytest.raises(FormatError, match="nonempty .relations."):
            signature_from_json({"schema": SIGNATURE_SCHEMA, "relations": []})

    def test_relation_entry_shape(self):
        with pytest.raises(FormatError, match="missing"):
            signature_from_json({"relations": [{"arity": 1}]})
        with pytest.raises(FormatError, match="must be an integer"):
            signature_from_json({"relations": [
                {"name": "P", "arity": "1", "space": {"interval": ["0", "1", "1"]}}
            ]})

    def test_semantic_errors_become_format_errors(self):
        # moduli naming an absent symbol is a signature-level complaint, but a
        # reader should still surface it as a malformed document
        doc = signature_to_json(small_signature())
        doc["moduli"]["ghost"] = "1"
        with pytest.raises(FormatError):
            signature_from_json(doc)


class TestStructures:
    def make(self):
        sig = small_signature()
        return structure(sig, ["a", "b"], {
            "P": {"a": F(1, 4), "b": F(3, 4)},
            "d": {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 1},
        })

    def test_round_trip(self):
        M = self.make()
        doc = reencode(structure_to_json(M))
        assert doc["schema"] == STRUCTURE_SCHEMA
        back = structure_from_json(doc)
        assert back.universe == ("a", "b")
        assert back.value("P", "b") == point(F(3, 4))
        assert back.value("d", "a", "b") == point(1)

    def test_binary_keys_comma_joined(self):
        doc = structure_to_json(self.make())
        assert set(doc["interp"]["d"]) == {"a,a", "a,b", "b,a", "b,b"}

    def test_universe_required(self):
        doc = structure_to_json(self.make())
        doc["universe"] = []
        with pytest.raises(FormatError, match="nonempty .universe."):
            structure_from_json(doc)

    def test_unknown_symbol(self):
        doc = structure_to_json(self.make())
        doc["interp"]["Q0"] = {"a": "0"}
        with pytest.raises(FormatError, match="unknown symbol"):
            structure_from_json(doc)

    def test_key_arity(self):
        doc = structure_to_json(self.make())
        doc["interp"]["d"]["a"] = "0"
        with pytest.raises(FormatError, match="arity"):
            structure_from_json(doc)

    def test_two_keys_naming_one_tuple_are_refused(self):
        # " a" names the tuple ('a',) as "a" does; the later one used to win
        doc = structure_to_json(self.make())
        doc["interp"]["P"][" a"] = "3/4"
        with pytest.raises(FormatError, match=r"^P: two keys name the tuple \('a',\)$"):
            structure_from_json(doc)

    def test_off_net_value_is_a_format_error(self):
        doc = structure_to_json(self.make())
        doc["interp"]["P"]["a"] = "1/2"  # X has no point near 1/2
        with pytest.raises(FormatError, match="^" + re.escape(
                "P('a',): value (1/2) is not within resolution of the net of X") + "$"):
            structure_from_json(doc)

    @pytest.mark.parametrize("value, error, message", [
        ("-1/4", ValidationError, "coordinate -1/4 lies outside [0,1]"),
        ("5/4", ValidationError, "coordinate 5/4 lies outside [0,1]"),
        (0.25, FormatError, "rationals must be strings or integers, got 0.25"),
    ], ids=["negative", "above-one", "float"])
    def test_bad_coordinates_are_refused(self, value, error, message):
        doc = structure_to_json(self.make())
        doc["interp"]["P"]["a"] = value
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            structure_from_json(doc)

    def test_interval_bounds_are_checked(self):
        doc = structure_to_json(self.make())
        doc["signature"]["relations"][0]["space"] = {"interval": ["-1/4", "1", "1/4"]}
        with pytest.raises(ValidationError, match=r"^interval must sit inside \[0,1\]$"):
            structure_from_json(doc)


class TestLibraries:
    def unit_doc(self):
        return {"interval": ["0", "1", "1/2"]}

    def test_stock_kinds(self):
        lib = library_from_json({
            "schema": LIBRARY_SCHEMA,
            "connectives": {
                "not": {"kind": "neg", "space": self.unit_doc()},
                "and": {"kind": "min", "x": self.unit_doc(), "y": self.unit_doc()},
                "or": {"kind": "max", "x": self.unit_doc(), "y": self.unit_doc()},
                "half": {"kind": "affine", "space": self.unit_doc(), "a": "1/2", "b": 0},
                "zero": {"kind": "const", "space": self.unit_doc(), "value": "0"},
                "left": {"kind": "proj", "space": self.unit_doc(), "index": 0},
            },
        })
        u = make_interval(0, 1, F(1, 2))
        assert lib["not"](point(0)) == point(1)
        assert lib["and"](point(F(1, 2)), point(1)) == point(F(1, 2))
        assert lib["or"](point(F(1, 2)), point(0)) == point(F(1, 2))
        assert lib["half"](point(1)) == point(F(1, 2))
        assert lib["zero"]() == point(0)
        assert lib["left"].domain == (u,)

    def test_table_entry(self):
        lib = library_from_json({
            "connectives": {
                "sq": {
                    "kind": "table",
                    "domains": [self.unit_doc()],
                    "codomain": {"interval": ["0", "1", "1/4"]},
                    "lipschitz": "3/2",
                    "mapping": {"0": "0", "1/2": "1/4", "1": "1"},
                },
            },
        })
        assert lib["sq"](point(F(1, 2))) == point(F(1, 4))

    def test_table_keys_naming_one_point_are_refused(self):
        # "0" and "0/1" both name point(0); the later one used to win
        with pytest.raises(FormatError, match="^connective 'sq': table key '0/1' names a point"):
            library_from_json({
                "connectives": {
                    "sq": {
                        "kind": "table",
                        "domains": [self.unit_doc()],
                        "codomain": self.unit_doc(),
                        "lipschitz": 2,
                        "mapping": {"0": "0", "1/2": "1/2", "1": "1", "0/1": "1"},
                    },
                },
            })

    def test_table_name_must_be_a_string(self):
        with pytest.raises(FormatError,
                           match=r"^connective 'sq': table name must be a string, got \['x'\]$"):
            library_from_json({"connectives": {"sq": {
                "kind": "table", "name": ["x"], "domains": [self.unit_doc()],
                "codomain": self.unit_doc(), "lipschitz": 1,
                "mapping": {"0": "0", "1/2": "1/2", "1": "1"}}}})

    def test_table_key_arity(self):
        with pytest.raises(FormatError, match="2 arguments"):
            library_from_json({
                "connectives": {
                    "bad": {
                        "kind": "table",
                        "domains": [self.unit_doc(), self.unit_doc()],
                        "codomain": self.unit_doc(),
                        "lipschitz": 1,
                        "mapping": {"0": "0"},
                    },
                },
            })

    def test_lift_by_reference(self):
        lib = library_from_json({
            "connectives": {
                "not": {"kind": "neg", "space": self.unit_doc()},
                "best": {"kind": "sup_theta", "inner": "not"},
            },
        })
        H = hyper(make_interval(0, 1, F(1, 2)))
        k = encode_subset(H, [point(0), point(F(1, 2))])
        assert lib["best"](k) == point(1)

    def test_lift_needs_earlier_entry(self):
        with pytest.raises(FormatError, match="earlier entry"):
            library_from_json({
                "connectives": {
                    "best": {"kind": "sup_theta", "inner": "later"},
                    "later": {"kind": "neg", "space": self.unit_doc()},
                },
            })

    def test_unknown_kind_names_the_entry(self):
        with pytest.raises(FormatError, match="connective 'frob': unknown connective kind"):
            library_from_json({"connectives": {"frob": {"kind": "frobnicate"}}})

    def test_entry_errors_name_the_entry(self):
        with pytest.raises(FormatError, match="connective 'bad':"):
            library_from_json({
                "connectives": {
                    "bad": {"kind": "affine", "space": self.unit_doc(),
                            "a": "2", "b": "0"},  # image leaves [0,1]
                },
            })

    def test_wrong_schema(self):
        with pytest.raises(FormatError, match="unexpected schema"):
            library_from_json({"schema": "contlog.structure/1", "connectives": {}})


class TestManifests:
    def test_shape_and_transport(self):
        sig = small_signature()
        ctx = translate_signature(sig, F(1, 8))
        M = structure(sig, ["a", "b"], {
            "P": {"a": F(1, 4), "b": F(3, 4)},
            "d": {("a", "a"): 0, ("b", "b"): 0, ("a", "b"): 1, ("b", "a"): 1},
        })
        doc = reencode(manifest_to_json(ctx, M))
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["step"] == "1/8"
        assert doc["aligned"] is True
        assert doc["snap_bounds"]["P"] == "0"
        target = signature_from_json(doc["target_signature"])
        assert "P_0" in target.by_name
        N = structure_from_json(doc["structure"])
        assert N.value("P_0", "b").scalar == F(3, 4)

    def test_without_structure(self):
        ctx = translate_signature(small_signature(), F(1, 8))
        doc = manifest_to_json(ctx)
        assert "structure" not in doc
