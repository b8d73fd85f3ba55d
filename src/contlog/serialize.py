"""JSON formats for spaces, signatures, structures and connective libraries.

All rationals travel as strings ("3/4", "1") so documents stay exact; floats
are accepted on input only when they are exactly representable ("0.25") via
`fractions.Fraction`.  Tuple keys are comma-joined element ids, matching the
structure constructor's coercion.  Every document carries a `schema` tag;
readers accept a missing tag but reject an unknown one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping

from .connective import (Connective, add, affine, bounded_add, clamp01, const,
                         identity, max_of, min_of, mul, neg, proj, table,
                         truncated_sub)
from .errors import ContlogError, FormatError, ValidationError
from .formula import Relation, Signature
from .hyperspace import hyper, inf_theta, lift, sup_theta
from .semantics import Structure, structure
from .valuespace import Point, ValueSpace, frac, make_finite, make_interval

if TYPE_CHECKING:
    from .translate import TranslationContext

SIGNATURE_SCHEMA = "contlog.signature/1"
STRUCTURE_SCHEMA = "contlog.structure/1"
LIBRARY_SCHEMA = "contlog.library/1"
MANIFEST_SCHEMA = "contlog.manifest/1"


def rational_to_str(x: Fraction) -> str:
    return str(x)


def rational_from_str(s: Any) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise FormatError(f"rationals must be strings or integers, got {s!r}")
    try:
        return frac(s)
    except ValidationError as err:
        raise FormatError(str(err)) from None


def _expect_map(doc: Any, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _check_read(doc: Mapping, what: str, read) -> None:
    """Refuse a key the reader of `what` does not read, such as a misspelt one."""
    unread = sorted(set(doc).difference(read), key=str)
    if unread:
        raise FormatError(f'{what} does not read {", ".join(map(repr, unread))}')


def _check_schema(doc: Mapping, expected: str):
    tag = doc.get("schema")
    if tag is not None and tag != expected:
        raise FormatError(f"unexpected schema {tag!r}, wanted {expected!r}")


# ---------------------------------------------------------------------------
# Points and spaces


def point_to_json(p: Point):
    if p.dimension == 1:
        return rational_to_str(p.coords[0])
    return [rational_to_str(c) for c in p.coords]


def point_from_json(doc: Any) -> Point:
    if isinstance(doc, (list, tuple)):
        if not doc:
            raise FormatError("a point needs at least one coordinate")
        return Point(tuple(rational_from_str(c) for c in doc))
    return Point((rational_from_str(doc),))


def space_to_json(space: ValueSpace) -> dict:
    if not space.standard_metric:  # a hyperspace
        return {"hyper": space_to_json(space.base), "label": space.label}
    return {
        "net": [point_to_json(p) for p in space.net],
        "resolution": rational_to_str(space.resolution),
        "label": space.label,
    }


def space_from_json(doc: Any) -> ValueSpace:
    doc = _expect_map(doc, "value space")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise FormatError(f"space label must be a string, got {label!r}")
    shape = next((key for key in ("hyper", "interval", "finite", "net") if key in doc), None)
    if shape is None:
        raise FormatError('value space needs one of "interval", "finite", "net", "hyper"')
    read = (shape, "label", "resolution") if shape == "net" else (shape, "label")
    _check_read(doc, f'a "{shape}" space', read)
    if shape == "hyper":
        space = hyper(space_from_json(doc["hyper"]))
        if label not in (None, space.label):
            raise FormatError(f"hyperspace label {label!r} is not the derived {space.label!r}")
        return space
    if shape == "interval":
        spec = doc["interval"]
        if not (isinstance(spec, list) and len(spec) == 3):
            raise FormatError('"interval" takes [lo, hi, step]')
        lo, hi, step = (rational_from_str(s) for s in spec)
        return make_interval(lo, hi, step, label=label)
    pts = doc[shape]
    if not isinstance(pts, list) or not pts:
        raise FormatError(f'"{shape}" takes a nonempty list of points')
    pts = [point_from_json(p) for p in pts]
    if shape == "finite":
        return make_finite(pts, label=label)
    res = rational_from_str(doc.get("resolution", 0))
    return ValueSpace(pts[0].dimension, tuple(pts), res, label or f"space({len(pts)}p)")


# ---------------------------------------------------------------------------
# Signatures


def signature_to_json(sig: Signature) -> dict:
    doc: dict = {
        "schema": SIGNATURE_SCHEMA,
        "relations": [
            {"name": r.name, "arity": r.arity, "space": space_to_json(r.space)}
            for r in sig.relations
        ],
    }
    if sig.distance_symbol is not None:
        doc["distance"] = sig.distance_symbol
        doc["moduli"] = {n: rational_to_str(m) for n, m in sig.moduli}
    return doc


def signature_from_json(doc: Any) -> Signature:
    doc = _expect_map(doc, "signature")
    _check_schema(doc, SIGNATURE_SCHEMA)
    _check_read(doc, "a signature", ("schema", "relations", "distance", "moduli"))
    rels = doc.get("relations")
    if not isinstance(rels, list) or not rels:
        raise FormatError('signature needs a nonempty "relations" list')
    relations = []
    for entry in rels:
        entry = _expect_map(entry, "relation")
        _check_read(entry, "a relation entry", ("name", "arity", "space"))
        try:
            name, arity = entry["name"], entry["arity"]
        except KeyError as err:
            raise FormatError(f"relation entry is missing {err}") from None
        space = space_from_json(entry.get("space", {}))
        try:
            relations.append(Relation(name, arity, space))
        except ContlogError as err:
            raise FormatError(str(err)) from None
    moduli = {n: rational_from_str(m)
              for n, m in _expect_map(doc.get("moduli", {}), '"moduli"').items()}
    try:
        return Signature(tuple(relations), doc.get("distance"),
                         tuple(sorted(moduli.items())))
    except ContlogError as err:
        raise FormatError(str(err)) from None


# ---------------------------------------------------------------------------
# Structures


def structure_to_json(M: Structure) -> dict:
    interp = {}
    for rel in M.signature.relations:
        interp[rel.name] = {
            ",".join(t): point_to_json(v) for t, v in sorted(M.interp[rel.name].items())
        }
    return {
        "schema": STRUCTURE_SCHEMA,
        "signature": signature_to_json(M.signature),
        "universe": list(M.universe),
        "interp": interp,
    }


def structure_from_json(doc: Any) -> Structure:
    doc = _expect_map(doc, "structure")
    _check_schema(doc, STRUCTURE_SCHEMA)
    _check_read(doc, "a structure", ("schema", "signature", "universe", "interp"))
    sig = signature_from_json(doc.get("signature", {}))
    universe = doc.get("universe")
    if not isinstance(universe, list) or not universe:
        raise FormatError('structure needs a nonempty "universe" list')
    raw = _expect_map(doc.get("interp", {}), '"interp"')
    interp: dict[str, dict[str, Point]] = {}
    for name, entries in raw.items():
        entries = _expect_map(entries, f"interpretation of {name!r}")
        if name not in sig.by_name:
            raise FormatError(f"interpretation of unknown symbol {name!r}")
        interp[name] = {key: point_from_json(val) for key, val in entries.items()}
    try:
        return structure(sig, universe, interp)
    except ContlogError as err:
        raise FormatError(str(err)) from None


# ---------------------------------------------------------------------------
# Connective libraries (input only: tables and stock constructors)


def _table_from_json(entry: Mapping) -> Connective:
    name = entry.get("name", "table")
    if not isinstance(name, str):
        raise FormatError(f"table name must be a string, got {name!r}")
    domains = entry.get("domains")
    if not isinstance(domains, list) or not domains:
        raise FormatError('table needs a nonempty "domains" list')
    doms = [space_from_json(d) for d in domains]
    codomain = space_from_json(entry.get("codomain", {}))
    lip = rational_from_str(entry.get("lipschitz", 0))
    mapping = {}
    for key, val in _expect_map(entry.get("mapping", {}), "table mapping").items():
        parts = key.split("|")
        if len(parts) != len(doms):
            raise FormatError(f"table key {key!r} does not have {len(doms)} arguments")
        pts = tuple(point_from_json(p.split(",") if "," in p else p) for p in parts)
        if pts in mapping:
            raise FormatError(f"table key {key!r} names a point tuple an earlier key names")
        mapping[pts] = point_from_json(val)
    return table(doms, mapping, lip, codomain, name=name)


_UNARY_KINDS = {"neg": neg, "clamp01": clamp01, "identity": identity}
_BINARY_KINDS = {"min": min_of, "max": max_of, "add": add, "mul": mul,
                 "bounded_add": bounded_add, "truncated_sub": truncated_sub}
_LIFT_KINDS = {"sup_theta": sup_theta, "inf_theta": inf_theta, "lift": lift}
#: the keys besides "kind" that an entry of each kind reads
_READS = {"table": ("name", "domains", "codomain", "lipschitz", "mapping"),
          "affine": ("space", "a", "b"), "const": ("space", "value"), "proj": ("space", "index"),
          **dict.fromkeys(_UNARY_KINDS, ("space",)), **dict.fromkeys(_BINARY_KINDS, ("x", "y")),
          **dict.fromkeys(_LIFT_KINDS, ("inner",))}


def connective_from_json(entry: Any, resolved: Mapping[str, Connective]) -> Connective:
    """One library entry; `resolved` holds earlier entries for references."""
    entry = _expect_map(entry, "connective")
    kind = entry.get("kind")
    if not isinstance(kind, str):
        raise FormatError(f"connective kind must be a string, got {kind!r}")
    if kind not in _READS:
        raise FormatError(f"unknown connective kind {kind!r}")
    _check_read(entry, f'a "{kind}" connective', ("kind", *_READS[kind]))
    if kind == "table":
        return _table_from_json(entry)
    if kind in _UNARY_KINDS:
        return _UNARY_KINDS[kind](space_from_json(entry.get("space", {})))
    if kind in _BINARY_KINDS:
        return _BINARY_KINDS[kind](space_from_json(entry.get("x", {})),
                                   space_from_json(entry.get("y", {})))
    if kind == "affine":
        return affine(space_from_json(entry.get("space", {})),
                      rational_from_str(entry.get("a", 1)),
                      rational_from_str(entry.get("b", 0)))
    if kind == "const":
        space = space_from_json(entry.get("space", {}))
        return const(point_from_json(entry.get("value", "0")), space)
    if kind == "proj":
        i = entry.get("index", 0)
        if not isinstance(i, int) or isinstance(i, bool):
            raise FormatError("proj index must be an integer")
        return proj(space_from_json(entry.get("space", {})), i)
    inner = entry.get("inner")  # one of _LIFT_KINDS
    theta = resolved.get(inner) if isinstance(inner, str) else None
    if theta is None:
        raise FormatError(f"{kind} needs \"inner\" naming an earlier entry, got {inner!r}")
    return _LIFT_KINDS[kind](theta)


def library_from_json(doc: Any) -> dict[str, Connective]:
    doc = _expect_map(doc, "library")
    _check_schema(doc, LIBRARY_SCHEMA)
    _check_read(doc, "a library", ("schema", "connectives"))
    out: dict[str, Connective] = {}
    for name, entry in _expect_map(doc.get("connectives", {}), '"connectives"').items():
        try:
            out[name] = connective_from_json(entry, out)
        except ContlogError as err:
            raise FormatError(f"connective {name!r}: {err}") from None
    return out


# ---------------------------------------------------------------------------
# Translation manifests (output of the translate command)


def manifest_to_json(ctx: TranslationContext, M: Structure | None = None) -> dict:
    doc = {
        "schema": MANIFEST_SCHEMA,
        "step": rational_to_str(ctx.step),
        "aligned": ctx.aligned,
        "snap_bounds": {
            rel.name: rational_to_str(ctx.snap_bound(rel.name))
            for rel in ctx.source.relations
        },
        "target_signature": signature_to_json(ctx.target),
    }
    if M is not None:
        from .translate import transport_structure

        doc["structure"] = structure_to_json(transport_structure(ctx, M))
    return doc
