"""Versioned JSON documents for models, configurations, and reduction traces.

Each document is an envelope ``{"schema_version", "kind", "body"}``. Parsing
is strict: unknown fields, unknown kinds, dangling references, and invariant
violations are all rejected with an error naming the offending field, id, or
byte position. Serialization is canonical: keys sorted, collections ordered
by id, UTF-8, newline-terminated, so equal models produce equal bytes.

One field table per record shape, built at import, drives both directions: a
row gives the JSON key, the attribute, the codec, and for an optional field
the default read when the key is absent and left out when writing. Rows go
in reading order, which fixes the first error a faulty document reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple

from .configs import Configuration
from .model import (
    Activity,
    Binding,
    BindingKind,
    FunctionalArtifact,
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    LayeredModel,
    ModelError,
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    check_product_includes,
    validate,
)
from .reduction import MergeRecord, ReductionTrace

SCHEMA_VERSION = "1"

KIND_LAYERED = "layered-model"
KIND_VARIABILITY = "variability-model"
KIND_PRODUCT_LINE = "product-line-model"
KIND_CONFIGURATION = "configuration"
KIND_TRACE = "reduction-trace"

_KNOWN_KINDS = (KIND_LAYERED, KIND_VARIABILITY, KIND_PRODUCT_LINE, KIND_CONFIGURATION, KIND_TRACE)


class ParseError(ModelError):
    """A document could not be parsed; the message names the offending spot."""


@dataclass(frozen=True)
class ModelDocument:
    schema_version: str
    kind: str
    body: dict[str, Any]


def load_document(data: bytes) -> ModelDocument:
    """Decode the envelope and check version and kind."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not valid UTF-8 at byte {exc.start}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno} (byte {exc.pos})"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays and objects are nested too deeply") from None
    obj = _object(raw, "document")
    _reject_unknown(obj, "document", {"schema_version", "kind", "body"})
    version = _string(obj, "document", "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unknown schema version {version!r} (expected {SCHEMA_VERSION!r})")
    kind = _string(obj, "document", "kind")
    if kind not in _KNOWN_KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    return ModelDocument(version, kind, _object(obj.get("body"), "body"))


def parse_layered_model(data: bytes) -> tuple[LayeredModel, ProductSet | None]:
    """Parse a layered-model document; validates structure and references."""
    body = _body(data, KIND_LAYERED)
    # ``products`` is the one key beyond the model's, read after the model.
    model = _LAYERED.read({k: v for k, v in body.items() if k != "products"}, "body")
    products = None
    if "products" in body:
        products = ProductSet(_PRODUCTS.read(body, "body", "products"))
    _check_valid(ProductLineModel(artifacts=model))
    if products is not None:
        check_product_includes(model, products, ParseError)
    return model, products


def parse_variability_model(data: bytes) -> ProductLineModel:
    """Parse a variability-model or product-line-model document."""
    doc = load_document(data)
    layered, body, where = LayeredModel(), doc.body, "body"
    if doc.kind == KIND_PRODUCT_LINE:
        _reject_unknown(body, where, {"layered", "variability"})
        layered = _LAYERED.read(body.get("layered"), "body.layered")
        body, where = body.get("variability"), "body.variability"
    elif doc.kind != KIND_VARIABILITY:
        raise ParseError(
            f"expected a {KIND_VARIABILITY} or {KIND_PRODUCT_LINE} document, got {doc.kind!r}")
    vm, bindings = _VARIABILITY.read(body, where)
    plm = ProductLineModel(vm=vm, artifacts=layered, bindings=bindings)
    _check_valid(plm)
    return plm


def parse_configuration(data: bytes) -> Configuration:
    return _CONFIGURATION.read(_body(data, KIND_CONFIGURATION), "body")


def parse_trace(data: bytes) -> ReductionTrace:
    return _TRACE.read(_body(data, KIND_TRACE), "body")


def serialize(model, *, products: ProductSet | None = None) -> bytes:
    """Canonical document bytes for a model, configuration, or trace."""
    if isinstance(model, LayeredModel):
        kind, body = KIND_LAYERED, _LAYERED.write(model)
        if products is not None:
            body["products"] = _PRODUCTS.write(products.products)
    elif isinstance(model, ProductLineModel):
        if model.artifacts.is_empty and not model.bindings:
            kind, body = KIND_VARIABILITY, _VARIABILITY.write(model)
        else:
            kind, body = KIND_PRODUCT_LINE, {
                "layered": _LAYERED.write(model.artifacts),
                "variability": _VARIABILITY.write(model),
            }
    elif isinstance(model, Configuration):
        kind, body = KIND_CONFIGURATION, _CONFIGURATION.write(model)
    elif isinstance(model, ReductionTrace):
        kind, body = KIND_TRACE, _TRACE.write(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "body": body}
    text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)
    return text.encode("utf-8") + b"\n"


def _body(data: bytes, kind: str) -> dict:
    doc = load_document(data)
    if doc.kind != kind:
        raise ParseError(f"expected a {kind} document, got {doc.kind!r}")
    return doc.body


def _check_valid(plm: ProductLineModel) -> None:
    violations = validate(plm)
    if violations:
        head = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ParseError(f"document violates model invariants: {head}{more}")


# -- codecs ------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that must be present


class _Codec(NamedTuple):
    read: Any  # (JSON object, where, key) -> field value; errors name {where}.{key}
    write: Any = None  # field value -> JSON value; None keeps the value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a JSON object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a JSON array")
    return value


def _reject_unknown(obj: dict, where: str, known) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise ParseError(f"{where}: unknown field {min(unknown)!r}")


def _string(obj: dict, where: str, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}.{key} must be a non-empty string")
    return value


def _boolean(obj: dict, where: str, key: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise ParseError(f"{where}.{key} must be a boolean")
    return value


def _count(obj: dict, where: str, key: str) -> int:
    value = obj.get(key)
    if type(value) is not int or value < 0:
        raise ParseError(f"{where}.{key} must be a non-negative integer")
    return value


def _strings(obj: dict, where: str, key: str) -> tuple[str, ...]:
    values = _array(obj.get(key), f"{where}.{key}")
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise ParseError(f"{where}.{key}[{i}] must be a string")
    return tuple(values)


def _pairing(obj: dict, where: str, key: str) -> tuple[tuple[str, str], ...]:
    pairing = _object(obj.get(key), f"{where}.{key}")
    for target, source in pairing.items():
        if not isinstance(source, str):
            raise ParseError(f"{where}.{key}[{target!r}] must be a string")
    return tuple(sorted(pairing.items()))


def _group(obj: dict, where: str, key: str) -> str:
    """An activity's group label; the ``mandatory`` row is read before it."""
    group = _string(obj, where, key)
    if obj["mandatory"]:
        raise ParseError(
            f"{where}: mandatory activity {obj.get('id')!r} cannot carry a group label")
    return group


def _enum(enum_cls) -> _Codec:
    allowed = ", ".join(e.value for e in enum_cls)

    def read(obj: dict, where: str, key: str):
        try:
            return enum_cls(_string(obj, where, key))
        except ValueError:
            raise ParseError(f"{where}.{key} must be one of: {allowed}") from None

    return _Codec(read, attrgetter("value"))


def _or_default(read, default):
    return lambda obj, where, key: read(obj, where, key) if key in obj else default


def _records(table, *, required: bool = False) -> _Codec:
    """A JSON array of ``table`` records; absent reads as empty unless required."""

    def read(obj: dict, where: str, key: str) -> tuple:
        if key not in obj and not required:
            return ()
        path = f"{where}.{key}"
        items = _array(obj.get(key), path)
        return tuple([table.read(item, f"{path}[{i}]") for i, item in enumerate(items)])

    return _Codec(read, lambda records: [table.write(r) for r in records])


_STRING = _Codec(_string)
_BOOLEAN = _Codec(_boolean)
_STRINGS = _Codec(_strings)
_LAYER = _enum(Layer)


# -- field tables ------------------------------------------------------------

class _Table:
    """One record shape: rows ``(JSON key, attribute, codec=_STRING,
    default=_REQUIRED)`` in reading order. An attribute is a name, a tuple
    position (``make`` is ``tuple``; rows in position order), or a dotted
    path into the written record whose last name is the keyword ``make`` gets."""

    def __init__(self, make, *rows):
        rows = [row + (_STRING, _REQUIRED)[len(row) - 2:] for row in rows]
        self.make = (lambda **fields: tuple(fields.values())) if make is tuple else make
        self.keys = frozenset(row[0] for row in rows)
        self.readers = tuple(
            (key, key if isinstance(attr, int) else attr.rpartition(".")[2],
             codec.read if default is _REQUIRED else _or_default(codec.read, default))
            for key, attr, codec, default in rows)
        self.writers = tuple(
            (key, (itemgetter if isinstance(attr, int) else attrgetter)(attr), codec.write, default)
            for key, attr, codec, default in rows)

    def read(self, raw, where: str):
        obj = _object(raw, where)
        _reject_unknown(obj, where, self.keys)
        values = {}
        for key, name, read in self.readers:
            values[name] = read(obj, where, key)
        return self.make(**values)

    def write(self, record) -> dict:
        obj = {}
        for key, get, write, default in self.writers:
            value = get(record)
            if default is _REQUIRED or value != default:
                obj[key] = value if write is None else write(value)
        return obj


def _variability(bindings, **fields) -> tuple[VariabilityModel, tuple[Binding, ...]]:
    return VariabilityModel(**fields), bindings


class _Bindings:
    """Either binding shape, picked by the key set when read, by kind when written."""

    tables = {
        kind: _Table(partial(Binding, kind=kind), (source, "source_id"), (target, "target_id"))
        for kind, source, target in ((BindingKind.ACTIVITY_VARIANT, "activity", "variant"),
                                     (BindingKind.ARTIFACT_VP, "artifact", "vp"))}

    @staticmethod
    def read(raw, where: str) -> Binding:
        keys = frozenset(_object(raw, where))
        for table in _Bindings.tables.values():
            if table.keys == keys:
                return table.read(raw, where)
        raise ParseError(
            f"{where}: a binding must have keys {{activity, variant}} or {{artifact, vp}}")

    @staticmethod
    def write(binding: Binding) -> dict:
        return _Bindings.tables[binding.kind].write(binding)


_ACTIVITY = _Table(
    Activity,
    ("mandatory", "mandatory", _BOOLEAN), ("group", "group", _Codec(_group), None),
    ("id", "id"), ("name", "name"), ("layer", "layer", _LAYER), ("artifact", "artifact_id"))
_ARTIFACT = _Table(
    FunctionalArtifact,
    ("id", "id"), ("layer", "layer", _LAYER), ("activities", "activity_ids", _STRINGS))
_REFINEMENT = _Table(
    Refinement,
    ("child_artifact", "child_artifact_id"), ("parent_activity", "parent_activity_id"),
    ("kind", "kind", _enum(RefinementKind)))
_INTERACTION_ROWS = (
    ("from", "from_id"), ("to", "to_id"), ("kind", "kind", _enum(InteractionKind)),
    ("requires", "requires", _BOOLEAN, False))
_LAYERED = _Table(
    LayeredModel,
    ("activities", "activities", _records(_ACTIVITY)),
    ("artifacts", "artifacts", _records(_ARTIFACT)),
    ("refinements", "refinements", _records(_REFINEMENT)),
    ("interactions", "interactions", _records(
        _Table(partial(Interaction, level=InteractionLevel.ARTIFACT), *_INTERACTION_ROWS))))
_PRODUCTS = _records(_Table(Product, ("id", "id"), ("includes", "includes", _STRINGS)))

_VARIABILITY = _Table(  # read as (vm, bindings), written from a ProductLineModel
    _variability,
    ("variation_points", "vm.variation_points", _records(_Table(
        VariationPoint, ("id", "id"), ("name", "name"), ("level", "level", _LAYER)))),
    ("variants", "vm.variants", _records(_Table(
        Variant, ("id", "id"), ("name", "name"), ("vp", "vp_id")))),
    ("refinements", "vm.refinements", _records(_Table(
        VariabilityRefinement, ("child_vp", "child_vp_id"),
        ("parent_variant", "parent_variant_id")))),
    ("interactions", "vm.variant_interactions", _records(
        _Table(partial(Interaction, level=InteractionLevel.VARIANT), *_INTERACTION_ROWS))),
    ("bindings", "bindings", _records(_Bindings), ()))

_MERGE = _Table(
    MergeRecord,
    ("pairing", "variant_pairing", _Codec(_pairing, dict)),
    ("rebound_bindings", "rebound_bindings", _records(_Table(
        tuple, ("activity", 0), ("from_variant", 1), ("to_variant", 2)))),
    ("transferred_refinements", "transferred_refinements", _records(_Table(
        tuple, ("child_vp", 0), ("from_parent", 1), ("to_parent", 2)))),
    ("transferred_interactions", "transferred_interactions", _records(_Table(
        tuple, ("from", 0), ("to", 1), ("new_from", 2), ("new_to", 3)))),
    ("source_vp", "source_vp_id"),
    ("target_vp", "target_vp_id"))
_TRACE = _Table(
    ReductionTrace,
    ("pass_count", "pass_count", _Codec(_count)),
    ("merges", "merges", _records(_MERGE, required=True)))
_CONFIGURATION = _Table(
    Configuration,
    ("selection", "selection", _Codec(lambda *args: frozenset(_strings(*args)), sorted)))
