"""Versioned JSON documents for models, configurations, and reduction traces.

Each document is an envelope ``{"schema_version", "kind", "body"}``, read by
``_body`` for every parser. Parsing is strict: unknown fields, unknown kinds,
dangling references, and invariant violations are all rejected with an error
naming the offending field, id, or byte position, as is a number too long
for ``int``. Serialization is canonical: keys sorted, collections ordered by
id, UTF-8, newline-terminated, so equal models produce equal bytes.

One field table per record shape, built at import, drives both directions: a
row gives the JSON key, the attribute, the codec, and for an optional field
the default read when the key is absent and left out when writing. Rows go
in reading order, which fixes the first error a faulty document reports.

An array of records is read a column at a time: one ``map`` per field, a
check of the whole column by exact type (``True`` is not ``1``), then the
records in bulk (``model._build``: a dataclass's fields set a column at a
time in field order, as its ``__init__`` sets them, then ``__post_init__``).
At any doubt the array is read again record by record, which raises the
error of the document's first fault.

The writer makes text, not dicts: each table keeps its rows sorted by key in
one ``%`` template per indentation, filled over the zipped columns of its
texts, and each codec writes its value's JSON text (strings through the C
escaper of ``json.encoder``). Each line is written once, at its final
indentation: a multi-line text is given the pad of the line it starts on,
and nothing is re-indented afterwards. The bytes are those of
``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)`` plus a
newline. A string with a lone surrogate has no UTF-8 form, so the reader
rejects it, naming the field; the check runs only on a text that holds a
``\\u`` escape.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from functools import cache, partial
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring as _escape
from operator import attrgetter, is_not, itemgetter
from types import SimpleNamespace
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
    _build,
    _collector_paused,
    check_product_includes,
    check_valid,
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


def _body(data: bytes, *kinds: str) -> tuple[str, dict]:
    """Decode a document, check its envelope, version and kind, and return
    the kind, one of ``kinds``, with the body."""
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
    except ValueError:  # an int of more digits than ``int`` reads from text
        raise ParseError("invalid JSON: a number has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays and objects are nested too deeply") from None
    if "\\" in text and "\\u" in text:  # only a \u escape can spell a lone surrogate
        _reject_lone_surrogates(raw)
    obj = _object(raw, "document")
    _reject_unknown(obj, "document", {"schema_version", "kind", "body"})
    version = _string(obj, "document", "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unknown schema version {version!r} (expected {SCHEMA_VERSION!r})")
    kind = _string(obj, "document", "kind")
    if kind not in _KNOWN_KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    body = _object(obj.get("body"), "body")
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} document, got {kind!r}")
    return kind, body


@_collector_paused
def parse_layered_model(data: bytes) -> tuple[LayeredModel, ProductSet | None]:
    """Parse a layered-model document; validates structure and references."""
    model, products = _LAYERED_DOCUMENT.read(_body(data, KIND_LAYERED)[1], "body")
    check_valid(validate(ProductLineModel(artifacts=model)), ParseError, "document")
    if products is not None:
        check_product_includes(model, products, ParseError)
    return model, products


@_collector_paused
def parse_variability_model(data: bytes) -> ProductLineModel:
    """Parse a variability-model or product-line-model document."""
    kind, body = _body(data, KIND_VARIABILITY, KIND_PRODUCT_LINE)
    layered, where = LayeredModel(), "body"
    if kind == KIND_PRODUCT_LINE:
        _reject_unknown(body, where, {"layered", "variability"})
        layered = _LAYERED.read(body.get("layered"), "body.layered")
        body, where = body.get("variability"), "body.variability"
    vm, bindings = _VARIABILITY.read(body, where)
    plm = ProductLineModel(vm=vm, artifacts=layered, bindings=bindings)
    check_valid(validate(plm), ParseError, "document")
    return plm


def parse_configuration(data: bytes) -> Configuration:
    return _CONFIGURATION.read(_body(data, KIND_CONFIGURATION)[1], "body")


@_collector_paused
def parse_trace(data: bytes) -> ReductionTrace:
    return _TRACE.read(_body(data, KIND_TRACE)[1], "body")


@_collector_paused
def serialize(model, *, products: ProductSet | None = None) -> bytes:
    """Canonical document bytes for a model, configuration, or trace."""
    if isinstance(model, LayeredModel):
        kind, body = KIND_LAYERED, _LAYERED_DOCUMENT.text(
            SimpleNamespace(model=model, products=products and products.products), "  ")
    elif isinstance(model, ProductLineModel):
        if model.artifacts.is_empty and not model.bindings:
            kind, body = KIND_VARIABILITY, _VARIABILITY.text(model, "  ")
        else:
            kind, body = KIND_PRODUCT_LINE, (
                f'{{\n    "layered": {_LAYERED.text(model.artifacts, "    ")},\n'
                f'    "variability": {_VARIABILITY.text(model, "    ")}\n  }}')
    elif isinstance(model, Configuration):
        kind, body = KIND_CONFIGURATION, _CONFIGURATION.text(model, "  ")
    elif isinstance(model, ReductionTrace):
        kind, body = KIND_TRACE, _TRACE.text(model, "  ")
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    # One piece for the envelope: each copy of a large text adds to peak memory.
    return (f'{{\n  "body": {body},\n  "kind": {_escape(kind)},\n'
            f'  "schema_version": {_escape(SCHEMA_VERSION)}\n}}\n').encode()


_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _reject_lone_surrogates(raw) -> None:
    """Raise, naming its path, for a string (key or value) with an unpaired
    UTF-16 surrogate: it has no UTF-8 form, so it could not be written back."""
    stack = [("document", raw)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, str) and _LONE_SURROGATE.search(value):
            raise ParseError(f"{where} holds a lone surrogate")
        if isinstance(value, dict):
            stack += [(f"{where}: field name {key!r}", key) for key in value]
            stack += [("body" if (where, key) == ("document", "body") else f"{where}.{key}", child)
                      for key, child in value.items()]
        elif isinstance(value, list):
            stack += [(f"{where}[{i}]", child) for i, child in enumerate(value)]


# -- codecs ------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that must be present
_ABSENT = object()  # a field's value in a column when its key is missing


class _Codec(NamedTuple):
    read: Any  # (JSON object, where, key) -> field value; errors name {where}.{key}
    text: Any = _escape  # field value -> its JSON text
    column: Any = None  # JSON values -> field values, or None when any may be faulty
    lines: bool = False  # may span lines; ``text`` then takes ``pad=``, its first line's pad


def _block(parts: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array, or object of ``"key": value`` parts, on a line that starts
    with ``pad``; the parts, in order, are already at ``pad`` plus two spaces."""
    inner = (",\n" + pad + "  ").join(parts)
    return f"{brackets[0]}\n{pad}  {inner}\n{pad}{brackets[1]}" if parts else brackets


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a JSON object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a JSON array")
    return value


def _only(types: set, values) -> bool:
    return set(map(type, values)) <= types


def _reject_unknown(obj: dict, where: str, known) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise ParseError(f"{where}: unknown field {min(unknown)!r}")


def _scalar(ok, what: str):
    """A reader of the value at ``key``, refusing one ``ok`` rejects as not ``what``."""

    def read(obj: dict, where: str, key: str):
        value = obj.get(key)
        if not ok(value):
            raise ParseError(f"{where}.{key} must be {what}")
        return value

    return read


_string = _scalar(lambda value: isinstance(value, str) and value != "", "a non-empty string")
_boolean = _scalar(lambda value: isinstance(value, bool), "a boolean")
_count = _scalar(lambda value: type(value) is int and value >= 0, "a non-negative integer")


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


def _pairing_text(pairing, pad: str) -> str:
    return _block([_escape(t) + ": " + _escape(s) for t, s in sorted(dict(pairing).items())],
                  pad, "{}")


def _enum(enum_cls) -> _Codec:
    allowed = ", ".join(e.value for e in enum_cls)
    members = {e.value: e for e in enum_cls}

    def read(obj: dict, where: str, key: str):
        member = members.get(_string(obj, where, key))
        if member is None:
            raise ParseError(f"{where}.{key} must be one of: {allowed}")
        return member

    return _Codec(read, {e: _escape(e.value) for e in enum_cls}.__getitem__, lambda values: (
        list(map(members.__getitem__, values))
        if _only({str}, values) and members.keys() >= set(values) else None))


def _or_default(read, default):
    return lambda obj, where, key: read(obj, where, key) if key in obj else default


def _records(table, *, required: bool = False) -> _Codec:
    """A JSON array of ``table`` records; absent reads as empty unless required."""

    def read(obj: dict, where: str, key: str) -> tuple:
        if key not in obj and not required:
            return ()
        path = f"{where}.{key}"
        items = _array(obj.get(key), path)
        # No column read (or an empty array): read one by one, which raises the first error.
        return table.column(items) or tuple(
            [table.read(item, f"{path}[{i}]") for i, item in enumerate(items)])

    return _Codec(read, lambda records, pad: _block(table.items(records, pad + "  "), pad),
                  lines=True)


_STRING = _Codec(_string, column=lambda values: (
    values if _only({str}, values) and "" not in values else None))
_BOOLEAN = _Codec(_boolean, {True: "true", False: "false"}.__getitem__,
                  lambda values: values if _only({bool}, values) else None)
_STRINGS = _Codec(_strings, lambda values, pad: _block(list(map(_escape, values)), pad),
                  lambda values: list(map(tuple, values)) if _only({list}, values)
                  and _only({str}, chain.from_iterable(values)) else None, lines=True)
_LAYER = _enum(Layer)


# -- field tables ------------------------------------------------------------

class _Table:
    """One record shape: rows ``(JSON key, attribute, codec=_STRING,
    default=_REQUIRED)`` in reading order. An attribute is a name, a tuple
    position (``make`` is ``tuple``; rows in position order), or a dotted
    path into the written record whose last name is the keyword ``make`` gets.
    The writer keeps the rows in key order, in one ``%`` template per pad it
    is asked for, made on first use."""

    def __init__(self, make, *rows):
        rows = [row + (_STRING, _REQUIRED)[len(row) - 2:] for row in rows]
        self.make = (lambda **fields: tuple(fields.values())) if make is tuple else make
        self.keys = frozenset(row[0] for row in rows)
        self.readers = tuple(
            (key, key if isinstance(attr, int) else attr.rpartition(".")[2],
             codec.read if default is _REQUIRED else _or_default(codec.read, default))
            for key, attr, codec, default in rows)
        self.sources = ()
        if all(codec.column for _, _, codec, _ in rows):  # per field of ``make``, in order
            source = {attr: partial(_field, key, codec.column, default)
                      for key, attr, codec, default in rows}
            cls, constants = (make.func, make.keywords) if type(make) is partial else (make, {})
            names = range(len(rows)) if make is tuple else [f.name for f in fields(cls)]
            self.build = (lambda _, *columns: zip(*columns)) if make is tuple else partial(
                _build, cls, names)
            self.sources = [source.get(name) or (lambda items, value=constants[name]:
                                                 repeat(value, len(items))) for name in names]
        self.writer = cache(partial(_writer, sorted(rows, key=itemgetter(0))))

    def read(self, raw, where: str):
        obj = _object(raw, where)
        _reject_unknown(obj, where, self.keys)
        values = {}
        for key, name, read in self.readers:
            values[name] = read(obj, where, key)
        return self.make(**values)

    def column(self, items: list) -> tuple | None:
        """The records of a JSON array, a field at a time, or None when any
        item may be faulty."""
        if not (self.sources and _only({dict}, items) and set().union(*items) <= self.keys):
            return None
        columns = [source(items) for source in self.sources]
        if None in columns:
            return None
        return tuple(self.build(len(items), *columns))

    def text(self, record, pad: str) -> str:
        """The record's text on a line that starts with ``pad``."""
        return self.items((record,), pad)[0]

    def items(self, records, pad: str) -> list[str]:
        """Each record's text, a field at a time."""
        template, slots = self.writer(pad)
        return list(map(template.__mod__, zip(*[map(text, map(get, records))
                                                for get, text in slots])))


def _field(key: str, column, default, items: list):
    """One field's values over ``items``, or None when any may be faulty. An
    optional field's codec keeps values as they are: a missing one is the default."""
    values = list(map(dict.get, items, repeat(key), repeat(_ABSENT)))
    if default is _REQUIRED:
        return column(values)
    if column(list(filter(partial(is_not, _ABSENT), values))) is None:
        return None
    return list(map({_ABSENT: default}.get, values, values))


def _writer(rows, pad: str):
    """A ``%`` template for a record on a line that starts with ``pad``, and per slot
    (in key order) a getter and a text function; the template is filled from a tuple of
    the slots' texts. Its key text has each ``%`` doubled. An optional row's slot holds
    ``"key": value`` and a separator, or "", before the next required row (none is last)."""
    item = ",\n" + pad + "  "  # between the fields of the record
    parts, slots, pending = [], [], ""
    for key, attr, codec, default in rows:
        text = partial(codec.text, pad=pad + "  ") if codec.lines else codec.text
        if default is _REQUIRED:
            parts.append(pending + _escape(key).replace("%", "%%") + ": %s")
            pending = ""
        else:
            text = _slot(_escape(key) + ": ", text, item, default)
            pending += "%s"
        slots.append(((itemgetter if isinstance(attr, int) else attrgetter)(attr), text))
    return f"{{\n{pad}  {item.join(parts)}\n{pad}}}", slots


def _slot(prefix: str, text, after: str, default):
    return lambda value: "" if value == default else f"{prefix}{text(value)}{after}"


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
    def column(items: list) -> tuple | None:
        """The first column read of a table, activity bindings first, that gives records."""
        return next(filter(None, (t.column(items) for t in _Bindings.tables.values())), None)

    @staticmethod
    def items(bindings, pad: str) -> list[str]:
        return [text for kind, run in groupby(bindings, attrgetter("kind"))
                for text in _Bindings.tables[kind].items(tuple(run), pad)]


_ACTIVITY = _Table(
    Activity,
    ("mandatory", "mandatory", _BOOLEAN),
    ("group", "group", _STRING, None),
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
_LAYERED_ROWS = (
    ("activities", "activities", _records(_ACTIVITY)),
    ("artifacts", "artifacts", _records(_ARTIFACT)),
    ("refinements", "refinements", _records(_REFINEMENT)),
    ("interactions", "interactions", _records(
        _Table(partial(Interaction, level=InteractionLevel.ARTIFACT), *_INTERACTION_ROWS))))
_LAYERED = _Table(LayeredModel, *_LAYERED_ROWS)
_LAYERED_DOCUMENT = _Table(  # read as (model, products), written from a namespace of both
    lambda products, **fields: (
        LayeredModel(**fields), None if products is None else ProductSet(products)),
    *[(key, "model." + attr, codec) for key, attr, codec in _LAYERED_ROWS],
    ("products", "products", _records(_Table(
        Product, ("id", "id"), ("includes", "includes", _STRINGS))), None))

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
    ("pairing", "variant_pairing", _Codec(_pairing, _pairing_text, lines=True)),
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
    ("pass_count", "pass_count", _Codec(_count, int.__repr__)),
    ("merges", "merges", _records(_MERGE, required=True)))
_CONFIGURATION = _Table(
    Configuration,
    ("selection", "selection", _Codec(lambda *args: frozenset(_strings(*args)),
                                      lambda selection, pad: _STRINGS.text(sorted(selection), pad),
                                      lines=True)))
