"""Reference documents layer: the hand-written reader and writer per record.

This is the oracle for the differential tests of ``ovmkit.documents``. It
must not change: its outputs and error messages define the expected ones.
It shares the model, configuration and trace types, and ``ParseError``,
with the library, so values from both compare equal and errors match by
type and message. The original module docstring follows.

Versioned JSON documents for models, configurations, and reduction traces.

Each document is an envelope ``{"schema_version", "kind", "body"}``. Parsing
is strict: unknown fields, unknown kinds, dangling references, and invariant
violations are all rejected with an error naming the offending field, id, or
byte position. Serialization is canonical: keys sorted, collections ordered
by id, UTF-8, newline-terminated, so equal models produce equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ovmkit.configs import Configuration
from ovmkit.documents import ParseError
from ovmkit.model import (
    Activity,
    Binding,
    BindingKind,
    FunctionalArtifact,
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    LayeredModel,
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    validate,
)
from ovmkit.reduction import MergeRecord, ReductionTrace

SCHEMA_VERSION = "1"

KIND_LAYERED = "layered-model"
KIND_VARIABILITY = "variability-model"
KIND_PRODUCT_LINE = "product-line-model"
KIND_CONFIGURATION = "configuration"
KIND_TRACE = "reduction-trace"

_KNOWN_KINDS = (KIND_LAYERED, KIND_VARIABILITY, KIND_PRODUCT_LINE, KIND_CONFIGURATION, KIND_TRACE)


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
    obj = _object(raw, "document")
    _reject_unknown(obj, "document", {"schema_version", "kind", "body"})
    version = _string(obj, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unknown schema version {version!r} (expected {SCHEMA_VERSION!r})")
    kind = _string(obj, "kind", "document")
    if kind not in _KNOWN_KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    return ModelDocument(version, kind, _object(obj.get("body"), "body"))


def parse_layered_model(data: bytes) -> tuple[LayeredModel, ProductSet | None]:
    """Parse a layered-model document; validates structure and references."""
    doc = load_document(data)
    if doc.kind != KIND_LAYERED:
        raise ParseError(f"expected a {KIND_LAYERED} document, got {doc.kind!r}")
    model, products = _read_layered_body(doc.body, "body", allow_products=True)
    _check_valid(ProductLineModel(artifacts=model))
    if products is not None:
        known = {a.id for a in model.activities}
        for product in products.products:
            for activity_id in product.includes:
                if activity_id not in known:
                    raise ParseError(
                        f"product {product.id!r} includes unknown activity {activity_id!r}")
    return model, products


def parse_variability_model(data: bytes) -> ProductLineModel:
    """Parse a variability-model or product-line-model document."""
    doc = load_document(data)
    if doc.kind == KIND_VARIABILITY:
        vm, bindings = _read_variability_body(doc.body, "body")
        plm = ProductLineModel(vm=vm, bindings=bindings)
    elif doc.kind == KIND_PRODUCT_LINE:
        _reject_unknown(doc.body, "body", {"layered", "variability"})
        layered, _ = _read_layered_body(
            _object(doc.body.get("layered"), "body.layered"), "body.layered",
            allow_products=False)
        vm, bindings = _read_variability_body(
            _object(doc.body.get("variability"), "body.variability"), "body.variability")
        plm = ProductLineModel(vm=vm, artifacts=layered, bindings=bindings)
    else:
        raise ParseError(
            f"expected a {KIND_VARIABILITY} or {KIND_PRODUCT_LINE} document, got {doc.kind!r}")
    _check_valid(plm)
    return plm


def parse_configuration(data: bytes) -> Configuration:
    doc = load_document(data)
    if doc.kind != KIND_CONFIGURATION:
        raise ParseError(f"expected a {KIND_CONFIGURATION} document, got {doc.kind!r}")
    _reject_unknown(doc.body, "body", {"selection"})
    ids = _string_list(doc.body, "selection", "body")
    return Configuration(selection=frozenset(ids))


def parse_trace(data: bytes) -> ReductionTrace:
    doc = load_document(data)
    if doc.kind != KIND_TRACE:
        raise ParseError(f"expected a {KIND_TRACE} document, got {doc.kind!r}")
    _reject_unknown(doc.body, "body", {"merges", "pass_count"})
    pass_count = doc.body.get("pass_count")
    if not isinstance(pass_count, int) or isinstance(pass_count, bool) or pass_count < 0:
        raise ParseError("body.pass_count must be a non-negative integer")
    merges = []
    for i, raw in enumerate(_array(doc.body.get("merges"), "body.merges")):
        where = f"body.merges[{i}]"
        obj = _object(raw, where)
        _reject_unknown(obj, where, {
            "source_vp", "target_vp", "pairing", "rebound_bindings",
            "transferred_refinements", "transferred_interactions"})
        pairing_obj = _object(obj.get("pairing"), f"{where}.pairing")
        pairing = {}
        for key, value in pairing_obj.items():
            if not isinstance(value, str):
                raise ParseError(f"{where}.pairing[{key!r}] must be a string")
            pairing[key] = value
        rebound = tuple(
            (_string(o, "activity", w), _string(o, "from_variant", w), _string(o, "to_variant", w))
            for w, o in _objects(obj, "rebound_bindings", where)
        )
        refinements = tuple(
            (_string(o, "child_vp", w), _string(o, "from_parent", w), _string(o, "to_parent", w))
            for w, o in _objects(obj, "transferred_refinements", where)
        )
        interactions = tuple(
            (_string(o, "from", w), _string(o, "to", w),
             _string(o, "new_from", w), _string(o, "new_to", w))
            for w, o in _objects(obj, "transferred_interactions", where)
        )
        merges.append(MergeRecord(
            source_vp_id=_string(obj, "source_vp", where),
            target_vp_id=_string(obj, "target_vp", where),
            variant_pairing=tuple(sorted(pairing.items())),
            rebound_bindings=rebound,
            transferred_refinements=refinements,
            transferred_interactions=interactions,
        ))
    return ReductionTrace(merges=tuple(merges), pass_count=pass_count)


def serialize(model, *, products: ProductSet | None = None) -> bytes:
    """Canonical document bytes for a model, configuration, or trace."""
    if isinstance(model, LayeredModel):
        doc = _envelope(KIND_LAYERED, _layered_body(model, products))
    elif isinstance(model, ProductLineModel):
        if model.artifacts.is_empty and not model.bindings:
            doc = _envelope(KIND_VARIABILITY, _variability_body(model.vm, model.bindings))
        else:
            doc = _envelope(KIND_PRODUCT_LINE, {
                "layered": _layered_body(model.artifacts, None),
                "variability": _variability_body(model.vm, model.bindings),
            })
    elif isinstance(model, Configuration):
        doc = _envelope(KIND_CONFIGURATION, {"selection": sorted(model.selection)})
    elif isinstance(model, ReductionTrace):
        doc = _envelope(KIND_TRACE, _trace_body(model))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    text = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)
    return text.encode("utf-8") + b"\n"


# -- body writers ------------------------------------------------------------

def _envelope(kind: str, body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "body": body}


def _interaction_obj(inter: Interaction) -> dict:
    obj = {"from": inter.from_id, "to": inter.to_id, "kind": inter.kind.value}
    if inter.requires:
        obj["requires"] = True
    return obj


def _layered_body(model: LayeredModel, products: ProductSet | None) -> dict:
    body = {
        "activities": [
            _drop_none({
                "id": a.id, "name": a.name, "layer": a.layer.value,
                "artifact": a.artifact_id, "mandatory": a.mandatory, "group": a.group,
            })
            for a in model.activities
        ],
        "artifacts": [
            {"id": a.id, "layer": a.layer.value, "activities": list(a.activity_ids)}
            for a in model.artifacts
        ],
        "interactions": [_interaction_obj(i) for i in model.interactions],
        "refinements": [
            {"child_artifact": r.child_artifact_id, "parent_activity": r.parent_activity_id,
             "kind": r.kind.value}
            for r in model.refinements
        ],
    }
    if products is not None:
        body["products"] = [
            {"id": p.id, "includes": list(p.includes)} for p in products.products
        ]
    return body


def _variability_body(vm: VariabilityModel, bindings: tuple[Binding, ...]) -> dict:
    body = {
        "interactions": [_interaction_obj(i) for i in vm.variant_interactions],
        "refinements": [
            {"child_vp": r.child_vp_id, "parent_variant": r.parent_variant_id}
            for r in vm.refinements
        ],
        "variants": [{"id": v.id, "name": v.name, "vp": v.vp_id} for v in vm.variants],
        "variation_points": [
            {"id": vp.id, "name": vp.name, "level": vp.level.value}
            for vp in vm.variation_points
        ],
    }
    if bindings:
        body["bindings"] = [
            {"activity": b.source_id, "variant": b.target_id}
            if b.kind is BindingKind.ACTIVITY_VARIANT
            else {"artifact": b.source_id, "vp": b.target_id}
            for b in bindings
        ]
    return body


def _trace_body(trace: ReductionTrace) -> dict:
    return {
        "pass_count": trace.pass_count,
        "merges": [
            {
                "source_vp": m.source_vp_id,
                "target_vp": m.target_vp_id,
                "pairing": dict(m.variant_pairing),
                "rebound_bindings": [
                    {"activity": a, "from_variant": f, "to_variant": t}
                    for a, f, t in m.rebound_bindings
                ],
                "transferred_refinements": [
                    {"child_vp": c, "from_parent": f, "to_parent": t}
                    for c, f, t in m.transferred_refinements
                ],
                "transferred_interactions": [
                    {"from": of, "to": ot, "new_from": nf, "new_to": nt}
                    for of, ot, nf, nt in m.transferred_interactions
                ],
            }
            for m in trace.merges
        ],
    }


def _drop_none(obj: dict) -> dict:
    return {k: v for k, v in obj.items() if v is not None}


# -- body readers ------------------------------------------------------------

def _read_layered_body(
    body: dict, where: str, *, allow_products: bool
) -> tuple[LayeredModel, ProductSet | None]:
    known = {"activities", "artifacts", "interactions", "refinements"}
    if allow_products:
        known = known | {"products"}
    _reject_unknown(body, where, known)

    activities = []
    for w, obj in _objects(body, "activities", where):
        _reject_unknown(obj, w, {"id", "name", "layer", "artifact", "mandatory", "group"})
        mandatory = _boolean(obj, "mandatory", w)
        group = None
        if "group" in obj:
            group = _string(obj, "group", w)
            if mandatory:
                raise ParseError(
                    f"{w}: mandatory activity {obj.get('id')!r} cannot carry a group label")
        activities.append(Activity(
            id=_string(obj, "id", w),
            name=_string(obj, "name", w),
            layer=_layer(obj, "layer", w),
            artifact_id=_string(obj, "artifact", w),
            mandatory=mandatory,
            group=group,
        ))

    artifacts = [
        FunctionalArtifact(
            id=_string(obj, "id", w),
            layer=_layer(obj, "layer", w),
            activity_ids=tuple(_string_list(obj, "activities", w)),
        )
        for w, obj in _objects(body, "artifacts", where, known_keys={"id", "layer", "activities"})
    ]

    refinements = [
        Refinement(
            child_artifact_id=_string(obj, "child_artifact", w),
            parent_activity_id=_string(obj, "parent_activity", w),
            kind=_enum(obj, "kind", w, RefinementKind),
        )
        for w, obj in _objects(
            body, "refinements", where,
            known_keys={"child_artifact", "parent_activity", "kind"})
    ]

    interactions = _read_interactions(body, where, InteractionLevel.ARTIFACT)

    products = None
    if allow_products and "products" in body:
        products = ProductSet(products=tuple(
            Product(id=_string(obj, "id", w), includes=tuple(_string_list(obj, "includes", w)))
            for w, obj in _objects(body, "products", where, known_keys={"id", "includes"})
        ))

    model = LayeredModel(
        artifacts=tuple(artifacts),
        activities=tuple(activities),
        refinements=tuple(refinements),
        interactions=tuple(interactions),
    )
    return model, products


def _read_variability_body(body: dict, where: str) -> tuple[VariabilityModel, tuple[Binding, ...]]:
    _reject_unknown(body, where, {
        "variation_points", "variants", "interactions", "refinements", "bindings"})

    variation_points = [
        VariationPoint(
            id=_string(obj, "id", w),
            name=_string(obj, "name", w),
            level=_layer(obj, "level", w),
        )
        for w, obj in _objects(
            body, "variation_points", where, known_keys={"id", "name", "level"})
    ]
    variants = [
        Variant(id=_string(obj, "id", w), name=_string(obj, "name", w), vp_id=_string(obj, "vp", w))
        for w, obj in _objects(body, "variants", where, known_keys={"id", "name", "vp"})
    ]
    refinements = [
        VariabilityRefinement(
            child_vp_id=_string(obj, "child_vp", w),
            parent_variant_id=_string(obj, "parent_variant", w),
        )
        for w, obj in _objects(
            body, "refinements", where, known_keys={"child_vp", "parent_variant"})
    ]
    interactions = _read_interactions(body, where, InteractionLevel.VARIANT)

    bindings = []
    if "bindings" in body:
        for w, obj in _objects(body, "bindings", where):
            keys = set(obj)
            if keys == {"activity", "variant"}:
                bindings.append(Binding(
                    kind=BindingKind.ACTIVITY_VARIANT,
                    source_id=_string(obj, "activity", w),
                    target_id=_string(obj, "variant", w),
                ))
            elif keys == {"artifact", "vp"}:
                bindings.append(Binding(
                    kind=BindingKind.ARTIFACT_VP,
                    source_id=_string(obj, "artifact", w),
                    target_id=_string(obj, "vp", w),
                ))
            else:
                raise ParseError(
                    f"{w}: a binding must have keys {{activity, variant}} or {{artifact, vp}}")

    vm = VariabilityModel(
        variation_points=tuple(variation_points),
        variants=tuple(variants),
        variant_interactions=tuple(interactions),
        refinements=tuple(refinements),
    )
    return vm, tuple(bindings)


def _read_interactions(body: dict, where: str, level: InteractionLevel) -> list[Interaction]:
    return [
        Interaction(
            from_id=_string(obj, "from", w),
            to_id=_string(obj, "to", w),
            kind=_enum(obj, "kind", w, InteractionKind),
            level=level,
            requires=_boolean(obj, "requires", w) if "requires" in obj else False,
        )
        for w, obj in _objects(
            body, "interactions", where, known_keys={"from", "to", "kind", "requires"})
    ]


def _check_valid(plm: ProductLineModel) -> None:
    violations = validate(plm)
    if violations:
        head = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ParseError(f"document violates model invariants: {head}{more}")


# -- low-level field access --------------------------------------------------

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a JSON object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a JSON array")
    return value


def _objects(body: dict, key: str, where: str, known_keys: set[str] | None = None):
    for i, raw in enumerate(_array(body.get(key, []), f"{where}.{key}")):
        w = f"{where}.{key}[{i}]"
        obj = _object(raw, w)
        if known_keys is not None:
            _reject_unknown(obj, w, known_keys)
        yield w, obj


def _reject_unknown(obj: dict, where: str, known: set[str]) -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")


def _string(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}.{key} must be a non-empty string")
    return value


def _boolean(obj: dict, key: str, where: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise ParseError(f"{where}.{key} must be a boolean")
    return value


def _string_list(obj: dict, key: str, where: str) -> list[str]:
    values = _array(obj.get(key), f"{where}.{key}")
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise ParseError(f"{where}.{key}[{i}] must be a string")
    return values


def _layer(obj: dict, key: str, where: str) -> Layer:
    return _enum(obj, key, where, Layer)


def _enum(obj: dict, key: str, where: str, enum_cls):
    raw = _string(obj, key, where)
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise ParseError(f"{where}.{key} must be one of: {allowed}") from None
