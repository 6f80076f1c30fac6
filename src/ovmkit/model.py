"""Core domain types for layered activity models and variability models.

A layered model holds activities grouped into artifacts on up to three
layers (feature above functional above component), cross-layer refinements,
and material/information interactions. A variability model holds variation
points, the variants realizing them, variant-level interactions, and the
refinement edges that arrange variation points into a forest of trees.

All types are immutable values. Collections are normalized (deduplicated,
sorted by identifier) on construction, so structural equality is plain
``==`` and serialization order never depends on input order. Models also
carry lookups (``_index``, a product-line model's ``_variant_of`` and a
variability model's ``_links``) and their ``validate`` report (``_violations``),
each built on first use and never changed after. Apart from ``validate`` and
``roots``, the public functions that read a model, layered or not, refuse one
with violations, through ``check_valid``.
"""

from __future__ import annotations

import gc
from collections import defaultdict, deque
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, wraps
from itertools import repeat
from operator import attrgetter, lt
from types import MappingProxyType, SimpleNamespace


class Layer(str, Enum):
    FEATURE = "feature"
    FUNCTIONAL = "functional"
    COMPONENT = "component"


# Layer one step up from the key; features have nothing above them.
LAYER_ABOVE: dict[Layer, Layer] = {
    Layer.COMPONENT: Layer.FUNCTIONAL,
    Layer.FUNCTIONAL: Layer.FEATURE,
}


class InteractionKind(str, Enum):
    MATERIAL = "material"
    INFORMATION = "information"


class InteractionLevel(str, Enum):
    ARTIFACT = "artifact"
    VARIANT = "variant"


class RefinementKind(str, Enum):
    FEATURE = "feature"
    FUNCTIONAL = "functional"


class BindingKind(str, Enum):
    ACTIVITY_VARIANT = "activity-variant"
    ARTIFACT_VP = "artifact-vp"


class ModelError(Exception):
    """Base class for errors raised by this package."""


@dataclass(frozen=True)
class Violation:
    """A broken invariant, reported as data rather than raised.

    ``invariant`` is a stable label naming the rule; ``subject_ids`` are the
    offending identifiers.
    """

    invariant: str
    subject_ids: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.invariant} [{', '.join(self.subject_ids)}]: {self.message}"


@dataclass(frozen=True)
class Activity:
    id: str
    name: str
    layer: Layer
    artifact_id: str
    mandatory: bool
    group: str | None = None


@dataclass(frozen=True)
class FunctionalArtifact:
    id: str
    layer: Layer
    activity_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "activity_ids", _sorted_unique(self.activity_ids))


@dataclass(frozen=True)
class Refinement:
    """A lower-layer artifact refining an activity one layer above it."""

    child_artifact_id: str
    parent_activity_id: str
    kind: RefinementKind


@dataclass(frozen=True)
class Interaction:
    """Directed material or information flow.

    Artifact-level interactions connect activities of the same layer;
    variant-level ones connect variants of distinct variation points.
    ``requires`` marks flows known to be requires-dependencies; any such
    dependency is still an interaction, so it stays in the same set.
    """

    from_id: str
    to_id: str
    kind: InteractionKind
    level: InteractionLevel
    requires: bool = False


@dataclass(frozen=True)
class VariationPoint:
    id: str
    name: str
    level: Layer


@dataclass(frozen=True)
class Variant:
    """One selectable option of a variation point.

    ``vp_id`` is the realization dependency: every variant realizes exactly
    one variation point, so the edge is stored on the variant itself.
    """

    id: str
    name: str
    vp_id: str


@dataclass(frozen=True)
class Binding:
    """Artifact dependency: activity-to-variant or artifact-to-variation-point."""

    kind: BindingKind
    source_id: str
    target_id: str


@dataclass(frozen=True)
class VariabilityRefinement:
    """A variation point refining (sitting under) a higher-level variant."""

    child_vp_id: str
    parent_variant_id: str


def _sorted_unique(items, cls=None) -> tuple:
    """``items`` deduplicated and sorted by ``_KEYS[cls]`` (strings: by
    themselves); input that is already strictly ascending comes back as it is,
    without a sort. For a type in ``_LEADS`` the leading field alone is
    checked first, so its full key is built only when that check fails."""
    items, key, lead = tuple(items), _KEYS.get(cls), _LEADS.get(cls)
    if lead is not None:
        leads = tuple(map(lead, items))
        if all(map(lt, leads, leads[1:])):
            return items
    keys = items if key is None else tuple(map(key, items))
    return items if all(map(lt, keys, keys[1:])) else tuple(sorted(set(items), key=key))


def _normalize(obj, **types) -> None:
    for name, cls in types.items():
        object.__setattr__(obj, name, _sorted_unique(getattr(obj, name), cls))


def _build(cls, names, n: int, *columns) -> list:
    """``n`` records of a dataclass from its columns, one per name of ``names``,
    without an ``__init__`` call each. With the fields in field order as names,
    each is built as its generated ``__init__`` builds one (so all get the same
    attribute layout): its fields set in that order, then ``__post_init__``, if
    any. A name that is no field sets a value the class would otherwise compute
    on demand; a field not named reads as its class attribute. The document
    reader, ``create_variation_points`` and ``enumerate_valid`` build records here.

    A first, discarded record is given every name before the others exist.
    CPython lets a class's instances share one key table only while few of
    them exist, so names set after ``n`` records are made would give each
    record a dict of its own, about 230 bytes more."""
    deque(map(object.__setattr__, repeat(object.__new__(cls)), names, repeat(None)), 0)
    records = list(map(object.__new__, repeat(cls, n)))
    for name, column in zip(names, columns):
        deque(map(object.__setattr__, records, repeat(name), column), 0)
    if post_init := getattr(cls, "__post_init__", None):
        deque(map(post_init, records), 0)
    return records


def _collector_paused(func):
    """``func`` run with the cyclic collector off, turned back on at every exit
    if it was on: calls that build or write a model, a trace or a configuration
    list in bulk, or compare two models, would start collections, which find no
    garbage in a tree of records and walk it for about 10% of a run."""

    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _grouped(pairs) -> dict[str, tuple[str, ...]]:
    groups: dict[str, list[str]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in groups.items()}


def _known(vps, *vp_ids: str):
    """``vps``, a mapping keyed by variation-point id, once it holds each id."""
    for vp_id in vp_ids:
        if vp_id not in vps:
            raise ModelError(f"unknown variation point id: {vp_id}")
    return vps


def _link(links, interactions) -> None:
    """Record the interactions in the out-edges and partners of ``links``."""
    for edge in interactions:
        links.out[edge.from_id].add(edge)
        links.partners[edge.from_id].add(edge.to_id)
        links.partners[edge.to_id].add(edge.from_id)


@dataclass(frozen=True)
class LayeredModel:
    """Activities, their artifacts, cross-layer refinements, and interactions."""

    artifacts: tuple[FunctionalArtifact, ...] = ()
    activities: tuple[Activity, ...] = ()
    refinements: tuple[Refinement, ...] = ()
    interactions: tuple[Interaction, ...] = ()

    def __post_init__(self) -> None:
        _normalize(self, artifacts=FunctionalArtifact, activities=Activity,
                   refinements=Refinement, interactions=Interaction)

    @cached_property
    def _index(self) -> SimpleNamespace:
        return SimpleNamespace(
            activities={a.id: a for a in self.activities},
            artifacts={a.id: a for a in self.artifacts},
            parents=_grouped((r.child_artifact_id, r.parent_activity_id) for r in self.refinements),
        )

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_validate_layered(self))

    def activities_by_id(self) -> MappingProxyType[str, Activity]:
        return MappingProxyType(self._index.activities)

    def artifacts_by_id(self) -> MappingProxyType[str, FunctionalArtifact]:
        return MappingProxyType(self._index.artifacts)

    def refinement_parents(self, artifact_id: str) -> tuple[str, ...]:
        """Parent activities the given artifact refines."""
        return self._index.parents.get(artifact_id, ())

    @property
    def is_empty(self) -> bool:
        return not (self.artifacts or self.activities or self.refinements or self.interactions)


@dataclass(frozen=True)
class VariabilityModel:
    """Variation points, variants, variant interactions, and the tree forest."""

    variation_points: tuple[VariationPoint, ...] = ()
    variants: tuple[Variant, ...] = ()
    variant_interactions: tuple[Interaction, ...] = ()
    refinements: tuple[VariabilityRefinement, ...] = ()

    def __post_init__(self) -> None:
        _normalize(self, variation_points=VariationPoint, variants=Variant,
                   variant_interactions=Interaction, refinements=VariabilityRefinement)

    @cached_property
    def _index(self) -> SimpleNamespace:
        """Each variant sits under one variation point (the last of duplicate ids)
        and each variation point under its first parent variant, children ascending."""
        parent = {r.child_vp_id: r.parent_variant_id for r in reversed(self.refinements)}
        vp_of = {v.id: v.vp_id for v in self.variants}
        return SimpleNamespace(
            vps={vp.id: vp for vp in self.variation_points},
            variants_by_id={v.id: v for v in self.variants},
            vp_of=vp_of,
            variants={vp.id: () for vp in self.variation_points}
            | _grouped((vp_id, v) for v, vp_id in vp_of.items()),
            # Filled from the last refinement back, ``parent`` lists children descending.
            children=_grouped((p, c) for c, p in reversed(parent.items())),
            parent=parent,
            roots=tuple(vp for vp in self.variation_points if vp.id not in parent),
        )

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_validate_vm(self))

    @cached_property
    def _links(self) -> SimpleNamespace:
        """``_index`` plus each variant's out-edges and partners, of a valid model only."""
        check_valid(self._violations)
        links = SimpleNamespace(**vars(self._index), out=defaultdict(set), partners=defaultdict(set))
        _link(links, self.variant_interactions)
        return links

    def vp(self, vp_id: str) -> VariationPoint:
        return _known(self._index.vps, vp_id)[vp_id]

    def vps_by_id(self) -> MappingProxyType[str, VariationPoint]:
        return MappingProxyType(self._index.vps)

    def variants_by_id(self) -> MappingProxyType[str, Variant]:
        return MappingProxyType(self._index.variants_by_id)

    def variants_of(self, vp_id: str) -> tuple[Variant, ...]:
        return tuple(self._index.variants_by_id[v] for v in self._index.variants.get(vp_id, ()))

    def parent_variant_of(self, vp_id: str) -> str | None:
        """Id of the variant the given variation point refines, if any."""
        return self._index.parent.get(vp_id)

    def child_vps_of(self, variant_id: str) -> tuple[str, ...]:
        return self._index.children.get(variant_id, ())


@dataclass(frozen=True)
class ProductLineModel:
    """A variability model bound to the layered model it was derived from."""

    vm: VariabilityModel = field(default_factory=VariabilityModel)
    artifacts: LayeredModel = field(default_factory=LayeredModel)
    bindings: tuple[Binding, ...] = ()

    def __post_init__(self) -> None:
        _normalize(self, bindings=Binding)

    @cached_property
    def _variant_of(self) -> dict[str, str]:
        """Variant by activity, keeping the first of several."""
        return {b.source_id: b.target_id for b in reversed(self.activity_bindings())}

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return (*self.artifacts._violations, *self.vm._violations,
                *_validate_bindings(self))

    def _activities_by_variant(self) -> defaultdict:
        """Fresh sets of activity ids by variant, for ``_Index`` to change;
        not cached, as only it reads them."""
        activities = defaultdict(set)
        for b in self.activity_bindings():
            activities[b.target_id].add(b.source_id)
        return activities

    def activity_bindings(self) -> tuple[Binding, ...]:
        return tuple(b for b in self.bindings if b.kind is BindingKind.ACTIVITY_VARIANT)

    def variant_of_activity(self, activity_id: str) -> str | None:
        return self._variant_of.get(activity_id)


@dataclass(frozen=True)
class Product:
    id: str
    includes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "includes", _sorted_unique(self.includes))


@dataclass(frozen=True)
class ProductSet:
    """Per-product activity inclusion, the input for comparison-based diffing."""

    products: tuple[Product, ...] = ()

    def __post_init__(self) -> None:
        _normalize(self, products=Product)


# Each record type's only order: its fields in declaration order. A missing group
# sorts as "", so twins that differ only there normalize and validate reports them.
_KEYS = {cls: attrgetter(*(f.name for f in fields(cls))) for cls in (
    FunctionalArtifact, Refinement, Interaction, VariationPoint, Variant, Binding,
    VariabilityRefinement, Product)} | {Activity: lambda a: (
        a.id, a.name, a.layer, a.artifact_id, a.mandatory, "" if a.group is None else a.group)}
# The leading key field, where it is an id: strictly ascending, it makes the
# whole key strictly ascending. Interactions and bindings repeat theirs.
_LEADS = {cls: attrgetter(fields(cls)[0].name) for cls in (
    Activity, FunctionalArtifact, VariationPoint, Variant, VariabilityRefinement, Product)}


def check_product_includes(
    model: LayeredModel, products: ProductSet, error: type[ModelError]
) -> None:
    """Raise ``error`` for the first product that includes an activity the
    model does not have."""
    for product in products.products:
        for activity_id in product.includes:
            if activity_id not in model._index.activities:
                raise error(f"product {product.id!r} includes unknown activity {activity_id!r}")


def check_valid(violations, error: type[ModelError] = ModelError, what: str = "model") -> None:
    """Raise ``error`` naming the first five violations, then how many more."""
    if violations:
        head = "; ".join(map(str, violations[:5]))
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise error(f"{what} violates model invariants: {head}{more}")


def roots(vm: VariabilityModel) -> list[VariationPoint]:
    """Variation points with no parent variant, in ascending id order."""
    return list(vm._index.roots)


def tree_size(vm: VariabilityModel, root_vp_id: str) -> int:
    """Total number of variants in the tree rooted at the given variation point.

    Counts variants at every depth, alternating realization edges
    (variation point to its variants) with refinement edges (variant to its
    child variation points).
    """
    check_valid(vm._violations)
    _known(vm._index.vps, root_vp_id)
    return len(tree_variants(vm._index, root_vp_id))


def tree_variants(index, root_vp_id: str) -> list[str]:
    """Ids of the variants in the tree rooted at the given variation point,
    from an index's variant ids by variation point and child variation points
    by variant. Iterative, so any depth works."""
    found, stack = [], [root_vp_id]
    while stack:
        for v in index.variants.get(stack.pop(), ()):
            found.append(v)
            stack.extend(index.children.get(v, ()))
    return found


def validate(plm: ProductLineModel) -> list[Violation]:
    """Check every structural invariant; an empty list means the model is valid."""
    return list(plm._violations)


def _check_unique_ids(items, what: str, out: list[Violation]) -> None:
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            out.append(Violation(
                "unique-ids", (item.id,), f"duplicate {what} id {item.id!r}"))
        seen.add(item.id)


def _unresolved(label: str, what: str, *refs) -> Violation:
    """``refs`` are ``(id, record or None)`` pairs; the text names the first id with no record."""
    return Violation(label, tuple(ref_id for ref_id, _ in refs),
                     f"{what} {next(ref_id for ref_id, record in refs if record is None)!r}")


def _validate_layered(model: LayeredModel) -> list[Violation]:
    out: list[Violation] = []
    _check_unique_ids(model.activities, "activity", out)
    _check_unique_ids(model.artifacts, "artifact", out)
    artifacts, activities = model._index.artifacts, model._index.activities
    members = {artifact.id: set(artifact.activity_ids) for artifact in artifacts.values()}

    for act in model.activities:
        if act.mandatory and act.group is not None:
            out.append(Violation(
                "activity-mandatory-group", (act.id,),
                f"mandatory activity {act.id!r} cannot carry a group label"))
        owner = artifacts.get(act.artifact_id)
        if owner is None:
            out.append(_unresolved("activity-artifact-resolution", f"activity {act.id!r} names "
                                   "unknown artifact", (act.id, act), (act.artifact_id, owner)))
        else:
            if owner.layer is not act.layer:
                out.append(Violation(
                    "activity-layer-match", (act.id, owner.id),
                    f"activity {act.id!r} is on layer {act.layer.value!r} but its "
                    f"artifact {owner.id!r} is on {owner.layer.value!r}"))
            if act.id not in members[owner.id]:
                out.append(Violation(
                    "artifact-membership", (act.id, owner.id),
                    f"activity {act.id!r} names artifact {owner.id!r} which does not list it"))

    for artifact in model.artifacts:
        for member_id in artifact.activity_ids:
            member = activities.get(member_id)
            if member is None:
                out.append(Violation(
                    "artifact-membership", (artifact.id, member_id),
                    f"artifact {artifact.id!r} lists unknown activity {member_id!r}"))
            elif member.artifact_id != artifact.id:
                out.append(Violation(
                    "artifact-membership", (artifact.id, member_id),
                    f"artifact {artifact.id!r} lists activity {member_id!r} owned by "
                    f"{member.artifact_id!r}"))

    for ref in model.refinements:
        child, parent = artifacts.get(ref.child_artifact_id), activities.get(ref.parent_activity_id)
        if child is None or parent is None:
            out.append(_unresolved("refinement-resolution", "refinement references unknown id",
                                   (ref.child_artifact_id, child),
                                   (ref.parent_activity_id, parent)))
            continue
        if LAYER_ABOVE.get(child.layer) is not parent.layer:
            out.append(Violation(
                "refinement-layer-adjacency", (child.id, parent.id),
                f"artifact {child.id!r} ({child.layer.value}) may only refine an "
                f"activity one layer above, not {parent.id!r} ({parent.layer.value})"))
        expected = RefinementKind.FEATURE if parent.layer is Layer.FEATURE else RefinementKind.FUNCTIONAL
        if ref.kind is not expected:
            out.append(Violation(
                "refinement-kind", (child.id, parent.id),
                f"refinement of {parent.id!r} must have kind {expected.value!r}"))

    for inter in model.interactions:
        _validate_interaction_shape(inter, InteractionLevel.ARTIFACT, out)
        a, b = activities.get(inter.from_id), activities.get(inter.to_id)
        if a is None or b is None:
            out.append(_unresolved("interaction-resolution", "interaction references unknown "
                                   "activity", (inter.from_id, a), (inter.to_id, b)))
        elif a.layer is not b.layer:
            out.append(Violation(
                "interaction-same-layer", (inter.from_id, inter.to_id),
                f"interaction endpoints {inter.from_id!r} and {inter.to_id!r} "
                f"are on different layers"))
    return out


def _validate_interaction_shape(inter: Interaction, expected: InteractionLevel,
                                out: list[Violation]) -> None:
    if inter.from_id == inter.to_id:
        out.append(Violation(
            "interaction-distinct-endpoints", (inter.from_id,),
            f"interaction from {inter.from_id!r} to itself"))
    if inter.level is not expected:
        out.append(Violation(
            "interaction-level", (inter.from_id, inter.to_id),
            f"expected a {expected.value}-level interaction"))


def _validate_vm(vm: VariabilityModel) -> list[Violation]:
    out: list[Violation] = []
    _check_unique_ids(vm.variation_points, "variation point", out)
    _check_unique_ids(vm.variants, "variant", out)
    vps, variants = vm._index.vps, vm._index.variants_by_id

    for variant in vm.variants:
        if variant.vp_id not in vps:
            out.append(_unresolved("delta-consistency", f"variant {variant.id!r} realizes unknown "
                                   "variation point", (variant.id, variant), (variant.vp_id, None)))

    for inter in vm.variant_interactions:
        _validate_interaction_shape(inter, InteractionLevel.VARIANT, out)
        a, b = variants.get(inter.from_id), variants.get(inter.to_id)
        if a is None or b is None:
            out.append(_unresolved("interaction-resolution", "variant interaction references "
                                   "unknown variant", (inter.from_id, a), (inter.to_id, b)))
        elif a.vp_id == b.vp_id:
            out.append(Violation(
                "interaction-distinct-vps", (inter.from_id, inter.to_id),
                f"variant interaction connects {a.id!r} and {b.id!r} of the same "
                f"variation point {a.vp_id!r}"))

    seen: set[str] = set()
    for ref in vm.refinements:
        child, parent = vps.get(ref.child_vp_id), variants.get(ref.parent_variant_id)
        if child is None or parent is None:
            out.append(_unresolved("psi-resolution", "variability refinement references unknown id",
                                   (ref.child_vp_id, child), (ref.parent_variant_id, parent)))
            continue
        if ref.child_vp_id in seen:
            out.append(Violation(
                "psi-single-parent", (ref.child_vp_id,),
                f"variation point {ref.child_vp_id!r} has more than one parent variant"))
        seen.add(ref.child_vp_id)
    # Cyclic: a chain of first parents that enters a cycle, not a root or unknown variant.
    parent, vp_of = vm._index.parent, vm._index.vp_of
    cyclic: dict[str, bool | None] = {}  # None while on the current walk
    for start in parent:
        walk, cursor = [], start
        while cursor in parent and cursor not in cyclic:
            cyclic[cursor] = None
            walk.append(cursor)
            cursor = vp_of.get(parent[cursor])
        # Ended at a root or unknown variant (False), a verdict, or this walk (None).
        cyclic.update(dict.fromkeys(walk, cyclic.get(cursor, False) is not False))
    out.extend(Violation("psi-forest-acyclicity", (vp_id,),
                         f"variability refinements form a cycle through {vp_id!r}")
               for vp_id in vps if cyclic.get(vp_id))
    return out


def _validate_bindings(plm: ProductLineModel) -> list[Violation]:
    out: list[Violation] = []
    activities, artifacts = plm.artifacts._index.activities, plm.artifacts._index.artifacts
    variants, vps = plm.vm._index.variants_by_id, plm.vm._index.vps

    artifact_vp: dict[str, str] = {}
    for b in plm.bindings:
        if b.kind is BindingKind.ARTIFACT_VP:
            artifact, vp = artifacts.get(b.source_id), vps.get(b.target_id)
            if artifact is None or vp is None:
                out.append(_unresolved("binding-resolution", "artifact binding references unknown "
                                       "id", (b.source_id, artifact), (b.target_id, vp)))
            else:
                artifact_vp[b.source_id] = b.target_id

    activity_bindings = plm.activity_bindings()
    if len({b.source_id for b in activity_bindings}) < len(activity_bindings):
        bound = _grouped((b.source_id, b.target_id) for b in activity_bindings)
        out.extend(
            Violation("binding-single-variant", (activity_id,),
                      f"activity {activity_id!r} is bound to more than one variant: "
                      f"{', '.join(map(repr, targets))}")
            for activity_id, targets in bound.items() if len(targets) > 1)

    for b in activity_bindings:
        act, variant = activities.get(b.source_id), variants.get(b.target_id)
        if act is None or variant is None:
            out.append(_unresolved("binding-resolution", "activity binding references unknown id",
                                   (b.source_id, act), (b.target_id, variant)))
            continue
        bound_vp = artifact_vp.get(act.artifact_id)
        if bound_vp is not None and variant.vp_id != bound_vp:
            out.append(Violation(
                "binding-theta-consistency", (b.source_id, b.target_id),
                f"activity {act.id!r} binds variant {variant.id!r} of "
                f"{variant.vp_id!r}, but its artifact binds {bound_vp!r}"))
    return out
