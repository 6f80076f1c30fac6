"""Derivation of an initial variability model from a layered activity model.

The pipeline has three parts: ``diff`` finds the variable activities and
groups them, ``create_variation_points`` turns each group into a variation
point with one variant (and binding) per variable activity, and
``map_layers`` lifts relations from the layered model into the variability
model: interactions between bound activities become interactions between
their variants, interactions propagate upward between the refined parent
activities, and refinements become parent edges between a child's variation
point and the variant bound to the parent activity.

Lifting passes change one working state, ``_Lifting``, in place, and the
frozen models are built once, at the end, from parts already in ascending
order: ``map_layers`` is one pass over a fresh state, and
``derive_initial_vm`` runs its three passes over one state. Every entry
refuses a model ``validate`` rejects, so a pass reads only refinement parents
one layer up and interactions within one layer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain, repeat, starmap

from .model import (
    Binding,
    BindingKind,
    Interaction,
    InteractionLevel,
    Layer,
    LAYER_ABOVE,
    LayeredModel,
    ModelError,
    ProductLineModel,
    ProductSet,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    _KEYS,
    _build,
    _collector_paused,
    _grouped,
    check_product_includes,
    check_valid,
)

_KEY = _KEYS[Interaction]
_PASSES = (*LAYER_ABOVE.items(), (Layer.FEATURE, Layer.FEATURE))


class DerivationError(ModelError):
    pass


@dataclass(frozen=True, order=True)
class DiffGroup:
    """One group of variable activities; each group becomes a variation point."""

    key: str
    activity_ids: tuple[str, ...]


@dataclass(frozen=True)
class DiffResult:
    """Variable activities found by comparison, partitioned into groups."""

    groups: tuple[DiffGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(sorted(self.groups)))

    @property
    def activity_ids(self) -> frozenset[str]:
        return frozenset(a for g in self.groups for a in g.activity_ids)

    @property
    def is_empty(self) -> bool:
        return not self.groups


def diff(model: LayeredModel, products: ProductSet | None = None) -> DiffResult:
    """Find variable activities and group them.

    With a product set, an activity is variable iff at least one product
    omits it. Without one, the model is read as a combined design and an
    activity is variable iff it is not mandatory. The group key is the
    activity's explicit group label when present, otherwise the parent
    activity its artifact refines; an ungroupable variable activity is an
    error. A model ``validate`` rejects is refused.
    """
    check_valid(model._violations)
    if products is not None:
        check_product_includes(model, products, DerivationError)
        # With no products every activity is in all of them.
        in_all = set(model._index.activities).intersection(
            *(p.includes for p in products.products))
        variable = [a for a in model.activities if a.id not in in_all]
    else:
        variable = [a for a in model.activities if not a.mandatory]

    def key(activity) -> str:
        if activity.group is not None:
            return activity.group
        parents = model._index.parents.get(activity.artifact_id, ())
        if len(parents) != 1:
            detail = "no group label and no refinement parent" if not parents \
                else "no group label and several refinement parents"
            raise DerivationError(f"cannot group variable activity {activity.id!r}: {detail}")
        return parents[0]

    groups = _grouped((key(a), a.id) for a in variable)  # ids ascending, as model.activities
    return DiffResult(groups=tuple(starmap(DiffGroup, groups.items())))


def create_variation_points(difs: DiffResult, model: LayeredModel) -> ProductLineModel:
    """One variation point per group, one variant and binding per variable
    activity. Refuses what ``diff`` never builds: first an empty group, a key
    or an activity in two groups; then an unknown activity or several layers."""
    check_valid(model._violations)
    keys, named = set(), {}  # named: activity id -> key of the group naming it
    for group in difs.groups:
        if not group.activity_ids:
            raise DerivationError(f"group {group.key!r} names no activity")
        if group.key in keys:
            raise DerivationError(f"two groups have key {group.key!r}")
        keys.add(group.key)
        for a in group.activity_ids:
            if named.setdefault(a, group.key) != group.key:
                raise DerivationError(
                    f"groups {named[a]!r} and {group.key!r} both name activity {a!r}")
    activities = model._index.activities
    vps: list[VariationPoint] = []
    for group in difs.groups:
        try:
            layers = {activities[a].layer for a in group.activity_ids}
        except KeyError as exc:
            raise DerivationError(
                f"group {group.key!r} names unknown activity {exc.args[0]!r}") from None
        if len(layers) != 1:
            raise DerivationError(
                f"group {group.key!r} spans several layers: "
                + ", ".join(sorted(layer.value for layer in layers)))
        vps.append(VariationPoint(id=f"vp:{group.key}", name=group.key, level=layers.pop()))
    # The groups ascend by key, and so do their variation points. By activity
    # id the variants and bindings ascend too, so the models take all as given.
    members = sorted(named.items())
    ids, names = [f"v:{a}" for a, _ in members], [activities[a].name for a, _ in members]
    vm = VariabilityModel(variation_points=tuple(vps), variants=_build(
        Variant, ("id", "name", "vp_id"), len(ids), ids, names, [f"vp:{k}" for _, k in members]))
    return ProductLineModel(vm=vm, artifacts=model, bindings=_build(
        Binding, ("kind", "source_id", "target_id"), len(ids),
        repeat(BindingKind.ACTIVITY_VARIANT), [a for a, _ in members], ids))


class _Lifting:
    """The working state of the lifting passes, which change it in place.

    Interactions are held as their sort keys, ``(from_id, to_id, kind,
    level, requires)``, which order as the records do. ``edges`` holds, per
    layer, the interactions between two bound activities of that layer.
    """

    def __init__(self, plm: ProductLineModel) -> None:
        self.plm = plm
        self.activities = activities = plm.artifacts._index.activities
        self.bound = bound = plm._variant_of
        self.vp_of = plm.vm._index.vp_of
        self.parents = dict(plm.vm._index.parent)
        self.variant_edges = set(map(_KEY, plm.vm.variant_interactions))
        self.artifact_edges = set(map(_KEY, plm.artifacts.interactions))
        self.lifted: list[tuple] = []  # artifact interactions the input lacks
        self.edges: defaultdict[Layer, list[tuple]] = defaultdict(list)
        for edge in self.artifact_edges:  # each pass sorts its layer's edges first
            if edge[0] in bound and edge[1] in bound:
                self.edges[activities[edge[0]].layer].append(edge)

    def lift(self, lower: Layer, upper: Layer, strict: bool) -> None:
        """One pass of ``map_layers`` from ``lower`` to ``upper``, a legal pair."""
        activities, bound, vp_of, parents = self.activities, self.bound, self.vp_of, self.parents
        # A same-layer pass reads no upper parents, so it lifts and places nothing.
        refined = self.plm.artifacts._index.parents if upper is not lower else {}

        def upper_parents(activity_id: str) -> tuple[str, ...]:
            return refined.get(activities[activity_id].artifact_id, ())

        # Ascending, as in the model: in strict mode a conflict names the first of
        # two parent edges. The sort merges lifted edges into the input's run.
        edges = self.edges[lower]
        edges.sort()
        witnessed: list[tuple[str, str]] = []  # (child, parent), in edge order
        for from_act, to_act, kind, _, requires in edges:
            v_from, v_to = bound[from_act], bound[to_act]
            if vp_of[v_from] != vp_of[v_to]:
                self.variant_edges.add((v_from, v_to, kind, InteractionLevel.VARIANT, requires))
            for parent_from in upper_parents(from_act):
                for parent_to in upper_parents(to_act):
                    edge = (parent_from, parent_to, kind, InteractionLevel.ARTIFACT, requires)
                    if parent_from != parent_to and edge not in self.artifact_edges:
                        self.artifact_edges.add(edge)
                        self.lifted.append(edge)
                        if parent_from in bound and parent_to in bound:
                            self.edges[upper].append(edge)
                    witnessed += (from_act, parent_from), (to_act, parent_to)

        # Strict mode places a bound child group only where an interaction
        # witnesses the refinement; otherwise refinement alone places it.
        pairs = witnessed if strict else [
            (a.id, parent) for a in self.plm.artifacts.activities
            if a.layer is lower and a.id in bound for parent in upper_parents(a.id)]
        for child, parent in pairs:
            if parent in bound:
                child_vp, parent_variant = vp_of[bound[child]], bound[parent]
                existing = parents.setdefault(child_vp, parent_variant)
                if existing != parent_variant:
                    raise DerivationError(
                        f"variation point {child_vp!r} would refine both variants "
                        f"{existing!r} and {parent_variant!r}")

    def materialise(self) -> ProductLineModel:
        """The frozen model, each collection built in ascending order."""
        model = self.plm.artifacts
        # Passes that lift nothing keep the layered model; else the sort merges
        # the lifted interactions into the input's ascending run.
        if self.lifted:
            model = replace(model, interactions=tuple(sorted(
                chain(model.interactions, starmap(Interaction, self.lifted)), key=_KEY)))
        vm = replace(
            self.plm.vm,
            variant_interactions=tuple(starmap(Interaction, sorted(self.variant_edges))),
            refinements=tuple(starmap(VariabilityRefinement, sorted(self.parents.items()))))
        return replace(self.plm, vm=vm, artifacts=model)


@_collector_paused
def map_layers(
    plm: ProductLineModel, lower: Layer, upper: Layer, *, strict: bool = False
) -> ProductLineModel:
    """Lift relations of the given layer into the variability model.

    For every interaction between two bound variable activities of ``lower``:
    an interaction is added between their variants (same kind, direction and
    requires flag); when ``upper`` lies one layer above, the interaction is
    propagated to the refined parent activities, and parent edges are added
    from each child's variation point to the variant bound to its parent
    activity. By default parent edges are added for every bound
    refinement pair whether or not an interaction witnesses it; with
    ``strict`` they are only added from witnessed pairs. Re-adding an
    existing edge is a no-op. A model ``validate`` rejects is refused; on
    another, this is one pass over a working state, materialised when done.
    """
    if upper is not lower and LAYER_ABOVE.get(lower) is not upper:
        raise DerivationError(
            f"cannot map from {lower.value!r} to {upper.value!r}: the upper layer must "
            f"be the same layer or exactly one layer above")
    check_valid(plm._violations)
    lifting = _Lifting(plm)
    lifting.lift(lower, upper, strict)
    return lifting.materialise()


@_collector_paused
def derive_initial_vm(
    model: LayeredModel,
    products: ProductSet | None = None,
    *,
    strict: bool = False,
) -> ProductLineModel:
    """Full derivation: diff, create variation points, then the three
    ``map_layers`` passes (component to functional, functional to feature,
    feature to feature) over one working state, materialised once."""
    lifting = _Lifting(create_variation_points(diff(model, products), model))
    for lower, upper in _PASSES:
        lifting.lift(lower, upper, strict)
    return lifting.materialise()
