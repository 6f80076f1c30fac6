"""Reference derivation: three ``map_layers`` passes, each building and
normalising a whole new product-line model.

This is the oracle for the differential tests of ``ovmkit.derivation``. It
must not change: its outputs define the expected model bytes and error
texts. It reads the library's models through public names only, and shares
``DerivationError``, ``DiffGroup`` and ``DiffResult`` with the library, so
results and exceptions from both compare equal.
"""

from __future__ import annotations

from ovmkit.derivation import DerivationError, DiffGroup, DiffResult
from ovmkit.model import (
    Binding,
    BindingKind,
    Interaction,
    InteractionLevel,
    Layer,
    LAYER_ABOVE,
    LayeredModel,
    ProductLineModel,
    ProductSet,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    check_product_includes,
)


def diff(model: LayeredModel, products: ProductSet | None = None) -> DiffResult:
    """Find variable activities and group them.

    With a product set, an activity is variable iff at least one product
    omits it. Without one, the model is read as a combined design and an
    activity is variable iff it is not mandatory. The group key is the
    activity's explicit group label when present, otherwise the parent
    activity its artifact refines; an ungroupable variable activity is an
    error.
    """
    if products is not None:
        check_product_includes(model, products, DerivationError)
        variable = [
            a for a in model.activities
            if any(a.id not in p.includes for p in products.products)
        ]
    else:
        variable = [a for a in model.activities if not a.mandatory]

    grouped: dict[str, list[str]] = {}
    for activity in variable:
        if activity.group is not None:
            key = activity.group
        else:
            parents = model.refinement_parents(activity.artifact_id)
            if len(parents) != 1:
                detail = "no group label and no refinement parent" if not parents \
                    else "no group label and several refinement parents"
                raise DerivationError(
                    f"cannot group variable activity {activity.id!r}: {detail}")
            key = parents[0]
        grouped.setdefault(key, []).append(activity.id)

    return DiffResult(groups=tuple(
        DiffGroup(key=key, activity_ids=tuple(sorted(ids)))
        for key, ids in grouped.items()
    ))


def create_variation_points(difs: DiffResult, model: LayeredModel) -> ProductLineModel:
    """One variation point per group, one variant and binding per variable activity."""
    activities = model.activities_by_id()
    vps: list[VariationPoint] = []
    variants: list[Variant] = []
    bindings: list[Binding] = []
    for group in difs.groups:
        layers = {activities[a].layer for a in group.activity_ids}
        if len(layers) != 1:
            raise DerivationError(
                f"group {group.key!r} spans several layers: "
                + ", ".join(sorted(layer.value for layer in layers)))
        vp = VariationPoint(id=f"vp:{group.key}", name=group.key, level=layers.pop())
        vps.append(vp)
        for activity_id in group.activity_ids:
            variant = Variant(
                id=f"v:{activity_id}", name=activities[activity_id].name, vp_id=vp.id)
            variants.append(variant)
            bindings.append(Binding(
                kind=BindingKind.ACTIVITY_VARIANT,
                source_id=activity_id, target_id=variant.id))
    vm = VariabilityModel(variation_points=tuple(vps), variants=tuple(variants))
    return ProductLineModel(vm=vm, artifacts=model, bindings=tuple(bindings))


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
    existing edge is a no-op.
    """
    if upper is not lower and LAYER_ABOVE.get(lower) is not upper:
        raise DerivationError(
            f"cannot map from {lower.value!r} to {upper.value!r}: the upper layer must "
            f"be the same layer or exactly one layer above")
    ascending = upper is not lower

    model = plm.artifacts
    activities = model.activities_by_id()
    bound = {b.source_id: plm.variant_of_activity(b.source_id) for b in plm.bindings
             if b.kind is BindingKind.ACTIVITY_VARIANT}
    variant_vp = {v: variant.vp_id for v, variant in plm.vm.variants_by_id().items()}

    def upper_parents(activity_id: str) -> tuple[str, ...]:
        return tuple(
            p for p in model.refinement_parents(activities[activity_id].artifact_id)
            if p in activities and activities[p].layer is upper
        )

    artifact_edges = set(model.interactions)
    variant_edges = set(plm.vm.variant_interactions)
    parent_edges: dict[str, str] = {
        r.child_vp_id: plm.vm.parent_variant_of(r.child_vp_id) for r in plm.vm.refinements}

    def add_parent_edge(child_vp: str, parent_variant: str) -> None:
        existing = parent_edges.get(child_vp)
        if existing == parent_variant:
            return
        if existing is not None:
            raise DerivationError(
                f"variation point {child_vp!r} would refine both variants "
                f"{existing!r} and {parent_variant!r}")
        parent_edges[child_vp] = parent_variant

    def lift(interaction: Interaction) -> None:
        from_act, to_act = interaction.from_id, interaction.to_id
        v_from, v_to = bound.get(from_act), bound.get(to_act)
        if v_from is None or v_to is None:
            return
        if activities[from_act].layer is not lower or activities[to_act].layer is not lower:
            return
        if variant_vp[v_from] != variant_vp[v_to]:
            variant_edges.add(Interaction(
                from_id=v_from, to_id=v_to, kind=interaction.kind,
                level=InteractionLevel.VARIANT, requires=interaction.requires))
        if not ascending:
            return
        for parent_from in upper_parents(from_act):
            for parent_to in upper_parents(to_act):
                if parent_from != parent_to:
                    artifact_edges.add(Interaction(
                        from_id=parent_from, to_id=parent_to, kind=interaction.kind,
                        level=InteractionLevel.ARTIFACT, requires=interaction.requires))
                if strict:
                    if parent_from in bound:
                        add_parent_edge(variant_vp[v_from], bound[parent_from])
                    if parent_to in bound:
                        add_parent_edge(variant_vp[v_to], bound[parent_to])

    for interaction in model.interactions:
        lift(interaction)

    if ascending and not strict:
        # Refinement alone places a bound child group under its parent
        # variant; no witnessing interaction is needed.
        for activity in model.activities:
            if activity.layer is not lower or activity.id not in bound:
                continue
            for parent in upper_parents(activity.id):
                if parent in bound:
                    add_parent_edge(variant_vp[bound[activity.id]], bound[parent])

    # A pass that adds no artifact interaction (feature to feature adds none) keeps the model.
    new_model = model if len(artifact_edges) == len(model.interactions) else LayeredModel(
        artifacts=model.artifacts,
        activities=model.activities,
        refinements=model.refinements,
        interactions=tuple(artifact_edges),
    )
    new_vm = VariabilityModel(
        variation_points=plm.vm.variation_points,
        variants=plm.vm.variants,
        variant_interactions=tuple(variant_edges),
        refinements=tuple(
            VariabilityRefinement(child_vp_id=c, parent_variant_id=p)
            for c, p in parent_edges.items()
        ),
    )
    return ProductLineModel(vm=new_vm, artifacts=new_model, bindings=plm.bindings)


def derive_initial_vm(
    model: LayeredModel,
    products: ProductSet | None = None,
    *,
    strict: bool = False,
) -> ProductLineModel:
    """Full derivation: diff, create variation points, then map layer by layer."""
    plm = create_variation_points(diff(model, products), model)
    plm = map_layers(plm, Layer.COMPONENT, Layer.FUNCTIONAL, strict=strict)
    plm = map_layers(plm, Layer.FUNCTIONAL, Layer.FEATURE, strict=strict)
    plm = map_layers(plm, Layer.FEATURE, Layer.FEATURE, strict=strict)
    return plm
