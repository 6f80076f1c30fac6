"""Seeded random model generators for the property suites.

Every generated model passes ``validate`` with zero violations, so the
suites exercise the operations on structurally valid inputs of varying
shape: forests with deep and flat trees, variation points with one to five
variants (occasionally none), interaction graphs with cycles, requires
flags, and optional activity bindings.
"""

from __future__ import annotations

import random

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

LAYERS = (Layer.FEATURE, Layer.FUNCTIONAL, Layer.COMPONENT)
KINDS = (InteractionKind.MATERIAL, InteractionKind.INFORMATION)


def grid(vps: int) -> ProductLineModel:
    """Root variation points of ten variants each, with no bindings and no
    interactions: 10^vps selections, all valid."""
    ids = [f"g{i:05d}" for i in range(vps)]
    return ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(
            VariationPoint(id=vp, name=vp.upper(), level=Layer.FEATURE) for vp in ids),
        variants=tuple(
            Variant(id=f"{vp}.{k}", name=f"{vp}.{k}", vp_id=vp)
            for vp in ids for k in range(10))))


def random_plm(
    rng: random.Random,
    max_vps: int = 50,
    max_variants: int = 200,
    with_bindings: bool = True,
) -> ProductLineModel:
    """A random valid product-line model: forest, interactions, bindings."""
    n_vps = rng.randint(1, max_vps)
    vps: list[VariationPoint] = []
    variants: list[Variant] = []
    refinements: list[VariabilityRefinement] = []
    depth_of_variant: dict[str, int] = {}
    total = 0

    for i in range(n_vps):
        vp_id = f"vp{i:03d}"
        depth = 0
        if variants and rng.random() < 0.6:
            parent = rng.choice(variants).id
            refinements.append(VariabilityRefinement(
                child_vp_id=vp_id, parent_variant_id=parent))
            depth = depth_of_variant[parent] + 1
        vps.append(VariationPoint(
            id=vp_id, name=f"Choice {i}", level=LAYERS[min(depth, 2)]))
        width = 0 if rng.random() < 0.05 else rng.randint(1, 5)
        width = min(width, max_variants - total)
        for j in range(width):
            v_id = f"v{i:03d}.{j}"
            variants.append(Variant(id=v_id, name=f"Option {i}.{j}", vp_id=vp_id))
            depth_of_variant[v_id] = depth
        total += width

    interactions: set[Interaction] = set()
    if len(variants) >= 2:
        for _ in range(rng.randint(0, 3 * n_vps)):
            a, b = rng.sample(variants, 2)
            if a.vp_id == b.vp_id:
                continue
            interactions.add(Interaction(
                from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
                level=InteractionLevel.VARIANT, requires=rng.random() < 0.3))

    layered, bindings = LayeredModel(), ()
    if with_bindings and variants and rng.random() < 0.7:
        layered, bindings = _tasks(rng, variants, rng.randint(1, min(30, 2 * len(variants))))

    plm = ProductLineModel(
        vm=VariabilityModel(
            variation_points=tuple(vps),
            variants=tuple(variants),
            variant_interactions=tuple(interactions),
            refinements=tuple(refinements),
        ),
        artifacts=layered,
        bindings=bindings,
    )
    assert validate(plm) == []
    return plm


def _tasks(
    rng: random.Random, variants: list[Variant], n_acts: int
) -> tuple[LayeredModel, tuple[Binding, ...]]:
    """One artifact of ``n_acts`` activities, each bound to a random variant."""
    activities = tuple(
        Activity(id=f"act{k:03d}", name=f"Task {k}", layer=Layer.FUNCTIONAL,
                 artifact_id="tasks", mandatory=False)
        for k in range(n_acts)
    )
    layered = LayeredModel(
        artifacts=(FunctionalArtifact(
            id="tasks", layer=Layer.FUNCTIONAL,
            activity_ids=tuple(a.id for a in activities)),),
        activities=activities,
    )
    return layered, tuple(
        Binding(kind=BindingKind.ACTIVITY_VARIANT,
                source_id=a.id, target_id=rng.choice(variants).id)
        for a in activities
    )


def random_forest(rng: random.Random, max_vps: int = 250) -> ProductLineModel:
    """A random valid forest whose variation points all have one width.

    Four in ten variation points are roots; each other one refines a random
    earlier variant. Random interactions join variants of distinct
    variation points. Planted pairs add two variation points each: wired
    variant to variant, so the pair is complete both ways, or every variant
    of one end to a single variant of the other, so it is complete one way
    only. Later random interactions may spoil either. Equal widths make
    every pair a tie, which ``reduce`` orients by the tree that meets it.
    """
    width, n_random = rng.randint(1, 4), rng.randint(2, max_vps)
    n_pairs = rng.randint(0, max(1, n_random // 20))
    vps: list[VariationPoint] = []
    variants: list[Variant] = []
    refinements: list[VariabilityRefinement] = []
    depth_of: dict[str, int] = {}
    interactions: set[Interaction] = set()

    def add_vp() -> list[Variant]:
        i, depth = len(vps), 0
        vp_id = f"vp{i:04d}"
        if variants and rng.random() >= 0.4:
            parent = rng.choice(variants).id
            refinements.append(VariabilityRefinement(child_vp_id=vp_id, parent_variant_id=parent))
            depth = depth_of[parent] + 1
        vps.append(VariationPoint(id=vp_id, name=f"Choice {i}", level=LAYERS[min(depth, 2)]))
        own = [Variant(id=f"v{i:04d}.{j}", name=f"Option {i}.{j}", vp_id=vp_id)
               for j in range(width)]
        depth_of.update((v.id, depth) for v in own)
        variants.extend(own)
        return own

    def add_edge(a: Variant, b: Variant) -> None:
        a, b = (a, b) if rng.random() < 0.5 else (b, a)
        interactions.add(Interaction(
            from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
            level=InteractionLevel.VARIANT, requires=rng.random() < 0.3))

    for _ in range(n_random):
        add_vp()
    for _ in range(n_pairs):
        left, right = add_vp(), add_vp()
        hub = [right[rng.randrange(width)]] * width if rng.random() < 0.5 else right
        for a, b in zip(left, hub):
            add_edge(a, b)
    for _ in range(rng.randint(0, 3 * len(vps))):
        a, b = rng.sample(variants, 2)
        if a.vp_id != b.vp_id:
            add_edge(a, b)

    layered, bindings = _tasks(rng, variants, rng.randint(1, 30))
    plm = ProductLineModel(
        vm=VariabilityModel(
            variation_points=tuple(vps),
            variants=tuple(variants),
            variant_interactions=tuple(interactions),
            refinements=tuple(refinements),
        ),
        artifacts=layered,
        bindings=bindings,
    )
    assert validate(plm) == []
    return plm


def random_layered(
    rng: random.Random, label_all_difs: bool = False, tangled: bool = False
) -> tuple[LayeredModel, ProductSet | None]:
    """A random valid layered model, sometimes with a product set.

    With ``label_all_difs`` every non-mandatory activity carries a group
    label, which guarantees the model is derivable (no ungroupable
    variable activities). With ``tangled`` a group label is shared by the
    artifacts of a layer and an artifact may refine a second parent, so a
    group can sit under two parent variants and lifting can refuse it;
    without it the draws are those of earlier versions.
    """
    activities: list[Activity] = []
    artifacts: list[FunctionalArtifact] = []
    refinements: list[Refinement] = []
    by_layer: dict[Layer, list[Activity]] = {layer: [] for layer in LAYERS}
    counter = 0

    for layer in LAYERS:
        for a in range(rng.randint(1, 3)):
            artifact_id = f"{layer.value}-art{a}"
            member_ids = []
            for _ in range(rng.randint(1, 4)):
                act_id = f"act{counter:03d}"
                counter += 1
                mandatory = rng.random() < 0.4
                group = None
                if not mandatory and (label_all_difs or rng.random() < 0.7):
                    group = f"{layer.value if tangled else artifact_id}-g{rng.randint(0, 1)}"
                act = Activity(id=act_id, name=f"Activity {act_id}", layer=layer,
                               artifact_id=artifact_id, mandatory=mandatory, group=group)
                activities.append(act)
                by_layer[layer].append(act)
                member_ids.append(act_id)
            artifacts.append(FunctionalArtifact(
                id=artifact_id, layer=layer, activity_ids=tuple(member_ids)))
            upper = {Layer.FUNCTIONAL: Layer.FEATURE,
                     Layer.COMPONENT: Layer.FUNCTIONAL}.get(layer)
            if upper and by_layer[upper] and rng.random() < 0.8:
                kind = RefinementKind.FEATURE if upper is Layer.FEATURE \
                    else RefinementKind.FUNCTIONAL
                parents = [rng.choice(by_layer[upper])]
                if tangled and rng.random() < 0.3:
                    parents.append(rng.choice(by_layer[upper]))
                for parent in parents:
                    refinements.append(Refinement(
                        child_artifact_id=artifact_id, parent_activity_id=parent.id,
                        kind=kind))

    interactions: set[Interaction] = set()
    for layer in LAYERS:
        pool = by_layer[layer]
        if len(pool) < 2:
            continue
        for _ in range(rng.randint(0, 4)):
            a, b = rng.sample(pool, 2)
            interactions.add(Interaction(
                from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
                level=InteractionLevel.ARTIFACT, requires=rng.random() < 0.2))

    model = LayeredModel(
        artifacts=tuple(artifacts),
        activities=tuple(activities),
        refinements=tuple(refinements),
        interactions=tuple(interactions),
    )
    assert validate(ProductLineModel(artifacts=model)) == []

    products = None
    if rng.random() < 0.5:
        # Mandatory activities appear in every product; only variable
        # activities may be dropped.
        products = ProductSet(products=tuple(
            Product(
                id=f"prod{p}",
                includes=tuple(
                    a.id for a in activities
                    if a.mandatory or rng.random() < 0.8),
            )
            for p in range(rng.randint(1, 4))
        ))
    return model, products
