"""Seeded, exact-size input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and fixed sizes, so the same seed
gives the same model and the same serialized bytes, and different seeds
change only the wiring, never the amount of input. Each generator also
returns the facts a correctness check needs that it knows by construction
(group counts, unconstrained counts), so the checks do not have to trust the
code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
)

KINDS = (InteractionKind.MATERIAL, InteractionKind.INFORMATION)
LAYERS = (Layer.FEATURE, Layer.FUNCTIONAL, Layer.COMPONENT)
PER_ARTIFACT = 5
N_PRODUCTS = 2
PAIR_WIDTH = 3


@dataclass(frozen=True)
class LayeredCase:
    model: LayeredModel
    products: ProductSet | None
    n_groups: int
    n_variable: int


def layered_model(
    rng: random.Random,
    n_activities: int,
    n_interactions: int,
    *,
    with_products: bool,
    n_pairs: int = 0,
) -> LayeredCase:
    """A derivable three-layer model with exactly ``n_activities`` activities
    and ``n_interactions`` interactions.

    A tenth of the activities sit on the feature layer, three tenths on the
    functional layer and the rest on the component layer, five to an
    artifact. Every functional and component artifact refines one random
    activity of the layer above, so refinement fan-out varies per parent.
    About half the activities are variable: feature-layer ones are grouped
    by a per-artifact label, lower ones by the parent they refine. With
    ``with_products`` the variable activities are the ones some product
    omits (comparison diff); otherwise they are the non-mandatory ones.

    ``n_pairs`` paired groups sit on the functional layer: two labelled
    groups of ``PAIR_WIDTH`` activities under one feature parent, wired
    one-to-one, which derive to a complete-and-unique variation-point pair
    unless other interactions spoil it.
    """
    n_feature = n_activities // 10
    n_functional = 3 * n_activities // 10
    sizes = {
        Layer.FEATURE: n_feature,
        Layer.FUNCTIONAL: n_functional,
        Layer.COMPONENT: n_activities - n_feature - n_functional,
    }
    paired = 2 * n_pairs * PAIR_WIDTH
    if paired > n_functional:
        raise ValueError("paired groups do not fit on the functional layer")

    activities: list[Activity] = []
    artifacts: list[FunctionalArtifact] = []
    refinements: list[Refinement] = []
    by_layer: dict[Layer, list[Activity]] = {layer: [] for layer in LAYERS}
    pair_edges: list[tuple[str, str]] = []
    counter = 0

    def add_artifact(layer: Layer, width: int, labels=None) -> list[str]:
        nonlocal counter
        artifact_id = f"{layer.value}-{len(artifacts):04d}"
        upper = {Layer.FUNCTIONAL: Layer.FEATURE, Layer.COMPONENT: Layer.FUNCTIONAL}.get(layer)
        if upper is not None:
            parent = labels[1] if labels else rng.choice(by_layer[upper]).id
            kind = RefinementKind.FEATURE if upper is Layer.FEATURE else RefinementKind.FUNCTIONAL
            refinements.append(Refinement(
                child_artifact_id=artifact_id, parent_activity_id=parent, kind=kind))
        members = []
        for _ in range(width):
            act_id = f"a{counter:05d}"
            counter += 1
            if labels:
                variable, group = True, labels[0]
            else:
                variable = rng.random() < 0.5
                group = f"g-{artifact_id}" if variable and layer is Layer.FEATURE else None
            act = Activity(id=act_id, name=f"Activity {act_id}", layer=layer,
                           artifact_id=artifact_id, mandatory=not variable, group=group)
            activities.append(act)
            by_layer[layer].append(act)
            members.append(act_id)
        artifacts.append(FunctionalArtifact(
            id=artifact_id, layer=layer, activity_ids=tuple(members)))
        return members

    for layer in LAYERS:
        remaining = sizes[layer]
        if layer is Layer.FUNCTIONAL:
            for p in range(n_pairs):
                parent = rng.choice(by_layer[Layer.FEATURE]).id
                left = add_artifact(layer, PAIR_WIDTH, (f"pair{p:03d}-a", parent))
                right = add_artifact(layer, PAIR_WIDTH, (f"pair{p:03d}-b", parent))
                pair_edges.extend(zip(left, right))
            remaining -= paired
        while remaining > 0:
            width = min(PER_ARTIFACT, remaining)
            add_artifact(layer, width)
            remaining -= width

    edges: dict[tuple[str, str], Interaction] = {}
    for from_id, to_id in pair_edges:
        edges[(from_id, to_id)] = Interaction(
            from_id=from_id, to_id=to_id, kind=InteractionKind.INFORMATION,
            level=InteractionLevel.ARTIFACT)
    random_edges = n_interactions - len(edges)
    quota = {layer: random_edges * sizes[layer] // n_activities for layer in LAYERS}
    quota[Layer.COMPONENT] += random_edges - sum(quota.values())
    for layer in LAYERS:
        pool = by_layer[layer]
        target = len(edges) + quota[layer]
        while len(edges) < target:
            a, b = rng.sample(pool, 2)
            if (a.id, b.id) not in edges:
                edges[(a.id, b.id)] = Interaction(
                    from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
                    level=InteractionLevel.ARTIFACT, requires=rng.random() < 0.2)

    model = LayeredModel(
        artifacts=tuple(artifacts),
        activities=tuple(activities),
        refinements=tuple(refinements),
        interactions=tuple(edges.values()),
    )

    variable = [a for a in activities if not a.mandatory]
    parent_of = {r.child_artifact_id: r.parent_activity_id for r in refinements}
    groups = {a.group or parent_of[a.artifact_id] for a in variable}

    products = None
    if with_products:
        # Each variable activity is left out of at least one product; the
        # mandatory ones are in all of them.
        includes: list[list[str]] = [[] for _ in range(N_PRODUCTS)]
        for act in activities:
            omitted = None if act.mandatory else rng.randrange(N_PRODUCTS)
            for p in range(N_PRODUCTS):
                if p != omitted and (act.mandatory or rng.random() < 0.8):
                    includes[p].append(act.id)
        products = ProductSet(products=tuple(
            Product(id=f"prod{p}", includes=tuple(ids)) for p, ids in enumerate(includes)))
    return LayeredCase(model, products, n_groups=len(groups), n_variable=len(variable))


def forest(
    rng: random.Random,
    widths: list[int],
    n_interactions: int,
    n_bound: int,
    n_pairs: int = 0,
) -> ProductLineModel:
    """A random refinement forest with one variation point per entry of
    ``widths``, holding that many variants, plus ``n_pairs`` planted pairs.

    Four in ten of the random variation points, the first among them, are
    roots; each other one refines a random earlier variant. ``n_interactions`` interactions join random
    variants of distinct random variation points in random directions.
    Each planted pair is two more roots of ``PAIR_WIDTH`` variants, wired
    variant to variant and to nothing else, so the pair is complete and
    unique and merges. Their ids sort after the random ones and their trees
    are small, so a reduction pass reaches them only after examining every
    random pair. ``n_bound`` activities are bound to random variants.
    """
    vps: list[VariationPoint] = []
    variants: list[Variant] = []
    refinements: list[VariabilityRefinement] = []
    depth_of: dict[str, int] = {}

    def add_vp(i: int, width: int, parent: str | None) -> list[Variant]:
        vp_id = f"vp{i:04d}"
        depth = 0
        if parent is not None:
            refinements.append(VariabilityRefinement(child_vp_id=vp_id, parent_variant_id=parent))
            depth = depth_of[parent] + 1
        vps.append(VariationPoint(id=vp_id, name=f"Choice {i}", level=LAYERS[min(depth, 2)]))
        own = [Variant(id=f"v{i:04d}.{j}", name=f"Option {i}.{j}", vp_id=vp_id)
               for j in range(width)]
        for v in own:
            depth_of[v.id] = depth
        variants.extend(own)
        return own

    roots = {0, *rng.sample(range(1, len(widths)), (4 * len(widths)) // 10 - 1)}
    for i, width in enumerate(widths):
        add_vp(i, width, None if i in roots else rng.choice(variants).id)
    pool = list(variants)

    edges: dict[tuple[str, str], Interaction] = {}

    def add_edge(a: Variant, b: Variant, requires: bool) -> None:
        edges[(a.id, b.id)] = Interaction(
            from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
            level=InteractionLevel.VARIANT, requires=requires)

    while len(edges) < n_interactions:
        a, b = rng.sample(pool, 2)
        if a.vp_id != b.vp_id and (a.id, b.id) not in edges:
            add_edge(a, b, requires=rng.random() < 0.3)
    for p in range(n_pairs):
        left = add_vp(len(widths) + 2 * p, PAIR_WIDTH, None)
        right = add_vp(len(widths) + 2 * p + 1, PAIR_WIDTH, None)
        for a, b in zip(left, right):
            add_edge(*((a, b) if rng.random() < 0.5 else (b, a)), requires=True)

    return ProductLineModel(
        vm=VariabilityModel(
            variation_points=tuple(vps),
            variants=tuple(variants),
            variant_interactions=tuple(edges.values()),
            refinements=tuple(refinements),
        ),
        artifacts=_task_model(n_bound),
        bindings=tuple(
            Binding(kind=BindingKind.ACTIVITY_VARIANT,
                    source_id=f"t{k:04d}", target_id=rng.choice(variants).id)
            for k in range(n_bound)),
    )


@dataclass(frozen=True)
class ConfigCase:
    plm: ProductLineModel
    unconstrained: int
    selection: frozenset[str]


# A fixed tree of 13 variation points and 40 variants with 8,000
# unconstrained selections. Per variation point: its number of variants and
# the (variation point, variant) position it refines, or None for a root.
# Parents come before their children.
CONFIG_SHAPE = (
    (3, None), (3, None), (2, (1, 2)), (3, None), (5, (2, 0)), (2, None), (3, (2, 0)),
    (2, (3, 2)), (5, None), (3, (0, 0)), (4, (8, 1)), (3, (1, 1)), (2, (6, 2)),
)


def config_model(rng: random.Random, n_interactions: int, *, bound: bool) -> ConfigCase:
    """The ``CONFIG_SHAPE`` tree with its variation points, and the variants
    of each, numbered in a random order, so every seed gives the same
    unconstrained count and only the labels and the wiring change.

    Interactions join variants other than the first of their variation
    point. With ``bound`` the first variant of every variation point and a
    quarter of the others bind an activity, so the ``variant-unbound`` rule
    rejects most selections; without it there are no bindings. Either way
    the selection of every active variation point's first variant, which is
    returned for validation, is valid.
    """
    n = len(CONFIG_SHAPE)
    number = rng.sample(range(n), n)
    suffix = [rng.sample(range(width), width) for width, _ in CONFIG_SHAPE]
    depth = [0] * n
    vps, variants, refinements = [], [], []
    for pos, (width, parent) in enumerate(CONFIG_SHAPE):
        vp_id = f"vp{number[pos]:04d}"
        if parent is not None:
            depth[pos] = depth[parent[0]] + 1
            refinements.append(VariabilityRefinement(
                child_vp_id=vp_id,
                parent_variant_id=f"v{number[parent[0]]:04d}.{suffix[parent[0]][parent[1]]}"))
        vps.append(VariationPoint(
            id=vp_id, name=f"Choice {number[pos]}", level=LAYERS[min(depth[pos], 2)]))
        variants.extend(
            Variant(id=f"v{number[pos]:04d}.{j}", name=f"Option {number[pos]}.{j}", vp_id=vp_id)
            for j in range(width))
    vps.sort(key=lambda vp: vp.id)
    variants.sort(key=lambda v: v.id)
    first: dict[str, Variant] = {}
    for v in variants:
        first.setdefault(v.vp_id, v)
    others = [v for v in variants if first[v.vp_id] is not v]
    edges: set[Interaction] = set()
    while len(edges) < n_interactions:
        a, b = rng.sample(others, 2)
        if a.vp_id != b.vp_id:
            edges.add(Interaction(from_id=a.id, to_id=b.id, kind=rng.choice(KINDS),
                                  level=InteractionLevel.VARIANT))
    vm = VariabilityModel(variation_points=tuple(vps), variants=tuple(variants),
                          variant_interactions=tuple(edges), refinements=tuple(refinements))
    chosen = list(first.values()) + rng.sample(others, len(others) // 4) if bound else []
    plm = ProductLineModel(
        vm=vm, artifacts=_task_model(len(chosen)),
        bindings=tuple(
            Binding(kind=BindingKind.ACTIVITY_VARIANT, source_id=f"t{k:04d}", target_id=v.id)
            for k, v in enumerate(chosen)))
    return ConfigCase(plm, _unconstrained(vm), _first_selection(vm))


def chain(depth: int) -> ProductLineModel:
    """A valid chain: each variation point has one variant, and the next
    variation point refines it."""
    return ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(
            VariationPoint(id=f"c{i:05d}", name=f"Level {i}", level=LAYERS[min(i, 2)])
            for i in range(depth)),
        variants=tuple(
            Variant(id=f"c{i:05d}.0", name=f"Only {i}", vp_id=f"c{i:05d}") for i in range(depth)),
        refinements=tuple(
            VariabilityRefinement(child_vp_id=f"c{i:05d}", parent_variant_id=f"c{i - 1:05d}.0")
            for i in range(1, depth)),
    ))


def _task_model(n: int) -> LayeredModel:
    if not n:
        return LayeredModel()
    acts = tuple(
        Activity(id=f"t{k:04d}", name=f"Task {k}", layer=Layer.FUNCTIONAL,
                 artifact_id="tasks", mandatory=False)
        for k in range(n))
    return LayeredModel(
        artifacts=(FunctionalArtifact(
            id="tasks", layer=Layer.FUNCTIONAL, activity_ids=tuple(a.id for a in acts)),),
        activities=acts,
    )


def _tree(vm: VariabilityModel):
    variants_of: dict[str, list[str]] = {vp.id: [] for vp in vm.variation_points}
    for v in vm.variants:
        variants_of[v.vp_id].append(v.id)
    children: dict[str, list[str]] = {}
    for r in vm.refinements:
        children.setdefault(r.parent_variant_id, []).append(r.child_vp_id)
    has_parent = {r.child_vp_id for r in vm.refinements}
    roots = [vp.id for vp in vm.variation_points if vp.id not in has_parent]
    return roots, variants_of, children


def _unconstrained(vm: VariabilityModel) -> int:
    """Selection count computed bottom-up, independently of ovmkit.configs."""
    roots, variants_of, children = _tree(vm)
    order, stack = [], list(roots)
    while stack:
        vp_id = stack.pop()
        order.append(vp_id)
        for v in variants_of[vp_id]:
            stack.extend(children.get(v, ()))
    ways: dict[str, int] = {}
    for vp_id in reversed(order):
        total = 0
        for v in variants_of[vp_id]:
            product = 1
            for child in children.get(v, ()):
                product *= ways[child]
            total += product
        ways[vp_id] = total
    count = 1
    for root in roots:
        count *= ways[root]
    return count


def _first_selection(vm: VariabilityModel) -> frozenset[str]:
    roots, variants_of, children = _tree(vm)
    chosen, stack = set(), list(roots)
    while stack:
        options = variants_of[stack.pop()]
        if options:
            chosen.add(options[0])
            stack.extend(children.get(options[0], ()))
    return frozenset(chosen)
