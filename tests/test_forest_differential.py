"""Differential tests: the one forest rule of ``ovmkit.model`` against the
frozen checks it replaced (``reference_forest``).

Seeded random refinement graphs, mostly not forests: variation points with
zero to two variants and zero to two parent refinements, occasional parent
ids that name no variant and children that name no variation point. Where no
variation point has two refinements, the old and new rules agree on what
``validate`` reports. Everywhere, the lookups agree with each other. On a
graph ``validate`` rejects, every public entry that reads the model raises
``ModelError`` naming the first five violations; on the others the tree walks
terminate, ``reduce`` replays under ``verify_trace``, and configurations come
out as the old walk gave them.
"""

from __future__ import annotations

import random

import reference_configs
import reference_forest
from ovmkit.configs import _children_first, count_valid, enumerate_valid, unconstrained_count
from ovmkit.model import (
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    ModelError,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    tree_size,
    validate,
)
from ovmkit.reduction import reduce, verify_trace
from refusals import plm_entries, refusal_text, vm_entries

SEEDS = 500


def random_graph(rng: random.Random) -> ProductLineModel:
    vp_ids = [f"p{i:02d}" for i in range(rng.randint(1, 12))]
    variants = [Variant(f"{vp_id}.{j}", f"{vp_id}.{j}", vp_id)
                for vp_id in vp_ids for j in range(rng.randint(0, 2))]
    refinements = []
    for i, vp_id in enumerate(vp_ids):
        child = f"u{i:02d}" if rng.random() < 0.05 else vp_id
        for _ in range(rng.choices((0, 1, 2), weights=(4, 5, 1))[0]):
            parent = rng.choice(variants).id if variants and rng.random() > 0.05 else "ghost"
            refinements.append(VariabilityRefinement(child, parent))
    interactions = []
    for _ in range(rng.randint(0, len(vp_ids)) if len(variants) > 1 else 0):
        a, b = rng.sample(variants, 2)
        if a.vp_id != b.vp_id:
            interactions.append(Interaction(a.id, b.id, InteractionKind.MATERIAL,
                                            InteractionLevel.VARIANT))
    return ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(VariationPoint(vp_id, vp_id, Layer.FEATURE) for vp_id in vp_ids),
        variants=tuple(variants),
        variant_interactions=tuple(interactions),
        refinements=tuple(refinements),
    ))


def _refusal(call) -> str | None:
    try:
        call()
    except ModelError as exc:
        return str(exc)
    return None


def differences(seed: int) -> list[str]:
    """What the seed's model shows that the rules say it must not."""
    plm = random_graph(random.Random(seed))
    vm = plm.vm
    found = []
    children = {r.child_vp_id for r in vm.refinements}
    for v in vm.variants:
        below = sorted(c for c in children if vm.parent_variant_of(c) == v.id)
        if list(vm.child_vps_of(v.id)) != below:
            found.append(f"child_vps_of({v.id!r})")

    out = validate(plm)
    if len(children) == len(vm.refinements):  # no variation point has two refinements
        if out != [v for v in out if not v.invariant.startswith("psi-")] + \
                reference_forest.refinement_violations(vm):
            found.append("validate")
    if out:
        a, b = vm.variation_points[0].id, vm.variation_points[-1].id
        for name, call in (plm_entries(plm, a, b) | vm_entries(plm, a, b)).items():
            if (refusal := _refusal(call)) != refusal_text(out):
                found.append(f"{name}: {refusal}")
        return found

    for vp in vm.variation_points:
        tree_size(vm, vp.id)
    reduced, trace = reduce(plm)
    verify_trace(plm, trace, reduced)
    if unconstrained_count(vm) != reference_forest.unconstrained_count(vm):
        found.append("unconstrained_count")
    if sorted(_children_first(vm)) != sorted(reference_forest.children_first(vm)):
        found.append("children_first")
    expected = reference_configs.enumerate_valid(plm)
    if enumerate_valid(plm) != expected:
        found.append("enumerate_valid")
    if count_valid(plm) != len(expected):
        found.append("count_valid")
    return found


def test_random_refinement_graphs():
    found = {seed: d for seed in range(SEEDS) if (d := differences(seed))}
    assert found == {}
