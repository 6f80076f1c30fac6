"""Valid models of any depth go through every stage: no recursion limit."""

from __future__ import annotations

from dataclasses import replace

from ovmkit.configs import count_valid, enumerate_valid, unconstrained_count
from ovmkit.documents import parse_variability_model, serialize
from ovmkit.model import (
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    tree_size,
    validate,
)
from ovmkit.reduction import reduce

DEPTH = 2000


def chain(depth: int) -> ProductLineModel:
    """Each variation point has one variant, which the next one refines."""
    ids = [f"c{i:05d}" for i in range(depth)]
    return ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(
            VariationPoint(id=c, name=c.upper(), level=Layer.FEATURE) for c in ids),
        variants=tuple(Variant(id=c + ".0", name=c.upper(), vp_id=c) for c in ids),
        refinements=tuple(
            VariabilityRefinement(child_vp_id=child, parent_variant_id=parent + ".0")
            for parent, child in zip(ids, ids[1:])),
    ))


def test_deep_chain_through_every_stage():
    plm = chain(DEPTH)
    data = serialize(plm)
    assert validate(parse_variability_model(data)) == []
    assert tree_size(plm.vm, "c00000") == DEPTH

    reduced, trace = reduce(plm)
    assert trace.merges == ()
    assert serialize(reduced) == data

    assert unconstrained_count(plm.vm) == 1
    assert [c.selection for c in enumerate_valid(plm, budget=10)] == [
        frozenset(v.id for v in plm.vm.variants)]


def test_deep_chain_counts_without_recursion():
    plm = chain(DEPTH)
    assert count_valid(plm, budget=10) == 1
    # An interaction between its two ends puts the whole chain on the search.
    first, last = plm.vm.variants[0].id, plm.vm.variants[-1].id
    linked = replace(plm, vm=replace(plm.vm, variant_interactions=(Interaction(
        from_id=first, to_id=last, kind=InteractionKind.MATERIAL,
        level=InteractionLevel.VARIANT),)))
    assert count_valid(linked, budget=10) == 1
    assert len(enumerate_valid(linked, budget=10)) == 1
