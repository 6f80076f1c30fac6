"""Per-model reduction properties shared by the property and acceptance suites.

``check_reduction_properties`` replays the reduction trace of one model and
asserts, per merge: both checks hold, activity-binding count is conserved,
the variation-point set shrinks by exactly the target, and every refinement
subtree survives (re-parented onto the paired source variant when its old
parent was removed). It also asserts termination, idempotence, output
validity, serialization determinism, and the tree-size recount oracle.

``check_space_map`` compares the valid configurations before and after
``reduce``: which lose their image and which are gained.
"""

from __future__ import annotations

from ovmkit.configs import enumerate_valid
from ovmkit.documents import serialize
from ovmkit.model import ProductLineModel, roots, tree_size, validate
from ovmkit.reduction import (
    ReductionTrace,
    check_completeness,
    check_uniqueness,
    merge,
    reduce,
)


def naive_tree_size(vm, vp_id, seen=None) -> int:
    seen = set() if seen is None else seen
    if vp_id in seen:
        return 0
    seen.add(vp_id)
    count = 0
    for v in vm.variants:
        if v.vp_id != vp_id:
            continue
        count += 1
        for r in vm.refinements:
            if r.parent_variant_id == v.id:
                count += naive_tree_size(vm, r.child_vp_id, seen)
    return count


def assert_tree_sizes_match_oracle(plm: ProductLineModel) -> None:
    for root in roots(plm.vm):
        assert tree_size(plm.vm, root.id) == naive_tree_size(plm.vm, root.id)


def replay(plm: ProductLineModel, trace: ReductionTrace) -> ProductLineModel:
    """Re-apply each recorded merge, asserting the gate checks and the
    conservation properties at every step."""
    current = plm
    for record in trace.merges:
        vm = current.vm
        source, target = record.source_vp_id, record.target_vp_id
        assert check_completeness(vm, source, target)
        assert check_uniqueness(vm, source, target)

        vps_before = {vp.id for vp in vm.variation_points}
        bindings_before = len(current.activity_bindings())
        target_variants = {v.id for v in vm.variants_of(target)}
        refinements_before = {
            (r.child_vp_id, r.parent_variant_id) for r in vm.refinements
        }

        current, applied = merge(current, source, target)
        assert applied == record

        # Variation points shrink by exactly the target.
        assert {vp.id for vp in current.vm.variation_points} == vps_before - {target}
        # Activity bindings are rebound, never dropped.
        assert len(current.activity_bindings()) == bindings_before
        # Every subtree survives: unchanged, or re-parented via the pairing.
        pairing = record.pairing()
        expected = set()
        for child, parent in refinements_before:
            if child == target:
                continue
            expected.add((child, pairing.get(parent, parent)))
        got = {(r.child_vp_id, r.parent_variant_id) for r in current.vm.refinements}
        assert got == expected
    return current


def check_reduction_properties(plm: ProductLineModel) -> ReductionTrace:
    initial_vp_count = len(plm.vm.variation_points)
    assert_tree_sizes_match_oracle(plm)

    reduced, trace = reduce(plm)

    assert len(trace.merges) <= initial_vp_count
    assert len(reduced.vm.variation_points) == initial_vp_count - len(trace.merges)
    assert validate(reduced) == []
    assert_tree_sizes_match_oracle(reduced)

    replayed = replay(plm, trace)
    assert replayed == reduced

    again, second_trace = reduce(reduced)
    assert second_trace.merges == ()
    assert again == reduced

    rerun, _ = reduce(plm)
    assert serialize(rerun) == serialize(reduced)
    return trace


def check_space_map(plm: ProductLineModel, budget: int | None = None):
    """``(lost, gained)``: the valid configurations before ``reduce`` whose
    image, each selected variant mapped through the trace's pairings as
    acceptance criterion 7 maps it, is not valid after; and the valid
    configurations after that are the image of none before. Each is a sorted
    list of sorted variant-id tuples; ``budget`` bounds both enumerations."""
    reduced, trace = reduce(plm)
    images = {}
    for cfg in enumerate_valid(plm, budget):
        mapped = set(cfg.selection)
        for record in trace.merges:
            pairing = record.pairing()
            mapped = {pairing.get(v, v) for v in mapped}
        images[cfg.sorted_ids()] = tuple(sorted(mapped))
    after = {cfg.sorted_ids() for cfg in enumerate_valid(reduced, budget)}
    lost = sorted(ids for ids, image in images.items() if image not in after)
    return lost, sorted(after - set(images.values()))
