"""Reference reduction: the pass-per-merge implementation that rescans the
frozen model for every candidate pair.

This is the oracle for the differential tests of ``ovmkit.reduction``. It
must not change: its outputs define the expected model and trace bytes. It
shares ``MergeRecord``, ``ReductionTrace`` and ``ReductionError`` with the
library, so records from both compare equal and serialize the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ovmkit.model import (
    Binding,
    BindingKind,
    Interaction,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
)
from ovmkit.reduction import MergeRecord, ReductionError, ReductionTrace


# Frozen copies of the tree helpers from ovmkit.model, so that later changes
# there cannot move this oracle.
def roots(vm: VariabilityModel) -> list[VariationPoint]:
    """Variation points with no parent variant, in ascending id order."""
    children = {r.child_vp_id for r in vm.refinements}
    return [vp for vp in vm.variation_points if vp.id not in children]


def tree_size(vm: VariabilityModel, root_vp_id: str) -> int:
    """Total number of variants in the tree rooted at the given variation point."""
    vm.vp(root_vp_id)
    return _subtree_variant_count(vm, root_vp_id, seen=set())


def _subtree_variant_count(vm: VariabilityModel, vp_id: str, seen: set[str]) -> int:
    if vp_id in seen:
        return 0
    seen.add(vp_id)
    total = 0
    for variant in vm.variants_of(vp_id):
        total += 1
        for child in vm.child_vps_of(variant.id):
            total += _subtree_variant_count(vm, child, seen)
    return total


def tree_vp_ids(vm: VariabilityModel, root_vp_id: str) -> set[str]:
    """All variation point ids in the tree rooted at the given one."""
    result: set[str] = set()
    stack = [root_vp_id]
    while stack:
        vp_id = stack.pop()
        if vp_id in result:
            continue
        result.add(vp_id)
        for variant in vm.variants_of(vp_id):
            stack.extend(vm.child_vps_of(variant.id))
    return result


def main_root(vm: VariabilityModel) -> VariationPoint:
    """The root whose tree holds the most variants; ties go to the smaller id."""
    candidates = roots(vm)
    if not candidates:
        raise ReductionError("model has no variation points")
    return min(candidates, key=lambda vp: (-tree_size(vm, vp.id), vp.id))


def interacting_pairs(
    vm: VariabilityModel, root_vp_id: str
) -> list[tuple[str, str]]:
    """Interacting (source, target) variation-point pairs seen from a tree.

    Variants of the tree are visited in ascending id order and their
    interaction partners (either direction) in ascending id order. For each
    newly seen pair of variation points, the one with more realizing
    variants is the source; on a tie the variation point on the visited
    tree's side of the encounter is the source. Order is deterministic and
    duplicates are dropped.
    """
    tree = tree_vp_ids(vm, root_vp_id)
    variant_vp = {v.id: v.vp_id for v in vm.variants}
    counts: dict[str, int] = {vp.id: 0 for vp in vm.variation_points}
    for variant in vm.variants:
        counts[variant.vp_id] += 1

    partners: dict[str, set[str]] = {}
    for edge in vm.variant_interactions:
        partners.setdefault(edge.from_id, set()).add(edge.to_id)
        partners.setdefault(edge.to_id, set()).add(edge.from_id)

    pairs: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    tree_variants = sorted(v.id for v in vm.variants if v.vp_id in tree)
    for variant_id in tree_variants:
        for partner_id in sorted(partners.get(variant_id, ())):
            vp_here = variant_vp[variant_id]
            vp_there = variant_vp.get(partner_id)
            if vp_there is None or vp_there == vp_here:
                continue
            key = frozenset((vp_here, vp_there))
            if key in seen:
                continue
            seen.add(key)
            if counts[vp_there] > counts[vp_here]:
                pairs.append((vp_there, vp_here))
            else:
                pairs.append((vp_here, vp_there))
    return pairs


def _cross_edges(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> list[Interaction]:
    """Stored interactions with one endpoint in each variation point."""
    variant_vp = {v.id: v.vp_id for v in vm.variants}
    wanted = {source_vp_id, target_vp_id}
    return [
        e for e in vm.variant_interactions
        if {variant_vp.get(e.from_id), variant_vp.get(e.to_id)} == wanted
    ]


def check_completeness(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """True iff every target variant interacts, in either direction, with
    some source variant."""
    sources = {v.id for v in vm.variants_of(source_vp_id)}
    connected: set[str] = set()
    for edge in vm.variant_interactions:
        if edge.from_id in sources:
            connected.add(edge.to_id)
        if edge.to_id in sources:
            connected.add(edge.from_id)
    return all(v.id in connected for v in vm.variants_of(target_vp_id))


def check_uniqueness(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """True iff each source-target interaction is the sole directed path
    between its endpoints and each target variant has exactly one source
    partner.

    Path search follows interaction direction and never revisits a variant;
    the checked edge itself is excluded, so a parallel edge or a detour
    through other variants both defeat uniqueness.
    """
    edges = _cross_edges(vm, source_vp_id, target_vp_id)
    targets = {v.id for v in vm.variants_of(target_vp_id)}

    partner_count: dict[str, set[str]] = {t: set() for t in targets}
    for edge in edges:
        if edge.from_id in targets:
            partner_count[edge.from_id].add(edge.to_id)
        else:
            partner_count[edge.to_id].add(edge.from_id)
    if any(len(p) != 1 for p in partner_count.values()):
        return False

    return not any(_alternative_path(vm, e) for e in edges)


def _pairing(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> dict[str, str]:
    """Each target variant mapped to its sole source partner.

    Only meaningful once completeness and uniqueness hold.
    """
    targets = {v.id for v in vm.variants_of(target_vp_id)}
    pairing: dict[str, str] = {}
    for edge in _cross_edges(vm, source_vp_id, target_vp_id):
        if edge.from_id in targets:
            pairing[edge.from_id] = edge.to_id
        else:
            pairing[edge.to_id] = edge.from_id
    return pairing


def forest_preserved(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """Would merging keep the refinement relation a forest?

    Interactions between different hierarchy levels (which lifted models
    never contain) can pair a variation point with one of its ancestors or
    descendants; transferring the target's subtrees would then create a
    refinement cycle. Such pairs are not eligible for merging.
    """
    pairing = _pairing(vm, source_vp_id, target_vp_id)
    variant_vp = {v.id: v.vp_id for v in vm.variants}
    parent: dict[str, str] = {}
    for ref in vm.refinements:
        if ref.child_vp_id == target_vp_id:
            continue
        new_parent = pairing.get(ref.parent_variant_id, ref.parent_variant_id)
        parent[ref.child_vp_id] = variant_vp[new_parent]
    for start in parent:
        seen = {start}
        cursor = parent.get(start)
        while cursor is not None:
            if cursor in seen:
                return False
            seen.add(cursor)
            cursor = parent.get(cursor)
    return True


def _alternative_path(vm: VariabilityModel, excluded: Interaction) -> bool:
    """Is the excluded edge's head reachable from its tail without it?"""
    outgoing: dict[str, list[Interaction]] = {}
    for edge in vm.variant_interactions:
        if edge != excluded:
            outgoing.setdefault(edge.from_id, []).append(edge)
    goal = excluded.to_id
    seen = {excluded.from_id}
    stack = [excluded.from_id]
    while stack:
        for edge in outgoing.get(stack.pop(), ()):
            if edge.to_id == goal:
                return True
            if edge.to_id not in seen:
                seen.add(edge.to_id)
                stack.append(edge.to_id)
    return False


def merge(
    plm: ProductLineModel, source_vp_id: str, target_vp_id: str
) -> tuple[ProductLineModel, MergeRecord]:
    """Merge the target variation point into the source.

    Refuses unless completeness and uniqueness hold. The target and its
    variants are removed; each activity bound to a removed variant is
    rebound to that variant's source partner, child variation points are
    re-parented the same way, and surviving interactions are transferred
    with direction preserved (self-loops and duplicates are dropped).
    """
    vm = plm.vm
    vm.vp(source_vp_id)
    vm.vp(target_vp_id)
    if source_vp_id == target_vp_id:
        raise ReductionError("cannot merge a variation point into itself")
    if not check_completeness(vm, source_vp_id, target_vp_id):
        raise ReductionError(
            f"refusing to merge {target_vp_id!r} into {source_vp_id!r}: "
            f"not every target variant interacts with the source")
    if not check_uniqueness(vm, source_vp_id, target_vp_id):
        raise ReductionError(
            f"refusing to merge {target_vp_id!r} into {source_vp_id!r}: "
            f"interactions between them are not unique")
    if not forest_preserved(vm, source_vp_id, target_vp_id):
        raise ReductionError(
            f"refusing to merge {target_vp_id!r} into {source_vp_id!r}: "
            f"transferring its subtrees would break the refinement forest")

    targets = {v.id for v in vm.variants_of(target_vp_id)}
    pairing = _pairing(vm, source_vp_id, target_vp_id)

    transferred_interactions = []
    new_edges = []
    for edge in vm.variant_interactions:
        new_from = pairing.get(edge.from_id, edge.from_id)
        new_to = pairing.get(edge.to_id, edge.to_id)
        if new_from == new_to:
            continue
        new_edges.append(Interaction(
            from_id=new_from, to_id=new_to, kind=edge.kind,
            level=edge.level, requires=edge.requires))
        if (new_from, new_to) != (edge.from_id, edge.to_id):
            transferred_interactions.append((edge.from_id, edge.to_id, new_from, new_to))

    transferred_refinements = []
    new_refinements = []
    for ref in vm.refinements:
        if ref.child_vp_id == target_vp_id:
            continue
        new_parent = pairing.get(ref.parent_variant_id, ref.parent_variant_id)
        new_refinements.append(VariabilityRefinement(
            child_vp_id=ref.child_vp_id, parent_variant_id=new_parent))
        if new_parent != ref.parent_variant_id:
            transferred_refinements.append(
                (ref.child_vp_id, ref.parent_variant_id, new_parent))

    rebound = []
    new_bindings = []
    for binding in plm.bindings:
        if binding.kind is BindingKind.ACTIVITY_VARIANT and binding.target_id in pairing:
            new_target = pairing[binding.target_id]
            rebound.append((binding.source_id, binding.target_id, new_target))
            new_bindings.append(Binding(
                kind=binding.kind, source_id=binding.source_id, target_id=new_target))
        elif binding.kind is BindingKind.ARTIFACT_VP and binding.target_id == target_vp_id:
            # Keep artifact traceability by pointing at the absorbing vp.
            new_bindings.append(Binding(
                kind=binding.kind, source_id=binding.source_id, target_id=source_vp_id))
        else:
            new_bindings.append(binding)

    new_vm = VariabilityModel(
        variation_points=tuple(
            vp for vp in vm.variation_points if vp.id != target_vp_id),
        variants=tuple(v for v in vm.variants if v.id not in targets),
        variant_interactions=tuple(new_edges),
        refinements=tuple(new_refinements),
    )
    record = MergeRecord(
        source_vp_id=source_vp_id,
        target_vp_id=target_vp_id,
        variant_pairing=tuple(sorted(pairing.items())),
        rebound_bindings=tuple(sorted(rebound)),
        transferred_refinements=tuple(sorted(transferred_refinements)),
        transferred_interactions=tuple(sorted(set(transferred_interactions))),
    )
    merged = ProductLineModel(
        vm=new_vm, artifacts=plm.artifacts, bindings=tuple(new_bindings))
    return merged, record


def reduce(plm: ProductLineModel) -> tuple[ProductLineModel, ReductionTrace]:
    """Merge until no eligible pair remains.

    Each pass visits trees in descending size (ascending id on ties) and
    tries their interacting pairs in order; the first pair passing both
    checks is merged and the pass restarts, since merging changes tree
    sizes and can enable or disable other merges. Terminates after at most
    one merge per variation point.
    """
    merges: list[MergeRecord] = []
    passes = 0
    while True:
        passes += 1
        vm = plm.vm
        ordered = sorted(roots(vm), key=lambda vp: (-tree_size(vm, vp.id), vp.id))
        merged = None
        for root in ordered:
            for source_id, target_id in interacting_pairs(vm, root.id):
                if (check_completeness(vm, source_id, target_id)
                        and check_uniqueness(vm, source_id, target_id)
                        and forest_preserved(vm, source_id, target_id)):
                    plm, record = merge(plm, source_id, target_id)
                    merged = record
                    break
            if merged:
                break
        if merged is None:
            return plm, ReductionTrace(merges=tuple(merges), pass_count=passes)
        merges.append(merged)
