"""Variation-point reduction: merge a variation point into another when the
dependency between them is complete and unique.

A pass identifies the trees in descending size order and, inside each tree,
the pairs of variation points whose variants interact. In a pair the
variation point with more realizing variants is the source and the other is
the target, for ``reduce``, ``merge`` and ``verify_trace`` alike (``_oriented``).
The target may be merged into the source when every target variant
interacts with a source variant (completeness) and each of those
interactions is the only directed path between its endpoints and pairs
every target variant with exactly one source variant (uniqueness). Merging
removes the target, rebinds its activities, re-parents its subtrees, and
transfers its remaining interactions. Passes repeat until no merge applies.

The pair functions (``_pairs``, ``_eligibility`` and the walks it makes)
read "an index": variants by variation point and back, child variation
points by variant, parent variant by variation point, in- and out-adjacency
holding the ``Interaction`` objects, and undirected partner sets.
``_eligibility`` decides a pair in one walk over the target's variants,
returning the pairing or the witness of a refusal. The public checks read
the model's frozen ``_links`` view. ``merge``, ``verify_trace`` and ``reduce``
read one mutable working index (``_Index``) that each merge updates in
place, and build the frozen model once, at the end. Neither index is built
for a model ``validate`` rejects, so every index read here is a forest; then
``model._known`` (``VariabilityModel.vp``'s check) refuses an unknown id.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .model import (
    Binding,
    BindingKind,
    Interaction,
    ModelError,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    _KEYS,
    _known,
    _link,
    check_valid,
    roots,
    tree_size,
    tree_variants,
)


class ReductionError(ModelError):
    pass


@dataclass(frozen=True)
class MergeRecord:
    """One merge, with enough detail to audit and replay it.

    ``variant_pairing`` maps each removed target variant to the source
    variant it was folded into; every listed binding, refinement, and
    interaction existed before the merge.
    """

    source_vp_id: str
    target_vp_id: str
    variant_pairing: tuple[tuple[str, str], ...]
    rebound_bindings: tuple[tuple[str, str, str], ...]
    transferred_refinements: tuple[tuple[str, str, str], ...]
    transferred_interactions: tuple[tuple[str, str, str, str], ...]

    def pairing(self) -> dict[str, str]:
        return dict(self.variant_pairing)


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered merge records plus the number of passes run (final quiet pass included)."""

    merges: tuple[MergeRecord, ...] = ()
    pass_count: int = 0


# Why a merge is refused (``_eligibility``'s reasons, then ``_oriented``'s), and what it says.
_REFUSALS = {
    "completeness": "not every target variant interacts with the source: "
                    "{0!r} interacts with no source variant",
    "partners": "interactions between them are not unique: "
                "{0!r} interacts with both {1!r} and {2!r}",
    "path": "interactions between them are not unique: "
            "the edge {0!r} -> {1!r} has an alternative path",
    "forest": "transferring its subtrees would break the refinement forest: "
              "target variant {0!r} is an ancestor of the source",
    "orientation": "reduce never picks it: the target has {0} variants and the source {1}",
}


def _oriented(index, source: str, target: str) -> bool:
    """May ``reduce`` pick the pair this way round? A tie goes both ways."""
    return 0 < len(index.variants[target]) <= len(index.variants[source])


def _pairs(index, root_vp_id: str) -> list[tuple[str, str]]:
    """Pairs in the order ``interacting_pairs`` documents."""
    pairs, seen = [], set()
    for variant_id in sorted(tree_variants(index, root_vp_id)):
        here = index.vp_of[variant_id]
        for partner_id in sorted(index.partners.get(variant_id, ())):
            there = index.vp_of[partner_id]
            key = (here, there) if here < there else (there, here)
            if key not in seen:
                seen.add(key)
                pairs.append((here, there) if _oriented(index, here, there) else (there, here))
    return pairs


def _eligibility(index, source: str, target: str):
    """``(reason, witness, pairing)``: reason is None and pairing maps each
    target variant to its sole source partner when the merge may go
    ahead; otherwise reason is a key of ``_REFUSALS``, and a target
    variant with no partner outranks one with two."""
    vp_of = index.vp_of
    pairing, doubled = {}, None
    for tv in index.variants.get(target, ()):
        mine = [p for p in index.partners.get(tv, ()) if vp_of.get(p) == source]
        if not mine:
            return "completeness", (tv,), None
        if len(mine) > 1 and doubled is None:
            doubled = (tv, *sorted(mine)[:2])
        pairing[tv] = mine[0]
    if doubled:
        return "partners", doubled, None
    for tv, sv in pairing.items():
        between = [e for e in index.out.get(tv, ()) if e.to_id == sv]
        between += [e for e in index.inc.get(tv, ()) if e.from_id == sv]
        for edge in sorted(between, key=_KEYS[Interaction]):
            if _alternative_path(index, edge):
                return "path", (edge.from_id, edge.to_id), None
    above = _ancestor_variant(index, source, target)
    return ("forest", (above,), None) if above else (None, (), pairing)


def _alternative_path(index, excluded: Interaction) -> bool:
    """Is the excluded edge's head reachable from its tail without it?"""
    seen, stack = {excluded.from_id}, [excluded.from_id]
    while stack:
        for edge in index.out.get(stack.pop(), ()):
            if edge is excluded:
                continue
            if edge.to_id == excluded.to_id:
                return True
            if edge.to_id not in seen:
                seen.add(edge.to_id)
                stack.append(edge.to_id)
    return False


def _ancestor_variant(index, source: str, target: str) -> str | None:
    """The target variant above the source, when merging would fold it
    into the source and so make the source its own ancestor."""
    vp_id = source
    while (pv := index.parent.get(vp_id)) is not None:
        vp_id = index.vp_of[pv]
        if vp_id == target:
            paired = any(index.vp_of.get(p) == source for p in index.partners.get(pv, ()))
            return pv if paired else None
    return None


class _Index:
    """Mutable copies of a product-line model's lookups, bindings by target and adjacency."""

    def __init__(self, plm: ProductLineModel) -> None:
        check_valid(plm._violations)
        frozen = plm.vm._index
        self.vp_of, self.variants = dict(frozen.vp_of), dict(frozen.variants)
        self.parent = dict(frozen.parent)
        self.children = defaultdict(list, {v: list(c) for v, c in frozen.children.items()})
        self.out, self.inc, self.partners = defaultdict(set), defaultdict(set), defaultdict(set)
        _link(self, plm.vm.variant_interactions)
        self.activities, self.artifacts = plm._by_target()

    def root_of(self, vp_id: str) -> str:
        """The root at the top of the chain of parents."""
        while (pv := self.parent.get(vp_id)) is not None:
            vp_id = self.vp_of[pv]
        return vp_id

    def apply(self, source: str, target: str) -> MergeRecord:
        """Merge as ``merge`` does, refusing as it does."""
        _known(self.variants, source, target)
        if source == target:
            raise ReductionError("cannot merge a variation point into itself")
        reason, witness, pairing = _eligibility(self, source, target)
        if reason is None and not _oriented(self, source, target):
            reason, witness = "orientation", [len(self.variants[v]) for v in (target, source)]
        if reason is not None:
            raise ReductionError(
                f"refusing to merge {target!r} into {source!r}: "
                + _REFUSALS[reason].format(*witness))
        return self.merge(source, target, pairing)[0]

    def merge(self, source: str, target: str, pairing: dict[str, str]):
        """Fold the target into the source in place, given a full pairing.
        Returns the record and the variation points whose variants gained or
        lost partners."""
        out, inc, vp_of = self.out, self.inc, self.vp_of
        edges = {e for tv in pairing for e in (*out.get(tv, ()), *inc.get(tv, ()))}
        changed = set(pairing.values())
        moved_edges = set()
        for edge in edges:
            out[edge.from_id].discard(edge)
            inc[edge.to_id].discard(edge)
            changed.update((edge.from_id, edge.to_id))
            new_from = pairing.get(edge.from_id, edge.from_id)
            new_to = pairing.get(edge.to_id, edge.to_id)
            if new_from != new_to:
                moved_edges.add((edge.from_id, edge.to_id, new_from, new_to))
                _link(self, [Interaction(new_from, new_to, edge.kind, edge.level, edge.requires)])
        for tv in pairing:
            del vp_of[tv]
            for by_variant in (out, inc, self.partners):
                by_variant.pop(tv, None)
        changed.difference_update(pairing)
        for v in changed:
            self.partners[v].difference_update(pairing)

        if target in self.parent:
            self.children[self.parent.pop(target)].remove(target)
        moved_children, rebound = [], []
        for tv, sv in pairing.items():
            for child in self.children.pop(tv, ()):
                self.parent[child] = sv
                self.children[sv].append(child)
                moved_children.append((child, tv, sv))
            for activity_id in self.activities.pop(tv, ()):
                rebound.append((activity_id, tv, sv))
                self.activities[sv].add(activity_id)
        self.artifacts[source].update(self.artifacts.pop(target, ()))
        del self.variants[target]
        record = MergeRecord(
            source, target, tuple(sorted(pairing.items())), tuple(sorted(rebound)),
            tuple(sorted(moved_children)), tuple(sorted(moved_edges)))
        return record, {vp_of[v] for v in changed} | {source}

    def materialise(self, plm: ProductLineModel) -> ProductLineModel:
        vm = plm.vm
        bindings = [Binding(BindingKind.ACTIVITY_VARIANT, a, v)
                    for v, acts in self.activities.items() for a in acts]
        bindings += [Binding(BindingKind.ARTIFACT_VP, a, vp_id)
                     for vp_id, arts in self.artifacts.items() for a in arts]
        return ProductLineModel(
            vm=VariabilityModel(
                variation_points=tuple(vp for vp in vm.variation_points if vp.id in self.variants),
                variants=tuple(v for v in vm.variants if v.id in self.vp_of),
                variant_interactions=tuple(e for edges in self.out.values() for e in edges),
                refinements=tuple(VariabilityRefinement(c, p) for c, p in self.parent.items()),
            ),
            artifacts=plm.artifacts,
            bindings=tuple(bindings),
        )


def main_root(vm: VariabilityModel) -> VariationPoint:
    """The root whose tree holds the most variants; ties go to the smaller id."""
    check_valid(vm._violations)
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
    _known(vm._links.variants, root_vp_id)
    return _pairs(vm._links, root_vp_id)


def check_completeness(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """True iff every target variant interacts, in either direction, with
    some source variant."""
    _known(vm._links.variants, source_vp_id, target_vp_id)
    return _eligibility(vm._links, source_vp_id, target_vp_id)[0] != "completeness"


def check_uniqueness(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """True iff each source-target interaction is the sole directed path
    between its endpoints and each target variant has exactly one source
    partner. A parallel edge or a detour through other variants both
    defeat uniqueness."""
    _known(vm._links.variants, source_vp_id, target_vp_id)
    reason = _eligibility(vm._links, source_vp_id, target_vp_id)[0]
    return reason not in ("completeness", "partners", "path")


def forest_preserved(
    vm: VariabilityModel, source_vp_id: str, target_vp_id: str
) -> bool:
    """Would merging keep the refinement relation a forest?

    Interactions between different hierarchy levels (which lifted models
    never contain) can pair a variation point with one of its ancestors;
    transferring the ancestor's subtrees would then create a refinement
    cycle. Such pairs are not eligible for merging.
    """
    _known(vm._links.variants, source_vp_id, target_vp_id)
    return _ancestor_variant(vm._links, source_vp_id, target_vp_id) is None


def merge(
    plm: ProductLineModel, source_vp_id: str, target_vp_id: str
) -> tuple[ProductLineModel, MergeRecord]:
    """Merge the target variation point into the source.

    Refuses, naming the witness, unless completeness and uniqueness hold
    and the refinements stay a forest, then any pair ``reduce`` never picks:
    an empty target, or a source with fewer variants. The target and its
    variants are removed; each activity bound to a removed variant is
    rebound to that variant's source partner, child variation points are
    re-parented the same way, and surviving interactions are transferred
    with direction preserved (self-loops and duplicates are dropped).
    """
    index = _Index(plm)
    record = index.apply(source_vp_id, target_vp_id)
    return index.materialise(plm), record


def verify_trace(
    before: ProductLineModel, trace: ReductionTrace, after: ProductLineModel
) -> None:
    """Check that the trace is how ``after`` was reduced from ``before``.

    Re-applies each recorded merge as ``merge`` would, on one index of
    ``before``: each must give the same record, the final model must equal
    ``after``, and one pass must follow the last merge. Raises ``ModelError``
    naming the first merge that differs.
    """
    index = _Index(before)
    check_valid(after._violations)
    for i, record in enumerate(trace.merges):
        step = (f"trace merge {i} ({record.target_vp_id!r} into "
                f"{record.source_vp_id!r})")
        try:
            applied = index.apply(record.source_vp_id, record.target_vp_id)
        except ModelError as exc:
            raise ModelError(f"{step} does not replay: {exc}") from None
        if applied != record:
            raise ModelError(f"{step} replays to a different record")
    if index.materialise(before) != after:
        raise ModelError("replaying the trace on the model before does not give the model after")
    if trace.pass_count != len(trace.merges) + 1:
        raise ModelError(f"trace records {trace.pass_count} passes for {len(trace.merges)} merges")


def reduce(plm: ProductLineModel) -> tuple[ProductLineModel, ReductionTrace]:
    """Merge until no eligible pair remains.

    Each pass visits trees in descending size (ascending id on ties) and
    tries their interacting pairs in order; the first eligible pair is
    merged and the pass restarts, since merging changes tree sizes and can
    enable or disable other merges. Terminates after at most one merge per
    variation point.

    A pass skips what the last merge cannot have changed. A merge changes
    the partners of the variants of a few variation points (``touched``),
    moves subtrees between two trees, and, folding variants together, can
    only add directed paths; so a refused pair stays refused unless it
    involves a touched variation point, or the forest check refused it and
    its tree changed. Each tree keeps its pairs, and a tree whose pairs are
    all known refused is quiet: a pass skips it until a merge changes its
    pairs or a pair's partners.
    """
    index = _Index(plm)
    size = {vp.id: len(tree_variants(index, vp.id)) for vp in roots(plm.vm)}
    heap = [(-n, root) for root, n in size.items()]  # entries of outdated size are skipped
    heapify(heap)
    tree_pairs, quiet = {}, set()
    # A refusal holds while both variation points keep the stamps it was
    # made at; a merge bumps the stamps of those it touches.
    refusals, stamp = {}, defaultdict(int)
    merges = []
    while True:
        found = None
        while heap and not found:
            entry = negative_size, root = heappop(heap)
            if size.get(root) != -negative_size or root in quiet:
                continue
            if root not in tree_pairs:
                tree_pairs[root] = _pairs(index, root)
            for pair in tree_pairs[root]:
                stamps = stamp[pair[0]], stamp[pair[1]]
                if refusals.get(pair) != stamps:
                    reason, _, pairing = _eligibility(index, *pair)
                    if reason is None:
                        found = *pair, pairing
                        heappush(heap, entry)
                        break
                    if reason != "forest":
                        refusals[pair] = stamps
            else:
                quiet.add(root)
        if not found:
            trace = ReductionTrace(merges=tuple(merges), pass_count=len(merges) + 1)
            return (index.materialise(plm) if merges else plm), trace

        source, target, pairing = found
        moved = {index.root_of(source), index.root_of(target)}
        record, touched = index.merge(source, target, pairing)
        merges.append(record)
        size.pop(target, None)
        for vp_id in touched:
            stamp[vp_id] += 1
        # Trees whose pairs changed, then also trees holding a pair of a touched vp.
        stale = (moved | set(map(index.root_of, touched))) & size.keys()
        for root in stale:
            size[root] = len(tree_variants(index, root))
            tree_pairs.pop(root, None)
        partnered = {index.root_of(index.vp_of[p]) for vp_id in touched
                     for v in index.variants[vp_id] for p in index.partners[v]}
        for root in stale | partnered:
            quiet.discard(root)
            heappush(heap, (-size[root], root))
