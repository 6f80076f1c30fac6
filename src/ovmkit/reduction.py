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

The pair functions (``_complete_pairs``, ``_push``, ``_eligibility`` and the
walks it makes) read "an index": variants by variation point and back, child
variation points by variant, parent variant by variation point, out-edges
holding the ``Interaction`` objects, and undirected partner sets.
``_complete_pairs`` sweeps the partner sets once for the pairs that can pass
completeness, and ``_eligibility`` decides a pair in one walk over the
target's variants, returning the pairing or the witness of a refusal. The
public checks read the model's frozen ``_links`` view. ``merge``,
``verify_trace`` and ``reduce`` read one mutable working index (``_Index``)
that each merge updates in place; it also keeps the interactions merges
added and what each removed variant or variation point was folded into, so
the frozen model is built once, at the end, from the input's own records in
their ascending order. Neither index is built for a model ``validate``
rejects, so every index read here is a forest; then ``model._known``
(``VariabilityModel.vp``'s check) refuses an unknown id.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
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
    _collector_paused,
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


def _met(index, variant_id: str, partner_id: str) -> tuple[str, str, str, str]:
    """``(variant, partner, source, target)``: a pair as a visit of the
    variant meets it at the partner, oriented."""
    here, there = index.vp_of[variant_id], index.vp_of[partner_id]
    pair = (here, there) if _oriented(index, here, there) else (there, here)
    return variant_id, partner_id, *pair


def _complete_pairs(index) -> set[tuple[str, str]]:
    """Each pair of variation points, ascending, that is complete in at least
    one orientation: every variant of one end interacts with the other end."""
    covered, vp_of = defaultdict(int), index.vp_of
    for variant_id, partner_ids in index.partners.items():
        for vp_id in {vp_of[p] for p in partner_ids}:
            covered[vp_id, vp_of[variant_id]] += 1
    return {(min(pair), max(pair)) for pair, n in covered.items()
            if n == len(index.variants[pair[1]])}


def _push(index, tree_of, todo, pairs, made: int) -> set[str]:
    """Push each pair, given as either orientation, that is complete in at least
    one (its links cover every variant of one end) on the heap of each tree
    holding an end, keyed by ``_met`` at its least link from that tree, as
    ``interacting_pairs`` orders it, and stamped ``made``; return those trees."""
    grown, vp_of = set(), index.vp_of
    for one, other in pairs:
        links = [(v, p) for v in index.variants[one] for p in index.partners.get(v, ())
                 if vp_of[p] == other]
        complete = links and (len({v for v, _ in links}) == len(index.variants[one])
                              or len({p for _, p in links}) == len(index.variants[other]))
        for root in {tree_of[one], tree_of[other]} if complete else ():
            meets = (links if tree_of[one] == root else []) + (
                [(p, v) for v, p in links] if tree_of[other] == root else [])
            heappush(todo[root], (*_met(index, *min(meets)), made))
            grown.add(root)
    return grown


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
        between += [e for e in index.out.get(sv, ()) if e.to_id == tv]
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
    """Mutable copies of a product-line model's lookups, activities by variant
    and adjacency, plus what the merges made: the interactions they added and
    the variant or variation point each removed one was folded into."""

    def __init__(self, plm: ProductLineModel) -> None:
        check_valid(plm._violations)
        frozen = plm.vm._index
        self.vp_of, self.variants = dict(frozen.vp_of), dict(frozen.variants)
        self.parent = dict(frozen.parent)
        self.children = defaultdict(list, {v: list(c) for v, c in frozen.children.items()})
        self.out, self.partners = defaultdict(set), defaultdict(set)
        _link(self, plm.vm.variant_interactions)
        self.activities = plm._activities_by_variant()
        self.added, self.into_variant, self.into_vp = [], {}, {}

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
        out, partners, vp_of = self.out, self.partners, self.vp_of
        edges = {e for tv in pairing for v in (tv, *partners.get(tv, ())) for e in out.get(v, ())
                 if tv in (e.from_id, e.to_id)}
        changed = set(pairing.values())
        moved_edges, new = set(), []
        for edge in edges:
            out[edge.from_id].discard(edge)
            changed.update((edge.from_id, edge.to_id))
            new_from = pairing.get(edge.from_id, edge.from_id)
            new_to = pairing.get(edge.to_id, edge.to_id)
            if new_from != new_to:
                moved_edges.add((edge.from_id, edge.to_id, new_from, new_to))
                new.append(Interaction(new_from, new_to, edge.kind, edge.level, edge.requires))
        _link(self, new)
        self.added += new
        for tv in pairing:
            del vp_of[tv]
            for by_variant in (out, partners):
                by_variant.pop(tv, None)
        changed.difference_update(pairing)
        for v in changed:
            partners[v].difference_update(pairing)

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
        self.into_variant.update(pairing)
        self.into_vp[target] = source
        del self.variants[target]
        record = MergeRecord(
            source, target, tuple(sorted(pairing.items())), tuple(sorted(rebound)),
            tuple(sorted(moved_children)), tuple(sorted(moved_edges)))
        return record, {vp_of[v] for v in changed} | {source}

    def materialise(self, plm: ProductLineModel) -> ProductLineModel:
        """The frozen model, each collection in ascending order: the input's
        records that survive, those merges changed rebuilt in place, and the
        interactions merges added inserted where they sort."""
        vm, alive, key = plm.vm, self.vp_of, _KEYS[Interaction]
        edges = [e for e in vm.variant_interactions if e.from_id in alive and e.to_id in alive]
        for edge in sorted({e for e in self.added if e.from_id in alive and e.to_id in alive},
                           key=key):
            i = bisect_left(edges, key(edge), key=key)
            if edges[i:i + 1] != [edge]:
                edges.insert(i, edge)
        return ProductLineModel(
            vm=VariabilityModel(
                variation_points=tuple(vp for vp in vm.variation_points if vp.id in self.variants),
                variants=tuple(v for v in vm.variants if v.id in alive),
                variant_interactions=tuple(edges),
                refinements=tuple(
                    r if p == r.parent_variant_id else VariabilityRefinement(r.child_vp_id, p)
                    for r in vm.refinements if (p := self.parent.get(r.child_vp_id)) is not None),
            ),
            artifacts=plm.artifacts,
            bindings=tuple(map(self._rebound, plm.bindings)),
        )

    def _rebound(self, binding: Binding) -> Binding:
        """The binding, its target followed through the merges that removed it."""
        variant = binding.kind is BindingKind.ACTIVITY_VARIANT
        alive, into = (self.vp_of, self.into_variant) if variant else (self.variants, self.into_vp)
        target = binding.target_id
        while target not in alive:
            target = into[target]
        return binding if target == binding.target_id else replace(binding, target_id=target)


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
    """Interacting (source, target) variation-point pairs seen from a tree,
    by the rule ``reduce`` keys the tree's heap with (``_push``).

    A link is a variant of the tree with one of its interaction partners
    (either direction). Each pair of variation points appears once, at its
    least link ``(variant, partner)``, in ascending order of that link. The
    one with more realizing variants is the source; on a tie the variation
    point on the tree's side of that link is the source (``_met``).
    """
    links = vm._links
    _known(links.variants, root_vp_id)
    least, vp_of = {}, links.vp_of
    for v in tree_variants(links, root_vp_id):
        for p in links.partners.get(v, ()):
            pair = frozenset((vp_of[v], vp_of[p]))
            least[pair] = min(least.get(pair, (v, p)), (v, p))
    return [_met(links, *link)[2:] for link in sorted(least.values())]


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


@_collector_paused
def reduce(plm: ProductLineModel) -> tuple[ProductLineModel, ReductionTrace]:
    """Merge until no eligible pair remains.

    Each pass visits trees in descending size (ascending id on ties) and
    tries their interacting pairs in order; the first eligible pair is
    merged and the pass restarts, since merging changes tree sizes and can
    enable or disable other merges. Terminates after at most one merge per
    variation point.

    A pass decides again only the pairs the last merge changed. Merging the
    target into the source gives the source the target's partners, moves the
    target's subtrees under the source's variants and, folding variants
    together, can only add directed paths. So the changed pairs are the
    source's with each variation point it gained partners in, and every
    pair of a moved variation point (its position, or the forest check,
    can change); any other refused pair stays refused, as does a pair
    complete in neither orientation, at the start or after a merge. Each tree
    keeps a heap of its pairs still to decide, keyed by where its pair list
    meets them; ``_push`` lists the pairs ``_complete_pairs`` finds, then
    those of each merge's changed pairs complete one way or both, and an
    entry older than its pair's stamp is dropped: a
    change stamps both orientations with the merges made, a refusal its own
    with one more. Tree sizes change by the variants removed and moved.
    """
    index = _Index(plm)
    tree_of, size, todo = {}, {}, {}
    for vp in roots(plm.vm):
        variants = tree_variants(index, vp.id)
        tree_of.update((index.vp_of[v], vp.id) for v in variants)
        size[vp.id], todo[vp.id] = len(variants), []
    _push(index, tree_of, todo, _complete_pairs(index), 0)
    heap = [(-n, root) for root, n in size.items()]  # entries of outdated size are skipped
    heapify(heap)
    # By oriented pair, the merge count from which its heap entries are current.
    current_from, merges = {}, []
    while True:
        found = None
        while heap and not found:
            negative_size, root = heappop(heap)
            while size.get(root) == -negative_size and todo[root] and not found:
                entry = heappop(todo[root])
                source, target, made = entry[2:]
                if made < current_from.get((source, target), 0):
                    continue
                reason, _, pairing = _eligibility(index, source, target)
                if reason is None:
                    found = source, target, pairing
                else:
                    current_from[source, target] = len(merges) + 1
        if not found:
            trace = ReductionTrace(merges=tuple(merges), pass_count=len(merges) + 1)
            return (index.materialise(plm) if merges else plm), trace

        source, target, pairing = found
        source_tree, target_tree = tree_of[source], tree_of[target]
        record, touched = index.merge(source, target, pairing)
        merges.append(record)
        carried = [v for child, _, _ in record.transferred_refinements
                   for v in tree_variants(index, child)]
        size[source_tree] += len(carried)
        size[target_tree] -= len(carried) + len(pairing)
        size.pop(target, None)
        tree_of.update((index.vp_of[v], source_tree) for v in carried)
        # Each changed pair, with the end whose variants find its links.
        redo = {(vp_id, source) for vp_id in touched - {source}}
        redo.update((index.vp_of[v], index.vp_of[p]) for v in carried
                    for p in index.partners.get(v, ()))
        for one, other in redo | {(vp_id, target) for vp_id in touched}:
            current_from[one, other] = current_from[other, one] = len(merges)
        grown = _push(index, tree_of, todo, redo, len(merges))
        for root in grown | ({source_tree, target_tree} & size.keys()):
            heappush(heap, (-size[root], root))
