"""Reference for large models: the indexed reduction whose pair lists were
rebuilt whole after each merge.

``reference_reduction`` rescans the frozen model for every candidate pair,
so it is too slow for models of thousands of variation points. This oracle
is the next implementation: a mutable index updated in place by each merge,
a pass that rebuilds the pair list of every tree a merge reached, refusals
remembered by the stamps of their two variation points, and a result built
from the index's sets and sorted by the model constructors. It must not
change: its outputs define the expected model and trace bytes of the
large-model differential tests. Its lookups are rebuilt from the model's
public fields, so later changes to the library's own lookups cannot move it.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush

from ovmkit.model import (
    Binding,
    BindingKind,
    Interaction,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    check_valid,
    validate,
)
from ovmkit.reduction import MergeRecord, ReductionTrace


def _edge_key(edge: Interaction):
    return edge.from_id, edge.to_id, edge.kind, edge.level, edge.requires


def tree_variants(index, root_vp_id: str) -> list[str]:
    found, stack = [], [root_vp_id]
    while stack:
        for v in index.variants.get(stack.pop(), ()):
            found.append(v)
            stack.extend(index.children.get(v, ()))
    return found


def _oriented(index, source: str, target: str) -> bool:
    return 0 < len(index.variants[target]) <= len(index.variants[source])


def _pairs(index, root_vp_id: str) -> list[tuple[str, str]]:
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
        for edge in sorted(between, key=_edge_key):
            if _alternative_path(index, edge):
                return "path", (edge.from_id, edge.to_id), None
    above = _ancestor_variant(index, source, target)
    return ("forest", (above,), None) if above else (None, (), pairing)


def _alternative_path(index, excluded: Interaction) -> bool:
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
    vp_id = source
    while (pv := index.parent.get(vp_id)) is not None:
        vp_id = index.vp_of[pv]
        if vp_id == target:
            paired = any(index.vp_of.get(p) == source for p in index.partners.get(pv, ()))
            return pv if paired else None
    return None


class _Index:
    def __init__(self, plm: ProductLineModel) -> None:
        check_valid(validate(plm))
        vm = plm.vm
        self.vp_of = {v.id: v.vp_id for v in vm.variants}
        self.variants = {vp.id: () for vp in vm.variation_points}
        for v, vp_id in self.vp_of.items():
            self.variants[vp_id] += (v,)
        self.parent = {r.child_vp_id: r.parent_variant_id for r in reversed(vm.refinements)}
        self.children = defaultdict(list)
        for c, p in reversed(self.parent.items()):
            self.children[p].append(c)
        self.out, self.inc, self.partners = defaultdict(set), defaultdict(set), defaultdict(set)
        self.link(vm.variant_interactions)
        self.activities, self.artifacts = defaultdict(set), defaultdict(set)
        for b in plm.bindings:
            activity = b.kind is BindingKind.ACTIVITY_VARIANT
            (self.activities if activity else self.artifacts)[b.target_id].add(b.source_id)

    def link(self, interactions) -> None:
        for edge in interactions:
            self.out[edge.from_id].add(edge)
            self.inc[edge.to_id].add(edge)
            self.partners[edge.from_id].add(edge.to_id)
            self.partners[edge.to_id].add(edge.from_id)

    def root_of(self, vp_id: str) -> str:
        while (pv := self.parent.get(vp_id)) is not None:
            vp_id = self.vp_of[pv]
        return vp_id

    def merge(self, source: str, target: str, pairing: dict[str, str]):
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
                self.link([Interaction(new_from, new_to, edge.kind, edge.level, edge.requires)])
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


def reduce(plm: ProductLineModel) -> tuple[ProductLineModel, ReductionTrace]:
    index = _Index(plm)
    size = {vp.id: len(tree_variants(index, vp.id))
            for vp in plm.vm.variation_points if vp.id not in index.parent}
    heap = [(-n, root) for root, n in size.items()]
    heapify(heap)
    tree_pairs, quiet = {}, set()
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
        stale = (moved | set(map(index.root_of, touched))) & size.keys()
        for root in stale:
            size[root] = len(tree_variants(index, root))
            tree_pairs.pop(root, None)
        partnered = {index.root_of(index.vp_of[p]) for vp_id in touched
                     for v in index.variants[vp_id] for p in index.partners[v]}
        for root in stale | partnered:
            quiet.discard(root)
            heappush(heap, (-size[root], root))
