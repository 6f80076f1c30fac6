"""Frozen oracle for the refinement-forest checks that ``ovmkit.model``'s one
cycle check replaced.

``refinement_violations`` is the refinement part of ``validate`` as it was:
a variation point's parent is its *last* resolvable refinement, and a
variation point fails when its ancestor chain enters a cycle.
``children_first`` is the configuration walk as it was: a depth-first walk
down every refinement from the roots, with an on-path set that raises only on
a cycle a root reaches. ``unconstrained_count`` is the count over that walk.
Lookups are rebuilt here from the model's public fields, so later changes
to the library's own lookups cannot move the oracle.
"""

from __future__ import annotations

from math import prod

from ovmkit.model import ModelError, VariabilityModel, Violation


def refinement_violations(vm: VariabilityModel) -> list[Violation]:
    """The ``psi-*`` violations, in the order ``validate`` reported them."""
    out: list[Violation] = []
    vps = {vp.id for vp in vm.variation_points}
    variants = {v.id: v for v in vm.variants}
    parents: dict[str, str] = {}
    for ref in vm.refinements:
        if ref.child_vp_id not in vps or ref.parent_variant_id not in variants:
            missing = ref.child_vp_id if ref.child_vp_id not in vps else ref.parent_variant_id
            out.append(Violation(
                "psi-resolution", (ref.child_vp_id, ref.parent_variant_id),
                f"variability refinement references unknown id {missing!r}"))
            continue
        if ref.child_vp_id in parents:
            out.append(Violation(
                "psi-single-parent", (ref.child_vp_id,),
                f"variation point {ref.child_vp_id!r} has more than one parent variant"))
        parents[ref.child_vp_id] = ref.parent_variant_id

    parent_vp = {
        child: variants[parent].vp_id
        for child, parent in parents.items()
        if parent in variants
    }
    cyclic: dict[str, bool] = {}
    for start in parent_vp:
        path, cursor = set(), start
        while cursor in parent_vp and cursor not in cyclic and cursor not in path:
            path.add(cursor)
            cursor = parent_vp[cursor]
        cyclic.update(dict.fromkeys(path, cyclic.get(cursor, cursor in path)))
        if cyclic[start]:
            out.append(Violation(
                "psi-forest-acyclicity", (start,),
                f"variability refinements form a cycle through {start!r}"))
    return out


def children_first(vm: VariabilityModel) -> list[str]:
    """The variation points reachable from the roots, each after those below
    it. A refinement cycle reached from a root raises ``ModelError``."""
    variants, children = _lookups(vm)
    order: dict[str, None] = {}
    open_vps: set[str] = set()
    stack = [(root, False) for root in reversed(_roots(vm))]
    while stack:
        vp_id, children_done = stack.pop()
        if children_done:
            open_vps.discard(vp_id)
            order[vp_id] = None
        elif vp_id in open_vps:
            raise ModelError(f"variability refinements form a cycle through {vp_id!r}")
        elif vp_id not in order:
            open_vps.add(vp_id)
            stack.append((vp_id, True))
            stack.extend((c, False) for v in variants.get(vp_id, ())
                         for c in children.get(v, ()))
    return list(order)


def unconstrained_count(vm: VariabilityModel) -> int:
    variants, children = _lookups(vm)
    ways: dict[str, int] = {}
    for vp_id in children_first(vm):
        ways[vp_id] = sum(prod(ways[c] for c in children.get(v, ()))
                          for v in variants.get(vp_id, ()))
    return prod(ways[root] for root in _roots(vm))


def _lookups(vm: VariabilityModel) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Variant ids by variation point and child variation points by variant,
    the latter from every refinement."""
    variants: dict[str, list[str]] = {}
    for v in vm.variants:
        variants.setdefault(v.vp_id, []).append(v.id)
    children: dict[str, list[str]] = {}
    for r in vm.refinements:
        children.setdefault(r.parent_variant_id, []).append(r.child_vp_id)
    return variants, children


def _roots(vm: VariabilityModel) -> list[str]:
    children = {r.child_vp_id for r in vm.refinements}
    return [vp.id for vp in vm.variation_points if vp.id not in children]
