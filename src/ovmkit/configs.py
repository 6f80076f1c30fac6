"""Configuration counting, validation, and enumeration.

A configuration selects exactly one variant per active variation point.
Roots are always active; a child variation point is active only while its
parent variant is selected. Interactions act as closure constraints: when
both endpoint variation points are active, the two variants are selected
together or not at all.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from math import prod

from .model import (
    BindingKind,
    ModelError,
    ProductLineModel,
    VariabilityModel,
    Violation,
    roots,
)

DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "PLSE_BUDGET"


class BudgetExceededError(ModelError):
    """Enumeration would exceed the budget; carries the unconstrained count."""

    def __init__(self, unconstrained: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {unconstrained} unconstrained "
            f"configurations (budget {budget})")
        self.unconstrained = unconstrained
        self.budget = budget


@dataclass(frozen=True)
class Configuration:
    """A selection of variant ids, at most one per variation point."""

    selection: frozenset[str] = frozenset()

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.selection))


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ModelError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ModelError(f"{BUDGET_ENV_VAR} must be positive, got {raw!r}")
    return value


def unconstrained_count(vm: VariabilityModel) -> int:
    """Number of selections of one variant per active variation point,
    ignoring interactions. Exact (arbitrary precision); iterative, so depth
    is unbounded."""
    options = _options(vm)
    ways: dict[str, int] = {}
    open_vps: set[str] = set()  # on the current path; meeting one again is a cycle
    count = 1
    for root in roots(vm):
        stack = [(root.id, False)]
        while stack:
            vp_id, children_done = stack.pop()
            if children_done:
                open_vps.discard(vp_id)
                ways[vp_id] = sum(
                    prod(ways[c] for c in children) for _, children in options[vp_id])
            elif vp_id in open_vps:
                raise ModelError(f"variability refinements form a cycle through {vp_id!r}")
            elif vp_id not in ways:
                open_vps.add(vp_id)
                stack.append((vp_id, True))
                stack.extend((c, False) for _, children in options[vp_id] for c in children)
        count *= ways[root.id]
    return count


def active_vps(vm: VariabilityModel, selection: frozenset[str]) -> set[str]:
    """Variation points activated by the selection: roots, plus children of
    selected variants of active variation points."""
    return _active(vm, _options(vm), selection)


def _active(vm: VariabilityModel, options, selection: frozenset[str]) -> set[str]:
    active: set[str] = set()
    stack = [vp.id for vp in roots(vm)]
    while stack:
        vp_id = stack.pop()
        if vp_id in active:
            continue
        active.add(vp_id)
        for variant_id, children in options[vp_id]:
            if variant_id in selection:
                stack.extend(children)
    return active


def validate_config(plm: ProductLineModel, cfg: Configuration) -> list[Violation]:
    """Violations of the configuration against the model; empty means valid."""
    vm = plm.vm
    variants = vm.variants_by_id()
    for variant_id in sorted(cfg.selection):
        if variant_id not in variants:
            raise ModelError(f"unknown variant id: {variant_id}")

    options = _options(vm)
    active = _active(vm, options, cfg.selection)
    out: list[Violation] = []

    for vp in vm.variation_points:
        chosen = [variant_id for variant_id, _ in options[vp.id] if variant_id in cfg.selection]
        if vp.id in active:
            if len(chosen) != 1:
                out.append(Violation(
                    "cardinality", (vp.id, *chosen),
                    f"active variation point {vp.id!r} needs exactly one selected "
                    f"variant, got {len(chosen)}"))
        elif chosen:
            out.append(Violation(
                "inactive-selection", (vp.id, *chosen),
                f"variation point {vp.id!r} is not active but {chosen[0]!r} is selected"))

    for edge in vm.variant_interactions:
        vp_from = variants[edge.from_id].vp_id
        vp_to = variants[edge.to_id].vp_id
        if vp_from not in active or vp_to not in active:
            continue
        picked_from = edge.from_id in cfg.selection
        picked_to = edge.to_id in cfg.selection
        if picked_from != picked_to:
            out.append(Violation(
                "interaction-closure", (edge.from_id, edge.to_id),
                f"interaction ({edge.from_id!r}, {edge.to_id!r}) requires both "
                f"variants selected together"))

    bound_variants = {
        b.target_id for b in plm.bindings if b.kind is BindingKind.ACTIVITY_VARIANT
    }
    if bound_variants:
        for variant_id in sorted(cfg.selection):
            if variant_id not in bound_variants:
                out.append(Violation(
                    "variant-unbound", (variant_id,),
                    f"selected variant {variant_id!r} binds no activity"))
    return out


def enumerate_valid(
    plm: ProductLineModel, budget: int | None = None
) -> list[Configuration]:
    """All zero-violation configurations, ordered lexicographically by their
    sorted variant ids. Refuses when the unconstrained space exceeds the budget."""
    if budget is None:
        budget = default_budget()
    vm = plm.vm
    count = unconstrained_count(vm)
    if count > budget:
        raise BudgetExceededError(count, budget)

    valid = [
        cfg for cfg in _selections(vm)
        if not validate_config(plm, cfg)
    ]
    return sorted(valid, key=lambda c: c.sorted_ids())


def _options(vm: VariabilityModel) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Per variation point, its variants in id order, each with the child
    variation points it activates."""
    children: dict[str, list[str]] = {}
    for r in vm.refinements:
        children.setdefault(r.parent_variant_id, []).append(r.child_vp_id)
    options: dict[str, list[tuple[str, tuple[str, ...]]]] = defaultdict(list)
    for v in vm.variants:
        options[v.vp_id].append((v.id, tuple(children.get(v.id, ()))))
    return options


def _selections(vm: VariabilityModel):
    """Every selection of one variant per active variation point, depth
    first: the first pending variation point takes each of its variants in
    turn, and the variant's children join the pending ones."""
    options = _options(vm)
    stack = [(tuple(sorted(vp.id for vp in roots(vm))), ())]
    while stack:
        pending, chosen = stack.pop()
        if not pending:
            yield Configuration(selection=frozenset(chosen))
            continue
        rest = pending[1:]
        for variant_id, children in reversed(options[pending[0]]):
            stack.append((rest + children, chosen + (variant_id,)))
