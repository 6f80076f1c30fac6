"""Frozen oracle for ``ovmkit.configs.enumerate_valid``: generate and test.

Builds every selection of one variant per active variation point and keeps
those that ``validate_config`` accepts, the enumerator the pruned search
replaced. Kept only to check the search against.
"""

from __future__ import annotations

from collections import defaultdict

from ovmkit.configs import (
    BudgetExceededError,
    Configuration,
    default_budget,
    unconstrained_count,
    validate_config,
)
from ovmkit.model import ProductLineModel, VariabilityModel, VariationPoint


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


# Frozen copies of the helpers this oracle used from ovmkit.configs and
# ovmkit.model, so that later changes there cannot move it.
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


def roots(vm: VariabilityModel) -> list[VariationPoint]:
    """Variation points with no parent variant, in ascending id order."""
    children = {r.child_vp_id for r in vm.refinements}
    return [vp for vp in vm.variation_points if vp.id not in children]
