"""Frozen oracle for ``ovmkit.configs.enumerate_valid``: generate and test.

Builds every selection of one variant per active variation point and keeps
those that ``validate_config`` accepts, the enumerator the pruned search
replaced. Kept only to check the search against.
"""

from __future__ import annotations

from ovmkit.configs import (
    BudgetExceededError,
    Configuration,
    _options,
    default_budget,
    unconstrained_count,
    validate_config,
)
from ovmkit.model import ProductLineModel, VariabilityModel, roots


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
