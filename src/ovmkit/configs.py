"""Configuration counting, validation, and enumeration.

A configuration selects exactly one variant per active variation point.
Roots are always active; a child variation point is active only while its
parent variant is selected. Interactions act as closure constraints: when
both endpoint variation points are active, the two variants are selected
together or not at all.

``validate_config`` is the reference for these rules. Interactions are the
only ones that reach across trees, so the valid selections are the product
of those of each group of roots that no interaction joins. A depth-first
walk over one mutable path, which cuts a branch as soon as it breaks a rule,
lists each group's: ``enumerate_valid`` combines the lists by cartesian
product, and ``count_valid`` multiplies their lengths. Counting, enumeration
and ``validate_config`` refuse a model that ``validate`` rejects.

``enumerate_valid`` sorts each combined selection's ids once (the first
group's straight from the walk), sorts the list of those tuples once, and
builds each configuration in bulk (``model._build``) from its tuple alone:
that is its ``sorted_ids()``, and ``selection`` is made on first read.

``_search_space`` alone resolves and checks the enumeration budget, and
counts the unconstrained space once; ``_counts`` returns that count with the
valid one, for ``configs --count`` and ``build_report``.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import prod

from .model import (
    ModelError,
    ProductLineModel,
    VariabilityModel,
    Violation,
    _build,
    _collector_paused,
    _grouped,
    check_valid,
)

DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "PLSE_BUDGET"


def _count_text(count: int) -> str:
    """Every digit of the count: ``str`` refuses an int of over 4,300 of them."""
    try:
        return str(count)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(count))


class BudgetExceededError(ModelError):
    """Enumeration would exceed the budget; carries the unconstrained count."""

    def __init__(self, unconstrained: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {_count_text(unconstrained)} unconstrained "
            f"configurations (budget {_count_text(budget)})")
        self.unconstrained = unconstrained
        self.budget = budget


class _FromSortedIds:
    def __get__(self, cfg, cls=None):
        """``selection``'s default, ``frozenset()``; on a configuration built without
        one, the frozenset of its sorted ids, made on first read and kept."""
        if cfg is None:
            return frozenset()
        object.__setattr__(cfg, "selection", frozenset(cfg._sorted_ids))
        return cfg.selection


@dataclass(frozen=True)
class Configuration:
    """A selection of variant ids, at most one per variation point."""

    selection: frozenset[str] = _FromSortedIds()

    @cached_property
    def _sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.selection))

    def sorted_ids(self) -> tuple[str, ...]:
        """The selected ids in order, one tuple per configuration: the one
        ``enumerate_valid`` built it from, or else sorted on the first call.
        No field: neither pickled nor copied, and ``replace``'s copy sorts anew."""
        return self._sorted_ids

    def __getstate__(self) -> dict:
        return {"selection": self.selection}


def _too_long(raw: str) -> str | None:
    """Why ``int`` refused ``raw``, if for its length alone (a limit of 0 is none)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before 3.10.7
    return f"has more than {limit} digits" if 0 < limit < sum(map(str.isdecimal, raw)) else None


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        reason = _too_long(raw) or f"must be an integer, got {raw!r}"
        raise ModelError(f"{BUDGET_ENV_VAR} {reason}") from None
    if value <= 0:
        raise ModelError(f"{BUDGET_ENV_VAR} must be positive, got {raw!r}")
    return value


def unconstrained_count(vm: VariabilityModel) -> int:
    """Number of selections of one variant per active variation point,
    ignoring interactions. Exact (arbitrary precision); iterative, so depth
    is unbounded."""
    check_valid(vm._violations)
    index = vm._index
    ways = _ways(_children_first(vm), lambda vp_id: (
        (v, index.children.get(v, ())) for v in index.variants.get(vp_id, ())))
    return prod(ways[root.id] for root in index.roots)


def _ways(order, options_of) -> dict[str, int]:
    """Per variation point of ``order`` (children first), the selections
    under it: over its options ``(variant, child vps)``, the sum of the
    products of the children's."""
    ways: dict[str, int] = {}
    for vp_id in order:
        ways[vp_id] = sum(prod(ways[c] for c in children) for _, children in options_of(vp_id))
    return ways


def _children_first(vm: VariabilityModel) -> list[str]:
    """The variation points reachable from the roots, each after those below
    it: their preorder, reversed."""
    index = vm._index
    order, stack = [], [root.id for root in index.roots]
    while stack:
        vp_id = stack.pop()
        order.append(vp_id)
        stack.extend(c for v in index.variants.get(vp_id, ()) for c in index.children.get(v, ()))
    return order[::-1]


def active_vps(vm: VariabilityModel, selection: frozenset[str]) -> set[str]:
    """Variation points activated by the selection: roots, plus children of
    selected variants of active variation points."""
    index = vm._index
    active: set[str] = set()
    stack = [vp.id for vp in index.roots]
    while stack:
        vp_id = stack.pop()
        active.add(vp_id)
        for variant_id in index.variants.get(vp_id, ()):
            if variant_id in selection:
                stack.extend(index.children.get(variant_id, ()))
    return active


def validate_config(plm: ProductLineModel, cfg: Configuration) -> list[Violation]:
    """Violations of the configuration against the model; empty means valid."""
    check_valid(plm._violations)
    vm = plm.vm
    index = vm._index
    for variant_id in sorted(cfg.selection):
        if variant_id not in index.vp_of:
            raise ModelError(f"unknown variant id: {variant_id}")

    active = active_vps(vm, cfg.selection)
    out: list[Violation] = []

    for vp in vm.variation_points:
        chosen = [v for v in index.variants[vp.id] if v in cfg.selection]
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
        if index.vp_of[edge.from_id] not in active or index.vp_of[edge.to_id] not in active:
            continue
        picked_from = edge.from_id in cfg.selection
        picked_to = edge.to_id in cfg.selection
        if picked_from != picked_to:
            out.append(Violation(
                "interaction-closure", (edge.from_id, edge.to_id),
                f"interaction ({edge.from_id!r}, {edge.to_id!r}) requires both "
                f"variants selected together"))

    for variant_id in sorted(_unbound(plm).intersection(cfg.selection)):
        out.append(Violation(
            "variant-unbound", (variant_id,), f"selected variant {variant_id!r} binds no activity"))
    return out


def _unbound(plm: ProductLineModel) -> set[str]:
    """The variants that bind no activity, when any variant binds one: no
    configuration may select them."""
    bound = plm._variant_of.values()
    return plm.vm._index.vp_of.keys() - bound if bound else set()


@_collector_paused
def enumerate_valid(
    plm: ProductLineModel, budget: int | None = None
) -> list[Configuration]:
    """All zero-violation configurations, ordered lexicographically by their
    sorted variant ids. Refuses when the unconstrained space exceeds the
    budget. The first group's leaves give sorted ids; each further group's
    join every tuple so far, sorted. The list is sorted once; each
    configuration is built from its tuple alone, its ``sorted_ids()``, and
    ``selection`` is made on first read."""
    _, choices, requires, (first, *rest) = _search_space(plm, budget)
    found = [tuple(sorted(chosen.values())) for chosen in _leaves(choices, requires, first)]
    for group in rest:
        leaves = [tuple(chosen.values()) for chosen in _leaves(choices, requires, group)]
        found = [tuple(sorted(ids + more)) for ids in found for more in leaves]
    found.sort()
    return _build(Configuration, ("_sorted_ids",), len(found), found)


def count_valid(plm: ProductLineModel, budget: int | None = None) -> int:
    """``len(enumerate_valid(plm, budget))``, with the same refusals, but no
    configuration is built."""
    return _counts(plm, budget)[1]


def _counts(plm: ProductLineModel, budget: int | None) -> tuple[int, int]:
    """``(unconstrained, valid)``, with ``enumerate_valid``'s refusals. With
    no interaction the valid count is ``unconstrained_count``'s recurrence
    over the pruned choices; otherwise it is the product, over the groups
    of roots, of the leaves of each group's walk."""
    unconstrained, choices, requires, groups = _search_space(plm, budget)
    if requires:
        return unconstrained, prod(sum(1 for _ in _leaves(choices, requires, group))
                                   for group in groups)
    ways = _ways(choices, choices.__getitem__)
    return unconstrained, prod(ways[root] for group in groups for root in group)


def _search_space(plm: ProductLineModel, budget: int | None):
    """Refuse an invalid model, a non-positive budget, or a model over the
    budget (``None`` is ``default_budget()``), then prune: variants that bind
    no activity when any does, and variants that activate a variation point
    left with nothing to try. Returns the unconstrained count; the choices
    ``(variant, child vps)`` per reachable vp, children first; per variant,
    what choosing it asks of another vp once that one has chosen too,
    ``(vp, variant, whether that variant must be its choice)``, which holds
    nothing over a vp that never becomes active; and the root ids in groups
    no interaction joins, in root order (one empty group if there is no root)."""
    check_valid(plm._violations)
    if budget is None:
        budget = default_budget()
    elif budget <= 0:
        raise ModelError("budget must be positive")
    vm = plm.vm
    count = unconstrained_count(vm)
    if count > budget:
        raise BudgetExceededError(count, budget)
    index, excluded = vm._index, _unbound(plm)
    # Union-find: each vp starts under its parent's, and an interaction joins two roots.
    leader = {vp_id: index.vp_of[v] for vp_id, v in index.parent.items()}

    def find(vp_id: str) -> str:
        while vp_id in leader:  # each step skips a link: path halving
            leader[vp_id] = vp_id = leader.get(leader[vp_id], leader[vp_id])
        return vp_id

    requires: dict[str, list[tuple[str, str, bool]]] = defaultdict(list)
    for edge in vm.variant_interactions:
        a, b = edge.from_id, edge.to_id
        vp_a, vp_b = index.vp_of[a], index.vp_of[b]
        if (root_a := find(vp_a)) != (root_b := find(vp_b)):
            leader[root_b] = root_a
        for mine, vp_mine, theirs, vp_theirs in ((a, vp_a, b, vp_b), (b, vp_b, a, vp_a)):
            for variant_id in index.variants[vp_mine]:
                requires[variant_id].append((vp_theirs, theirs, variant_id == mine))
    choices: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for vp_id in _children_first(vm):
        options = ((v, index.children.get(v, ())) for v in index.variants.get(vp_id, ()))
        choices[vp_id] = [(v, children) for v, children in options
                          if v not in excluded and all(choices[c] for c in children)]
    # An empty space stays one group, which the walk ends at its root with nothing to
    # try: a product of 0 meets any budget, so the budget bounds no other group's walk.
    groups = _grouped((find(vp.id) if count else "", vp.id) for vp in index.roots).values()
    return count, choices, requires, list(groups) or [()]


def _leaves(choices, requires, pending: tuple[str, ...]):
    """Depth first from the ``pending`` variation points, the walk's one
    ``{vp: variant}`` dict at each valid selection; it changes once the next
    is asked for. The path is ``todo``, the active variation points in the
    order they choose: depth d chooses ``todo[d]``, and a choice appends its
    variant's child variation points. A choice is set on the way down and
    undone on backtrack; a variant is tried only when every interaction with
    a variation point that has chosen holds. Iterative: any depth works."""
    chosen: dict[str, str] = {}
    todo = list(pending)
    if not todo:
        yield chosen
    # Per depth: the untried choices of todo[depth], and where its choice's children start.
    frames = [(iter(choices[todo[0]]), len(todo))] if todo and all(map(choices.get, todo)) else []
    while frames:
        depth = len(frames) - 1
        options, mark = frames[-1]
        vp_id = todo[depth]
        for variant_id, children in options:
            for other_vp, other, must in requires.get(variant_id, ()):
                picked = chosen.get(other_vp)
                if picked is not None and (picked == other) != must:
                    break
            else:
                chosen[vp_id] = variant_id
                del todo[mark:]
                todo += children
                if depth + 1 < len(todo):
                    frames.append((iter(choices[todo[depth + 1]]), len(todo)))
                    break
                yield chosen
        else:
            frames.pop()
            chosen.pop(vp_id, None)
