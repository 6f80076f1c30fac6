"""Configuration counting, validation, and enumeration.

A configuration selects exactly one variant per active variation point.
Roots are always active; a child variation point is active only while its
parent variant is selected. Interactions act as closure constraints: when
both endpoint variation points are active, the two variants are selected
together or not at all.

``validate_config`` is the reference for these rules. One depth-first walk
over one mutable path, which cuts a branch as soon as it breaks one of them,
serves ``enumerate_valid`` and ``count_valid``. Counting, enumeration and
``validate_config`` refuse a model that ``validate`` rejects.

``enumerate_valid`` sorts each valid selection's ids once, sorts the list of
those tuples once, and builds each configuration in bulk (``model._build``) from
its tuple alone: that is its ``sorted_ids()``, and ``selection`` is made on first read.

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
    budget. Each leaf of the walk adds its sorted ids to one list, sorted
    once; the configurations are built from it in bulk, each from its tuple
    alone, its ``sorted_ids()``, and ``selection`` is made on first read."""
    _, choices, requires, roots = _search_space(plm, budget)
    found = [tuple(sorted(chosen.values())) for chosen in _leaves(choices, requires, roots)]
    found.sort()
    return _build(Configuration, ("_sorted_ids",), len(found), found)


@_collector_paused
def count_valid(plm: ProductLineModel, budget: int | None = None) -> int:
    """``len(enumerate_valid(plm, budget))``, with the same refusals, but no
    configuration is built."""
    return _counts(plm, budget)[1]


def _counts(plm: ProductLineModel, budget: int | None) -> tuple[int, int]:
    """``(unconstrained, valid)``, with ``enumerate_valid``'s refusals. With
    no interaction the valid count is ``unconstrained_count``'s recurrence
    over the pruned choices; otherwise it adds up the leaves of the walk."""
    unconstrained, choices, requires, roots = _search_space(plm, budget)
    if requires:
        return unconstrained, sum(1 for _ in _leaves(choices, requires, roots))
    ways = _ways(choices, choices.__getitem__)
    return unconstrained, prod(ways[root] for root in roots)


def _search_space(plm: ProductLineModel, budget: int | None):
    """Refuse an invalid model, a non-positive budget, or a model over the
    budget (``None`` is ``default_budget()``), then prune: variants that bind
    no activity when any does, and variants that activate a variation point
    left with nothing to try. Returns the unconstrained count; the choices
    ``(variant, child vps)`` per reachable vp, children first; per variant,
    what choosing it asks of another vp once that one has chosen too,
    ``(vp, variant, whether that variant must be its choice)``, which holds
    nothing over a vp that never becomes active; and the root ids."""
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
    requires: dict[str, list[tuple[str, str, bool]]] = defaultdict(list)
    for edge in vm.variant_interactions:
        a, b = edge.from_id, edge.to_id
        vp_a, vp_b = index.vp_of[a], index.vp_of[b]
        for mine, vp_mine, theirs, vp_theirs in ((a, vp_a, b, vp_b), (b, vp_b, a, vp_a)):
            for variant_id in index.variants[vp_mine]:
                requires[variant_id].append((vp_theirs, theirs, variant_id == mine))
    choices: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for vp_id in _children_first(vm):
        options = ((v, index.children.get(v, ())) for v in index.variants.get(vp_id, ()))
        choices[vp_id] = [(v, children) for v, children in options
                          if v not in excluded and all(choices[c] for c in children)]
    return count, choices, requires, [vp.id for vp in index.roots]


def _leaves(choices, requires, pending: list[str]):
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
