"""Every valid model within a small scope, in a fixed order.

A scope ``(n, width, most)`` holds the models of ``n`` variation points
``v0 .. v{n-1}`` of 1 to ``width`` variants each (``v{i}.0``, ``v{i}.1``, ...),
in every forest shape: each variation point after the first is a root or sits
under any variant of an earlier one. Each model has every set of at most
``most`` directed interactions between variants of distinct variation
points, with ``requires`` false and no bindings. Every such model is valid,
so none is skipped.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from ovmkit.model import (
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    Variant,
    VariationPoint,
)


def models(n: int, width: int, most: int):
    """Yield ``(widths, parents, links, plm)`` for every model in the scope:
    by widths, then by each variation point's parent variant (``None`` for a
    root), then by the number of interactions and their combinations."""
    for widths in product(range(1, width + 1), repeat=n):
        variants = [[f"v{i}.{j}" for j in range(w)] for i, w in enumerate(widths)]
        ends = [(a, b) for i, j in permutations(range(n), 2)
                for a in variants[i] for b in variants[j]]
        base = dict(
            variation_points=tuple(VariationPoint(f"v{i}", f"V{i}", Layer.FUNCTIONAL)
                                   for i in range(n)),
            variants=tuple(Variant(v, v.upper(), f"v{i}")
                           for i, ids in enumerate(variants) for v in ids))
        under = [(None, *(v for ids in variants[:i] for v in ids)) for i in range(n)]
        for parents in product(*under):
            refinements = tuple(VariabilityRefinement(f"v{i}", p)
                                for i, p in enumerate(parents) if p is not None)
            for k in range(most + 1):
                for links in combinations(ends, k):
                    yield widths, parents, links, ProductLineModel(vm=VariabilityModel(
                        **base, refinements=refinements, variant_interactions=tuple(
                            Interaction(a, b, InteractionKind.INFORMATION,
                                        InteractionLevel.VARIANT) for a, b in links)))
