"""Differential tests at sizes the first oracle cannot reach.

``reference_reduction`` takes about half a minute on one model of 1,700
variation points, so ``test_reduction_differential`` stays at 200. Here
``ovmkit.reduction.reduce`` must give the same model bytes and the same
trace bytes as ``reference_indexed_reduction.reduce``, the indexed reduction
that rebuilt whole pair lists, on random models of up to 2,000 variation
points, on lifted models, and on forests of equal-width variation points
with planted pairs, where every pair is a tie. Each test reports every seed
that differs.
"""

from __future__ import annotations

import random

import reference_indexed_reduction
from modelgen import random_forest, random_layered, random_plm
from ovmkit.derivation import DerivationError, derive_initial_vm
from ovmkit.documents import serialize
from ovmkit.reduction import reduce


def _differs(plm) -> bool:
    expected_model, expected_trace = reference_indexed_reduction.reduce(plm)
    model, trace = reduce(plm)
    return (serialize(model), serialize(trace)) != (
        serialize(expected_model), serialize(expected_trace))


def test_random_models_up_to_2000_vps():
    mismatches = [seed for seed in range(100) if _differs(
        random_plm(random.Random(seed), max_vps=2000, max_variants=8000))]
    assert mismatches == []


def test_equal_width_forests():
    """Ties are where a tree can list a pair in the orientation that is not
    complete; planted pairs complete one way or both must still merge."""
    mismatches = [seed for seed in range(300)
                  if _differs(random_forest(random.Random(seed), max_vps=250))]
    assert mismatches == []


def test_lifted_models():
    mismatches = []
    for seed in range(300):
        # Odd seeds draw tangled models; lifting refuses some, which have nothing to reduce.
        layered, products = random_layered(random.Random(seed), label_all_difs=True,
                                           tangled=seed % 2 == 1)
        try:
            plm = derive_initial_vm(layered, products)
        except DerivationError:
            continue
        if _differs(plm):
            mismatches.append(seed)
    assert mismatches == []
