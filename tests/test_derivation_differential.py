"""Differential tests: the derivation against the frozen reference.

For every generated layered model, ``derive_initial_vm`` and each single
``map_layers`` pass must give the same model bytes as
``reference_derivation``, the implementation they replaced, or raise the
same exception type with the same message. Each test reports every case
that differs.
"""

from __future__ import annotations

import collections
import random

import reference_derivation
from modelgen import random_layered
from ovmkit import derivation
from ovmkit.documents import serialize
from ovmkit.model import Layer, ModelError

SEEDS = range(250)
PASS_SEEDS = range(60)
# Tangled models make groups that sit under two parent variants, so passes refuse some.
SHAPES = [(label_all_difs, tangled) for label_all_difs in (False, True) for tangled in (False, True)]
# The three legal layer pairs in derivation order, then one that skips a layer,
# then the same-layer passes derivation never runs.
PASSES = [(Layer.COMPONENT, Layer.FUNCTIONAL), (Layer.FUNCTIONAL, Layer.FEATURE),
          (Layer.FEATURE, Layer.FEATURE), (Layer.COMPONENT, Layer.FEATURE),
          (Layer.COMPONENT, Layer.COMPONENT), (Layer.FUNCTIONAL, Layer.FUNCTIONAL)]


def _outcome(call, *args, **kwargs):
    try:
        return serialize(call(*args, **kwargs))
    except ModelError as exc:
        return type(exc), str(exc)


def test_derive_initial_vm_matches_reference():
    mismatches, refusals = [], collections.Counter()
    for seed in SEEDS:
        for shape in SHAPES:
            model, products = random_layered(random.Random(seed), *shape)
            for strict in (False, True):
                expected = _outcome(reference_derivation.derive_initial_vm, model, products,
                                    strict=strict)
                if isinstance(expected, tuple):
                    refusals[strict, expected[1].split(" ")[0]] += 1
                if _outcome(derivation.derive_initial_vm, model, products,
                            strict=strict) != expected:
                    mismatches.append((seed, shape, strict))
    assert mismatches == []
    # Ungroupable activities and parent-edge conflicts in both modes are exercised.
    assert {(False, "cannot"), (True, "cannot"), (False, "variation"), (True, "variation")} \
        <= set(refusals)


def test_every_map_layers_pass_matches_reference():
    """Each pass applied to the created variation points and to the
    reference's previous pass, the illegal pair included."""
    mismatches, compared = [], 0
    for seed in PASS_SEEDS:
        for shape in SHAPES:
            model, products = random_layered(random.Random(seed), *shape)
            expected = _outcome(lambda: reference_derivation.create_variation_points(
                reference_derivation.diff(model, products), model))
            try:
                created = derivation.create_variation_points(
                    derivation.diff(model, products), model)
            except ModelError as exc:
                if (type(exc), str(exc)) != expected:
                    mismatches.append((seed, shape, "created"))
                continue
            if serialize(created) != expected:
                mismatches.append((seed, shape, "created"))
            for strict in (False, True):
                previous = created
                for lower, upper in PASSES:
                    for plm in {id(p): p for p in (created, previous)}.values():
                        compared += 1
                        if (_outcome(derivation.map_layers, plm, lower, upper, strict=strict)
                                != _outcome(reference_derivation.map_layers, plm, lower, upper,
                                            strict=strict)):
                            mismatches.append((seed, shape, strict, lower, upper))
                    try:
                        previous = reference_derivation.map_layers(previous, lower, upper,
                                                                   strict=strict)
                    except ModelError:
                        pass
    assert mismatches == []
    assert compared > len(PASS_SEEDS) * 2
