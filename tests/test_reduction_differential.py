"""Differential tests: the indexed reduction against the frozen reference.

For every generated model, ``ovmkit.reduction.reduce`` must give the same
model bytes and the same trace bytes as ``reference_reduction.reduce``, the
implementation it replaced, and the public checks and ``merge`` must decide
every pair as the reference does. The one carve-out: ``merge`` refuses, with
its own text, a pair ``reduce`` never picks (an empty target, or a source with
fewer variants than the target), which the reference merges. Each test
reports every case that differs.
"""

from __future__ import annotations

import itertools
import random

import reference_reduction
from modelgen import random_layered, random_plm
from ovmkit import reduction
from ovmkit.derivation import derive_initial_vm
from ovmkit.documents import serialize
from ovmkit.reduction import ReductionError, reduce


def _differs(plm) -> bool:
    expected_model, expected_trace = reference_reduction.reduce(plm)
    model, trace = reduce(plm)
    return (serialize(model), serialize(trace)) != (
        serialize(expected_model), serialize(expected_trace))


def _random_plm_mismatches(seeds, max_vps: int) -> list[int]:
    return [
        seed for seed in seeds
        if _differs(random_plm(random.Random(seed), max_vps=max_vps, max_variants=4 * max_vps))
    ]


def test_random_models_up_to_50_vps():
    assert _random_plm_mismatches(range(1000), max_vps=50) == []


def test_random_models_up_to_200_vps():
    assert _random_plm_mismatches(range(50), max_vps=200) == []


def test_lifted_models():
    mismatches = []
    for seed in range(200):
        layered, products = random_layered(random.Random(seed), label_all_difs=True)
        if _differs(derive_initial_vm(layered, products)):
            mismatches.append(seed)
    assert mismatches == []


def _merge_outcome(module, plm, source, target, *, text=False):
    try:
        return module.merge(plm, source, target)
    except ReductionError as exc:
        return str(exc) if text else "refused"


def _unpicked(vm, source, target) -> str | None:
    """What ``merge`` says of a pair ``reduce`` never picks, else None."""
    n_source, n_target = (sum(v.vp_id == vp_id for v in vm.variants) for vp_id in (source, target))
    if 0 < n_target <= n_source:
        return None
    return (f"refusing to merge {target!r} into {source!r}: reduce never picks it: "
            f"the target has {n_target} variants and the source {n_source}")


def test_public_checks_and_merge_decide_every_pair_alike():
    models = [(seed, random_plm(random.Random(seed), max_vps=12, max_variants=40))
              for seed in range(100)]
    models += [(f"lifted {seed}", derive_initial_vm(
        *random_layered(random.Random(seed), label_all_difs=True))) for seed in range(20)]
    mismatches, carved = [], {"empty target": 0, "smaller source": 0}
    for seed, plm in models:
        vm = plm.vm
        ids = [vp.id for vp in vm.variation_points]
        for root in ids:
            if reduction.interacting_pairs(vm, root) != reference_reduction.interacting_pairs(vm, root):
                mismatches.append((seed, "interacting_pairs", root))
        for source, target in itertools.permutations(ids, 2):
            for check in ("check_completeness", "check_uniqueness", "forest_preserved"):
                if (getattr(reduction, check)(vm, source, target)
                        != getattr(reference_reduction, check)(vm, source, target)):
                    mismatches.append((seed, check, source, target))
            expected = _merge_outcome(reference_reduction, plm, source, target)
            unpicked = expected != "refused" and _unpicked(vm, source, target)
            if unpicked:
                carved["empty target" if "target has 0 " in unpicked else "smaller source"] += 1
                expected = unpicked
            if _merge_outcome(reduction, plm, source, target, text=bool(unpicked)) != expected:
                mismatches.append((seed, "merge", source, target))
    assert mismatches == []
    assert carved == {"empty target": 250, "smaller source": 2}
