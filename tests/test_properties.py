"""Randomized property checks over generated models."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from modelgen import random_layered, random_plm
from ovmkit.configs import enumerate_valid, unconstrained_count, validate_config
from ovmkit.derivation import DerivationError, DiffGroup, DiffResult, create_variation_points
from ovmkit.documents import parse_variability_model, serialize
from ovmkit.model import roots, validate
from ovmkit.reduction import ReductionError, interacting_pairs, merge, reduce
from reduction_checks import check_reduction_properties


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reduction_properties_hold(seed):
    plm = random_plm(random.Random(seed), max_vps=20, max_variants=60)
    check_reduction_properties(plm)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_random_models(seed):
    plm = random_plm(random.Random(seed), max_vps=20, max_variants=60)
    data = serialize(plm)
    assert parse_variability_model(data) == plm
    assert serialize(parse_variability_model(data)) == data


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_enumeration_consistent_with_validation(seed):
    plm = random_plm(random.Random(seed), max_vps=8, max_variants=20)
    count = unconstrained_count(plm.vm)
    if count > 5_000:
        return
    valid = enumerate_valid(plm, budget=5_000)
    assert len(valid) <= count
    seen = set()
    for cfg in valid:
        assert validate_config(plm, cfg) == []
        assert cfg.sorted_ids() not in seen
        seen.add(cfg.sorted_ids())
    # Enumeration output is sorted.
    assert [c.sorted_ids() for c in valid] == sorted(c.sorted_ids() for c in valid)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_merge_accepts_only_pairs_reduce_may_pick(seed):
    """Every ordered pair ``merge`` accepts, before and after ``reduce``, is an
    interacting pair of some tree, in that orientation or as a tie."""
    plm = random_plm(random.Random(seed), max_vps=7, max_variants=20)
    for model in (plm, reduce(plm)[0]):
        vm = model.vm
        listed = {pair for root in roots(vm) for pair in interacting_pairs(vm, root.id)}
        for source, target in itertools.permutations([vp.id for vp in vm.variation_points], 2):
            try:
                merge(model, source, target)
            except ReductionError:
                continue
            tie = len(vm.variants_of(source)) == len(vm.variants_of(target))
            assert (source, target) in listed or (tie and (target, source) in listed)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_create_variation_points_refuses_or_returns_a_valid_model(seed, data):
    """Drawn groups may be empty, share a key or an activity, name an unknown
    activity or span layers; each is refused, or the model is valid."""
    model, _ = random_layered(random.Random(seed))
    ids = st.sampled_from([a.id for a in model.activities] + ["ghost"])
    groups = data.draw(st.lists(st.builds(
        DiffGroup, st.sampled_from(["g0", "g1", "g2"]), st.lists(ids, max_size=4).map(tuple)),
        max_size=4))
    try:
        plm = create_variation_points(DiffResult(tuple(groups)), model)
    except DerivationError:
        return
    assert validate(plm) == []
