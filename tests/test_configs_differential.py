"""Differential tests: the pruned configuration search against the frozen
generate-and-test oracle (``reference_configs``, the enumerator it replaced).

For every model both must list the same configurations in the same order,
or both refuse with the same unconstrained count; ``count_valid`` must give
the length of the oracle's list, or the same refusal.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_configs
from conftest import GOLDEN_DIR
from modelgen import random_plm
from ovmkit import corpus_dir, documents
from ovmkit.configs import (
    BudgetExceededError,
    count_valid,
    enumerate_valid,
    unconstrained_count,
    validate_config,
)
from ovmkit.derivation import derive_initial_vm
from ovmkit.model import (
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
)
from ovmkit.reduction import reduce

BUDGET = 5000  # models up to this many unconstrained selections are enumerated

FUZZ = settings(derandomize=True, deadline=None, max_examples=250, database=None)


def _outcome(enumerate_fn, plm):
    try:
        valid = enumerate_fn(plm, BUDGET)
    except BudgetExceededError as exc:
        return "refused", exc.unconstrained
    listed = [c.sorted_ids() for c in valid]
    # The ids a configuration carries must be its selection's, or they could hide a wrong one.
    assert listed == [tuple(sorted(c.selection)) for c in valid]
    return listed


def same_configurations(plm) -> bool:
    return _outcome(enumerate_valid, plm) == _outcome(reference_configs.enumerate_valid, plm)


def same_count(plm) -> bool:
    try:
        count = count_valid(plm, BUDGET)
    except BudgetExceededError as exc:
        count = "refused", exc.unconstrained
    expected = _outcome(reference_configs.enumerate_valid, plm)
    return count == (expected if isinstance(expected, tuple) else len(expected))


def _bundled_models():
    """Every model among the bundled corpora and goldens: variability and
    product-line models as they are, layered models derived; each also reduced."""
    readers = {
        "variability-model": documents.parse_variability_model,
        "product-line-model": documents.parse_variability_model,
        "layered-model": lambda data: derive_initial_vm(*documents.parse_layered_model(data)),
    }
    paths = sorted(corpus_dir().rglob("*.json")) + sorted(GOLDEN_DIR.glob("*.json"))
    for path in paths:
        data = path.read_bytes()
        read = readers.get(json.loads(data)["kind"])
        if read is None:
            continue  # a configuration or a trace
        try:
            plm = read(data)
        except documents.ParseError:
            continue  # the negative corpus
        yield path.name, plm
        yield path.name + " reduced", reduce(plm)[0]


def test_bundled_corpora_and_goldens():
    models = dict(_bundled_models())
    assert {"logistics-vm.json", "engine-flat-plm.json",
            "engine-hierarchical-layered.json"} <= models.keys()
    assert [name for name, plm in models.items() if not same_configurations(plm)] == []


def test_count_on_bundled_corpora_and_goldens():
    models = dict(_bundled_models())
    assert [name for name, plm in models.items() if not same_count(plm)] == []


def test_bundled_configurations_listed_exactly_when_valid(engine_plm):
    listed = {c.sorted_ids() for c in enumerate_valid(engine_plm)}
    paths = sorted((corpus_dir() / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = documents.parse_configuration(path.read_bytes())
        assert (cfg.sorted_ids() in listed) == (validate_config(engine_plm, cfg) == [])


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(((4, 12), (8, 25), (14, 40), (25, 70))),
    keep_bindings=st.booleans(),
    keep_interactions=st.booleans(),
)
def test_random_models(seed, shape, keep_bindings, keep_interactions):
    max_vps, max_variants = shape
    plm = random_plm(random.Random(seed), max_vps=max_vps, max_variants=max_variants)
    if not keep_bindings:
        plm = replace(plm, bindings=())
    if not keep_interactions:
        plm = replace(plm, vm=replace(plm.vm, variant_interactions=()))
    assert same_configurations(plm)


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(((4, 12), (8, 25), (14, 40), (25, 70))),
    keep_bindings=st.booleans(),
    keep_interactions=st.booleans(),
)
def test_count_on_random_models(seed, shape, keep_bindings, keep_interactions):
    max_vps, max_variants = shape
    plm = random_plm(random.Random(seed), max_vps=max_vps, max_variants=max_variants)
    if not keep_bindings:
        plm = replace(plm, bindings=())
    if not keep_interactions:
        plm = replace(plm, vm=replace(plm.vm, variant_interactions=()))
    assert same_count(plm)


def forest_of_components() -> ProductLineModel:
    """Five rooted trees r0..r4: each root has three variants, and the first
    of them is refined by a child variation point with two variants.
    Interactions join r0's tree with r1's and r2's with r3's, one more links
    two variation points of r2's tree, and r4's tree stands alone."""
    vps, variants, refinements = [], [], []
    for t in range(5):
        root, child = f"r{t}", f"r{t}c"
        vps += [VariationPoint(id=vp, name=vp.upper(), level=Layer.FEATURE) for vp in (root, child)]
        variants += [Variant(id=f"{root}.{i}", name=f"{root}.{i}", vp_id=root) for i in range(3)]
        variants += [Variant(id=f"{child}.{i}", name=f"{child}.{i}", vp_id=child) for i in range(2)]
        refinements.append(VariabilityRefinement(child_vp_id=child, parent_variant_id=f"{root}.0"))
    edges = (("r0.1", "r1c.0"), ("r2.2", "r3.0"), ("r3.1", "r2c.1"), ("r2.0", "r2c.0"))
    return ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(vps), variants=tuple(variants), refinements=tuple(refinements),
        variant_interactions=tuple(
            Interaction(from_id=a, to_id=b, kind=InteractionKind.INFORMATION,
                        level=InteractionLevel.VARIANT) for a, b in edges)))


def test_count_multiplies_components():
    plm = forest_of_components()
    # Each tree alone has 2 + 1 + 1 = 4 selections, so 4^5 = 1024 in all.
    assert unconstrained_count(plm.vm) == 4 ** 5
    expected = len(reference_configs.enumerate_valid(plm, BUDGET))
    assert 0 < expected < 4 ** 5
    assert count_valid(plm, BUDGET) == expected == len(enumerate_valid(plm, BUDGET))
    # Components multiply: r4 alone keeps its 4, and dropping it divides by 4.
    lone = ("r4", "r4c")
    without = replace(plm, vm=replace(
        plm.vm,
        variation_points=tuple(vp for vp in plm.vm.variation_points if vp.id not in lone),
        variants=tuple(v for v in plm.vm.variants if v.vp_id not in lone),
        refinements=tuple(r for r in plm.vm.refinements if r.child_vp_id not in lone)))
    assert count_valid(without, BUDGET) * 4 == expected
