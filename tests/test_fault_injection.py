"""Fault injection: one broken invariant per ``validate`` label, planted in a
generated model, and every public entry that reads the model must refuse it.

``random_plm`` draws a valid model of random shape; ``with_fragment`` adds a
small valid fragment of fixed ids (prefix ``zz-``), so every fault below has
the records it needs whatever was drawn. A fault adds records so that
``validate`` reports its label. Each entry then raises ``ModelError``, no
subclass and no other exception, with the text of ``refusals.refusal_text``.
The entries that take only a variability model check only its part, so they
are held to this for the faults planted there. The derivation entries take
only a layered model: they are held to it for the faults planted in the
layered part of a ``random_layered`` draw.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from modelgen import random_layered, random_plm
from ovmkit.derivation import derive_initial_vm
from ovmkit.model import (
    Activity,
    Binding,
    BindingKind,
    FunctionalArtifact,
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    LayeredModel,
    ModelError,
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    validate,
)
from refusals import layered_entries, plm_entries, refusal_text, vm_entries

FEATURE, FUNCTIONAL, COMPONENT = Layer.FEATURE, Layer.FUNCTIONAL, Layer.COMPONENT
ACTIVITY_VARIANT, ARTIFACT_VP = BindingKind.ACTIVITY_VARIANT, BindingKind.ARTIFACT_VP
LABELS = {
    "unique-ids", "activity-artifact-resolution", "activity-layer-match",
    "artifact-membership", "refinement-resolution", "refinement-layer-adjacency",
    "refinement-kind", "interaction-distinct-endpoints", "interaction-level",
    "interaction-resolution", "interaction-same-layer", "delta-consistency",
    "interaction-distinct-vps", "psi-resolution", "psi-single-parent",
    "psi-forest-acyclicity", "binding-resolution", "binding-single-variant",
    "binding-theta-consistency", "activity-mandatory-group",
}
LAYERED_LABELS = {
    "unique-ids", "activity-mandatory-group", "activity-artifact-resolution",
    "activity-layer-match", "artifact-membership", "refinement-resolution",
    "refinement-layer-adjacency", "refinement-kind", "interaction-distinct-endpoints",
    "interaction-level", "interaction-resolution", "interaction-same-layer",
}
# Names an unknown activity, so a product check made before the refusal shows.
UNKNOWN_PRODUCT = ProductSet((Product("zz-prod", ("zz-unknown",)),))


def activity(act_id: str, layer: Layer, artifact_id: str) -> Activity:
    """A variable activity, grouped by its layer so that derivation can place it."""
    return Activity(act_id, act_id.upper(), layer, artifact_id, False, f"zz-{layer.value}")


def flow(a: str, b: str, level: InteractionLevel) -> Interaction:
    return Interaction(a, b, InteractionKind.MATERIAL, level)


def with_fragment(plm: ProductLineModel) -> ProductLineModel:
    """The model plus feature artifact zz-f (zz-f1, zz-f2), functional
    artifact zz-n (zz-n1), and root variation points zz-P (zz-p1, zz-p2) and
    zz-Q (zz-q1)."""
    layered, vm = plm.artifacts, plm.vm
    return replace(
        plm,
        artifacts=replace(
            layered,
            artifacts=layered.artifacts + (FunctionalArtifact("zz-f", FEATURE, ("zz-f1", "zz-f2")),
                                           FunctionalArtifact("zz-n", FUNCTIONAL, ("zz-n1",))),
            activities=layered.activities + (activity("zz-f1", FEATURE, "zz-f"),
                                             activity("zz-f2", FEATURE, "zz-f"),
                                             activity("zz-n1", FUNCTIONAL, "zz-n"))),
        vm=replace(
            vm,
            variation_points=vm.variation_points + (VariationPoint("zz-P", "P", FEATURE),
                                                    VariationPoint("zz-Q", "Q", FEATURE)),
            variants=vm.variants + (Variant("zz-p1", "P1", "zz-P"), Variant("zz-p2", "P2", "zz-P"),
                                    Variant("zz-q1", "Q1", "zz-Q"))))


def add(plm: ProductLineModel, *, bindings=(), **records) -> ProductLineModel:
    """The model with records added to the named collections of its layered
    model (``activities``, ``artifacts``, ``refinements``, ``interactions``)
    or of its variability model (``variation_points``, ``variants``,
    ``variant_interactions``, ``vm_refinements``), and with more bindings."""
    layered, vm = plm.artifacts, plm.vm
    grow = {name: getattr(layered, name) + tuple(items) for name, items in records.items()
            if name in ("activities", "artifacts", "refinements", "interactions")}
    grow_vm = {name: getattr(vm, name) + tuple(items) for name, items in records.items()
               if name in ("variation_points", "variants", "variant_interactions")}
    if "vm_refinements" in records:
        grow_vm["refinements"] = vm.refinements + tuple(records["vm_refinements"])
    return replace(plm, artifacts=replace(layered, **grow), vm=replace(vm, **grow_vm),
                   bindings=plm.bindings + tuple(bindings))


def some_variant(rng: random.Random, plm: ProductLineModel) -> str:
    """A variant of the drawn model, or of zz-P when it has none."""
    drawn = [v.id for v in plm.vm.variants if not v.id.startswith("zz-")]
    return rng.choice(drawn) if drawn else "zz-p2"


# (label, the part it is planted in: "layered", "vm" or "bindings", fault)
FAULTS = (
    ("unique-ids", "layered", lambda rng, plm: add(
        plm, activities=[Activity("zz-f1", "Twin", FEATURE, "zz-f", False)])),
    ("unique-ids", "vm", lambda rng, plm: add(
        plm, variants=[Variant("zz-q1", "Twin", "zz-Q")])),
    ("activity-artifact-resolution", "layered", lambda rng, plm: add(
        plm, activities=[activity("zz-x", FEATURE, "zz-nowhere")])),
    ("activity-layer-match", "layered", lambda rng, plm: add(
        plm, artifacts=[FunctionalArtifact("zz-m", FEATURE, ("zz-x",))],
        activities=[activity("zz-x", FUNCTIONAL, "zz-m")])),
    ("artifact-membership", "layered", lambda rng, plm: add(
        plm, artifacts=[FunctionalArtifact("zz-m", FEATURE, ("zz-f1",))])),
    ("refinement-resolution", "layered", lambda rng, plm: add(
        plm, refinements=[Refinement("zz-n", "zz-nowhere", RefinementKind.FEATURE)])),
    ("refinement-layer-adjacency", "layered", lambda rng, plm: add(
        plm, artifacts=[FunctionalArtifact("zz-c", COMPONENT, ("zz-c1",))],
        activities=[activity("zz-c1", COMPONENT, "zz-c")],
        refinements=[Refinement("zz-c", "zz-f1", RefinementKind.FEATURE)])),
    ("refinement-kind", "layered", lambda rng, plm: add(
        plm, refinements=[Refinement("zz-n", "zz-f1", RefinementKind.FUNCTIONAL)])),
    ("interaction-distinct-endpoints", "layered", lambda rng, plm: add(
        plm, interactions=[flow("zz-f1", "zz-f1", InteractionLevel.ARTIFACT)])),
    ("interaction-distinct-endpoints", "vm", lambda rng, plm: add(
        plm, variant_interactions=[flow("zz-q1", "zz-q1", InteractionLevel.VARIANT)])),
    ("interaction-level", "layered", lambda rng, plm: add(
        plm, interactions=[flow("zz-f1", "zz-f2", InteractionLevel.VARIANT)])),
    ("interaction-level", "vm", lambda rng, plm: add(
        plm, variant_interactions=[flow("zz-p1", "zz-q1", InteractionLevel.ARTIFACT)])),
    ("interaction-resolution", "layered", lambda rng, plm: add(
        plm, interactions=[flow("zz-f1", "zz-ghost", InteractionLevel.ARTIFACT)])),
    ("interaction-resolution", "vm", lambda rng, plm: add(
        plm, variant_interactions=[flow(some_variant(rng, plm), "zz-ghost",
                                        InteractionLevel.VARIANT)])),
    ("interaction-same-layer", "layered", lambda rng, plm: add(
        plm, interactions=[flow("zz-f1", "zz-n1", InteractionLevel.ARTIFACT)])),
    ("activity-mandatory-group", "layered", lambda rng, plm: add(
        plm, artifacts=[FunctionalArtifact("zz-m", FEATURE, ("zz-m1",))],
        activities=[Activity("zz-m1", "M1", FEATURE, "zz-m", True, "zz-g")])),
    ("delta-consistency", "vm", lambda rng, plm: add(
        plm, variants=[Variant("zz-r1", "R1", "zz-nowhere")])),
    ("interaction-distinct-vps", "vm", lambda rng, plm: add(
        plm, variant_interactions=[flow("zz-p2", "zz-p1", InteractionLevel.VARIANT)])),
    ("psi-resolution", "vm", lambda rng, plm: add(
        plm, vm_refinements=[VariabilityRefinement("zz-Q", "zz-ghost")])),
    ("psi-single-parent", "vm", lambda rng, plm: add(
        plm, vm_refinements=[VariabilityRefinement("zz-Q", "zz-p1"),
                             VariabilityRefinement("zz-Q", some_variant(rng, plm))])),
    ("psi-forest-acyclicity", "vm", lambda rng, plm: add(
        plm, vm_refinements=[VariabilityRefinement("zz-P", "zz-q1"),
                             VariabilityRefinement("zz-Q", "zz-p1")])),
    ("binding-resolution", "bindings", lambda rng, plm: add(
        plm, bindings=[Binding(ACTIVITY_VARIANT, "zz-f1", "zz-ghost")])),
    ("binding-single-variant", "bindings", lambda rng, plm: add(
        plm, bindings=[Binding(ACTIVITY_VARIANT, "zz-f1", "zz-q1"),
                       Binding(ACTIVITY_VARIANT, "zz-f1", some_variant(rng, plm))])),
    ("binding-theta-consistency", "bindings", lambda rng, plm: add(
        plm, bindings=[Binding(ARTIFACT_VP, "zz-f", "zz-P"),
                       Binding(ACTIVITY_VARIANT, "zz-f1", "zz-q1")])),
)


def faulty_model(seed: int, fault: int) -> ProductLineModel:
    rng = random.Random(seed)
    base = with_fragment(random_plm(rng, max_vps=12, max_variants=40))
    assert validate(base) == []
    return FAULTS[fault][2](rng, base)


LAYERED_FAULTS = [i for i, (_, part, _) in enumerate(FAULTS) if part == "layered"]


def faulty_layered(seed: int, fault: int) -> LayeredModel:
    rng = random.Random(seed)
    model, _ = random_layered(rng, label_all_difs=True, tangled=rng.random() < 0.5)
    return FAULTS[fault][2](rng, with_fragment(ProductLineModel(artifacts=model))).artifacts


def test_every_label_has_a_fault_that_plants_it():
    assert {label for label, _, _ in FAULTS} == LABELS
    assert {FAULTS[i][0] for i in LAYERED_FAULTS} == LAYERED_LABELS
    for i, (label, part, _) in enumerate(FAULTS):
        plm = faulty_model(i, i)
        violations = validate(plm)
        assert label in {v.invariant for v in violations}, label
        assert bool(validate(ProductLineModel(vm=plm.vm))) == (part == "vm"), label
        assert bool(validate(ProductLineModel(artifacts=plm.artifacts))) == (
            part == "layered"), label
    for i in LAYERED_FAULTS:
        model = faulty_layered(i, i)
        assert FAULTS[i][0] in {v.invariant for v in validate(ProductLineModel(artifacts=model))}
    # Before a fault is planted, the draw derives.
    derive_initial_vm(with_fragment(ProductLineModel(artifacts=random_layered(
        random.Random(0), label_all_difs=True)[0])).artifacts)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 10_000), fault=st.integers(0, len(FAULTS) - 1))
def test_every_entry_refuses_an_injected_fault(seed, fault):
    plm = faulty_model(seed, fault)
    violations = validate(plm)
    expected = {name: refusal_text(violations) for name in plm_entries(plm, "zz-P", "zz-Q")}
    if FAULTS[fault][1] == "vm":
        vm_text = refusal_text(validate(ProductLineModel(vm=plm.vm)))
        expected |= dict.fromkeys(vm_entries(plm, "zz-P", "zz-Q"), vm_text)
    calls = plm_entries(plm, "zz-P", "zz-Q") | vm_entries(plm, "zz-P", "zz-Q")
    for name, text in expected.items():
        with pytest.raises(Exception) as exc:
            calls[name]()
        assert type(exc.value) is ModelError, (name, exc.value)
        assert str(violations[0]) in str(exc.value), name
        assert str(exc.value) == text, name


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 10_000), fault=st.sampled_from(LAYERED_FAULTS))
def test_every_derivation_entry_refuses_an_injected_layered_fault(seed, fault):
    model = faulty_layered(seed, fault)
    text = refusal_text(validate(ProductLineModel(artifacts=model)))
    for name, call in layered_entries(model, UNKNOWN_PRODUCT).items():
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is ModelError, (name, exc.value)
        assert str(exc.value) == text, name


# One unknown reference per case, planted in the fragment alone: the records
# to add and the one violation ``validate`` reports, as ``str`` gives it. A
# site that looks up two ids is planted with each of them missing in turn.
UNRESOLVED = [
    ({"activities": [activity("zz-x", FEATURE, "zz-nowhere")]},
     "activity-artifact-resolution [zz-x, zz-nowhere]: "
     "activity 'zz-x' names unknown artifact 'zz-nowhere'"),
    ({"variants": [Variant("zz-r1", "R1", "zz-nowhere")]},
     "delta-consistency [zz-r1, zz-nowhere]: "
     "variant 'zz-r1' realizes unknown variation point 'zz-nowhere'"),
    ({"refinements": [Refinement("zz-ghost", "zz-f1", RefinementKind.FEATURE)]},
     "refinement-resolution [zz-ghost, zz-f1]: refinement references unknown id 'zz-ghost'"),
    ({"refinements": [Refinement("zz-n", "zz-ghost", RefinementKind.FEATURE)]},
     "refinement-resolution [zz-n, zz-ghost]: refinement references unknown id 'zz-ghost'"),
    ({"interactions": [flow("zz-ghost", "zz-f1", InteractionLevel.ARTIFACT)]},
     "interaction-resolution [zz-ghost, zz-f1]: "
     "interaction references unknown activity 'zz-ghost'"),
    ({"interactions": [flow("zz-f1", "zz-ghost", InteractionLevel.ARTIFACT)]},
     "interaction-resolution [zz-f1, zz-ghost]: "
     "interaction references unknown activity 'zz-ghost'"),
    ({"variant_interactions": [flow("zz-ghost", "zz-q1", InteractionLevel.VARIANT)]},
     "interaction-resolution [zz-ghost, zz-q1]: "
     "variant interaction references unknown variant 'zz-ghost'"),
    ({"variant_interactions": [flow("zz-p1", "zz-ghost", InteractionLevel.VARIANT)]},
     "interaction-resolution [zz-p1, zz-ghost]: "
     "variant interaction references unknown variant 'zz-ghost'"),
    ({"vm_refinements": [VariabilityRefinement("zz-ghost", "zz-p1")]},
     "psi-resolution [zz-ghost, zz-p1]: "
     "variability refinement references unknown id 'zz-ghost'"),
    ({"vm_refinements": [VariabilityRefinement("zz-Q", "zz-ghost")]},
     "psi-resolution [zz-Q, zz-ghost]: "
     "variability refinement references unknown id 'zz-ghost'"),
    ({"bindings": [Binding(ARTIFACT_VP, "zz-ghost", "zz-P")]},
     "binding-resolution [zz-ghost, zz-P]: artifact binding references unknown id 'zz-ghost'"),
    ({"bindings": [Binding(ARTIFACT_VP, "zz-f", "zz-ghost")]},
     "binding-resolution [zz-f, zz-ghost]: artifact binding references unknown id 'zz-ghost'"),
    ({"bindings": [Binding(ACTIVITY_VARIANT, "zz-ghost", "zz-p1")]},
     "binding-resolution [zz-ghost, zz-p1]: activity binding references unknown id 'zz-ghost'"),
    ({"bindings": [Binding(ACTIVITY_VARIANT, "zz-f1", "zz-ghost")]},
     "binding-resolution [zz-f1, zz-ghost]: activity binding references unknown id 'zz-ghost'"),
]


@pytest.mark.parametrize("records, text", UNRESOLVED)
def test_each_unknown_reference_names_the_id_it_misses(records, text):
    base = with_fragment(ProductLineModel())
    assert validate(base) == []
    assert list(map(str, validate(add(base, **records)))) == [text]
