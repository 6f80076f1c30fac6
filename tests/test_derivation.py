"""Diffing, variation-point creation, and relational lifting."""

from __future__ import annotations

import random

import pytest

from modelgen import random_layered
from ovmkit.derivation import (
    DerivationError,
    create_variation_points,
    derive_initial_vm,
    diff,
    map_layers,
)
from ovmkit.model import (
    Activity,
    BindingKind,
    FunctionalArtifact,
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    LayeredModel,
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    validate,
)

ENGINE_DIFS = {
    "pfuel2", "pfuel3", "sense-pfuel2", "sense-pfuel3",
    "process-p1", "process-p12", "process-p13",
}


def fig3_pattern() -> LayeredModel:
    """Two-layer model: two components interact and refine two bound
    functional activities; the components themselves are grouped by their
    refinement parents."""
    functional, component = Layer.FUNCTIONAL, Layer.COMPONENT
    return LayeredModel(
        activities=(
            Activity("fci1", "Requirement I", functional, "fc-i", False, "Fn I"),
            Activity("fcj1", "Requirement J", functional, "fc-j", False, "Fn J"),
            Activity("ck1", "Design K", component, "comp-k", False),
            Activity("cl1", "Design L", component, "comp-l", False),
        ),
        artifacts=(
            FunctionalArtifact("fc-i", functional, ("fci1",)),
            FunctionalArtifact("fc-j", functional, ("fcj1",)),
            FunctionalArtifact("comp-k", component, ("ck1",)),
            FunctionalArtifact("comp-l", component, ("cl1",)),
        ),
        refinements=(
            Refinement("comp-k", "fci1", RefinementKind.FUNCTIONAL),
            Refinement("comp-l", "fcj1", RefinementKind.FUNCTIONAL),
        ),
        interactions=(
            Interaction("ck1", "cl1", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT),
        ),
    )


class TestDiff:
    def test_engine_combined_model(self, engine_layered):
        result = diff(engine_layered)
        assert result.activity_ids == ENGINE_DIFS
        assert [g.key for g in result.groups] == [
            "Input Parameter", "Process Function", "Sensing Function"]
        assert "sense-pfuel1" not in result.activity_ids

    def test_products_covering_everything_yield_no_difs(self, engine_layered):
        everything = tuple(a.id for a in engine_layered.activities)
        products = ProductSet(products=(
            Product("p1", everything), Product("p2", everything)))
        assert diff(engine_layered, products).is_empty

    def test_products_presence_vectors(self):
        acts = [f"a{i}" for i in range(5)]
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, tuple(acts)),),
            activities=tuple(
                Activity(a, a.upper(), Layer.FUNCTIONAL, "fns", False, "G")
                for a in acts
            ),
        )
        products = ProductSet(products=(
            Product("p1", ("a0", "a1", "a2", "a3", "a4")),
            Product("p2", ("a0", "a1", "a3")),
            Product("p3", ("a0", "a2", "a3")),
        ))
        # Oracle: variable iff the presence vector is not all-true.
        presence = {
            a: [a in p.includes for p in products.products] for a in acts
        }
        expected = {a for a, vec in presence.items() if not all(vec)}
        assert diff(model, products).activity_ids == expected

    def test_mandatory_flag_ignored_with_products(self, engine_layered):
        # sense-pfuel1 is mandatory but missing from one product: still a dif.
        everything = tuple(a.id for a in engine_layered.activities)
        partial = tuple(a for a in everything if a != "sense-pfuel1")
        with pytest.raises(DerivationError, match="sense-pfuel1"):
            # It is then ungroupable: no label, no refinement parent.
            diff(engine_layered, ProductSet(products=(
                Product("p1", everything), Product("p2", partial))))

    def test_product_with_unknown_activity_raises(self, engine_layered):
        products = ProductSet(products=(Product("p1", ("sense-pfuel1", "nowhere")),))
        with pytest.raises(DerivationError) as exc:
            diff(engine_layered, products)
        assert str(exc.value) == "product 'p1' includes unknown activity 'nowhere'"

    def test_ungroupable_dif_raises(self):
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False),),
        )
        with pytest.raises(DerivationError, match="a1"):
            diff(model)


class TestCreateVariationPoints:
    def test_engine_groups(self, engine_layered):
        plm = create_variation_points(diff(engine_layered), engine_layered)
        sizes = {
            vp.name: len(plm.vm.variants_of(vp.id))
            for vp in plm.vm.variation_points
        }
        assert sizes == {
            "Input Parameter": 2, "Sensing Function": 2, "Process Function": 3}
        assert len(plm.bindings) == 7
        for binding in plm.bindings:
            assert binding.kind is BindingKind.ACTIVITY_VARIANT
            assert binding.target_id == f"v:{binding.source_id}"
        assert validate(plm) == []

    def test_empty_difs(self, engine_layered):
        from ovmkit.derivation import DiffResult
        plm = create_variation_points(DiffResult(groups=()), engine_layered)
        assert plm.vm.variation_points == ()

    def test_single_group_single_dif(self):
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False, "Only"),),
        )
        plm = create_variation_points(diff(model), model)
        assert len(plm.vm.variation_points) == 1
        assert len(plm.vm.variants) == 1
        assert len(plm.bindings) == 1

    def test_group_spanning_layers_rejected(self):
        model = LayeredModel(
            artifacts=(
                FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),
                FunctionalArtifact("feats", Layer.FEATURE, ("f1",)),
            ),
            activities=(
                Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False, "Mixed"),
                Activity("f1", "F1", Layer.FEATURE, "feats", False, "Mixed"),
            ),
        )
        with pytest.raises(DerivationError, match="Mixed"):
            create_variation_points(diff(model), model)


class TestMapLayers:
    def test_engine_variant_interactions(self, engine_layered):
        plm = create_variation_points(diff(engine_layered), engine_layered)
        plm = map_layers(plm, Layer.FUNCTIONAL, Layer.FUNCTIONAL)
        edges = {(e.from_id, e.to_id) for e in plm.vm.variant_interactions}
        assert edges == {
            ("v:pfuel3", "v:sense-pfuel3"),
            ("v:sense-pfuel3", "v:process-p13"),
            ("v:pfuel2", "v:sense-pfuel2"),
            ("v:sense-pfuel2", "v:process-p12"),
        }

    def test_no_interactions_is_a_no_op(self):
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1", "a2")),),
            activities=(
                Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False, "G1"),
                Activity("a2", "A2", Layer.FUNCTIONAL, "fns", False, "G2"),
            ),
        )
        plm = create_variation_points(diff(model), model)
        assert map_layers(plm, Layer.FUNCTIONAL, Layer.FUNCTIONAL) == plm

    def test_fig3_pattern_induces_parent_interaction_and_refinements(self):
        model = fig3_pattern()
        plm = create_variation_points(diff(model), model)
        lifted = map_layers(plm, Layer.COMPONENT, Layer.FUNCTIONAL)

        assert {(e.from_id, e.to_id) for e in lifted.vm.variant_interactions} \
            == {("v:ck1", "v:cl1")}
        induced = set(lifted.artifacts.interactions) - set(model.interactions)
        assert {(e.from_id, e.to_id) for e in induced} == {("fci1", "fcj1")}

        # Oracle: one refinement edge per (bound dif, bound parent) pair.
        bound = {b.source_id: b.target_id for b in lifted.bindings}
        vp_of = {v.id: v.vp_id for v in lifted.vm.variants}
        expected = set()
        for act in model.activities:
            if act.layer is not Layer.COMPONENT or act.id not in bound:
                continue
            for parent in model.refinement_parents(act.artifact_id):
                if parent in bound:
                    expected.add((vp_of[bound[act.id]], bound[parent]))
        got = {(r.child_vp_id, r.parent_variant_id) for r in lifted.vm.refinements}
        assert got == expected == {("vp:fci1", "v:fci1"), ("vp:fcj1", "v:fcj1")}

    def test_two_layer_gap_rejected(self, engine_layered):
        plm = create_variation_points(diff(engine_layered), engine_layered)
        with pytest.raises(DerivationError, match="one layer above"):
            map_layers(plm, Layer.COMPONENT, Layer.FEATURE)

    def test_idempotent(self, hierarchical_layered):
        plm = create_variation_points(diff(hierarchical_layered), hierarchical_layered)
        once = map_layers(plm, Layer.COMPONENT, Layer.FUNCTIONAL)
        assert map_layers(once, Layer.COMPONENT, Layer.FUNCTIONAL) == once

    def test_strict_mode_skips_unwitnessed_refinements(self):
        base = fig3_pattern()
        # A third component group under fci1 with no interactions at all.
        model = LayeredModel(
            activities=base.activities + (
                Activity("cm1", "Design M", Layer.COMPONENT, "comp-m", False, "Extra"),),
            artifacts=base.artifacts + (
                FunctionalArtifact("comp-m", Layer.COMPONENT, ("cm1",)),),
            refinements=base.refinements + (
                Refinement("comp-m", "fci1", RefinementKind.FUNCTIONAL),),
            interactions=base.interactions,
        )
        relaxed = derive_initial_vm(model)
        strict = derive_initial_vm(model, strict=True)
        relaxed_children = {r.child_vp_id for r in relaxed.vm.refinements}
        strict_children = {r.child_vp_id for r in strict.vm.refinements}
        assert "vp:Extra" in relaxed_children
        assert "vp:Extra" not in strict_children
        assert strict_children == {"vp:fci1", "vp:fcj1"}


class TestDeriveInitialVm:
    def test_engine_corpus(self, engine_layered):
        plm = derive_initial_vm(engine_layered)
        assert len(plm.vm.variation_points) == 3
        assert len(plm.vm.variants) == 7
        assert len(plm.vm.variant_interactions) == 4
        assert plm.vm.refinements == ()
        assert validate(plm) == []

    def test_hierarchical_corpus_forest(self, hierarchical_layered):
        plm = derive_initial_vm(hierarchical_layered)
        assert len(plm.vm.variation_points) == 10
        assert len(plm.vm.variants) == 20

        # Oracle: expected refinement edges by brute force over all bound
        # refinement pairs across the two ascending passes.
        bound = {b.source_id: b.target_id for b in plm.bindings}
        vp_of = {v.id: v.vp_id for v in plm.vm.variants}
        model = hierarchical_layered
        expected = set()
        for act in model.activities:
            if act.id not in bound:
                continue
            for parent in model.refinement_parents(act.artifact_id):
                if parent in bound:
                    expected.add((vp_of[bound[act.id]], bound[parent]))
        got = {(r.child_vp_id, r.parent_variant_id) for r in plm.vm.refinements}
        assert got == expected
        assert len(got) == 8
        assert validate(plm) == []

    def test_cascade_lifts_induced_interactions(self):
        plm = derive_initial_vm(fig3_pattern())
        edges = {(e.from_id, e.to_id) for e in plm.vm.variant_interactions}
        assert edges == {("v:ck1", "v:cl1"), ("v:fci1", "v:fcj1")}

    def test_mandatory_only_model_is_empty(self):
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", True),),
        )
        plm = derive_initial_vm(model)
        assert plm.vm == ProductLineModel().vm

    def test_direction_preserved(self, engine_layered):
        plm = derive_initial_vm(engine_layered)
        for edge in plm.vm.variant_interactions:
            assert edge.from_id.startswith("v:")
            source_activity = edge.from_id[2:]
            target_activity = edge.to_id[2:]
            assert any(
                i.from_id == source_activity and i.to_id == target_activity
                for i in engine_layered.interactions
            )


def _lift_invariants(model, plm):
    """Soundness and totality of interaction lifting plus refinement soundness."""
    bound = {b.source_id: b.target_id for b in plm.bindings}
    variant_activity = {v: a for a, v in bound.items()}
    vp_of = {v.id: v.vp_id for v in plm.vm.variants}
    artifact_edges = {(i.from_id, i.to_id) for i in plm.artifacts.interactions}

    # Soundness: every variant interaction is witnessed at artifact level.
    for edge in plm.vm.variant_interactions:
        witness = (variant_activity[edge.from_id], variant_activity[edge.to_id])
        assert witness in artifact_edges

    # Totality: every artifact interaction between bound same-layer
    # activities of distinct variation points is lifted.
    acts = plm.artifacts.activities_by_id()
    lifted = {(e.from_id, e.to_id) for e in plm.vm.variant_interactions}
    for inter in plm.artifacts.interactions:
        va, vb = bound.get(inter.from_id), bound.get(inter.to_id)
        if va is None or vb is None:
            continue
        if acts[inter.from_id].layer is not acts[inter.to_id].layer:
            continue
        if vp_of[va] == vp_of[vb]:
            continue
        assert (va, vb) in lifted

    # Refinement soundness: every parent edge has a witnessing refinement.
    for ref in plm.vm.refinements:
        parent_activity = variant_activity[ref.parent_variant_id]
        children = {
            v for v, vp_id in vp_of.items() if vp_id == ref.child_vp_id
        }
        assert any(
            r.parent_activity_id == parent_activity
            and variant_activity[child] in plm.artifacts.artifacts_by_id()[
                r.child_artifact_id].activity_ids
            for r in plm.artifacts.refinements
            for child in children
        )


class TestLiftInvariants:
    def test_on_corpora(self, engine_layered, hierarchical_layered):
        for model in (engine_layered, hierarchical_layered):
            _lift_invariants(model, derive_initial_vm(model))

    def test_on_random_models(self):
        for seed in range(60):
            model, products = random_layered(random.Random(seed), label_all_difs=True)
            plm = derive_initial_vm(model, products)
            assert validate(plm) == []
            _lift_invariants(model, plm)

    def test_deterministic_and_stable(self, hierarchical_layered):
        from ovmkit.documents import serialize
        first = derive_initial_vm(hierarchical_layered)
        second = derive_initial_vm(hierarchical_layered)
        assert serialize(first) == serialize(second)
