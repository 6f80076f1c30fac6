"""Exact results of ``diff``, ``create_variation_points`` and the public
``map_layers`` on the inputs where they are easiest to get wrong: products
that disagree only at the edges, groups ``diff`` never builds,
a product-line model that already holds variant interactions and a
refinement, the refusal of a model ``validate`` rejects, and parent-edge
conflicts whose message depends on the order in which a pass meets the edges."""

from __future__ import annotations

from dataclasses import replace

import pytest

from ovmkit.derivation import (
    DerivationError,
    DiffGroup,
    DiffResult,
    create_variation_points,
    diff,
    map_layers,
)
from ovmkit.model import (
    Activity,
    ModelError,
    Binding,
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
    VariabilityModel,
    VariabilityRefinement,
    Variant,
    VariationPoint,
)

FN, COMP = Layer.FUNCTIONAL, Layer.COMPONENT
MATERIAL, INFORMATION = InteractionKind.MATERIAL, InteractionKind.INFORMATION


def _flat(*activities: Activity) -> LayeredModel:
    return LayeredModel(
        artifacts=(FunctionalArtifact("fns", FN, tuple(a.id for a in activities)),),
        activities=activities)


ABC = _flat(*(Activity(a, a.upper(), FN, "fns", False, "G") for a in ("a", "b", "c")))


class TestDiff:
    def test_no_products_make_nothing_variable(self):
        assert diff(ABC, ProductSet()).is_empty

    def test_an_activity_left_out_only_by_the_last_product(self):
        products = ProductSet(products=(
            Product("p1", ("a", "b", "c")), Product("p2", ("a", "b", "c")),
            Product("p3", ("a", "b"))))
        assert diff(ABC, products).activity_ids == {"c"}

    def test_a_mandatory_activity_some_product_omits_is_variable(self):
        """Mandatory activities carry no group label: ``a`` is grouped by
        the feature its artifact refines."""
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", FN, ("a", "b")),
                       FunctionalArtifact("fts", Layer.FEATURE, ("top",))),
            activities=(Activity("a", "A", FN, "fns", True), Activity("b", "B", FN, "fns", True),
                        Activity("top", "Top", Layer.FEATURE, "fts", True)),
            refinements=(Refinement("fns", "top", RefinementKind.FEATURE),))
        products = ProductSet(products=(Product("p1", ("a", "b", "top")),
                                        Product("p2", ("b", "top"))))
        assert diff(model).is_empty
        assert diff(model, products) == DiffResult((DiffGroup("top", ("a",)),))
        grouped = replace(model, activities=(
            Activity("a", "A", FN, "fns", True, "G"), Activity("b", "B", FN, "fns", True, "G"),
            Activity("top", "Top", Layer.FEATURE, "fts", True)))
        with pytest.raises(ModelError) as exc:
            diff(grouped, products)
        assert type(exc.value) is ModelError
        assert str(exc.value) == (
            "model violates model invariants: activity-mandatory-group [a]: mandatory "
            "activity 'a' cannot carry a group label; activity-mandatory-group [b]: "
            "mandatory activity 'b' cannot carry a group label")

    @pytest.mark.parametrize("products, message", [
        ((Product("p1", ("a", "nowhere")),),
         "product 'p1' includes unknown activity 'nowhere'"),
        ((Product("p1", ("a", "b", "c")), Product("p2", ("a", "x", "y"))),
         "product 'p2' includes unknown activity 'x'"),
    ])
    def test_an_unknown_included_id_is_refused(self, products, message):
        with pytest.raises(DerivationError) as exc:
            diff(ABC, ProductSet(products=products))
        assert str(exc.value) == message


def test_a_group_naming_an_unknown_activity_is_refused():
    with pytest.raises(DerivationError) as exc:
        create_variation_points(DiffResult((DiffGroup("g", ("ghost",)),)), ABC)
    assert str(exc.value) == "group 'g' names unknown activity 'ghost'"


@pytest.mark.parametrize("groups, message", [
    # Groups ``diff`` never builds are refused before any lookup: the ghost goes unread.
    ((DiffGroup("g", ("a",)), DiffGroup("h", ())), "group 'h' names no activity"),
    ((DiffGroup("g", ("a", "ghost")), DiffGroup("g", ("b",))), "two groups have key 'g'"),
    ((DiffGroup("h", ("b", "c")), DiffGroup("g", ("a", "b", "ghost"))),
     "groups 'g' and 'h' both name activity 'b'"),
])
def test_a_group_diff_never_builds_is_refused(groups, message):
    with pytest.raises(DerivationError) as exc:
        create_variation_points(DiffResult(groups), ABC)
    assert str(exc.value) == message


def test_an_activity_named_twice_by_one_group_gets_one_variant():
    plm = create_variation_points(DiffResult((DiffGroup("g", ("b", "a", "b")),)), ABC)
    assert plm.vm.variants == (Variant("v:a", "A", "vp:g"), Variant("v:b", "B", "vp:g"))
    assert [b.source_id for b in plm.bindings] == ["a", "b"]


def _plm(components, refinements, interactions, *, variant_interactions=(),
         vm_refinements=(), extra_bindings=()) -> ProductLineModel:
    """Functional ``f1`` and ``f2`` under ``vp:F``; each component activity
    ``(id, artifact, group)`` under ``vp:<group>``; every activity bound to
    ``v:<id>``."""
    activities = (Activity("f1", "F1", FN, "fn", False, "F"),
                  Activity("f2", "F2", FN, "fn", False, "F")) + tuple(
        Activity(a, a.upper(), COMP, artifact, False, group)
        for a, artifact, group in components)
    artifacts = {a.artifact_id: a.layer for a in activities}
    layered = LayeredModel(
        artifacts=tuple(FunctionalArtifact(art, layer, tuple(
            a.id for a in activities if a.artifact_id == art)) for art, layer in artifacts.items()),
        activities=activities,
        refinements=tuple(Refinement(child, parent, RefinementKind.FUNCTIONAL)
                          for child, parent in refinements),
        interactions=tuple(Interaction(a, b, kind, InteractionLevel.ARTIFACT)
                           for a, b, kind in interactions))
    vm = VariabilityModel(
        variation_points=(VariationPoint("vp:F", "F", FN),) + tuple(
            VariationPoint(f"vp:{g}", g, COMP) for g in {g for _, _, g in components}),
        variants=tuple(Variant(f"v:{a.id}", a.name, f"vp:{a.group}") for a in activities),
        variant_interactions=tuple(Interaction(a, b, kind, InteractionLevel.VARIANT)
                                   for a, b, kind in variant_interactions),
        refinements=tuple(VariabilityRefinement(c, p) for c, p in vm_refinements))
    bindings = tuple(Binding(BindingKind.ACTIVITY_VARIANT, a.id, f"v:{a.id}")
                     for a in activities) + tuple(
        Binding(BindingKind.ACTIVITY_VARIANT, a, v) for a, v in extra_bindings)
    return ProductLineModel(vm=vm, artifacts=layered, bindings=bindings)


class TestMapLayersOnAProductLineModel:
    """``ck`` (k1, k2 in group K) refines f1 and ``cl`` (l1 in group L)
    refines f2; the model already holds the variant interaction
    v:k2 -> v:l1 and places vp:L under v:f2."""

    PLM = _plm([("k1", "ck", "K"), ("k2", "ck", "K"), ("l1", "cl", "L")],
               [("ck", "f1"), ("cl", "f2")], [("k1", "l1", MATERIAL)],
               variant_interactions=[("v:k2", "v:l1", INFORMATION)],
               vm_refinements=[("vp:L", "v:f2")])

    @pytest.mark.parametrize("strict", [False, True])
    def test_lifts_onto_the_relations_already_there(self, strict):
        lifted = map_layers(self.PLM, COMP, FN, strict=strict)
        assert lifted.vm.variant_interactions == (
            Interaction("v:k1", "v:l1", MATERIAL, InteractionLevel.VARIANT),
            Interaction("v:k2", "v:l1", INFORMATION, InteractionLevel.VARIANT))
        assert lifted.vm.refinements == (
            VariabilityRefinement("vp:K", "v:f1"), VariabilityRefinement("vp:L", "v:f2"))
        assert lifted.artifacts.interactions == (
            Interaction("f1", "f2", MATERIAL, InteractionLevel.ARTIFACT),
            Interaction("k1", "l1", MATERIAL, InteractionLevel.ARTIFACT))
        assert (lifted.vm.variation_points, lifted.vm.variants, lifted.bindings) == (
            self.PLM.vm.variation_points, self.PLM.vm.variants, self.PLM.bindings)
        assert map_layers(lifted, COMP, FN, strict=strict) == lifted
        assert map_layers(lifted, FN, FN, strict=strict) == lifted

    def test_a_same_layer_pass_keeps_the_layered_model(self):
        lifted = map_layers(self.PLM, COMP, COMP)
        assert lifted.artifacts is self.PLM.artifacts
        assert lifted.vm.refinements == self.PLM.vm.refinements

    @pytest.mark.parametrize("lower, upper", [(COMP, FN), (COMP, COMP)])
    def test_an_activity_bound_twice_is_refused(self, lower, upper):
        plm = _plm([("k1", "ck", "K"), ("k2", "ck", "K")], [("ck", "f1")],
                   [("k1", "k2", MATERIAL)], extra_bindings=[("k1", "v:k2")])
        with pytest.raises(ModelError) as exc:
            map_layers(plm, lower, upper)
        assert str(exc.value) == (
            "model violates model invariants: binding-single-variant [k1]: "
            "activity 'k1' is bound to more than one variant: 'v:k1', 'v:k2'")

    def test_an_existing_parent_edge_is_named_first(self):
        plm = _plm([("k1", "ck", "K"), ("l1", "cl", "L")], [("ck", "f1"), ("cl", "f2")],
                   [("k1", "l1", MATERIAL)], vm_refinements=[("vp:L", "v:f1")])
        for strict in (False, True):
            with pytest.raises(DerivationError) as exc:
                map_layers(plm, COMP, FN, strict=strict)
            assert str(exc.value) == "variation point 'vp:L' would refine both variants " \
                                     "'v:f1' and 'v:f2'"


@pytest.mark.parametrize("strict, message", [
    # Relaxed: activities in id order, k1 (under f1) before k2 (under f2).
    (False, "variation point 'vp:K' would refine both variants 'v:f1' and 'v:f2'"),
    # Strict: interactions in order, k2 -> l1 (both under f2) before l1 -> k1.
    (True, "variation point 'vp:K' would refine both variants 'v:f2' and 'v:f1'"),
])
def test_the_first_parent_of_a_conflict_follows_the_pass_order(strict, message):
    plm = _plm([("k1", "ck1", "K"), ("k2", "ck2", "K"), ("l1", "cl", "L")],
               [("ck1", "f1"), ("ck2", "f2"), ("cl", "f2")],
               [("k2", "l1", MATERIAL), ("l1", "k1", MATERIAL)])
    with pytest.raises(DerivationError) as exc:
        map_layers(plm, COMP, FN, strict=strict)
    assert str(exc.value) == message
