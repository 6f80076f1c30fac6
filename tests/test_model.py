"""Core model types: tree metrics, roots, and structural validation."""

from __future__ import annotations

import contextlib
import itertools
import random
import time
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN_DIR
from modelgen import random_plm
from ovmkit.configs import Configuration, unconstrained_count, validate_config
from ovmkit.documents import parse_variability_model, serialize
from ovmkit.model import (
    Activity,
    FunctionalArtifact,
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    LayeredModel,
    ModelError,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    _build,
    roots,
    tree_size,
    validate,
)
from ovmkit.reduction import (
    check_completeness,
    check_uniqueness,
    forest_preserved,
    interacting_pairs,
    merge,
    reduce,
    verify_trace,
)


def vp(vp_id, level=Layer.FUNCTIONAL):
    return VariationPoint(id=vp_id, name=vp_id.upper(), level=level)


def variant(v_id, vp_id):
    return Variant(id=v_id, name=v_id.upper(), vp_id=vp_id)


def naive_tree_size(vm: VariabilityModel, vp_id: str, seen=None) -> int:
    """Independent recursive recount used as the oracle."""
    seen = set() if seen is None else seen
    if vp_id in seen:
        return 0
    seen.add(vp_id)
    count = 0
    for v in vm.variants:
        if v.vp_id != vp_id:
            continue
        count += 1
        for r in vm.refinements:
            if r.parent_variant_id == v.id:
                count += naive_tree_size(vm, r.child_vp_id, seen)
    return count


class TestTreeSize:
    def test_two_variants_refined_into_five_and_three(self):
        """Root with variants A and B, A over 5 children, B over 3: 2 + (5 + 3)."""
        vm = VariabilityModel(
            variation_points=(vp("root"), vp("under-a"), vp("under-b")),
            variants=(
                variant("a", "root"), variant("b", "root"),
                *(variant(f"a{i}", "under-a") for i in range(5)),
                *(variant(f"b{i}", "under-b") for i in range(3)),
            ),
            refinements=(
                VariabilityRefinement("under-a", "a"),
                VariabilityRefinement("under-b", "b"),
            ),
        )
        assert tree_size(vm, "root") == 10

    def test_empty_tree(self):
        vm = VariabilityModel(variation_points=(vp("lonely"),))
        assert tree_size(vm, "lonely") == 0

    def test_flat_engine_process_function(self, engine_plm):
        assert tree_size(engine_plm.vm, "pf") == 3
        assert tree_size(engine_plm.vm, "ip") == 2
        assert tree_size(engine_plm.vm, "sf") == 2

    def test_unknown_vp_raises(self):
        with pytest.raises(ModelError, match="nope"):
            tree_size(VariabilityModel(), "nope")


class TestRoots:
    def test_flat_model_all_roots(self, engine_plm):
        assert [r.id for r in roots(engine_plm.vm)] == ["ip", "pf", "sf"]

    def test_single_tree_single_root(self):
        vm = VariabilityModel(
            variation_points=(vp("top"), vp("sub")),
            variants=(variant("t1", "top"), variant("s1", "sub")),
            refinements=(VariabilityRefinement("sub", "t1"),),
        )
        assert [r.id for r in roots(vm)] == ["top"]

    def test_empty_model(self):
        assert roots(VariabilityModel()) == []


def lookups(plm: ProductLineModel) -> tuple:
    """Answers of public calls that read a model's cached lookups."""
    vm = plm.vm
    ids = [p.id for p in vm.variation_points]
    return (
        roots(vm),
        {r.id: tree_size(vm, r.id) for r in roots(vm)},
        {p.id: vm.variants_of(p.id) for p in vm.variation_points},
        {v.id: vm.child_vps_of(v.id) for v in vm.variants},
        {p.id: vm.parent_variant_of(p.id) for p in vm.variation_points},
        {a.id: plm.variant_of_activity(a.id) for a in plm.artifacts.activities},
        {v.id: validate_config(plm, Configuration(frozenset({v.id}))) for v in vm.variants},
        {r.id: interacting_pairs(vm, r.id) for r in roots(vm)},
        {(s, t): (check_completeness(vm, s, t), check_uniqueness(vm, s, t),
                  forest_preserved(vm, s, t))
         for s, t in itertools.permutations(ids, 2)},
        serialize(plm),
    )


class TestIndex:
    """A model's lookups are built once and shared, so neither the library's
    working copies nor callers may change them."""

    def test_reduce_and_merge_leave_their_input_as_it_was(self):
        plm = parse_variability_model((GOLDEN_DIR / "hierarchical-derived.json").read_bytes())
        before = lookups(plm)
        reduced, trace = reduce(plm)
        assert any(m.transferred_refinements for m in trace.merges)
        for record in trace.merges[:2]:
            merge(plm, record.source_vp_id, record.target_vp_id)
        verify_trace(plm, trace, reduced)
        assert lookups(plm) == before

    def test_mutating_a_returned_lookup_changes_no_later_answer(self, engine_layered, engine_plm):
        for lookup in (engine_plm.vm.vps_by_id, engine_plm.vm.variants_by_id,
                       engine_layered.activities_by_id, engine_layered.artifacts_by_id):
            got = lookup()
            expected = dict(got)
            for key in (next(iter(got)), "new-id"):
                with contextlib.suppress(TypeError):
                    got[key] = None
            assert lookup() == expected


class TestValidate:
    def test_engine_corpus_is_clean(self, engine_plm):
        assert validate(engine_plm) == []

    def test_dangling_variant_names_delta_consistency(self):
        plm = ProductLineModel(vm=VariabilityModel(variants=(variant("v1", "ghost"),)))
        violations = validate(plm)
        assert len(violations) == 1
        assert violations[0].invariant == "delta-consistency"
        assert "ghost" in violations[0].subject_ids

    def test_refinement_cycle_names_forest_acyclicity(self):
        vm = VariabilityModel(
            variation_points=(vp("a"), vp("b")),
            variants=(variant("a1", "a"), variant("b1", "b")),
            refinements=(
                VariabilityRefinement("a", "b1"),
                VariabilityRefinement("b", "a1"),
            ),
        )
        violations = validate(ProductLineModel(vm=vm))
        assert any(v.invariant == "psi-forest-acyclicity" for v in violations)

    def test_forest_acyclicity_reports_every_vp_above_a_cycle_in_order(self):
        # Cycles m > n > o > m and x <> y; d, e and f hang off the first
        # cycle at two depths, w off the second; ok > ok2 is a valid tree.
        # Every vp whose ancestor chain enters a cycle is reported once, in
        # refinement order, including tails listed before the cycle.
        names = ("d", "e", "f", "m", "n", "o", "ok", "ok2", "w", "x", "y")
        vm = VariabilityModel(
            variation_points=tuple(vp(n) for n in names),
            variants=tuple(variant(n + "1", n) for n in names),
            refinements=tuple(VariabilityRefinement(child, parent) for child, parent in (
                ("m", "o1"), ("n", "m1"), ("o", "n1"), ("d", "e1"), ("e", "n1"),
                ("f", "o1"), ("x", "y1"), ("y", "x1"), ("w", "x1"), ("ok2", "ok1"))),
        )
        assert [str(v) for v in validate(ProductLineModel(vm=vm))] == [
            f"psi-forest-acyclicity [{n}]: variability refinements form a cycle through {n!r}"
            for n in ("d", "e", "f", "m", "n", "o", "w", "x", "y")]

    def test_two_parents_rejected(self):
        vm = VariabilityModel(
            variation_points=(vp("a"), vp("b"), vp("c")),
            variants=(variant("a1", "a"), variant("b1", "b"), variant("c1", "c")),
            refinements=(
                VariabilityRefinement("c", "a1"),
                VariabilityRefinement("c", "b1"),
            ),
        )
        violations = validate(ProductLineModel(vm=vm))
        assert any(v.invariant == "psi-single-parent" for v in violations)

    def test_artifact_binding_theta_consistency(self):
        from ovmkit.model import (
            Activity, Binding, BindingKind, FunctionalArtifact, LayeredModel)
        layered = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False),),
        )
        vm = VariabilityModel(
            variation_points=(vp("x"), vp("y")),
            variants=(variant("x1", "x"), variant("y1", "y")),
        )
        consistent = ProductLineModel(vm=vm, artifacts=layered, bindings=(
            Binding(BindingKind.ARTIFACT_VP, "fns", "x"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "x1"),
        ))
        assert validate(consistent) == []
        # The artifact binds x but its activity binds a variant of y.
        crossed = ProductLineModel(vm=vm, artifacts=layered, bindings=(
            Binding(BindingKind.ARTIFACT_VP, "fns", "x"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "y1"),
        ))
        violations = validate(crossed)
        assert [v.invariant for v in violations] == ["binding-theta-consistency"]

    @pytest.mark.parametrize("artifact_id, vp_id, missing", [
        ("ghost", "x", "ghost"), ("fns", "nowhere", "nowhere"), ("ghost", "nowhere", "ghost")])
    def test_artifact_binding_to_an_unknown_id_is_refused(self, artifact_id, vp_id, missing):
        from ovmkit.model import Binding, BindingKind, FunctionalArtifact, LayeredModel
        plm = ProductLineModel(
            vm=VariabilityModel(variation_points=(vp("x"),)),
            artifacts=LayeredModel(artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ()),)),
            bindings=(Binding(BindingKind.ARTIFACT_VP, artifact_id, vp_id),))
        assert [str(v) for v in validate(plm)] == [
            f"binding-resolution [{artifact_id}, {vp_id}]: "
            f"artifact binding references unknown id {missing!r}"]

    def test_activity_bound_to_two_variants_rejected(self):
        from ovmkit.model import (
            Activity, Binding, BindingKind, FunctionalArtifact, LayeredModel)
        layered = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1", "a2")),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False),
                        Activity("a2", "A2", Layer.FUNCTIONAL, "fns", False)),
        )
        vm = VariabilityModel(
            variation_points=(vp("x"), vp("y")),
            variants=(variant("x1", "x"), variant("x2", "x"), variant("y1", "y")),
        )
        single = ProductLineModel(vm=vm, artifacts=layered, bindings=(
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "x1"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a2", "x1"),
        ))
        assert validate(single) == []
        double = ProductLineModel(vm=vm, artifacts=layered, bindings=(
            Binding(BindingKind.ACTIVITY_VARIANT, "a2", "y1"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "x1"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a2", "x2"),
        ))
        assert [(v.invariant, v.subject_ids) for v in validate(double)] == [
            ("binding-single-variant", ("a2",))]
        with pytest.raises(ModelError, match=r"binding-single-variant \[a2\]: activity 'a2'"):
            parse_variability_model(serialize(double))

    def test_an_activity_bound_twice_reads_as_its_first_variant_and_is_refused(self):
        """``validate`` rejects such a model. Its lookup still gives a single
        answer, the variant of the first binding in order, and every entry
        that reads the model refuses it."""
        from ovmkit.derivation import map_layers
        from ovmkit.model import (
            Activity, Binding, BindingKind, FunctionalArtifact, LayeredModel)
        layered = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1", "b1")),),
            activities=(Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False),
                        Activity("b1", "B1", Layer.FUNCTIONAL, "fns", False)),
            interactions=(Interaction(
                "a1", "b1", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT),),
        )
        vm = VariabilityModel(
            variation_points=(vp("x"), vp("y"), vp("z")),
            variants=(variant("x1", "x"), variant("y1", "y"), variant("z1", "z")),
        )
        plm = ProductLineModel(vm=vm, artifacts=layered, bindings=(
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "y1"),
            Binding(BindingKind.ACTIVITY_VARIANT, "b1", "z1"),
            Binding(BindingKind.ACTIVITY_VARIANT, "a1", "x1"),
        ))
        assert plm.variant_of_activity("a1") == "x1"
        cfg = Configuration(frozenset({"x1", "y1", "z1"}))
        for call in (lambda: map_layers(plm, Layer.FUNCTIONAL, Layer.FUNCTIONAL),
                     lambda: validate_config(plm, cfg)):
            with pytest.raises(ModelError, match=(
                    r"^model violates model invariants: binding-single-variant \[a1\]: "
                    "activity 'a1' is bound to more than one variant: 'x1', 'y1'$")):
                call()

    def test_a_variant_id_on_two_vps_sits_under_one_and_is_refused(self):
        """``validate`` rejects such a model. Its lookups still give one
        hierarchy: variant 'a' sits under B, the last of the two, so A, which
        refines 'a', sits under B and has no variant. The entries refuse it."""
        vm = VariabilityModel(
            variation_points=(vp("A"), vp("B")),
            variants=(variant("a", "A"), variant("a", "B")),
            refinements=(VariabilityRefinement("A", "a"),),
        )
        assert [v.invariant for v in validate(ProductLineModel(vm=vm))] == ["unique-ids"]
        assert (vm.variants_of("A"), vm.variants_of("B")) == ((), (variant("a", "B"),))
        assert [root.id for root in roots(vm)] == ["B"]
        assert vm._index.children == {"a": ("A",)}
        for call in (lambda: tree_size(vm, "B"), lambda: unconstrained_count(vm)):
            with pytest.raises(ModelError, match=(
                    r"^model violates model invariants: unique-ids \[a\]: "
                    "duplicate variant id 'a'$")):
                call()

    def test_same_vp_interaction_rejected(self):
        vm = VariabilityModel(
            variation_points=(vp("a"),),
            variants=(variant("a1", "a"), variant("a2", "a")),
            variant_interactions=(Interaction(
                "a1", "a2", InteractionKind.MATERIAL, InteractionLevel.VARIANT),),
        )
        violations = validate(ProductLineModel(vm=vm))
        assert any(v.invariant == "interaction-distinct-vps" for v in violations)

    def test_an_artifact_listing_many_activities_validates_in_linear_time(self):
        """Each activity's membership is a set lookup, not a scan of its
        artifact's list: 100,000 activities take seconds at most."""
        ids = [f"a{i:06}" for i in range(100_000)]
        model = LayeredModel(
            artifacts=(FunctionalArtifact("f", Layer.FUNCTIONAL, tuple(ids)),),
            activities=tuple(Activity(i, i, Layer.FUNCTIONAL, "f", True) for i in ids))
        started = time.perf_counter()
        assert validate(ProductLineModel(artifacts=model)) == []
        assert time.perf_counter() - started < 5.0

    def test_an_activity_is_a_member_of_the_last_record_of_a_duplicate_artifact_id(self):
        model = LayeredModel(
            artifacts=(FunctionalArtifact("f", Layer.FUNCTIONAL, ("a",)),
                       FunctionalArtifact("f", Layer.FUNCTIONAL, ("b",))),
            activities=(Activity("a", "A", Layer.FUNCTIONAL, "f", True),
                        Activity("b", "B", Layer.FUNCTIONAL, "f", True)))
        assert list(map(str, validate(ProductLineModel(artifacts=model)))) == [
            "unique-ids [f]: duplicate artifact id 'f'",
            "artifact-membership [a, f]: activity 'a' names artifact 'f' which does not list it",
        ]


class TestNormalization:
    def test_duplicate_id_with_optional_field_still_validates(self):
        from ovmkit.model import Activity, FunctionalArtifact, LayeredModel
        twin_a = Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False)
        twin_b = Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False, group="G")
        model = LayeredModel(
            artifacts=(FunctionalArtifact("fns", Layer.FUNCTIONAL, ("a1",)),),
            activities=(twin_a, twin_b),
        )
        violations = validate(ProductLineModel(artifacts=model))
        assert any(v.invariant == "unique-ids" for v in violations)

    def test_records_order_only_by_their_sort_keys(self):
        from ovmkit.model import Activity, _KEYS
        plain = Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False)
        grouped = Activity("a1", "A1", Layer.FUNCTIONAL, "fns", False, group="G")
        with pytest.raises(TypeError):
            variant("x1", "x") < variant("x2", "x")
        assert sorted((grouped, plain), key=_KEYS[Activity]) == [plain, grouped]

    def test_collections_are_sorted_and_deduplicated(self):
        a, b = variant("x1", "x"), variant("x2", "x")
        vm = VariabilityModel(variation_points=(vp("x"),), variants=(b, a, b))
        assert vm.variants == (a, b)

    def test_structural_equality_ignores_input_order(self):
        one = VariabilityModel(
            variation_points=(vp("x"), vp("y")),
            variants=(variant("x1", "x"), variant("y1", "y")),
        )
        other = VariabilityModel(
            variation_points=(vp("y"), vp("x")),
            variants=(variant("y1", "y"), variant("x1", "x")),
        )
        assert one == other


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_tree_size_matches_naive_oracle(seed):
    plm = random_plm(random.Random(seed))
    for root in roots(plm.vm):
        assert tree_size(plm.vm, root.id) == naive_tree_size(plm.vm, root.id)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_root_sizes_sum_to_variant_count(seed):
    plm = random_plm(random.Random(seed))
    total = sum(tree_size(plm.vm, root.id) for root in roots(plm.vm))
    assert total == len(plm.vm.variants)


@pytest.mark.parametrize("extra", [(), ("cached",)], ids=["fields", "and-an-attribute"])
def test_records_built_in_bulk_take_the_memory_of_records_built_one_by_one(extra):
    """A class whose first records ``_build`` makes keeps one key table for all
    of its instances, as one whose records its ``__init__`` makes does: a
    record of three fields takes about 100 bytes both ways, where one with a
    dict of its own would take over 300."""
    n = 2000
    column = list(range(1000, 1000 + n))

    def bytes_per_record(build) -> float:
        @dataclass(frozen=True)
        class Record:
            a: int
            b: int
            c: int

        tracemalloc.start()
        try:
            records = build(Record)
            return tracemalloc.get_traced_memory()[0] / len(records)
        finally:
            tracemalloc.stop()

    names = ["a", "b", "c", *extra]
    bulk = bytes_per_record(lambda cls: _build(cls, names, n, *[column] * len(names)))
    one_by_one = bytes_per_record(lambda cls: list(map(cls, column, column, column)))
    assert bulk < 1.25 * one_by_one
