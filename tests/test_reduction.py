"""Main-root selection, pair identification, the two checks, merging, and
the reduction fixpoint."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from functools import partial

import pytest

import reference_reduction
from conftest import GOLDEN_DIR
from modelgen import random_layered, random_plm
from ovmkit import corpus_path, model, reduction
from ovmkit.derivation import derive_initial_vm
from ovmkit.documents import parse_variability_model, serialize
from ovmkit.model import (
    Interaction,
    ModelError,
    InteractionKind,
    InteractionLevel,
    Layer,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    roots,
    tree_size,
    validate,
)
from ovmkit.reduction import (
    MergeRecord,
    ReductionError,
    ReductionTrace,
    check_completeness,
    check_uniqueness,
    forest_preserved,
    interacting_pairs,
    main_root,
    merge,
    reduce,
    verify_trace,
)
from reduction_checks import check_space_map
from refusals import refusal_text


def vp(vp_id):
    return VariationPoint(id=vp_id, name=vp_id.upper(), level=Layer.FUNCTIONAL)


def variant(v_id, vp_id):
    return Variant(id=v_id, name=v_id.upper(), vp_id=vp_id)


def edge(from_id, to_id):
    return Interaction(from_id=from_id, to_id=to_id,
                       kind=InteractionKind.INFORMATION,
                       level=InteractionLevel.VARIANT)


def two_vps_one_edge() -> VariabilityModel:
    return VariabilityModel(
        variation_points=(vp("vpa"), vp("vpb")),
        variants=(variant("a1", "vpa"), variant("a2", "vpa"),
                  variant("b1", "vpb"), variant("b2", "vpb")),
        variant_interactions=(edge("a1", "b1"),),
    )


def a_and_empty_e() -> ProductLineModel:
    """Root ``a`` with two variants and root ``e`` with none."""
    return ProductLineModel(vm=VariabilityModel(
        variation_points=(vp("a"), vp("e")), variants=(variant("a1", "a"), variant("a2", "a"))))


def with_extra_edge(plm: ProductLineModel, from_id: str, to_id: str) -> ProductLineModel:
    vm = plm.vm
    vm = replace(vm, variant_interactions=vm.variant_interactions + (edge(from_id, to_id),))
    return replace(plm, vm=vm)


class TestMainRoot:
    def test_engine_picks_process_function(self, engine_plm):
        assert main_root(engine_plm.vm).id == "pf"

    def test_single_root(self):
        vm = VariabilityModel(variation_points=(vp("only"),),
                              variants=(variant("o1", "only"),))
        assert main_root(vm).id == "only"

    def test_tie_breaks_on_smaller_id(self):
        vm = VariabilityModel(
            variation_points=(vp("zz"), vp("aa")),
            variants=(variant("z1", "zz"), variant("a1", "aa")),
        )
        assert main_root(vm).id == "aa"

    def test_empty_model_raises(self):
        with pytest.raises(ReductionError):
            main_root(VariabilityModel())


class TestInteractingPairs:
    def test_engine_first_pass(self, engine_plm):
        assert interacting_pairs(engine_plm.vm, "pf") == [("pf", "sf")]

    def test_no_interactions(self, logistics_plm):
        assert interacting_pairs(logistics_plm.vm, "bi") == []

    def test_equal_sizes_first_encountered_is_source(self):
        vm = two_vps_one_edge()
        assert interacting_pairs(vm, "vpa") == [("vpa", "vpb")]
        assert interacting_pairs(vm, "vpb") == [("vpb", "vpa")]

    def test_pairs_cover_descendant_vps(self):
        # The child vp's variants sit inside the root's tree and interact
        # with an outside vp of equal size: the child side is the source.
        vm = VariabilityModel(
            variation_points=(vp("root"), vp("child"), vp("other")),
            variants=(
                variant("r1", "root"),
                variant("c1", "child"), variant("c2", "child"),
                variant("o1", "other"), variant("o2", "other"),
            ),
            refinements=(VariabilityRefinement("child", "r1"),),
            variant_interactions=(edge("c1", "o1"), edge("c2", "o2")),
        )
        assert interacting_pairs(vm, "root") == [("child", "other")]

    def test_reduce_decides_the_pairs_of_a_pass_in_this_order(self, monkeypatch):
        """Up to the first pair it accepts, ``reduce`` decides the pairs of
        the trees in descending size (ties by root id), each tree's in
        ``interacting_pairs`` order, keeping those complete one way or both
        and skipping an oriented pair an earlier tree decided."""
        plms = [random_plm(random.Random(seed), max_vps=40, max_variants=120)
                for seed in range(150)]
        plms += [derive_initial_vm(*random_layered(random.Random(seed), label_all_difs=True))
                 for seed in range(40)]
        decided, merging, mismatches = watch_eligibility(monkeypatch), 0, []
        for i, plm in enumerate(plms):
            vm, listed = plm.vm, []
            for root in sorted(roots(vm), key=lambda vp: (-tree_size(vm, vp.id), vp.id)):
                listed += [pair for pair in interacting_pairs(vm, root.id) if pair not in listed
                           and (check_completeness(vm, *pair) or check_completeness(vm, *pair[::-1]))]
            decided.clear()
            _, trace = reduce(plm)
            if trace.merges:
                merging += 1
                first = trace.merges[0]
                del decided[decided.index((first.source_vp_id, first.target_vp_id)) + 1:]
                listed = listed[:len(decided)]
            if decided != listed:
                mismatches.append(i)
        assert mismatches == []
        assert merging > 100


class TestCompleteness:
    def test_engine_sensing_vs_process(self, engine_plm):
        assert check_completeness(engine_plm.vm, "pf", "sf") is True

    def test_variant_without_interactions(self, engine_plm):
        # pf1 never interacts, so "ip" cannot be complete against "pf".
        assert check_completeness(engine_plm.vm, "ip", "pf") is False

    def test_two_of_three_variants_connected(self):
        vm = VariabilityModel(
            variation_points=(vp("src"), vp("tgt")),
            variants=(variant("s1", "src"),
                      variant("t1", "tgt"), variant("t2", "tgt"), variant("t3", "tgt")),
            variant_interactions=(edge("s1", "t1"), edge("t2", "s1")),
        )
        assert check_completeness(vm, "src", "tgt") is False
        without_t3 = replace(
            vm, variants=tuple(v for v in vm.variants if v.id != "t3"))
        assert check_completeness(without_t3, "src", "tgt") is True


class TestUniqueness:
    def test_engine_sole_paths(self, engine_plm):
        assert check_uniqueness(engine_plm.vm, "pf", "sf") is True

    def test_direct_edge_with_detour_is_not_unique(self, engine_plm):
        # An added direct p3->pf3 edge has the detour p3->s3->pf3.
        modified = with_extra_edge(engine_plm, "p3", "pf3")
        assert check_uniqueness(modified.vm, "pf", "ip") is False

    def test_single_edge_alone_is_unique(self):
        vm = VariabilityModel(
            variation_points=(vp("x"), vp("y")),
            variants=(variant("x1", "x"), variant("y1", "y")),
            variant_interactions=(edge("x1", "y1"),),
        )
        assert check_uniqueness(vm, "x", "y") is True

    def test_parallel_edges_are_two_paths(self):
        vm = VariabilityModel(
            variation_points=(vp("x"), vp("y")),
            variants=(variant("x1", "x"), variant("y1", "y")),
            variant_interactions=(
                edge("x1", "y1"),
                Interaction("x1", "y1", InteractionKind.MATERIAL,
                            InteractionLevel.VARIANT),
            ),
        )
        assert check_uniqueness(vm, "x", "y") is False

    def test_two_partners_per_target_variant(self):
        vm = VariabilityModel(
            variation_points=(vp("src"), vp("tgt")),
            variants=(variant("s1", "src"), variant("s2", "src"), variant("s3", "src"),
                      variant("t1", "tgt")),
            variant_interactions=(edge("s1", "t1"), edge("s2", "t1")),
        )
        assert check_completeness(vm, "src", "tgt") is True
        assert check_uniqueness(vm, "src", "tgt") is False
        with pytest.raises(ReductionError, match="not unique") as refused:
            merge(ProductLineModel(vm=vm), "src", "tgt")
        assert "'t1' interacts with both 's1' and 's2'" in str(refused.value)


@pytest.mark.parametrize(
    "path", [corpus_path("engine-flat-plm.json"), GOLDEN_DIR / "hierarchical-derived.json"],
    ids=lambda path: path.name)
def test_public_checks_build_no_working_index(monkeypatch, path):
    """The per-pair questions read the model's frozen lookups; only ``merge``,
    ``verify_trace`` and ``reduce`` build a mutable working index."""
    def refuse(*args):
        raise AssertionError("built a working index")

    plm = parse_variability_model(path.read_bytes())
    monkeypatch.setattr(reduction, "_Index", refuse)
    vm = plm.vm
    ids = [p.id for p in vm.variation_points]
    for root in ids:
        assert interacting_pairs(vm, root) == reference_reduction.interacting_pairs(vm, root)
    for source, target in itertools.permutations(ids, 2):
        for check in (check_completeness, check_uniqueness, forest_preserved):
            expected = getattr(reference_reduction, check.__name__)(vm, source, target)
            assert check(vm, source, target) == expected, (check.__name__, source, target)
    with pytest.raises(AssertionError, match="working index"):
        reduce(plm)


def unknown_id_calls(plm: ProductLineModel) -> dict:
    """A call, by name, of each entry that takes variation point ids, with
    the unknown id ``ghost`` on each side of a pair."""
    vm = plm.vm
    calls = {"interacting_pairs": lambda: interacting_pairs(vm, "ghost"),
             "tree_size": lambda: tree_size(vm, "ghost")}
    for a, b in (("ghost", "ip"), ("ip", "ghost")):
        for check in (check_completeness, check_uniqueness, forest_preserved):
            calls[f"{check.__name__}({a}, {b})"] = partial(check, vm, a, b)
        calls[f"merge({a}, {b})"] = partial(merge, plm, a, b)
    return calls


def test_every_entry_refuses_an_unknown_id(engine_plm):
    for name, call in unknown_id_calls(engine_plm).items():
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is ModelError, (name, exc.value)
        assert str(exc.value) == "unknown variation point id: ghost", name


def test_an_invalid_model_is_refused_before_an_unknown_id(engine_plm):
    bad = replace(engine_plm, vm=replace(engine_plm.vm, refinements=(
        VariabilityRefinement("pf", "nowhere"),)))
    for name, call in unknown_id_calls(bad).items():
        whole = name.startswith("merge")
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is ModelError, (name, exc.value)
        assert str(exc.value) == refusal_text(
            validate(bad if whole else ProductLineModel(vm=bad.vm))), name


class TestMerge:
    def test_engine_first_merge_transfers_and_rebinds(self, engine_plm):
        merged, record = merge(engine_plm, "pf", "sf")
        assert record.pairing() == {"s2": "pf2", "s3": "pf3"}
        edges = {(e.from_id, e.to_id) for e in merged.vm.variant_interactions}
        assert edges == {("p2", "pf2"), ("p3", "pf3")}
        rebound = {(a, new) for a, _, new in record.rebound_bindings}
        assert rebound == {("sense-pfuel2", "pf2"), ("sense-pfuel3", "pf3")}
        assert merged.variant_of_activity("sense-pfuel2") == "pf2"
        assert merged.variant_of_activity("sense-pfuel3") == "pf3"
        assert len(merged.vm.variation_points) == 2
        assert validate(merged) == []

    def test_engine_second_merge_reaches_single_vp(self, engine_plm):
        merged, _ = merge(engine_plm, "pf", "sf")
        final, record = merge(merged, "pf", "ip")
        assert record.pairing() == {"p2": "pf2", "p3": "pf3"}
        assert [v.id for v in final.vm.variants] == ["pf1", "pf2", "pf3"]
        assert [v.id for v in final.vm.variation_points] == ["pf"]
        assert final.vm.variant_interactions == ()

    def test_subtree_reparenting_grows_source_tree(self):
        vm = VariabilityModel(
            variation_points=(vp("vpa"), vp("vpb"), vp("vpc")),
            variants=(
                variant("a1", "vpa"), variant("a2", "vpa"),
                variant("b1", "vpb"), variant("b2", "vpb"),
                variant("c1", "vpc"), variant("c2", "vpc"), variant("c3", "vpc"),
            ),
            refinements=(VariabilityRefinement("vpc", "b1"),),
            variant_interactions=(edge("a1", "b1"), edge("b2", "a2")),
        )
        plm = ProductLineModel(vm=vm)
        size_before = tree_size(vm, "vpa")
        subtree = tree_size(vm, "vpc")
        merged, record = merge(plm, "vpa", "vpb")
        assert record.transferred_refinements == (("vpc", "b1", "a1"),)
        assert merged.vm.parent_variant_of("vpc") == "a1"
        assert tree_size(merged.vm, "vpa") == size_before + subtree
        assert validate(merged) == []

    def test_artifact_vp_binding_follows_the_merge(self, engine_plm):
        from ovmkit.model import Binding, BindingKind
        extended = replace(engine_plm, bindings=engine_plm.bindings + (
            Binding(BindingKind.ARTIFACT_VP, "sensing-functions", "sf"),))
        merged, _ = merge(extended, "pf", "sf")
        artifact_bindings = [
            b for b in merged.bindings if b.kind is BindingKind.ARTIFACT_VP]
        assert artifact_bindings == [
            Binding(BindingKind.ARTIFACT_VP, "sensing-functions", "pf")]
        assert validate(merged) == []

    def test_refuses_merge_that_would_cycle_the_forest(self):
        # vpa > vpb > vpc by refinement, with an interaction between the
        # bottom and top variants. Absorbing the top would re-parent vpb
        # below its own descendant.
        vm = VariabilityModel(
            variation_points=(vp("vpa"), vp("vpb"), vp("vpc")),
            variants=(variant("a1", "vpa"), variant("b1", "vpb"), variant("c1", "vpc")),
            refinements=(
                VariabilityRefinement("vpb", "a1"),
                VariabilityRefinement("vpc", "b1"),
            ),
            variant_interactions=(edge("c1", "a1"),),
        )
        plm = ProductLineModel(vm=vm)
        with pytest.raises(ReductionError, match="forest") as refused:
            merge(plm, "vpc", "vpa")
        # The witness is the target variant above the source.
        assert "'a1'" in str(refused.value)
        # The opposite direction removes a leaf and stays a forest.
        merged, _ = merge(plm, "vpa", "vpc")
        assert validate(merged) == []

    def test_refuses_without_completeness(self, engine_plm):
        with pytest.raises(ReductionError, match="interacts") as refused:
            merge(engine_plm, "ip", "pf")
        # The witness is the target variant without a partner.
        assert "'pf1'" in str(refused.value)

    def test_refuses_a_variation_point_into_itself(self, engine_plm):
        with pytest.raises(ReductionError) as refused:
            merge(engine_plm, "pf", "pf")
        assert str(refused.value) == "cannot merge a variation point into itself"

    def test_refuses_a_target_without_variants(self):
        # Completeness holds vacuously; merging would turn 0 valid configurations into 2.
        plm = a_and_empty_e()
        assert check_completeness(plm.vm, "a", "e") and check_uniqueness(plm.vm, "a", "e")
        with pytest.raises(ReductionError) as refused:
            merge(plm, "a", "e")
        assert str(refused.value) == ("refusing to merge 'e' into 'a': reduce never picks it: "
                                      "the target has 0 variants and the source 2")

    def test_refuses_a_source_smaller_than_its_target(self):
        # Complete and unique, but it would fold t1 and t2 into s1.
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("s"), vp("t")),
            variants=(variant("s1", "s"), variant("s2", "s"),
                      variant("t1", "t"), variant("t2", "t"), variant("t3", "t")),
            variant_interactions=(edge("s1", "t1"), edge("s1", "t2"), edge("s2", "t3"))))
        assert interacting_pairs(plm.vm, "s") == [("t", "s")]
        with pytest.raises(ReductionError) as refused:
            merge(plm, "s", "t")
        assert str(refused.value) == ("refusing to merge 't' into 's': reduce never picks it: "
                                      "the target has 3 variants and the source 2")
        # The way reduce tries it, the eligibility refusal comes first.
        with pytest.raises(ReductionError, match="'s1' interacts with both 't1' and 't2'"):
            merge(plm, "t", "s")
        assert reduce(plm) == (plm, ReductionTrace(pass_count=1))

    def test_a_tie_merges_either_way(self):
        plm = ProductLineModel(vm=with_extra_edge(
            ProductLineModel(vm=two_vps_one_edge()), "a2", "b2").vm)
        for source, target in (("vpa", "vpb"), ("vpb", "vpa")):
            merged, record = merge(plm, source, target)
            assert [p.id for p in merged.vm.variation_points] == [source]
            assert len(record.variant_pairing) == 2

    def test_refuses_without_uniqueness(self, engine_plm):
        # Direct edges alongside the detours through the sensing variants
        # make the pair complete but not unique.
        modified = with_extra_edge(
            with_extra_edge(engine_plm, "p3", "pf3"), "p2", "pf2")
        assert check_completeness(modified.vm, "pf", "ip") is True
        with pytest.raises(ReductionError, match="not unique") as refused:
            merge(modified, "pf", "ip")
        # The witness is the first edge that has an alternative path.
        assert "'p2' -> 'pf2'" in str(refused.value)


class TestReduce:
    def test_engine_two_merges(self, engine_plm):
        reduced, trace = reduce(engine_plm)
        assert [(m.source_vp_id, m.target_vp_id) for m in trace.merges] \
            == [("pf", "sf"), ("pf", "ip")]
        assert [v.id for v in reduced.vm.variation_points] == ["pf"]
        assert [v.id for v in reduced.vm.variants] == ["pf1", "pf2", "pf3"]
        bound = {(b.source_id, b.target_id) for b in reduced.bindings}
        assert bound == {
            ("process-p1", "pf1"),
            ("process-p12", "pf2"), ("pfuel2", "pf2"), ("sense-pfuel2", "pf2"),
            ("process-p13", "pf3"), ("pfuel3", "pf3"), ("sense-pfuel3", "pf3"),
        }

    def test_logistics_single_merge(self, logistics_plm):
        reduced, trace = reduce(logistics_plm)
        assert len(reduced.vm.variation_points) == 4
        assert len(trace.merges) == 1
        pair = {trace.merges[0].source_vp_id, trace.merges[0].target_vp_id}
        assert pair == {"tir", "ble"}

    def test_no_interactions_unchanged(self, logistics_plm):
        vm = replace(logistics_plm.vm, variant_interactions=())
        quiet = replace(logistics_plm, vm=vm)
        reduced, trace = reduce(quiet)
        assert trace.merges == ()
        assert serialize(reduced) == serialize(quiet)

    def test_binding_count_conserved(self, engine_plm):
        reduced, _ = reduce(engine_plm)
        assert len(reduced.activity_bindings()) == len(engine_plm.activity_bindings())

    @pytest.mark.parametrize("interactions,source,target", [
        ((("r1", "x1"), ("r2", "x2")), "R", "X"),
        # S merges into R; x1 then interacts with r1, so X's tree is touched.
        ((("r1", "s1"), ("r2", "s2"), ("x1", "s1")), "R", "S"),
    ])
    def test_refinement_to_an_unknown_variant_is_refused(self, interactions, source, target):
        # X refines 'ghost', which no variant is: validate rejects the model,
        # and so do merge, reduce, verify_trace and the per-pair checks.
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("R"), vp("S"), vp("X")),
            variants=tuple(variant(f"{n}{i}", n.upper()) for n in "rsx" for i in (1, 2)),
            variant_interactions=tuple(edge(a, b) for a, b in interactions),
            refinements=(VariabilityRefinement("X", "ghost"),),
        ))
        assert [v.invariant for v in validate(plm)] == ["psi-resolution"]
        calls = (lambda: merge(plm, source, target), lambda: reduce(plm),
                 lambda: verify_trace(plm, ReductionTrace(pass_count=1), plm),
                 lambda: interacting_pairs(plm.vm, "X"),
                 lambda: check_completeness(plm.vm, source, target))
        for call in calls:
            with pytest.raises(ModelError, match=(
                    r"^model violates model invariants: psi-resolution \[X, ghost\]: "
                    "variability refinement references unknown id 'ghost'$")):
                call()

    def test_idempotent(self, engine_plm, logistics_plm):
        for plm in (engine_plm, logistics_plm):
            reduced, _ = reduce(plm)
            again, trace = reduce(reduced)
            assert trace.merges == ()
            assert again == reduced

    def test_the_result_arrives_in_order(self, monkeypatch, engine_plm, logistics_plm,
                                         engine_layered, hierarchical_layered):
        """Each collection of a reduced model is built ascending, so the model
        constructors return it as it is and sort nothing."""
        plms = [random_plm(random.Random(seed), max_vps=200, max_variants=800)
                for seed in range(30)]
        plms += [engine_plm, logistics_plm, derive_initial_vm(engine_layered),
                 derive_initial_vm(hierarchical_layered)]
        sorted_unique, calls = model._sorted_unique, []

        def watched(items, cls=None):
            result = sorted_unique(items, cls)
            calls.append((cls.__name__, result is items))
            return result

        monkeypatch.setattr(model, "_sorted_unique", watched)
        merging = 0
        for plm in plms:
            calls.clear()
            _, trace = reduce(plm)
            if trace.merges:
                merging += 1
                assert calls == [(cls, True) for cls in (
                    "VariationPoint", "Variant", "Interaction", "VariabilityRefinement",
                    "Binding")]
        assert merging == 33

    def test_a_pair_complete_neither_way_is_never_decided(self, monkeypatch):
        decided = watch_eligibility(monkeypatch)
        plm = ProductLineModel(vm=two_vps_one_edge())
        reduced, trace = reduce(plm)
        assert reduced is plm
        assert trace == ReductionTrace(pass_count=1)
        assert decided == []

    def test_a_pair_a_merge_changes_complete_neither_way_is_never_decided(self, monkeypatch):
        """Merging ``b`` into ``a`` moves ``b1 -> x1`` to ``a1 -> x1``, which changes
        the pair of ``a`` and ``x``; one link covers neither all 2 variants of
        ``a`` nor all 3 of ``x``, so that pair is never decided."""
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("a"), vp("b"), vp("x")),
            variants=tuple(variant(f"{n}{i}", n) for n, k in (("a", 2), ("b", 2), ("x", 3))
                           for i in range(1, k + 1)),
            variant_interactions=(edge("a1", "b1"), edge("a2", "b2"), edge("b1", "x1")),
        ))
        decided = watch_eligibility(monkeypatch)
        reduced, trace = reduce(plm)
        assert decided == [("a", "b")]
        assert [(m.source_vp_id, m.target_vp_id, m.transferred_interactions)
                for m in trace.merges] == [("a", "b", (("b1", "x1", "a1", "x1"),))]
        assert not check_completeness(reduced.vm, "x", "a")
        assert not check_completeness(reduced.vm, "a", "x")
        expected = reference_reduction.reduce(plm)
        assert (serialize(reduced), serialize(trace)) == tuple(map(serialize, expected))

    @pytest.mark.parametrize("hub,decisions", [
        ("a0", [("a", "b")]),
        # Tree ``a`` comes first and lists the pair as ``(a, b)``, which is
        # not complete; the refusal leaves ``(b, a)`` to tree ``b``.
        ("b0", [("a", "b"), ("b", "a")]),
    ])
    def test_a_tie_complete_one_way_still_merges(self, monkeypatch, hub, decisions):
        other = "b" if hub[0] == "a" else "a"
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("a"), vp("b")),
            variants=tuple(variant(f"{n}{i}", n) for n in "ab" for i in range(3)),
            variant_interactions=tuple(edge(hub, f"{other}{i}") for i in range(3)),
        ))
        decided = watch_eligibility(monkeypatch)
        reduced, trace = reduce(plm)
        assert decided == decisions
        assert [(m.source_vp_id, m.target_vp_id, m.pairing()) for m in trace.merges] == [
            (hub[0], other, {f"{other}{i}": hub for i in range(3)})]
        expected = reference_reduction.reduce(plm)
        assert (serialize(reduced), serialize(trace)) == tuple(map(serialize, expected))

    def test_a_refused_pair_is_decided_again_only_once_it_changes(self, monkeypatch):
        """``reduce`` calls ``_eligibility`` no more often per model than when
        these counts were taken, 391 times in all; one that forgot its
        refusals would call it 392 times (once more for seed 12), and one
        that pushed every pair a merge changed, not only those complete one
        way or both, 1,344 times."""
        decided = watch_eligibility(monkeypatch)
        counts, merges = [], 0
        for seed in range(20):
            decided.clear()
            _, trace = reduce(random_plm(random.Random(seed), max_vps=400, max_variants=1600))
            counts.append(len(decided))
            merges += len(trace.merges)
        assert merges == 389
        pinned = [39, 7, 3, 13, 9, 53, 15, 12, 12, 7,
                  50, 17, 37, 23, 2, 16, 20, 31, 1, 24]
        assert [n for n, most in zip(counts, pinned) if n > most] == []


def watch_eligibility(monkeypatch) -> list[tuple[str, str]]:
    """The (source, target) pairs ``reduction._eligibility`` decides from now on."""
    eligibility, decided = reduction._eligibility, []
    monkeypatch.setattr(reduction, "_eligibility",
                        lambda *pair: decided.append(pair[1:]) or eligibility(*pair))
    return decided


class TestVerifyTrace:
    def test_refuses_a_model_with_two_parents(self):
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("a"), vp("b"), vp("c")),
            variants=(variant("a1", "a"), variant("b1", "b")),
            refinements=(VariabilityRefinement("c", "a1"), VariabilityRefinement("c", "b1")),
        ))
        for call in (lambda: reduce(plm),
                     lambda: verify_trace(plm, ReductionTrace(pass_count=1), plm)):
            with pytest.raises(ModelError, match=(
                    r"^model violates model invariants: psi-single-parent \[c\]: "
                    "variation point 'c' has more than one parent variant$")):
                call()

    def test_refuses_an_invalid_model_after(self, engine_plm):
        reduced, trace = reduce(engine_plm)
        broken = replace(reduced, vm=replace(reduced.vm, refinements=(
            VariabilityRefinement("pf", "ghost"),)))
        with pytest.raises(ModelError, match="^model violates model invariants: psi-resolution"):
            verify_trace(engine_plm, trace, broken)

    @pytest.mark.parametrize("pass_count", [0, 2, 4, 99])
    def test_rejects_a_pass_count_other_than_one_more_than_the_merges(
            self, engine_plm, pass_count):
        reduced, trace = reduce(engine_plm)
        assert trace.pass_count == len(trace.merges) + 1 == 3
        with pytest.raises(ModelError) as exc:
            verify_trace(engine_plm, replace(trace, pass_count=pass_count), reduced)
        assert str(exc.value) == f"trace records {pass_count} passes for 2 merges"

    def test_accepts_the_trace_of_the_reduction(self, engine_plm, logistics_plm):
        for plm in (engine_plm, logistics_plm):
            reduced, trace = reduce(plm)
            verify_trace(plm, trace, reduced)

    def test_rejects_a_merge_that_does_not_replay(self, engine_plm, logistics_plm):
        _, foreign = reduce(logistics_plm)
        with pytest.raises(ModelError, match=r"trace merge 0 \('tir' into 'ble'\) does not replay"):
            verify_trace(engine_plm, foreign, engine_plm)

    def test_rejects_a_record_that_replays_differently(self, engine_plm):
        reduced, trace = reduce(engine_plm)
        first, second = trace.merges
        tampered = replace(trace, merges=(first, replace(second, rebound_bindings=())))
        with pytest.raises(ModelError, match=r"trace merge 1 \('ip' into 'pf'\) replays to a different record"):
            verify_trace(engine_plm, tampered, reduced)

    def test_rejects_a_merge_reduce_never_picks(self):
        plm = a_and_empty_e()
        after = ProductLineModel(vm=VariabilityModel(
            variation_points=(vp("a"),), variants=plm.vm.variants))
        trace = ReductionTrace(merges=(MergeRecord("a", "e", (), (), (), ()),), pass_count=2)
        with pytest.raises(ModelError) as exc:
            verify_trace(plm, trace, after)
        assert str(exc.value) == (
            "trace merge 0 ('e' into 'a') does not replay: refusing to merge 'e' into 'a': "
            "reduce never picks it: the target has 0 variants and the source 2")

    def test_rejects_a_trace_that_stops_short(self, engine_plm):
        reduced, trace = reduce(engine_plm)
        short = replace(trace, merges=trace.merges[:1])
        with pytest.raises(ModelError, match="does not give the model after"):
            verify_trace(engine_plm, short, reduced)


class TestProductSpace:
    """``reduce`` can change which configurations are valid (ROADMAP item
    17). These pin today's behaviour on two small random models."""

    def test_a_merge_across_trees_loses_an_image(self):
        # vp003 (one variant, under v001.0) folds into vp004 (under v002.3):
        # the image selects v004.4 while vp004 is inactive.
        plm = random_plm(random.Random(73), max_vps=8, max_variants=24)
        _, trace = reduce(plm)
        assert [(m.source_vp_id, m.target_vp_id, m.variant_pairing) for m in trace.merges] == [
            ("vp004", "vp003", (("v003.0", "v004.4"),))]
        assert check_space_map(plm, budget=10**6) == (
            [("v000.3", "v001.0", "v002.0", "v003.0")], [("v000.3", "v001.0", "v002.0")])

    def test_a_root_absorbing_its_descendant_loses_an_image(self):
        # vp001 folds into the root above it, so v000.0 now activates vp003.
        plm = random_plm(random.Random(221), max_vps=8, max_variants=24)
        _, trace = reduce(plm)
        assert [(m.source_vp_id, m.target_vp_id) for m in trace.merges] == [("vp000", "vp001")]
        assert check_space_map(plm, budget=10**6) == ([("v000.0",)], [])

    def test_the_corpora_keep_every_image(self, engine_plm, logistics_plm):
        assert check_space_map(engine_plm) == ([], [("pf1",)])
        assert check_space_map(logistics_plm) == ([], [])
