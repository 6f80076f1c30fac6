"""Configuration counting, validity, and enumeration."""

from __future__ import annotations

import itertools
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, replace

import pytest

from modelgen import bind, forest_of_components, grid, paired_grid
from ovmkit import configs
from ovmkit.cli import build_report
from ovmkit.configs import (
    BudgetExceededError,
    Configuration,
    active_vps,
    count_valid,
    default_budget,
    enumerate_valid,
    unconstrained_count,
    validate_config,
)
from ovmkit.model import (
    Interaction,
    InteractionKind,
    InteractionLevel,
    Layer,
    ModelError,
    ProductLineModel,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    _build,
    validate,
)
from ovmkit.reduction import ReductionTrace, merge, reduce, verify_trace


def cfg(*ids):
    return Configuration(selection=frozenset(ids))


def hierarchy_fixture() -> ProductLineModel:
    """Root with two variants; choosing r1 opens a child with two variants."""
    vm = VariabilityModel(
        variation_points=(
            VariationPoint("root", "Root", Layer.FEATURE),
            VariationPoint("sub", "Sub", Layer.FUNCTIONAL),
        ),
        variants=(
            Variant("r1", "R1", "root"), Variant("r2", "R2", "root"),
            Variant("s1", "S1", "sub"), Variant("s2", "S2", "sub"),
        ),
        refinements=(VariabilityRefinement("sub", "r1"),),
    )
    return ProductLineModel(vm=vm)


class TestUnconstrainedCount:
    def test_flat_engine_is_twelve(self, engine_plm):
        assert unconstrained_count(engine_plm.vm) == 12

    def test_reduced_engine_is_three(self, engine_plm):
        reduced, _ = reduce(engine_plm)
        assert unconstrained_count(reduced.vm) == 3

    def test_empty_model_is_one(self):
        assert unconstrained_count(VariabilityModel()) == 1

    def test_flat_model_is_product_of_sizes(self, logistics_plm):
        assert unconstrained_count(logistics_plm.vm) == 2 ** 5

    def test_hierarchical_activation(self):
        # r1 opens two choices, r2 none: 2 + 1.
        assert unconstrained_count(hierarchy_fixture().vm) == 3

    def test_exact_arithmetic_on_wide_model(self):
        vm = VariabilityModel(
            variation_points=tuple(
                VariationPoint(f"vp{i:02d}", f"VP{i}", Layer.FUNCTIONAL)
                for i in range(40)),
            variants=tuple(
                Variant(f"v{i:02d}.{j}", "x", f"vp{i:02d}")
                for i in range(40) for j in range(3)),
        )
        assert unconstrained_count(vm) == 3 ** 40


class TestRefinementCycle:
    """Root R opens A through r1; A also refines b1, the variant of B, which
    refines a1, the variant of A. So A has two parent variants, and the
    walk down from R meets A again below itself."""

    @staticmethod
    def two_parent_cycle() -> ProductLineModel:
        return ProductLineModel(vm=VariabilityModel(
            variation_points=tuple(
                VariationPoint(vp_id, vp_id, Layer.FEATURE) for vp_id in "ABR"),
            variants=(Variant("r1", "R1", "R"), Variant("a1", "A1", "A"),
                      Variant("b1", "B1", "B")),
            refinements=(VariabilityRefinement("A", "r1"), VariabilityRefinement("A", "b1"),
                         VariabilityRefinement("B", "a1")),
        ))

    def test_count_and_enumeration_name_the_cycle(self):
        plm = self.two_parent_cycle()
        for call in (lambda: unconstrained_count(plm.vm), lambda: enumerate_valid(plm)):
            with pytest.raises(ModelError) as exc:
                call()
            assert str(exc.value) == (
                "model violates model invariants: psi-single-parent [A]: variation point "
                "'A' has more than one parent variant; psi-forest-acyclicity [A]: "
                "variability refinements form a cycle through 'A'; psi-forest-acyclicity "
                "[B]: variability refinements form a cycle through 'B'")

    def test_validate_reports_the_second_parent(self):
        # A sits only under its first parent b1, so A and B form a cycle
        # and R's variant opens nothing.
        plm = self.two_parent_cycle()
        assert [str(v).split(":")[0] for v in validate(plm)] == [
            "psi-single-parent [A]", "psi-forest-acyclicity [A]", "psi-forest-acyclicity [B]"]
        assert plm.vm.parent_variant_of("A") == "b1"
        assert plm.vm.child_vps_of("r1") == ()
        assert plm.vm.child_vps_of("b1") == ("A",)

    def test_configs_merge_and_reduce_refuse_a_cycle_no_root_reaches(self):
        # a <> b, with no root at all.
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(VariationPoint("a", "a", Layer.FEATURE),
                              VariationPoint("b", "b", Layer.FEATURE)),
            variants=(Variant("a1", "A1", "a"), Variant("b1", "B1", "b")),
            refinements=(VariabilityRefinement("a", "b1"), VariabilityRefinement("b", "a1")),
        ))
        calls = (lambda: unconstrained_count(plm.vm), lambda: enumerate_valid(plm),
                 lambda: merge(plm, "a", "b"), lambda: reduce(plm),
                 lambda: verify_trace(plm, ReductionTrace(), plm))
        for call in calls:
            with pytest.raises(ModelError, match=(
                    r"^model violates model invariants: psi-forest-acyclicity \[a\]: "
                    r"variability refinements form a cycle through 'a'; ")):
                call()


class TestValidateConfig:
    def test_engine_valid_selection(self, engine_plm):
        assert validate_config(engine_plm, cfg("p2", "s2", "pf2")) == []

    def test_engine_broken_data_flow(self, engine_plm):
        violations = validate_config(engine_plm, cfg("p2", "s3", "pf1"))
        closure = {
            tuple(v.subject_ids) for v in violations
            if v.invariant == "interaction-closure"
        }
        assert closure == {("p2", "s2"), ("p3", "s3"), ("s3", "pf3")}

    def test_empty_selection_on_empty_model(self):
        assert validate_config(ProductLineModel(), cfg()) == []

    def test_unknown_variant_raises(self, engine_plm):
        with pytest.raises(ModelError, match="nobody"):
            validate_config(engine_plm, cfg("nobody"))

    def test_missing_choice_is_cardinality_violation(self, engine_plm):
        violations = validate_config(engine_plm, cfg("p2", "s2"))
        assert any(
            v.invariant == "cardinality" and "pf" in v.subject_ids
            for v in violations)

    def test_double_choice_is_cardinality_violation(self, engine_plm):
        violations = validate_config(engine_plm, cfg("p2", "p3", "s2", "pf2"))
        assert any(v.invariant == "cardinality" for v in violations)

    def test_inactive_child_selection(self):
        plm = hierarchy_fixture()
        violations = validate_config(plm, cfg("r2", "s1"))
        assert [v.invariant for v in violations] == ["inactive-selection"]

    def test_active_child_requires_choice(self):
        plm = hierarchy_fixture()
        violations = validate_config(plm, cfg("r1"))
        assert [v.invariant for v in violations] == ["cardinality"]
        assert validate_config(plm, cfg("r1", "s1")) == []

    def test_unbound_variant_flagged_when_bindings_exist(self, engine_plm):
        vm = engine_plm.vm
        stripped = replace(
            engine_plm,
            bindings=tuple(b for b in engine_plm.bindings if b.target_id != "pf2"),
        )
        violations = validate_config(stripped, cfg("p2", "s2", "pf2"))
        assert any(v.invariant == "variant-unbound" for v in violations)
        # Without any bindings the clause does not apply.
        bare = ProductLineModel(vm=vm)
        assert validate_config(bare, cfg("p2", "s2", "pf2")) == []


class TestActivation:
    def test_child_active_only_under_selected_parent(self):
        vm = hierarchy_fixture().vm
        assert active_vps(vm, frozenset()) == {"root"}
        assert active_vps(vm, frozenset({"r1"})) == {"root", "sub"}
        assert active_vps(vm, frozenset({"r2"})) == {"root"}


class TestEnumerate:
    def test_engine_two_of_twelve(self, engine_plm):
        valid = enumerate_valid(engine_plm)
        assert [c.sorted_ids() for c in valid] == [
            ("p2", "pf2", "s2"), ("p3", "pf3", "s3")]

    def test_reduced_engine_three(self, engine_plm):
        reduced, _ = reduce(engine_plm)
        valid = enumerate_valid(reduced)
        assert [c.sorted_ids() for c in valid] == [("pf1",), ("pf2",), ("pf3",)]

    def test_interaction_free_model_full_product(self):
        vm = VariabilityModel(
            variation_points=(
                VariationPoint("x", "X", Layer.FUNCTIONAL),
                VariationPoint("y", "Y", Layer.FUNCTIONAL),
            ),
            variants=(
                Variant("x1", "X1", "x"), Variant("x2", "X2", "x"),
                Variant("y1", "Y1", "y"), Variant("y2", "Y2", "y"),
                Variant("y3", "Y3", "y"),
            ),
        )
        assert len(enumerate_valid(ProductLineModel(vm=vm))) == 6

    def test_budget_exceeded_reports_count(self, logistics_plm):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_valid(logistics_plm, budget=10)
        assert info.value.unconstrained == 32

    def test_results_subset_of_unconstrained_and_all_valid(self, engine_plm, logistics_plm):
        for plm in (engine_plm, logistics_plm):
            valid = enumerate_valid(plm)
            assert len(valid) <= unconstrained_count(plm.vm)
            for one in valid:
                assert validate_config(plm, one) == []


class TestCarriedSortedIds:
    """``enumerate_valid`` gives each configuration the tuple it sorted the
    list by; nothing else about the configuration may show it."""

    @pytest.fixture
    def enumerated(self, engine_plm, logistics_plm):
        valid = [c for plm in (engine_plm, logistics_plm, hierarchy_fixture())
                 for c in enumerate_valid(plm)]
        assert len(valid) == 2 + 16 + 3
        return valid

    def test_it_is_the_selection_sorted_and_the_same_object_each_time(self, enumerated):
        for c in enumerated:
            assert c.sorted_ids() == tuple(sorted(c.selection))
            assert c.sorted_ids() is c.sorted_ids()

    def test_it_is_not_sorted_again(self, enumerated, monkeypatch):
        expected = [tuple(sorted(c.selection)) for c in enumerated]
        monkeypatch.setattr(configs, "sorted", None, raising=False)  # a sort would raise
        assert [c.sorted_ids() for c in enumerated] == expected

    def test_a_configuration_built_otherwise_sorts_on_demand(self, monkeypatch):
        assert cfg("b", "c", "a").sorted_ids() == ("a", "b", "c")
        assert Configuration().sorted_ids() == ()
        monkeypatch.setattr(configs, "sorted", None, raising=False)
        with pytest.raises(TypeError):
            cfg("b", "a").sorted_ids()

    def test_it_equals_a_constructed_one_in_all_but_the_tuple(self, enumerated):
        for c in enumerated:
            fresh = Configuration(selection=c.selection)
            assert (c == fresh, hash(c), repr(c)) == (True, hash(fresh), repr(fresh))
            assert fields(c) == fields(fresh) and [f.name for f in fields(c)] == ["selection"]
            assert asdict(c) == asdict(fresh) == {"selection": c.selection}
            assert pickle.dumps(c) == pickle.dumps(fresh)
            again = pickle.loads(pickle.dumps(c))
            assert again == c and again.sorted_ids() == c.sorted_ids()

    def test_replace_sorts_the_new_selection(self, enumerated):
        c = enumerated[0]
        other = replace(c, selection=frozenset({"zz", "aa", "mm"}))
        assert other.sorted_ids() == ("aa", "mm", "zz")
        assert replace(c).sorted_ids() == c.sorted_ids()

    def test_its_selection_is_made_on_first_read_and_kept(self, enumerated):
        assert not any("selection" in vars(c) for c in enumerated)
        for c in enumerated:
            first = c.selection
            assert first == frozenset(c.sorted_ids()) and c.selection is first

    def test_the_class_default_is_still_the_empty_selection(self):
        assert Configuration.selection == fields(Configuration)[0].default == frozenset()
        assert Configuration() == cfg() and "selection" in vars(Configuration())

    def test_it_takes_no_frozenset_and_no_dict_of_its_own(self):
        """Built from its tuple alone, an enumerated configuration takes about
        half the bytes of one built with its frozenset. Once ``selection`` is
        read, it takes no more than one built in bulk with both, but for what
        is allocated once per list; had it a dict of its own, that would cost
        some 230 bytes more."""
        plm = grid(4)
        ids = [c.sorted_ids() for c in enumerate_valid(plm)]
        enumerated, alone = bytes_each(lambda: enumerate_valid(plm), len(ids))
        _, constructed = bytes_each(lambda: [cfg(*t) for t in ids], len(ids))
        assert alone < 0.75 * constructed
        _, read = bytes_each(lambda: sum(len(c.selection) for c in enumerated), len(ids))
        _, both = bytes_each(lambda: _build(
            Configuration, ("selection", "_sorted_ids"), len(ids),
            map(frozenset, ids), [tuple(sorted(t)) for t in ids]), len(ids))
        assert alone + read < 1.05 * both


def bytes_each(make, n: int):
    """What ``make()`` returns, and the bytes it holds by ``tracemalloc`` over ``n``."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[0] / n
    finally:
        tracemalloc.stop()


def interact(from_id, to_id):
    return Interaction(from_id=from_id, to_id=to_id, kind=InteractionKind.INFORMATION,
                       level=InteractionLevel.VARIANT)


def listed(plm):
    return [c.sorted_ids() for c in enumerate_valid(plm)]


class TestSearchEdgeCases:
    def test_active_vp_with_only_unbound_variants(self, engine_plm):
        # With bindings, no variant of "pf" binds an activity: nothing is valid.
        stripped = replace(engine_plm, bindings=tuple(
            b for b in engine_plm.bindings if not b.target_id.startswith("pf")))
        assert listed(stripped) == []

    def test_unbound_child_vp_ends_only_its_branch(self):
        plm = bind(hierarchy_fixture(), "r1", "r2")
        assert listed(plm) == [("r2",)]
        assert validate_config(plm, cfg("r1", "s1"))[0].invariant == "variant-unbound"

    def test_interaction_with_inactive_vp_is_vacuous(self):
        plm = hierarchy_fixture()
        plm = replace(plm, vm=replace(plm.vm, variant_interactions=(interact("r2", "s1"),)))
        # Under r1, "sub" is active and s1 would need r2; under r2 it is inactive.
        assert listed(plm) == [("r1", "s2"), ("r2",)]

    def test_interaction_within_one_vp(self):
        vm = VariabilityModel(
            variation_points=(VariationPoint("x", "X", Layer.FUNCTIONAL),),
            variants=(Variant("x1", "X1", "x"), Variant("x2", "X2", "x"),
                      Variant("x3", "X3", "x")),
            variant_interactions=(interact("x1", "x2"),),
        )
        plm = ProductLineModel(vm=vm)
        message = ("^model violates model invariants: interaction-distinct-vps "
                   r"\[x1, x2\]: variant interaction connects 'x1' and 'x2' of the "
                   "same variation point 'x'$")
        for call in (lambda: listed(plm), lambda: validate_config(plm, cfg("x1"))):
            with pytest.raises(ModelError, match=message):
                call()

    def test_vp_without_variants_empties_the_space_at_once(self):
        # Twenty two-way roots, then one with no variants: the budget lets the
        # empty space through, and the search must not walk the 2**20 before it.
        vm = VariabilityModel(
            variation_points=tuple(
                VariationPoint(f"x{i:02d}", "X", Layer.FUNCTIONAL) for i in range(21)),
            variants=tuple(
                Variant(f"x{i:02d}.{j}", "X", f"x{i:02d}") for i in range(20) for j in range(2)),
        )
        assert unconstrained_count(vm) == 0
        assert enumerate_valid(ProductLineModel(vm=vm)) == []

    def test_model_without_variation_points(self):
        assert enumerate_valid(ProductLineModel()) == [Configuration()]


@pytest.fixture
def leaves_walked(monkeypatch):
    """The leaves ``configs._leaves`` yields from now until the test ends, one
    ``None`` each."""
    walked, leaves = [], configs._leaves

    def counted(*args):
        for leaf in leaves(*args):
            walked.append(None)
            yield leaf

    monkeypatch.setattr(configs, "_leaves", counted)
    return walked


class TestRootGroups:
    GROUPS = [("r0", "r1"), ("r2", "r3"), ("r4",)]

    def test_groups_in_root_order(self):
        assert configs._search_space(forest_of_components(), None)[3] == self.GROUPS

    def test_groups_do_not_depend_on_the_hash_seed(self):
        code = ("from modelgen import forest_of_components; from ovmkit import configs; "
                "print(configs._search_space(forest_of_components(), None)[3])")
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join((os.path.dirname(os.path.dirname(configs.__file__)), here))
        for seed in ("0", "1", "2"):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                                  "PYTHONPATH": path}).stdout
            assert out == f"{self.GROUPS}\n"

    def test_count_walks_each_group_once(self, leaves_walked):
        # 82^3 = 551,368 valid selections, from three walks of 82 leaves each.
        assert count_valid(paired_grid(6)) == 82 ** 3
        assert len(leaves_walked) == 3 * 82

    def test_enumeration_walks_each_group_once(self, leaves_walked):
        listed = [c.sorted_ids() for c in enumerate_valid(paired_grid(4))]
        assert len(leaves_walked) == 2 * 82
        assert listed == sorted(set(listed)) and len(listed) == 82 ** 2
        assert all(ids == tuple(sorted(ids)) for ids in listed)

    def test_a_space_with_no_interaction_is_counted_without_a_walk(self, leaves_walked):
        # The recurrence over the choices counts it: six groups of ten selections,
        # and one root whose single variant is refined by five roots of ten.
        plm = grid(5)
        one_root = replace(plm, vm=replace(
            plm.vm,
            variation_points=(*plm.vm.variation_points, VariationPoint("r", "R", Layer.FEATURE)),
            variants=(*plm.vm.variants, Variant("r.0", "R.0", "r")),
            refinements=tuple(VariabilityRefinement(vp.id, "r.0")
                              for vp in plm.vm.variation_points)))
        assert len(configs._search_space(grid(6), None)[3]) == 6
        assert configs._search_space(one_root, None)[3] == [("r",)]
        assert count_valid(grid(6)) == 10 ** 6 and count_valid(one_root) == 10 ** 5
        assert leaves_walked == []

    def test_an_empty_space_walks_nothing(self, leaves_walked):
        # Five roots of ten variants, joined in pairs, and one with none: no
        # selection, so the budget admits it, and no group may be walked.
        plm = paired_grid(5)
        plm = replace(plm, vm=replace(plm.vm, variation_points=(
            *plm.vm.variation_points, VariationPoint("g00005", "G00005", Layer.FEATURE))))
        assert unconstrained_count(plm.vm) == 0
        assert enumerate_valid(plm) == [] and count_valid(plm) == 0
        assert leaves_walked == []


class TestSubsetOracle:
    """Exhaustive subset enumeration, written independently of the library's
    activation-driven generator."""

    def brute_force(self, plm):
        ids = [v.id for v in plm.vm.variants]
        found = []
        for mask in itertools.product((False, True), repeat=len(ids)):
            chosen = frozenset(i for i, take in zip(ids, mask) if take)
            if not validate_config(plm, Configuration(selection=chosen)):
                found.append(tuple(sorted(chosen)))
        return sorted(found)

    def test_engine(self, engine_plm):
        assert self.brute_force(engine_plm) == [
            c.sorted_ids() for c in enumerate_valid(engine_plm)]

    def test_logistics(self, logistics_plm):
        got = [c.sorted_ids() for c in enumerate_valid(logistics_plm)]
        assert len(got) == 16
        assert self.brute_force(logistics_plm) == got

    def test_hierarchy(self):
        plm = hierarchy_fixture()
        assert self.brute_force(plm) == [
            c.sorted_ids() for c in enumerate_valid(plm)]


class TestClosureRuleOracle:
    """The flat engine case replayed against a hand-written closure rule."""

    EDGES = (("p3", "s3"), ("s3", "pf3"), ("p2", "s2"), ("s2", "pf2"))

    def test_all_twelve_selections(self, engine_plm):
        expected = []
        for p, s, f in itertools.product(
                ("p2", "p3"), ("s2", "s3"), ("pf1", "pf2", "pf3")):
            chosen = {p, s, f}
            if all((a in chosen) == (b in chosen) for a, b in self.EDGES):
                expected.append(tuple(sorted(chosen)))
        assert sorted(expected) == [
            c.sorted_ids() for c in enumerate_valid(engine_plm)]


class TestMergePairingPreservesValidity:
    def test_engine_pre_merge_maps_into_post_merge(self, engine_plm):
        reduced, trace = reduce(engine_plm)
        before = enumerate_valid(engine_plm)
        after = {c.sorted_ids() for c in enumerate_valid(reduced)}
        for one in before:
            mapped = set(one.selection)
            for record in trace.merges:
                pairing = record.pairing()
                mapped = {pairing.get(v, v) for v in mapped}
            assert tuple(sorted(mapped)) in after


class TestBudgetDefault:
    def test_env_override(self, monkeypatch):
        monkeypatch.delenv("PLSE_BUDGET", raising=False)
        assert default_budget() == 10**6
        monkeypatch.setenv("PLSE_BUDGET", "123")
        assert default_budget() == 123

    @pytest.mark.parametrize("call", [
        lambda plm: count_valid(plm, 0), lambda plm: enumerate_valid(plm, -1),
        lambda plm: build_report(plm, plm, None, budget=0)],
        ids=["count_valid", "enumerate_valid", "build_report"])
    def test_a_non_positive_budget_is_refused(self, logistics_plm, call):
        with pytest.raises(Exception) as exc:
            call(logistics_plm)
        assert type(exc.value) is ModelError
        assert str(exc.value) == "budget must be positive"

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("PLSE_BUDGET", "lots")
        with pytest.raises(ModelError):
            default_budget()
        monkeypatch.setenv("PLSE_BUDGET", "0")
        with pytest.raises(ModelError):
            default_budget()
