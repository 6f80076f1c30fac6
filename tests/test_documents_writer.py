"""The text writer and the normalisation it relies on.

``serialize`` writes each record's text directly from its field table. Its
bytes must be exactly those of the frozen writer in ``reference_documents``,
which is ``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)``
plus a newline over plain dicts. The models here are drawn, not derived, so
they need not be valid: the writer never validates. Their strings carry
non-ASCII and control characters, quotes, backslashes and astral
characters, but no lone surrogate, which has no UTF-8 form.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_documents
from ovmkit import corpus_dir, documents
from ovmkit.configs import Configuration
from ovmkit.documents import serialize
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
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    _KEYS,
    _sorted_unique,
)
from ovmkit.reduction import MergeRecord, ReductionTrace

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SPECIAL = ('"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\x80",
           "\u2028", "\u2029", "\ufeff", "é", "ß", "中", "\U0001F600", "\U00010348")
CHARS = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(SPECIAL)
TEXT = st.text(CHARS, min_size=1, max_size=4)
IDS = st.sampled_from(("a", "b", "c")) | TEXT  # repeats make ties and duplicates
SMALL = {"max_size": 4}

activities = st.builds(Activity, IDS, TEXT, st.sampled_from(Layer), IDS, st.booleans(),
                       st.none() | TEXT)
artifacts = st.builds(FunctionalArtifact, IDS, st.sampled_from(Layer),
                      st.lists(IDS, **SMALL).map(tuple))
refinements = st.builds(Refinement, IDS, IDS, st.sampled_from(RefinementKind))


def interactions(level: InteractionLevel):
    return st.builds(Interaction, IDS, IDS, st.sampled_from(InteractionKind), st.just(level),
                     st.booleans())


layered_models = st.builds(
    LayeredModel, *(st.lists(s, **SMALL).map(tuple) for s in (
        artifacts, activities, refinements, interactions(InteractionLevel.ARTIFACT))))
products = st.builds(Product, IDS, st.lists(IDS, **SMALL).map(tuple))
product_sets = st.none() | st.builds(ProductSet, st.lists(products, **SMALL).map(tuple))
variation_points = st.builds(VariationPoint, IDS, TEXT, st.sampled_from(Layer))
variants = st.builds(Variant, IDS, TEXT, IDS)
variability_refinements = st.builds(VariabilityRefinement, IDS, IDS)
variability_models = st.builds(
    VariabilityModel, *(st.lists(s, **SMALL).map(tuple) for s in (
        variation_points, variants, interactions(InteractionLevel.VARIANT),
        variability_refinements)))
bindings = st.builds(Binding, st.sampled_from(BindingKind), IDS, IDS)
# An empty layered model without bindings is written as a variability model,
# anything else as a product-line model.
product_line_models = st.builds(
    ProductLineModel, variability_models, st.just(LayeredModel()) | layered_models,
    st.lists(bindings, **SMALL).map(tuple))
merge_records = st.builds(
    MergeRecord, IDS, IDS, st.lists(st.tuples(IDS, IDS), **SMALL).map(tuple),
    *(st.lists(st.tuples(*[IDS] * n), **SMALL).map(tuple) for n in (3, 3, 4)))
traces = st.builds(ReductionTrace, st.lists(merge_records, max_size=2).map(tuple),
                   st.integers(0, 10**12))
configurations = st.builds(Configuration, st.frozensets(IDS, **SMALL))

WRITER = settings(deadline=None, max_examples=80, database=None)


def check_writer(value, products=None) -> None:
    kwargs = {} if products is None else {"products": products}
    data = serialize(value, **kwargs)
    assert data == reference_documents.serialize(value, **kwargs)
    doc = json.loads(data)
    assert data == (json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode()


@WRITER
@given(layered_models, product_sets)
def test_layered_text_equals_json_dumps(model, products):
    check_writer(model, products)


@WRITER
@given(product_line_models)
def test_product_line_and_variability_text_equals_json_dumps(plm):
    check_writer(plm)


@WRITER
@given(traces)
def test_trace_text_equals_json_dumps(trace):
    check_writer(trace)


@WRITER
@given(configurations)
def test_configuration_text_equals_json_dumps(config):
    check_writer(config)


def test_empty_collections_and_absent_optional_fields():
    act = Activity("a", "A", Layer.FEATURE, "f", True)
    inter = Interaction("a", "b", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT)
    for value, products in (
            (LayeredModel(), None), (LayeredModel(), ProductSet()),
            (LayeredModel(activities=(act,), interactions=(inter,)),
             ProductSet((Product("p", ()),))),
            (ProductLineModel(), None), (ProductLineModel(artifacts=LayeredModel(
                artifacts=(FunctionalArtifact("f", Layer.FEATURE, ()),))), None),
            (ReductionTrace(), None), (ReductionTrace((MergeRecord("s", "t", (), (), (), ()),)), None),
            (Configuration(), None)):
        check_writer(value, products)
    text = serialize(LayeredModel(activities=(act,), interactions=(inter,))).decode()
    assert '"group"' not in text and '"requires"' not in text
    assert '"bindings"' not in serialize(ProductLineModel()).decode()


# -- records at depth ---------------------------------------------------------
# Each table writes its records at the indentation they end up at, so one
# table is written at several depths: these cases pin each depth and each
# optional row against ``json.dumps``.

GROUPED = Activity("a", "A", Layer.FUNCTIONAL, "f", False, group="G")
PLAIN = Activity("b", "B", Layer.FUNCTIONAL, "f", True)
FLOWS = (Interaction("a", "b", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT),
         Interaction("b", "a", InteractionKind.INFORMATION, InteractionLevel.ARTIFACT,
                     requires=True))
ACTIVITIES = LayeredModel(artifacts=(FunctionalArtifact("f", Layer.FUNCTIONAL, ("a", "b")),),
                          activities=(GROUPED, PLAIN), interactions=FLOWS)
VM = VariabilityModel(
    variation_points=(VariationPoint("x", "X", Layer.FUNCTIONAL),
                      VariationPoint("y", "Y", Layer.FEATURE)),
    variants=(Variant("x1", "X1", "x"), Variant("y1", "Y1", "y")),
    variant_interactions=(
        Interaction("x1", "y1", InteractionKind.MATERIAL, InteractionLevel.VARIANT),
        Interaction("y1", "x1", InteractionKind.MATERIAL, InteractionLevel.VARIANT,
                    requires=True)),
    refinements=(VariabilityRefinement("y", "x1"),))
MERGES = (MergeRecord("s", "t", (), (), (), ()),
          MergeRecord("s", "t", (("t1", "s1"), ("t2", "s1")), (("a", "t1", "s1"),),
                      (("y", "t2", "s1"),), (("t1", "z1", "s1", "z1"),)))


def test_one_table_written_at_two_depths():
    """The activity table in a layered-model document, then one level deeper
    in a product-line document; its templates are made once per depth."""
    layered, plm = ACTIVITIES, ProductLineModel(artifacts=ACTIVITIES)
    check_writer(layered)
    check_writer(plm)
    assert '\n        "group": "G",\n' in serialize(layered).decode()
    assert '\n          "group": "G",\n' in serialize(plm).decode()
    made = documents._ACTIVITY.writer.cache_info()
    serialize(layered), serialize(plm)
    assert documents._ACTIVITY.writer.cache_info().misses == made.misses


@pytest.mark.parametrize("value, products", [
    (ACTIVITIES, None),  # group and requires present and absent, no products row
    (LayeredModel(activities=(PLAIN,)), None),  # no group anywhere, no interactions
    (ACTIVITIES, ProductSet((Product("p", ("a",)), Product("q", ())))),
    (ACTIVITIES, ProductSet()),  # an empty products row
    (ProductLineModel(vm=VM), None),  # no bindings row: a variability-model document
    (ProductLineModel(vm=VM, artifacts=ACTIVITIES), None),  # no bindings row, two levels
    (ProductLineModel(vm=VM, artifacts=ACTIVITIES, bindings=(
        Binding(BindingKind.ACTIVITY_VARIANT, "a", "x1"),
        Binding(BindingKind.ARTIFACT_VP, "f", "x"))), None),
    (ProductLineModel(vm=VariabilityModel(variants=(Variant("x1", "X1", "x"),)), artifacts=(
        LayeredModel(artifacts=(FunctionalArtifact("f", Layer.FEATURE, ()),)))), None),
], ids=["layered", "layered-plain", "products", "no-products", "variability",
        "product-line", "bindings", "empty-at-depth"])
def test_optional_rows_and_empty_collections_at_depth(value, products):
    check_writer(value, products)


@pytest.mark.parametrize("merges", [(), MERGES[:1], MERGES[1:], MERGES],
                         ids=["none", "empty", "full", "both"])
def test_trace_sub_records_empty_and_not(merges):
    check_writer(ReductionTrace(merges, 3))
    text = serialize(ReductionTrace(merges, 3)).decode()
    assert ('\n        "pairing": {},\n' in text) == (MERGES[0] in merges)
    assert ('\n          "t1": "s1",\n' in text) == (MERGES[1] in merges)


# -- normalisation ------------------------------------------------------------

def shuffled(items, rng: random.Random) -> tuple:
    """``items`` in a random order, some of them twice."""
    out = list(items) + [x for x in items if rng.random() < 0.3]
    rng.shuffle(out)
    return tuple(out)


def scrambled_layered(model: LayeredModel, rng) -> LayeredModel:
    return LayeredModel(
        artifacts=shuffled((FunctionalArtifact(a.id, a.layer, shuffled(a.activity_ids, rng))
                            for a in model.artifacts), rng),
        activities=shuffled(model.activities, rng),
        refinements=shuffled(model.refinements, rng),
        interactions=shuffled(model.interactions, rng))


def scrambled_plm(plm: ProductLineModel, rng) -> ProductLineModel:
    vm = plm.vm
    return ProductLineModel(
        vm=VariabilityModel(
            variation_points=shuffled(vm.variation_points, rng),
            variants=shuffled(vm.variants, rng),
            variant_interactions=shuffled(vm.variant_interactions, rng),
            refinements=shuffled(vm.refinements, rng)),
        artifacts=scrambled_layered(plm.artifacts, rng),
        bindings=shuffled(plm.bindings, rng))


@settings(deadline=None, max_examples=40, database=None)
@given(layered_models, product_sets, product_line_models, st.randoms(use_true_random=False))
def test_shuffled_and_duplicated_input_normalizes_to_the_same_model(model, products, plm, rng):
    again = scrambled_layered(model, rng)
    assert again == model and serialize(again) == serialize(model)
    if products is not None:
        more = ProductSet(shuffled((Product(p.id, shuffled(p.includes, rng))
                                    for p in products.products), rng))
        assert more == products
        assert serialize(again, products=more) == serialize(model, products=products)
    again = scrambled_plm(plm, rng)
    assert again == plm and serialize(again) == serialize(plm)


RECORDS = {
    Activity: activities, FunctionalArtifact: artifacts, Refinement: refinements,
    Interaction: interactions(InteractionLevel.ARTIFACT) | interactions(InteractionLevel.VARIANT),
    VariationPoint: variation_points, Variant: variants, Binding: bindings,
    VariabilityRefinement: variability_refinements, Product: products}


@settings(deadline=None, max_examples=60, database=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_order_decided_on_the_leading_field_equals_a_full_sort(data, rng):
    """Ids repeat, so leading fields tie and the full key decides."""
    for cls, records in RECORDS.items():
        items = tuple(data.draw(st.lists(records, max_size=6), label=cls.__name__))
        expected = tuple(sorted(set(items), key=_KEYS[cls]))
        for given_items in (items, shuffled(items, rng), expected):
            assert _sorted_unique(given_items, cls) == expected
        assert _sorted_unique(expected, cls) is expected


def test_canonical_input_is_kept_as_given():
    variants = (Variant("x1", "X1", "x"), Variant("x2", "X2", "x"))
    assert VariabilityModel(variants=variants).variants is variants


def test_every_record_type_sorts_and_deduplicates():
    rng = random.Random(7)
    grouped = Activity("a", "A", Layer.FUNCTIONAL, "f", False, group="G")
    ungrouped = Activity("a", "A", Layer.FUNCTIONAL, "f", False)
    other = Activity("b", "B", Layer.FUNCTIONAL, "f", True)
    layered = LayeredModel(
        artifacts=(FunctionalArtifact("f", Layer.FUNCTIONAL, ("a", "b")),
                   FunctionalArtifact("g", Layer.FEATURE, ())),
        activities=(ungrouped, grouped, other),
        refinements=(Refinement("f", "x", RefinementKind.FEATURE),
                     Refinement("f", "y", RefinementKind.FEATURE)),
        interactions=(Interaction("a", "b", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT),
                      Interaction("a", "b", InteractionKind.MATERIAL, InteractionLevel.ARTIFACT,
                                  requires=True)))
    assert layered.activities == (ungrouped, grouped, other)
    plm = ProductLineModel(
        vm=VariabilityModel(
            variation_points=(VariationPoint("x", "X", Layer.FEATURE),
                              VariationPoint("y", "Y", Layer.FEATURE)),
            variants=(Variant("x1", "X1", "x"), Variant("y1", "Y1", "y")),
            variant_interactions=(Interaction("x1", "y1", InteractionKind.INFORMATION,
                                              InteractionLevel.VARIANT),),
            refinements=(VariabilityRefinement("y", "x1"),)),
        artifacts=layered,
        bindings=(Binding(BindingKind.ACTIVITY_VARIANT, "a", "x1"),
                  Binding(BindingKind.ARTIFACT_VP, "f", "x")))
    products = ProductSet((Product("p", ("a", "b")), Product("q", ("b",))))
    for _ in range(20):
        again = scrambled_plm(plm, rng)
        assert again == plm
        assert again.artifacts.activities == (ungrouped, grouped, other)
        assert serialize(again) == serialize(plm)
        assert ProductSet(shuffled(products.products, rng)) == products


def test_no_table_has_an_optional_row_last_in_key_order():
    # The writer places an optional row's text before the next required row's,
    # so one with none after it would be dropped from the text without an error.
    tables = [obj for obj in gc.get_objects() if isinstance(obj, documents._Table)]
    rows = [table.writer.__wrapped__.args[0] for table in tables]  # in key order
    assert len(tables) >= 20
    assert any(row[3] is not documents._REQUIRED for key_rows in rows for row in key_rows)
    assert [key_rows[-1][0] for key_rows in rows
            if key_rows[-1][3] is not documents._REQUIRED] == []


# -- the corpus builder -------------------------------------------------------

def test_corpus_builder_reproduces_every_shipped_file():
    spec = importlib.util.spec_from_file_location("build_corpora", TOOLS / "build_corpora.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    built = builder.corpus_files()
    shipped = {path.relative_to(corpus_dir()).as_posix(): path.read_bytes()
               for path in corpus_dir().rglob("*.json")}
    assert sorted(built) == sorted(shipped)
    for name, data in built.items():
        assert data == shipped[name], name
