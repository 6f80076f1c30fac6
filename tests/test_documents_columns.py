"""Arrays of records read and written a column at a time.

The documents layer reads an array of records one field at a time over all
items and gives up at the first doubt, reading the array again record by
record to raise the error of its first fault. These tests put faults into
the first, a middle and the last record of every kind of array and check
that ``documents`` and the frozen ``reference_documents`` give the same
outcome: equal values, or a ``ParseError`` with the same text. Two faults
are carved out, each checked for its own text: junk in a trace sub-record,
which the reference ignored, and a group label on a mandatory activity,
which ``validate`` reports where the reference's reader did. The fault
values include ``0``, ``1``, ``1.0``, ``true`` and ``false``, which Python
equality mixes up (``True == 1``, ``0 == False``, ``1.0 == 1``), so the
readers' checks by exact type are pinned here.

A record read a column at a time must be the record its constructor
builds, down to the order its fields were set in.

The writer fills one template per record shape a column at a time. Its
bytes must equal the reference writer's at array sizes 0, 1, 2 and 50,
with optional fields present and absent and with empty and non-empty lists,
and ids and names holding ``%`` or template braces are written as they are.
"""

from __future__ import annotations

import copy
import json

import pytest

import reference_documents
from ovmkit import documents
from ovmkit.configs import Configuration
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
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
)
from ovmkit.reduction import MergeRecord, ReductionTrace

FAULT_VALUES = (None, 0, 1, 1.0, True, False, "", [], {})
NOT_OBJECTS = (None, 0, 1.5, True, "x", [], ["id"])
ENUM_KEYS = {"layer", "kind", "level"}


def _activity(i, layer, artifact, mandatory, group=None):
    record = {"id": i, "name": i.upper(), "layer": layer, "artifact": artifact,
              "mandatory": mandatory}
    return record if group is None else {**record, "group": group}


def _layered_body() -> dict:
    """A valid layered model: three artifacts on three layers, refinements
    of both kinds and interactions with and without ``requires``."""
    return {
        "activities": [
            _activity("f1", "feature", "F", True), _activity("f2", "feature", "F", False, "g"),
            _activity("f3", "feature", "F", False),
            _activity("u1", "functional", "U", False, "h"),
            _activity("u2", "functional", "U", True), _activity("u3", "functional", "U", False),
            _activity("c1", "component", "C", False), _activity("c2", "component", "C", False),
            _activity("c3", "component", "C", True)],
        "artifacts": [
            {"id": "C", "layer": "component", "activities": ["c1", "c2", "c3"]},
            {"id": "F", "layer": "feature", "activities": ["f1", "f2", "f3"]},
            {"id": "U", "layer": "functional", "activities": ["u1", "u2", "u3"]}],
        "refinements": [
            {"child_artifact": "C", "parent_activity": "u1", "kind": "functional"},
            {"child_artifact": "U", "parent_activity": "f1", "kind": "feature"},
            {"child_artifact": "U", "parent_activity": "f2", "kind": "feature"}],
        "interactions": [
            {"from": "c1", "to": "c2", "kind": "information", "requires": True},
            {"from": "f1", "to": "f2", "kind": "material"},
            {"from": "f2", "to": "f3", "kind": "information", "requires": False},
            {"from": "u1", "to": "u2", "kind": "material"}],
    }


def _variability_body(bindings: list) -> dict:
    return {
        "variation_points": [{"id": vp, "name": vp.lower(), "level": level} for vp, level in (
            ("A", "feature"), ("B", "functional"), ("C", "component"), ("D", "component"))],
        "variants": [{"id": v, "name": v.upper(), "vp": v[0].upper()}
                     for v in ("a1", "a2", "b1", "b2", "c1", "d1")],
        "refinements": [{"child_vp": "B", "parent_variant": "a1"},
                        {"child_vp": "C", "parent_variant": "b1"},
                        {"child_vp": "D", "parent_variant": "a2"}],
        "interactions": [
            {"from": "a1", "to": "c1", "kind": "material"},
            {"from": "a2", "to": "b2", "kind": "material", "requires": True},
            {"from": "b1", "to": "d1", "kind": "information"}],
        "bindings": bindings,
    }


ACTIVITY_BINDINGS = [{"activity": "f2", "variant": "a1"}, {"activity": "f3", "variant": "a2"},
                     {"activity": "u3", "variant": "b1"}]
ARTIFACT_BINDINGS = [{"artifact": "C", "vp": "C"}, {"artifact": "F", "vp": "A"},
                     {"artifact": "U", "vp": "B"}]


def _trace_body() -> dict:
    return {"pass_count": 2, "merges": [{
        "source_vp": f"s{m}", "target_vp": f"t{m}", "pairing": {"x": "y", "z": "w"},
        "rebound_bindings": [{"activity": f"a{i}", "from_variant": "x", "to_variant": "y"}
                             for i in range(3)],
        "transferred_refinements": [{"child_vp": f"c{i}", "from_parent": "x", "to_parent": "y"}
                                    for i in range(3)],
        "transferred_interactions": [{"from": f"f{i}", "to": "t", "new_from": "nf",
                                      "new_to": "nt"} for i in range(3)],
    } for m in range(3)]}


def _envelope(kind: str, body: dict) -> dict:
    return {"schema_version": "1", "kind": kind, "body": body}


# (name, parser, document, path of every record array in it)
BASES = (
    ("layered", "parse_layered_model",
     _envelope("layered-model", {**_layered_body(), "products": [
         {"id": "p1", "includes": ["f1", "u1"]}, {"id": "p2", "includes": []},
         {"id": "p3", "includes": ["c1", "c2", "c3"]}]}),
     [("activities",), ("artifacts",), ("refinements",), ("interactions",), ("products",)]),
    ("activity-bindings", "parse_variability_model",
     _envelope("product-line-model", {"layered": _layered_body(),
                                      "variability": _variability_body(ACTIVITY_BINDINGS)}),
     [("variability", key) for key in (
         "variation_points", "variants", "refinements", "interactions", "bindings")]),
    ("artifact-bindings", "parse_variability_model",
     _envelope("product-line-model", {"layered": _layered_body(),
                                      "variability": _variability_body(ARTIFACT_BINDINGS)}),
     [("variability", "bindings")]),
    ("trace", "parse_trace", _envelope("reduction-trace", _trace_body()),
     [("merges",)] + [("merges", m, key) for m in (0, 2) for key in (
         "rebound_bindings", "transferred_refinements", "transferred_interactions")]),
)


def _outcome(module, parser: str, doc: dict):
    try:
        return "ok", getattr(module, parser)(json.dumps(doc).encode())
    except ModelError as exc:
        return type(exc), str(exc)


def _array(doc: dict, path: tuple) -> list:
    node = doc["body"]
    for key in path:
        node = node[key]
    return node


def _faults(record: dict):
    """Every faulty or edited copy of one record, with a label."""
    for key in record:
        for value in FAULT_VALUES + (("bogus", "material") if key in ENUM_KEYS else ()):
            yield f"{key}={value!r}", {**record, key: value}
        yield f"no {key}", {k: v for k, v in record.items() if k != key}
    yield "junk", {**record, "junk": 1}
    if "mandatory" in record:
        yield "group null", {**record, "group": None}
        yield "group on mandatory", {**record, "mandatory": True, "group": "g"}
    for value in NOT_OBJECTS:
        yield f"item {value!r}", value


# (label, parser, document, path) for every record array of the base documents
ARRAYS = [(f"{name}:{'.'.join(map(str, path))}", parser, doc, path)
          for name, parser, doc, paths in BASES for path in paths]


def _with(doc: dict, path: tuple, position: int, record) -> dict:
    doc = copy.deepcopy(doc)
    _array(doc, path)[position] = record
    return doc


def _serialize(module, value) -> bytes:
    if isinstance(value, tuple):
        model, products = value
        return module.serialize(model, products=products)
    return module.serialize(value)


def _check_same(parser: str, doc: dict, label: str = ""):
    new = _outcome(documents, parser, doc)
    assert new == _outcome(reference_documents, parser, doc), label
    if new[0] == "ok":
        assert _serialize(documents, new[1]) == _serialize(reference_documents, new[1])
    return new


def test_the_base_documents_are_valid_and_agree():
    for _, parser, doc, paths in BASES:
        assert _check_same(parser, doc)[0] == "ok"
        assert all(len(_array(doc, path)) >= 3 for path in paths)


def test_valid_arrays_take_the_column_path(monkeypatch):
    """Only the trace's merge records are read one by one (their pairing
    has no column reader); every other array is read a column at a time."""
    paths = []
    read = documents._Table.read
    monkeypatch.setattr(documents._Table, "read",
                        lambda self, raw, where: paths.append(where) or read(self, raw, where))
    for _, parser, doc, _ in BASES:
        assert _outcome(documents, parser, doc)[0] == "ok"
    assert [p for p in paths if "[" in p] == [f"body.merges[{m}]" for m in range(3)]


@pytest.mark.parametrize("parser, doc, path", [array[1:] for array in ARRAYS],
                         ids=[array[0] for array in ARRAYS])
def test_one_faulty_record_gives_the_reference_outcome(parser, doc, path):
    size = len(_array(doc, path))
    for position in (0, size // 2, size - 1):
        for label, faulty in _faults(_array(doc, path)[position]):
            faulty_doc = _with(doc, path, position, faulty)
            if len(path) == 3 and label == "junk":
                # The reference ignored junk in trace sub-records; this reader rejects it.
                where = f"body.merges[{path[1]}].{path[2]}[{position}]"
                assert _outcome(documents, parser, faulty_doc) == (
                    documents.ParseError, f"{where}: unknown field 'junk'"), label
            elif label == "group on mandatory":
                # The reference's reader refused this; here ``validate`` does.
                assert _outcome(documents, parser, faulty_doc) == (
                    documents.ParseError, "document violates model invariants: "
                    f"activity-mandatory-group [{faulty['id']}]: mandatory activity "
                    f"{faulty['id']!r} cannot carry a group label"), label
                ungrouped = {key: value for key, value in faulty.items() if key != "group"}
                _check_same(parser, _with(doc, path, position, ungrouped),
                            f"[{position}] {label}, group removed")
            else:
                _check_same(parser, faulty_doc, f"[{position}] {label}")


def test_two_faulty_records_report_the_first():
    doc = BASES[0][2]
    items = _array(doc, ("activities",))
    # The later record's fault is in an earlier row: record order decides.
    twice = _with(_with(doc, ("activities",), 1, {**items[1], "name": 0}),
                  ("activities",), 7, {**items[7], "mandatory": 1})
    assert _check_same("parse_layered_model", twice) == (
        documents.ParseError, "body.activities[1].name must be a non-empty string")
    twice = _with(_with(doc, ("interactions",), 0, {**_array(doc, ("interactions",))[0],
                                                    "requires": 0}),
                  ("interactions",), 3, {"from": "u1", "to": "u2"})
    assert _check_same("parse_layered_model", twice) == (
        documents.ParseError, "body.interactions[0].requires must be a boolean")


def test_an_unknown_key_in_a_long_array_reports_the_first_error():
    """One unknown key among 2,000 records refuses the column read; a
    faulty record before it is still the one named."""
    base = _envelope("variability-model", {"variation_points": [
        {"id": f"p{i:04d}", "name": "p", "level": "feature"} for i in range(2000)]})
    path = ("variation_points",)
    for position in (0, 1234, 1999):
        doc = _with(base, path, position, {**_array(base, path)[position], "color": "red"})
        assert _check_same("parse_variability_model", doc) == (
            documents.ParseError, f"body.variation_points[{position}]: unknown field 'color'")
        if position:
            doc = _with(doc, path, position - 1, {**_array(base, path)[position - 1], "name": ""})
            assert _check_same("parse_variability_model", doc) == (
                documents.ParseError,
                f"body.variation_points[{position - 1}].name must be a non-empty string")


@pytest.mark.parametrize("key, value, message", [
    ("mandatory", 1, "body.activities[4].mandatory must be a boolean"),
    ("mandatory", 0, "body.activities[4].mandatory must be a boolean"),
    ("mandatory", 1.0, "body.activities[4].mandatory must be a boolean"),
    ("name", True, "body.activities[4].name must be a non-empty string"),
    ("layer", False, "body.activities[4].layer must be a non-empty string"),
])
def test_equal_but_wrongly_typed_values_are_rejected(key, value, message):
    doc = _with(BASES[0][2], ("activities",), 4, {**_array(BASES[0][2], ("activities",))[4],
                                                   key: value})
    assert _check_same("parse_layered_model", doc) == (documents.ParseError, message)


def _built_alike(got, want) -> None:
    """Same type, equality, hash and text; a dataclass's fields also set in
    the same order to the same values."""
    assert (type(got), got, hash(got), repr(got)) == (type(want), want, hash(want), repr(want))
    if not isinstance(want, tuple):
        assert list(vars(got).items()) == list(vars(want).items())


def _record_reads(monkeypatch) -> list[str]:
    """The places of the records ``_Table.read`` reads one by one from now on."""
    per_record = []
    read = documents._Table.read
    monkeypatch.setattr(documents._Table, "read",
                        lambda self, raw, where: per_record.append(where) or read(self, raw, where))
    return per_record


def _reread(value, edit=None, **kwargs):
    """``value`` written, its JSON passed through ``edit``, and read back."""
    doc = json.loads(documents.serialize(value, **kwargs))
    if edit:
        edit(doc["body"])
    parser = {LayeredModel: "parse_layered_model", ProductLineModel: "parse_variability_model",
              ReductionTrace: "parse_trace"}[type(value)]
    return getattr(documents, parser)(json.dumps(doc).encode())


def test_a_column_read_record_equals_one_its_constructor_builds(monkeypatch):
    """Every table with a column reader: activities with and without a group,
    an artifact whose activities arrive unsorted and repeated (its
    ``__post_init__`` sorts them), interactions at both levels, bindings of
    both kinds, and the trace's tuple records."""
    feature, functional = Layer.FEATURE, Layer.FUNCTIONAL
    material, information = InteractionKind.MATERIAL, InteractionKind.INFORMATION
    layered = LayeredModel(
        artifacts=(FunctionalArtifact("F", feature, ("f2", "f1", "f2")),
                   FunctionalArtifact("U", functional, ("u1",))),
        activities=(Activity("f1", "one", feature, "F", True),
                    Activity("f2", "two", feature, "F", False, "g"),
                    Activity("u1", "three", functional, "U", False)),
        refinements=(Refinement("U", "f1", RefinementKind.FEATURE),),
        interactions=(Interaction("f1", "f2", material, InteractionLevel.ARTIFACT, True),
                      Interaction("f2", "f1", information, InteractionLevel.ARTIFACT)))
    products = ProductSet((Product("p", ("f2", "f1")),))
    vm = VariabilityModel(
        variation_points=(VariationPoint("A", "a", feature), VariationPoint("B", "b", functional)),
        variants=(Variant("a1", "A1", "A"), Variant("a2", "A2", "A"), Variant("b1", "B1", "B")),
        variant_interactions=(Interaction("a2", "b1", material, InteractionLevel.VARIANT, True),
                              Interaction("b1", "a1", information, InteractionLevel.VARIANT)),
        refinements=(VariabilityRefinement("B", "a1"),))
    plms = [ProductLineModel(vm, layered, (Binding(BindingKind.ACTIVITY_VARIANT, "f2", "a1"),
                                           Binding(BindingKind.ACTIVITY_VARIANT, "u1", "b1"))),
            ProductLineModel(vm, layered, (Binding(BindingKind.ARTIFACT_VP, "F", "A"),
                                           Binding(BindingKind.ARTIFACT_VP, "U", "B")))]
    trace = ReductionTrace((MergeRecord(
        "A", "B", (("b1", "a1"),), (("u1", "b1", "a1"),), (("C", "b1", "a1"),),
        (("b1", "x", "a1", "x"),)),), 2)

    def unsorted(layered_body):
        layered_body["artifacts"][0]["activities"] = ["f2", "f1", "f2"]

    per_record = _record_reads(monkeypatch)
    got_model, got_products = _reread(layered, unsorted, products=products)
    got_plms = [_reread(plm, lambda body: unsorted(body["layered"])) for plm in plms]
    got_trace = _reread(trace)
    assert [where for where in per_record if "[" in where] == ["body.merges[0]"]

    pairs = list(zip(got_products.products, products.products))
    for got, want in [(got_model, layered)] + [(got.artifacts, want.artifacts)
                                               for got, want in zip(got_plms, plms)]:
        pairs += [pair for name in ("artifacts", "activities", "refinements", "interactions")
                  for pair in zip(getattr(got, name), getattr(want, name), strict=True)]
    for got, want in zip(got_plms, plms):
        pairs += zip(got.bindings, want.bindings, strict=True)
        pairs += [pair for name in ("variation_points", "variants", "variant_interactions",
                                    "refinements")
                  for pair in zip(getattr(got.vm, name), getattr(want.vm, name), strict=True)]
    merge, = got_trace.merges
    pairs += [pair for name in ("rebound_bindings", "transferred_refinements",
                                "transferred_interactions")
              for pair in zip(getattr(merge, name), getattr(trace.merges[0], name), strict=True)]
    assert got_model.artifacts[0].activity_ids == ("f1", "f2")
    assert len(pairs) == 48
    for got, want in pairs:
        _built_alike(got, want)


@pytest.mark.parametrize("kinds", [(BindingKind.ACTIVITY_VARIANT,), (BindingKind.ARTIFACT_VP,),
                                   tuple(BindingKind)], ids=["activity", "artifact", "mixed"])
def test_a_bindings_array_of_one_kind_is_read_a_column_at_a_time(monkeypatch, kinds):
    """2,000 bindings of one kind are read with no per-record read; a mixed
    array is read record by record. Both give the records in array order."""
    keys = {BindingKind.ACTIVITY_VARIANT: ("activity", "variant"),
            BindingKind.ARTIFACT_VP: ("artifact", "vp")}
    items = [dict(zip(keys[kinds[i % len(kinds)]], (f"s{i}", f"t{i}"))) for i in range(2000)]
    per_record = _record_reads(monkeypatch)
    got = documents._records(documents._Bindings).read({"bindings": items}, "body", "bindings")
    assert got == tuple(Binding(kinds[i % len(kinds)], f"s{i}", f"t{i}") for i in range(2000))
    assert len(per_record) == (0 if len(kinds) == 1 else 2000)


# -- the writer at column sizes ----------------------------------------------

SIZES = (0, 1, 2, 50)
LAYERS = tuple(Layer)


def _text(i: int) -> str:
    """Names with characters that need escaping, and template braces."""
    return ("n{}", 'q"{0}\\', "line\nbreak", "é中\U0001F600", "plain")[i % 5] + str(i)


def _layered(n: int) -> LayeredModel:
    return LayeredModel(
        artifacts=tuple(FunctionalArtifact(f"art{i}", LAYERS[i % 3], tuple(
            f"a{j}" for j in range(i % 3))) for i in range(n)),
        activities=tuple(Activity(f"a{i}", _text(i), LAYERS[i % 3], f"art{i % 7}",
                                  i % 4 == 0, None if i % 3 else _text(i + 1)) for i in range(n)),
        refinements=tuple(Refinement(f"art{i}", f"a{i}", tuple(RefinementKind)[i % 2])
                          for i in range(n)),
        interactions=tuple(Interaction(f"a{i}", f"a{i + 1}", tuple(InteractionKind)[i % 2],
                                       InteractionLevel.ARTIFACT, i % 3 == 1) for i in range(n)))


def _products(n: int) -> ProductSet:
    return ProductSet(tuple(Product(f"p{i}", tuple(f"a{j}" for j in range(i % 4)))
                            for i in range(n)))


def _plm(n: int, kinds: tuple[BindingKind, ...]) -> ProductLineModel:
    vm = VariabilityModel(
        variation_points=tuple(VariationPoint(f"vp{i}", _text(i), LAYERS[i % 3])
                               for i in range(n)),
        variants=tuple(Variant(f"v{i}", _text(i), f"vp{i // 2}") for i in range(n)),
        variant_interactions=tuple(Interaction(f"v{i}", f"v{i + 2}", InteractionKind.MATERIAL,
                                               InteractionLevel.VARIANT, i % 2 == 0)
                                   for i in range(n)),
        refinements=tuple(VariabilityRefinement(f"vp{i + 1}", f"v{i}") for i in range(n)))
    return ProductLineModel(vm, _layered(n), tuple(
        Binding(kinds[i % len(kinds)], f"s{i}", f"t{i}") for i in range(n)))


def _trace(n: int) -> ReductionTrace:
    return ReductionTrace(tuple(MergeRecord(
        f"s{m}", f"t{m}", tuple((f"x{i}", _text(i)) for i in range(n)),
        tuple((f"a{i}", "x", _text(i)) for i in range(n)),
        tuple((f"c{i}", _text(i), "y") for i in range(n)),
        tuple((f"f{i}", "t", _text(i), "nt") for i in range(n))) for m in range(min(n, 3))), n)


@pytest.mark.parametrize("n", SIZES)
def test_writer_equals_reference_at_column_sizes(n):
    values = [(_layered(n), None), (_layered(n), _products(n)), (_trace(n), None),
              (Configuration(frozenset(_text(i) for i in range(n))), None)]
    values += [(_plm(n, kinds), None) for kinds in (
        (BindingKind.ACTIVITY_VARIANT,), (BindingKind.ARTIFACT_VP,), tuple(BindingKind))]
    for value, products in values:
        kwargs = {} if products is None else {"products": products}
        data = documents.serialize(value, **kwargs)
        assert data == reference_documents.serialize(value, **kwargs)
        assert data == (json.dumps(json.loads(data), ensure_ascii=False, indent=2,
                                   sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("text", ["%", "%s", "{}", "{0}", "%(id)s %% {{"])
def test_format_characters_in_ids_and_names_are_written_as_they_are(text):
    """Ids and names holding ``%`` or template braces: the bytes are
    ``json.dumps``'s, and reading them back writes the same bytes."""
    plm = ProductLineModel(
        VariabilityModel(
            variation_points=(VariationPoint(text, text, Layer.FEATURE),),
            variants=(Variant(text + "1", text, text), Variant(text + "2", text, text))),
        LayeredModel(
            artifacts=(FunctionalArtifact(text, Layer.FEATURE, (text, text + "a")),),
            activities=(Activity(text, text, Layer.FEATURE, text, True),
                        Activity(text + "a", text, Layer.FEATURE, text, False, text))),
        (Binding(BindingKind.ACTIVITY_VARIANT, text, text + "1"),))
    trace = ReductionTrace((MergeRecord(text, text + "t", ((text + "1", text),),
                                        ((text, text, text),), (), ()),), 2)
    for value, parse in ((plm, documents.parse_variability_model),
                         (plm.artifacts, lambda data: documents.parse_layered_model(data)[0]),
                         (trace, documents.parse_trace)):
        data = documents.serialize(value)
        assert data == (json.dumps(json.loads(data), ensure_ascii=False, indent=2,
                                   sort_keys=True) + "\n").encode()
        assert text in json.loads(data)["body"].__repr__()
        assert parse(data) == value
        assert documents.serialize(parse(data)) == data


def test_a_percent_sign_in_a_key_is_written_as_it_is():
    """The writer doubles a key's ``%`` in its template, so it prints as one."""
    table = documents._Table(tuple, ("100%", 0), ("%s", 1))
    assert table.text(("x", "y"), "") == json.dumps({"100%": "x", "%s": "y"}, indent=2,
                                                    sort_keys=True)
