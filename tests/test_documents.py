"""Document parsing and canonical serialization."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from modelgen import random_layered, random_plm
from ovmkit import corpus_path
from ovmkit.configs import Configuration
from ovmkit.documents import (
    ParseError,
    parse_configuration,
    parse_layered_model,
    parse_trace,
    parse_variability_model,
    serialize,
)
from ovmkit.model import Layer, LayeredModel, ProductLineModel


class TestParseLayered:
    def test_engine_corpus_shape(self, engine_layered):
        assert len(engine_layered.artifacts) == 3
        assert len(engine_layered.activities) == 8
        assert len(engine_layered.interactions) == 4
        assert all(a.layer is Layer.FUNCTIONAL for a in engine_layered.activities)
        groups = {a.group for a in engine_layered.activities if a.group}
        assert groups == {"Input Parameter", "Sensing Function", "Process Function"}

    def test_empty_model(self):
        doc = _envelope("layered-model", {
            "activities": [], "artifacts": [], "interactions": [], "refinements": []})
        model, products = parse_layered_model(doc)
        assert model == LayeredModel()
        assert products is None

    def test_layer_skip_refinement_rejected(self):
        data = corpus_path("negative", "layer-skip.json").read_bytes()
        with pytest.raises(ParseError, match="refinement-layer-adjacency"):
            parse_layered_model(data)

    def test_mandatory_activity_with_group_rejected(self):
        data = corpus_path("negative", "mandatory-group.json").read_bytes()
        with pytest.raises(ParseError, match="group"):
            parse_layered_model(data)

    def test_product_with_unknown_activity_rejected(self):
        doc = _envelope("layered-model", {
            "activities": [], "artifacts": [], "interactions": [], "refinements": [],
            "products": [{"id": "p1", "includes": ["nowhere"]}]})
        with pytest.raises(ParseError, match="nowhere"):
            parse_layered_model(doc)

    def test_wrong_kind_rejected(self, logistics_path):
        with pytest.raises(ParseError, match="expected a layered-model"):
            parse_layered_model(logistics_path.read_bytes())


class TestParseVariability:
    def test_logistics_corpus_shape(self, logistics_plm):
        vm = logistics_plm.vm
        assert len(vm.variation_points) == 5
        ids = {vp.id for vp in vm.variation_points}
        assert {"tir", "ble"} <= ids
        assert len(vm.variants_of("tir")) == 2
        assert len(vm.variants_of("ble")) == 2
        edges = {(e.from_id, e.to_id) for e in vm.variant_interactions}
        assert edges == {("v11", "v22"), ("v12", "v21")}
        assert all(e.requires for e in vm.variant_interactions)

    def test_engine_plm_shape(self, engine_plm):
        vm = engine_plm.vm
        assert len(vm.variation_points) == 3
        assert len(vm.variants) == 7
        assert len(vm.variant_interactions) == 4

    def test_dangling_variant_rejected(self):
        data = corpus_path("negative", "dangling-variant.json").read_bytes()
        with pytest.raises(ParseError, match="missing-vp"):
            parse_variability_model(data)

    def test_refinement_cycle_rejected(self):
        data = corpus_path("negative", "psi-cycle.json").read_bytes()
        with pytest.raises(ParseError, match="psi-forest-acyclicity"):
            parse_variability_model(data)


class TestErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 2 column"):
            parse_layered_model(b'{\n  "schema_version": }\n')

    def test_bad_utf8_reports_byte(self):
        with pytest.raises(ParseError, match="byte 1"):
            parse_layered_model(b'{\xff}')

    def test_unknown_schema_version(self):
        doc = json.dumps({"schema_version": "99", "kind": "layered-model", "body": {}})
        with pytest.raises(ParseError, match="unknown schema version '99'"):
            parse_layered_model(doc.encode())

    def test_unknown_kind(self):
        doc = json.dumps({"schema_version": "1", "kind": "mystery", "body": {}})
        with pytest.raises(ParseError, match="unknown document kind"):
            parse_layered_model(doc.encode())

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_variability_model(b"[" * 100000 + b"]" * 100000)

    def test_lone_surrogate_is_a_parse_error_naming_the_field(self, logistics_path):
        doc = json.loads(logistics_path.read_bytes())
        doc["body"]["variation_points"][1]["name"] = "x\ud800"
        with pytest.raises(ParseError) as exc:
            parse_variability_model(json.dumps(doc).encode())
        assert str(exc.value) == "body.variation_points[1].name holds a lone surrogate"
        doc["body"]["variation_points"][1]["name"] = "x\udc00y"
        with pytest.raises(ParseError, match=r"variation_points\[1\]\.name"):
            parse_variability_model(json.dumps(doc).encode())

    def test_lone_surrogate_in_a_field_name_or_list_is_a_parse_error(self):
        for body, where in (({"x\ud800": 1}, "body: field name 'x\\ud800'"),
                            ({"selection": ["a", "\udfff"]}, "body.selection[1] ")):
            with pytest.raises(ParseError) as exc:
                parse_configuration(_envelope("configuration", body))
            assert str(exc.value).startswith(where)

    def test_surrogate_pair_is_an_astral_character(self, logistics_path):
        doc = json.loads(logistics_path.read_bytes())
        doc["body"]["variation_points"][1]["name"] = "x\U0001F600"
        data = json.dumps(doc).encode()
        assert b"\\ud83d\\ude00" in data
        plm = parse_variability_model(data)
        assert plm.vm.variation_points[1].name == "x\U0001F600"
        assert "x\U0001F600".encode() in serialize(plm)

    @pytest.mark.parametrize("name, u_escape", [
        ('a "quoted"\\path\twith a tab', False), (r"C:\users\ud800", True)],
        ids=["no-u-escape", "literal-backslash-u"])
    def test_a_backslash_in_a_string_round_trips(self, logistics_plm, name, u_escape):
        vps = list(logistics_plm.vm.variation_points)
        vps[1] = replace(vps[1], name=name)
        plm = replace(logistics_plm, vm=replace(logistics_plm.vm, variation_points=tuple(vps)))
        data = serialize(plm)
        assert (b"\\" in data, b"\\u" in data) == (True, u_escape)
        assert parse_variability_model(data) == plm
        assert serialize(parse_variability_model(data)) == data

    def test_unknown_trace_subrecord_field_rejected(self):
        doc = _envelope("reduction-trace", {"pass_count": 1, "merges": [{
            "source_vp": "a", "target_vp": "b", "pairing": {"b1": "a1"},
            "rebound_bindings": [
                {"activity": "x", "from_variant": "b1", "to_variant": "a1", "junk": 1}]}]})
        with pytest.raises(ParseError) as exc:
            parse_trace(doc)
        assert str(exc.value) == "body.merges[0].rebound_bindings[0]: unknown field 'junk'"

    def test_unknown_field_rejected(self):
        doc = _envelope("layered-model", {
            "activities": [], "artifacts": [], "interactions": [],
            "refinements": [], "surprise": 1})
        with pytest.raises(ParseError, match="surprise"):
            parse_layered_model(doc)

    def test_unknown_activity_field_rejected(self):
        doc = _envelope("layered-model", {
            "activities": [{"id": "a", "name": "A", "layer": "feature",
                            "artifact": "f", "mandatory": True, "color": "red"}],
            "artifacts": [{"id": "f", "layer": "feature", "activities": ["a"]}],
            "interactions": [], "refinements": []})
        with pytest.raises(ParseError, match="color"):
            parse_layered_model(doc)


class TestRoundTrip:
    CORPORA = [
        "engine-flat-layered.json",
        "engine-flat-plm.json",
        "engine-hierarchical-layered.json",
        "logistics-vm.json",
        "empty-vm.json",
    ]

    @pytest.mark.parametrize("name", CORPORA)
    def test_corpus_round_trip_and_fixpoint(self, name):
        data = corpus_path(name).read_bytes()
        if name.endswith("layered.json"):
            model, products = parse_layered_model(data)
            once = serialize(model, products=products)
            model2, products2 = parse_layered_model(once)
            assert (model2, products2) == (model, products)
            assert serialize(model2, products=products2) == once
        else:
            plm = parse_variability_model(data)
            once = serialize(plm)
            plm2 = parse_variability_model(once)
            assert plm2 == plm
            assert serialize(plm2) == once

    @pytest.mark.parametrize("name", CORPORA)
    def test_shipped_corpora_are_canonical(self, name):
        data = corpus_path(name).read_bytes()
        if name.endswith("layered.json"):
            model, products = parse_layered_model(data)
            assert serialize(model, products=products) == data
        else:
            assert serialize(parse_variability_model(data)) == data

    def test_random_plm_round_trips(self):
        for seed in range(40):
            plm = random_plm(random.Random(seed), max_vps=15, max_variants=40)
            data = serialize(plm)
            again = parse_variability_model(data)
            assert again == plm
            assert serialize(again) == data

    def test_random_layered_round_trips(self):
        for seed in range(40):
            model, products = random_layered(random.Random(seed))
            data = serialize(model, products=products)
            model2, products2 = parse_layered_model(data)
            assert (model2, products2) == (model, products)
            assert serialize(model2, products=products2) == data

    def test_artifact_vp_binding_round_trips(self, engine_plm):
        from ovmkit.model import Binding, BindingKind
        extended = ProductLineModel(
            vm=engine_plm.vm,
            artifacts=engine_plm.artifacts,
            bindings=engine_plm.bindings + (
                Binding(BindingKind.ARTIFACT_VP, "sensing-functions", "sf"),),
        )
        data = serialize(extended)
        assert b'"artifact": "sensing-functions"' in data
        assert parse_variability_model(data) == extended

    def test_trace_round_trips(self, engine_plm):
        from ovmkit.reduction import reduce
        _, trace = reduce(engine_plm)
        data = serialize(trace)
        assert parse_trace(data) == trace
        assert serialize(parse_trace(data)) == data

    def test_configuration_round_trip(self):
        cfg = Configuration(selection=frozenset({"b", "a"}))
        data = serialize(cfg)
        assert parse_configuration(data) == cfg
        assert serialize(parse_configuration(data)) == data

    def test_serialized_bytes_are_newline_terminated_utf8(self, engine_plm):
        data = serialize(engine_plm)
        assert data.endswith(b"\n")
        data.decode("utf-8")

    def test_kind_follows_content(self, engine_plm, logistics_plm):
        assert b'"kind": "product-line-model"' in serialize(engine_plm)
        assert b'"kind": "variability-model"' in serialize(logistics_plm)
        assert b'"kind": "variability-model"' in serialize(ProductLineModel())

    def test_anything_else_is_refused_by_its_type_name(self):
        with pytest.raises(TypeError) as exc:
            serialize(object())
        assert str(exc.value) == "cannot serialize object"


def _envelope(kind: str, body: dict) -> bytes:
    return json.dumps({"schema_version": "1", "kind": kind, "body": body}).encode()
