#!/usr/bin/env python3
"""Regenerate the bundled corpora under src/ovmkit/corpus/.

The corpora are small hand-designed models: a flat engine-control example
(as a layered model and as an already-derived product-line model), a
three-layer hierarchical engine-control example, a logistics inventory
variability model, an empty model, configuration fixtures, and a set of
deliberately broken documents for negative tests. Run from the repo root:

    python3 tools/build_corpora.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ovmkit import corpus_dir
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
    ProductLineModel,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariationPoint,
    Variant,
)
from ovmkit.configs import Configuration

MATERIAL = InteractionKind.MATERIAL
INFORMATION = InteractionKind.INFORMATION


def artifact_interaction(from_id, to_id, kind, requires=False):
    return Interaction(from_id=from_id, to_id=to_id, kind=kind,
                       level=InteractionLevel.ARTIFACT, requires=requires)


def variant_interaction(from_id, to_id, kind, requires=False):
    return Interaction(from_id=from_id, to_id=to_id, kind=kind,
                       level=InteractionLevel.VARIANT, requires=requires)


def activity_binding(activity_id, variant_id):
    return Binding(kind=BindingKind.ACTIVITY_VARIANT,
                   source_id=activity_id, target_id=variant_id)


def engine_flat_layered() -> LayeredModel:
    """Flat engine-control model: fuel parameters, sensing, processing.

    The always-present parameter path (PFuel1) is represented only by its
    mandatory sensing activity; the three processing functions all vary.
    """
    functional = Layer.FUNCTIONAL
    activities = [
        Activity("pfuel2", "PFuel2", functional, "input-parameters", False, "Input Parameter"),
        Activity("pfuel3", "PFuel3", functional, "input-parameters", False, "Input Parameter"),
        Activity("sense-pfuel1", "Sense PFuel1", functional, "sensing-functions", True),
        Activity("sense-pfuel2", "Sense PFuel2", functional, "sensing-functions", False, "Sensing Function"),
        Activity("sense-pfuel3", "Sense PFuel3", functional, "sensing-functions", False, "Sensing Function"),
        Activity("process-p1", "Process(PFuel1)", functional, "process-functions", False, "Process Function"),
        Activity("process-p12", "Process(PFuel1, PFuel2)", functional, "process-functions", False, "Process Function"),
        Activity("process-p13", "Process(PFuel1, PFuel3)", functional, "process-functions", False, "Process Function"),
    ]
    artifacts = [
        FunctionalArtifact("input-parameters", functional, ("pfuel2", "pfuel3")),
        FunctionalArtifact("sensing-functions", functional,
                           ("sense-pfuel1", "sense-pfuel2", "sense-pfuel3")),
        FunctionalArtifact("process-functions", functional,
                           ("process-p1", "process-p12", "process-p13")),
    ]
    interactions = [
        artifact_interaction("pfuel3", "sense-pfuel3", MATERIAL),
        artifact_interaction("sense-pfuel3", "process-p13", INFORMATION),
        artifact_interaction("pfuel2", "sense-pfuel2", MATERIAL),
        artifact_interaction("sense-pfuel2", "process-p12", INFORMATION),
    ]
    return LayeredModel(
        artifacts=tuple(artifacts),
        activities=tuple(activities),
        interactions=tuple(interactions),
    )


def engine_flat_plm() -> ProductLineModel:
    """The flat engine model together with its derived variability model."""
    functional = Layer.FUNCTIONAL
    vm = VariabilityModel(
        variation_points=(
            VariationPoint("ip", "Input Parameter", functional),
            VariationPoint("sf", "Sensing Function", functional),
            VariationPoint("pf", "Process Function", functional),
        ),
        variants=(
            Variant("p2", "P2", "ip"),
            Variant("p3", "P3", "ip"),
            Variant("s2", "S2", "sf"),
            Variant("s3", "S3", "sf"),
            Variant("pf1", "PF1", "pf"),
            Variant("pf2", "PF2", "pf"),
            Variant("pf3", "PF3", "pf"),
        ),
        variant_interactions=(
            variant_interaction("p3", "s3", MATERIAL),
            variant_interaction("s3", "pf3", INFORMATION),
            variant_interaction("p2", "s2", MATERIAL),
            variant_interaction("s2", "pf2", INFORMATION),
        ),
    )
    bindings = (
        activity_binding("pfuel2", "p2"),
        activity_binding("pfuel3", "p3"),
        activity_binding("sense-pfuel2", "s2"),
        activity_binding("sense-pfuel3", "s3"),
        activity_binding("process-p1", "pf1"),
        activity_binding("process-p12", "pf2"),
        activity_binding("process-p13", "pf3"),
    )
    return ProductLineModel(vm=vm, artifacts=engine_flat_layered(), bindings=bindings)


def engine_hierarchical_layered() -> LayeredModel:
    """Three-layer engine-control model whose derivation yields a 10-vp forest."""
    feature, functional, component = Layer.FEATURE, Layer.FUNCTIONAL, Layer.COMPONENT
    activities = [
        Activity("core-control", "Core Control", feature, "features", True),
        Activity("metering-single", "Single Path Metering", feature, "features", False, "Metering Scheme"),
        Activity("metering-dual", "Dual Path Metering", feature, "features", False, "Metering Scheme"),
        Activity("monitoring-basic", "Basic Monitoring", feature, "features", False, "Monitoring Level"),
        Activity("monitoring-adv", "Advanced Monitoring", feature, "features", False, "Monitoring Level"),

        Activity("flow-core", "Regulate Base Flow", functional, "fuel-functions", True),
        Activity("measure-pressure", "Measure Flow Pressure", functional, "fuel-functions", False, "Flow Sensing"),
        Activity("measure-temp", "Measure Flow Temperature", functional, "fuel-functions", False, "Flow Sensing"),
        Activity("compute-direct", "Compute Flow Directly", functional, "fuel-functions", False, "Flow Computation"),
        Activity("compute-model", "Compute Flow From Model", functional, "fuel-functions", False, "Flow Computation"),

        Activity("balance-equal", "Balance Channels Equally", functional, "dual-fuel-functions", False, "Channel Balancing"),
        Activity("balance-weighted", "Balance Channels Weighted", functional, "dual-fuel-functions", False, "Channel Balancing"),
        Activity("arbitrate-priority", "Arbitrate By Priority", functional, "dual-fuel-functions", False, "Channel Arbitration"),
        Activity("arbitrate-rotate", "Arbitrate By Rotation", functional, "dual-fuel-functions", False, "Channel Arbitration"),

        Activity("log-hourly", "Log Trends Hourly", functional, "monitoring-functions", False, "Trend Logging"),
        Activity("log-continuous", "Log Trends Continuously", functional, "monitoring-functions", False, "Trend Logging"),
        Activity("report-summary", "Report Faults Summarized", functional, "monitoring-functions", False, "Fault Reporting"),
        Activity("report-detailed", "Report Faults Detailed", functional, "monitoring-functions", False, "Fault Reporting"),

        Activity("driver-a", "Pressure Driver A", component, "pressure-components", False, "Pressure Driver"),
        Activity("driver-b", "Pressure Driver B", component, "pressure-components", False, "Pressure Driver"),
        Activity("filter-plain", "Plain Filter", component, "pressure-components", False, "Pressure Filter"),
        Activity("filter-kalman", "Kalman Filter", component, "pressure-components", False, "Pressure Filter"),
    ]
    artifacts = [
        FunctionalArtifact("features", feature, (
            "core-control", "metering-single", "metering-dual",
            "monitoring-basic", "monitoring-adv")),
        FunctionalArtifact("fuel-functions", functional, (
            "flow-core", "measure-pressure", "measure-temp",
            "compute-direct", "compute-model")),
        FunctionalArtifact("dual-fuel-functions", functional, (
            "balance-equal", "balance-weighted", "arbitrate-priority", "arbitrate-rotate")),
        FunctionalArtifact("monitoring-functions", functional, (
            "log-hourly", "log-continuous", "report-summary", "report-detailed")),
        FunctionalArtifact("pressure-components", component, (
            "driver-a", "driver-b", "filter-plain", "filter-kalman")),
    ]
    refinements = [
        Refinement("fuel-functions", "metering-single", RefinementKind.FEATURE),
        Refinement("dual-fuel-functions", "metering-dual", RefinementKind.FEATURE),
        Refinement("monitoring-functions", "monitoring-adv", RefinementKind.FEATURE),
        Refinement("pressure-components", "measure-pressure", RefinementKind.FUNCTIONAL),
    ]
    interactions = [
        artifact_interaction("metering-dual", "monitoring-adv", INFORMATION),
        artifact_interaction("measure-pressure", "compute-direct", INFORMATION),
        artifact_interaction("measure-temp", "compute-model", INFORMATION),
        artifact_interaction("flow-core", "compute-direct", MATERIAL),
        artifact_interaction("balance-equal", "arbitrate-priority", INFORMATION),
        artifact_interaction("balance-weighted", "arbitrate-rotate", INFORMATION),
        artifact_interaction("log-hourly", "report-summary", INFORMATION),
        artifact_interaction("log-continuous", "report-detailed", INFORMATION),
        artifact_interaction("driver-a", "filter-plain", MATERIAL),
        artifact_interaction("driver-b", "filter-kalman", MATERIAL),
    ]
    return LayeredModel(
        artifacts=tuple(artifacts),
        activities=tuple(activities),
        refinements=tuple(refinements),
        interactions=tuple(interactions),
    )


def logistics_vm() -> ProductLineModel:
    """Inventory-process variability model: five variation points, two of
    which (record type and execution behavior) require each other crosswise."""
    functional = Layer.FUNCTIONAL
    vm = VariabilityModel(
        variation_points=(
            VariationPoint("ia", "Inventory Accomplishment", functional),
            VariationPoint("tir", "Type of Inventory Records", functional),
            VariationPoint("bi", "Base of Inventory", functional),
            VariationPoint("ble", "Behavior of Logistics Execution", functional),
            VariationPoint("ga", "Generation of Appointment", functional),
        ),
        variants=(
            Variant("ia1", "Complete Inventory", "ia"),
            Variant("ia2", "Partial Inventory", "ia"),
            Variant("v11", "Paper Records", "tir"),
            Variant("v12", "Electronic Records", "tir"),
            Variant("bi1", "Quantity Based", "bi"),
            Variant("bi2", "Value Based", "bi"),
            Variant("v21", "Push Execution", "ble"),
            Variant("v22", "Pull Execution", "ble"),
            Variant("ga1", "Manual Appointment", "ga"),
            Variant("ga2", "Automatic Appointment", "ga"),
        ),
        variant_interactions=(
            variant_interaction("v11", "v22", INFORMATION, requires=True),
            variant_interaction("v12", "v21", INFORMATION, requires=True),
        ),
    )
    return ProductLineModel(vm=vm)


def negative_documents() -> dict[str, bytes]:
    dangling = {
        "schema_version": "1",
        "kind": "variability-model",
        "body": {
            "interactions": [],
            "refinements": [],
            "variants": [{"id": "x1", "name": "X1", "vp": "missing-vp"}],
            "variation_points": [],
        },
    }
    psi_cycle = {
        "schema_version": "1",
        "kind": "variability-model",
        "body": {
            "interactions": [],
            "refinements": [
                {"child_vp": "vp-a", "parent_variant": "b1"},
                {"child_vp": "vp-b", "parent_variant": "a1"},
            ],
            "variants": [
                {"id": "a1", "name": "A1", "vp": "vp-a"},
                {"id": "b1", "name": "B1", "vp": "vp-b"},
            ],
            "variation_points": [
                {"id": "vp-a", "name": "A", "level": "functional"},
                {"id": "vp-b", "name": "B", "level": "functional"},
            ],
        },
    }
    layer_skip = {
        "schema_version": "1",
        "kind": "layered-model",
        "body": {
            "activities": [
                {"id": "f1", "name": "Feature One", "layer": "feature",
                 "artifact": "features", "mandatory": True},
                {"id": "c1", "name": "Component One", "layer": "component",
                 "artifact": "components", "mandatory": True},
            ],
            "artifacts": [
                {"id": "features", "layer": "feature", "activities": ["f1"]},
                {"id": "components", "layer": "component", "activities": ["c1"]},
            ],
            "interactions": [],
            "refinements": [
                {"child_artifact": "components", "parent_activity": "f1",
                 "kind": "feature"},
            ],
        },
    }
    mandatory_group = {
        "schema_version": "1",
        "kind": "layered-model",
        "body": {
            "activities": [
                {"id": "a1", "name": "A1", "layer": "functional",
                 "artifact": "fns", "mandatory": True, "group": "G"},
            ],
            "artifacts": [{"id": "fns", "layer": "functional", "activities": ["a1"]}],
            "interactions": [],
            "refinements": [],
        },
    }
    docs = {
        "dangling-variant.json": dangling,
        "psi-cycle.json": psi_cycle,
        "layer-skip.json": layer_skip,
        "mandatory-group.json": mandatory_group,
    }
    return {
        name: (json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode()
        for name, doc in docs.items()
    }


def corpus_files() -> dict[str, bytes]:
    """Every corpus file's bytes, by path relative to the corpus directory."""
    files: dict[str, bytes] = {
        "engine-flat-layered.json": serialize(engine_flat_layered()),
        "engine-flat-plm.json": serialize(engine_flat_plm()),
        "engine-hierarchical-layered.json": serialize(engine_hierarchical_layered()),
        "logistics-vm.json": serialize(logistics_vm()),
        "empty-vm.json": serialize(ProductLineModel()),
        "configs/engine-valid.json": serialize(
            Configuration(selection=frozenset({"p2", "s2", "pf2"}))),
        "configs/engine-invalid.json": serialize(
            Configuration(selection=frozenset({"p2", "s3", "pf1"}))),
    }
    files.update({
        f"negative/{name}": data for name, data in negative_documents().items()
    })
    return files


def main() -> int:
    out = corpus_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / "negative").mkdir(exist_ok=True)
    (out / "configs").mkdir(exist_ok=True)

    for name, data in sorted(corpus_files().items()):
        path = out / name
        path.write_bytes(data)
        print(f"wrote {path.relative_to(Path.cwd()) if path.is_relative_to(Path.cwd()) else path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
