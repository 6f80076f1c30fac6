"""Command-line interface: golden outputs, report numbers, and exit codes."""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR
import reference_configs
from modelgen import grid, random_layered, random_plm
from ovmkit import configs, corpus_path, documents
from ovmkit.cli import ReductionReport, build_parser, build_report, main
from ovmkit.configs import BudgetExceededError, Configuration
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
    ModelError,
    ProductLineModel,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariationPoint,
    Variant,
    validate,
)
from ovmkit.reduction import reduce
from refusals import refusal_text


# Child interpreters import ovmkit from this checkout's src/, as pytest does.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def counted_calls(monkeypatch) -> list:
    """The variability models ``configs.unconstrained_count`` is called on
    from now until the test ends."""
    calls, count = [], configs.unconstrained_count
    monkeypatch.setattr(configs, "unconstrained_count",
                        lambda vm: calls.append(vm) or count(vm))
    return calls


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*args, env=CHILD_ENV) -> subprocess.CompletedProcess:
    """``python -S -m ovmkit`` in a child process: -S skips site-packages,
    so an import of anything outside the standard library fails."""
    return subprocess.run([sys.executable, "-S", "-m", "ovmkit", *args],
                          capture_output=True, text=True, env=env)


def grid_path(tmp_path, vps: int) -> Path:
    """``modelgen.grid(vps)``'s document, written under ``tmp_path``."""
    path = tmp_path / f"grid-{vps}.json"
    path.write_bytes(serialize(grid(vps)))
    return path


class TestDerive:
    def test_engine_matches_golden(self, capsys, tmp_path, engine_layered_path):
        out = tmp_path / "derived.json"
        code, _, _ = run(capsys, "derive", "-i", str(engine_layered_path), "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "engine-flat-derived.json").read_bytes()

    def test_hierarchical_matches_golden(self, capsys, tmp_path, hierarchical_path):
        out = tmp_path / "derived.json"
        code, _, _ = run(capsys, "derive", "-i", str(hierarchical_path), "-o", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "hierarchical-derived.json").read_bytes()

    def test_malformed_input_exits_one_and_names_id(self, capsys, tmp_path):
        bad = corpus_path("negative", "layer-skip.json")
        code, _, err = run(capsys, "derive", "-i", str(bad), "-o", str(tmp_path / "x"))
        assert code == 1
        assert "components" in err

    def test_strict_mode_identical_on_flat_corpus(self, capsys, tmp_path, engine_layered_path):
        plain = tmp_path / "plain.json"
        strict = tmp_path / "strict.json"
        assert run(capsys, "derive", "-i", str(engine_layered_path), "-o", str(plain))[0] == 0
        assert run(capsys, "derive", "-i", str(engine_layered_path),
                   "-o", str(strict), "--strict-alg1")[0] == 0
        assert plain.read_bytes() == strict.read_bytes()

    def test_repeated_runs_byte_identical(self, capsys, tmp_path, hierarchical_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        run(capsys, "derive", "-i", str(hierarchical_path), "-o", str(one))
        run(capsys, "derive", "-i", str(hierarchical_path), "-o", str(two))
        assert one.read_bytes() == two.read_bytes()


REFUSAL = "argument --trace: names the destination of --output"


@pytest.mark.parametrize("command, option", [
    ("reduce", "--trace"), ("report", "--trace"), ("configs", "--validate")])
def test_an_empty_path_is_a_usage_error(capsys, tmp_path, engine_plm_path, command, option):
    # Read as absent, "" would write no trace, replay none, or enumerate in
    # place of validating, and exit 0.
    model, out = str(engine_plm_path), tmp_path / "reduced.json"
    args = {"reduce": ["-i", model, "-o", str(out)], "report": [model, model],
            "configs": ["-i", model]}[command]
    code, stdout, err = run(capsys, command, *args, option, "")
    assert (code, stdout) == (2, "")
    assert err.endswith(f"ovmkit {command}: error: argument {option}: an empty path names no file\n")
    assert not out.exists()


class TestReduce:
    def test_engine_matches_golden(self, capsys, tmp_path, engine_plm_path):
        out, trace = tmp_path / "reduced.json", tmp_path / "trace.json"
        code, _, _ = run(capsys, "reduce", "-i", str(engine_plm_path),
                         "-o", str(out), "--trace", str(trace))
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "engine-flat-reduced.json").read_bytes()
        assert trace.read_bytes() == (GOLDEN_DIR / "engine-flat-trace.json").read_bytes()

    def test_hierarchical_derived_matches_golden(self, capsys, tmp_path):
        out, trace = tmp_path / "reduced.json", tmp_path / "trace.json"
        code, _, _ = run(capsys, "reduce", "-i", str(GOLDEN_DIR / "hierarchical-derived.json"),
                         "-o", str(out), "--trace", str(trace))
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "hierarchical-reduced.json").read_bytes()
        assert trace.read_bytes() == (GOLDEN_DIR / "hierarchical-trace.json").read_bytes()

    def test_logistics_matches_golden(self, capsys, tmp_path, logistics_path):
        out, trace = tmp_path / "reduced.json", tmp_path / "trace.json"
        code, _, _ = run(capsys, "reduce", "-i", str(logistics_path),
                         "-o", str(out), "--trace", str(trace))
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "logistics-reduced.json").read_bytes()
        trace_doc = json.loads(trace.read_text())
        assert len(trace_doc["body"]["merges"]) == 1
        pair = {trace_doc["body"]["merges"][0]["source_vp"],
                trace_doc["body"]["merges"][0]["target_vp"]}
        assert pair == {"tir", "ble"}

    def test_interaction_free_model_unchanged(self, capsys, tmp_path):
        empty = corpus_path("empty-vm.json")
        out, trace = tmp_path / "out.json", tmp_path / "trace.json"
        code, _, _ = run(capsys, "reduce", "-i", str(empty),
                         "-o", str(out), "--trace", str(trace))
        assert code == 0
        assert out.read_bytes() == empty.read_bytes()
        assert json.loads(trace.read_text())["body"]["merges"] == []

    @pytest.mark.parametrize("existed", [False, True], ids=["absent", "present"])
    def test_a_trace_at_the_output_path_is_a_usage_error(
            self, capsys, monkeypatch, tmp_path, engine_plm_path, existed):
        # Two spellings of one file: the trace would overwrite the reduced model.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "reduced.json"
        if existed:
            out.write_bytes(b"kept")
        code, stdout, err = run(capsys, "reduce", "-i", str(engine_plm_path),
                                "-o", str(out), "--trace", "reduced.json")
        assert (code, stdout) == (2, "")
        assert err.endswith(f"ovmkit reduce: error: {REFUSAL}\n")
        assert (out.read_bytes() == b"kept") if existed else not out.exists()

    def test_a_trace_to_stdout_beside_the_model_is_a_usage_error(self, capsys, engine_plm_path):
        # Two JSON documents back to back on stdout, which no parser reads.
        code, out, err = run(capsys, "reduce", "-i", str(engine_plm_path),
                             "-o", "-", "--trace", "-")
        assert (code, out) == (2, "")
        assert err.endswith(f"ovmkit reduce: error: {REFUSAL}\n")

    def test_a_file_named_dash_is_not_stdout(self, capsys, monkeypatch, tmp_path, engine_plm_path):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "reduce", "-i", str(engine_plm_path),
                           "-o", "-", "--trace", "./-")
        assert code == 0
        assert out.encode() == (GOLDEN_DIR / "engine-flat-reduced.json").read_bytes()
        assert (tmp_path / "-").read_bytes() == (GOLDEN_DIR / "engine-flat-trace.json").read_bytes()

    def test_deeply_nested_json_exits_one_without_traceback(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100000 + b"]" * 100000)
        result = run_child("reduce", "-i", str(deep), "-o", "-")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


    def test_lone_surrogate_exits_one_without_traceback(self, tmp_path, logistics_path):
        doc = json.loads(logistics_path.read_bytes())
        doc["body"]["variation_points"][1]["name"] = "x\ud800"
        bad = tmp_path / "surrogate.json"
        bad.write_text(json.dumps(doc))
        result = run_child("reduce", "-i", str(bad), "-o", "-")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: body.variation_points[1].name holds a lone surrogate\n"

    def test_activity_bound_to_two_variants_exits_one(self, capsys, tmp_path, engine_plm_path):
        doc = json.loads(engine_plm_path.read_bytes())
        bindings = doc["body"]["variability"]["bindings"]
        first = bindings[0]
        other = next(b["variant"] for b in bindings if b["variant"] != first["variant"])
        bindings.append({"activity": first["activity"], "variant": other})
        bad = tmp_path / "double.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "reduce", "-i", str(bad), "-o", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert f"binding-single-variant [{first['activity']}]" in err


# Per document kind: a bundled document, and a command that reads it at BAD.
OVER_LONG_NUMBER_RUNS = {
    "layered-model": (corpus_path("engine-flat-layered.json"), ("derive", "-i", "BAD", "-o", "-")),
    "variability-model": (corpus_path("logistics-vm.json"), ("reduce", "-i", "BAD", "-o", "-")),
    "product-line-model": (corpus_path("engine-flat-plm.json"),
                           ("configs", "-i", "BAD", "--count")),
    "configuration": (corpus_path("configs", "engine-valid.json"), (
        "configs", "-i", str(corpus_path("engine-flat-plm.json")), "--validate", "BAD")),
    "reduction-trace": (GOLDEN_DIR / "engine-flat-trace.json", (
        "report", str(corpus_path("engine-flat-plm.json")),
        str(GOLDEN_DIR / "engine-flat-reduced.json"), "--trace", "BAD")),
}


@pytest.mark.parametrize("kind", sorted(OVER_LONG_NUMBER_RUNS))
def test_an_over_long_number_exits_one_without_traceback(tmp_path, kind):
    # Python reads no int of over 4,300 digits from text.
    path, args = OVER_LONG_NUMBER_RUNS[kind]
    text = path.read_text()
    assert json.loads(text)["kind"] == kind and text.count('"body": {') == 1
    bad = tmp_path / "long.json"
    bad.write_text(text.replace('"body": {', f'"body": {{"n": {"9" * 4301},'))
    result = run_child(*[str(bad) if arg == "BAD" else arg for arg in args])
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: invalid JSON: a number has too many digits\n")


NEGATIVE_ERRORS = {
    "dangling-variant.json": "document violates model invariants: delta-consistency "
    "[x1, missing-vp]: variant 'x1' realizes unknown variation point 'missing-vp'",
    "layer-skip.json": "document violates model invariants: refinement-layer-adjacency "
    "[components, f1]: artifact 'components' (component) may only refine an activity "
    "one layer above, not 'f1' (feature)",
    "mandatory-group.json": "document violates model invariants: activity-mandatory-group "
    "[a1]: mandatory activity 'a1' cannot carry a group label",
    "psi-cycle.json": "document violates model invariants: psi-forest-acyclicity [vp-a]: "
    "variability refinements form a cycle through 'vp-a'; psi-forest-acyclicity [vp-b]: "
    "variability refinements form a cycle through 'vp-b'",
}


@pytest.mark.parametrize("path", sorted(corpus_path("negative").glob("*.json")),
                         ids=lambda path: path.name)
def test_negative_corpus_exits_one_with_its_error(capsys, path):
    command = "derive" if json.loads(path.read_bytes())["kind"] == "layered-model" else "reduce"
    code, out, err = run(capsys, command, "-i", str(path), "-o", "-")
    assert (code, out, err) == (1, "", f"error: {NEGATIVE_ERRORS[path.name]}\n")


class TestPipeline:
    def test_derive_then_reduce_reproduces_goldens(self, engine_layered_path):
        # On the standard library alone (-S), as ``run_child`` runs.
        pipeline = (
            f"{sys.executable} -S -m ovmkit derive -i {engine_layered_path} -o - | "
            f"{sys.executable} -S -m ovmkit reduce -i - -o -"
        )
        result = subprocess.run(
            pipeline, shell=True, capture_output=True, check=True, env=CHILD_ENV)
        expected = (GOLDEN_DIR / "engine-flat-derived-reduced.json").read_bytes()
        assert result.stdout == expected

    def test_the_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, hierarchical_path):
        lifted = tmp_path / "lifted.json"
        layered, products = random_layered(random.Random(26), label_all_difs=True)
        lifted.write_bytes(serialize(layered, products=products))
        conflict = tmp_path / "conflict.json"
        conflict.write_bytes(serialize(strict_conflict()))
        ovmkit = f"{shlex.quote(sys.executable)} -S -m ovmkit"
        outputs = {}
        for hash_seed in "012":
            env = {**CHILD_ENV, "PYTHONHASHSEED": hash_seed}
            for source in (hierarchical_path, lifted):
                pipeline = (
                    f"set -o pipefail; {ovmkit} derive -i {shlex.quote(str(source))} -o - "
                    f"| tee derived.json | {ovmkit} reduce -i - -o - --trace trace.json "
                    f"> reduced.json && {ovmkit} report derived.json reduced.json "
                    f"--trace trace.json --format json")
                result = subprocess.run(["bash", "-c", pipeline], cwd=tmp_path, check=True,
                                        capture_output=True, env=env)
                strict = run_child("derive", "-i", str(source), "-o", "-", "--strict-alg1",
                                   env=env)
                assert strict.returncode == 0
                outputs.setdefault(source, set()).add((result.stdout, strict.stdout, *(
                    (tmp_path / f"{name}.json").read_bytes()
                    for name in ("derived", "reduced", "trace"))))
            strict = run_child("derive", "-i", str(conflict), "-o", "-", "--strict-alg1",
                               env=env)
            assert (strict.returncode, strict.stderr) == (
                1, "error: variation point 'vp:K' would refine both variants 'v:f2' and 'v:f1'\n")
        for runs in outputs.values():
            [(report, *_)] = runs  # one output under every hash seed
            assert json.loads(report)["merges"]


def strict_conflict() -> LayeredModel:
    """Component activities of group K under functional ``f1`` (k1 to k8) and
    ``f2`` (k0 and l1 of group L), and interactions k0 -> l1 to k8 -> l1. Strict
    mode meets k0 -> l1 first in sorted-edge order, so it places ``vp:K`` under
    ``v:f2`` before k1 -> l1 asks for ``v:f1``."""
    fn, comp = Layer.FUNCTIONAL, Layer.COMPONENT
    activities = [Activity("f1", "F1", fn, "fn", False, "F"),
                  Activity("f2", "F2", fn, "fn", False, "F"),
                  Activity("k0", "K0", comp, "c2", False, "K"),
                  Activity("l1", "L1", comp, "c2", False, "L")]
    activities += [Activity(f"k{i}", f"K{i}", comp, "c1", False, "K") for i in range(1, 9)]
    return LayeredModel(
        artifacts=tuple(FunctionalArtifact(art, layer, tuple(
            a.id for a in activities if a.artifact_id == art))
            for art, layer in (("fn", fn), ("c1", comp), ("c2", comp))),
        activities=tuple(activities),
        refinements=(Refinement("c1", "f1", RefinementKind.FUNCTIONAL),
                     Refinement("c2", "f2", RefinementKind.FUNCTIONAL)),
        interactions=tuple(Interaction(f"k{i}", "l1", InteractionKind.MATERIAL,
                                       InteractionLevel.ARTIFACT) for i in range(9)))


# What ``report`` prints for the hierarchical goldens, in process and in a child.
HIERARCHICAL_TABLE = """\
initial variation points: 10
final variation points:   6
reduction:                40%
merged:                   vp:Channel Balancing into vp:Channel Arbitration
merged:                   vp:Flow Sensing into vp:Flow Computation
merged:                   vp:Pressure Filter into vp:Pressure Driver
merged:                   vp:Fault Reporting into vp:Trend Logging
unconstrained configs:    70 -> 15
valid configs:            7 -> 7
"""


LOGISTICS_JSON = """\
{
  "final_vp_count": 4,
  "initial_vp_count": 5,
  "merges": [
    {
      "source": "ble",
      "target": "tir"
    }
  ],
  "reduction_percentage": 20,
  "unconstrained_after": "16",
  "unconstrained_before": "32",
  "valid_after": "16",
  "valid_before": "16"
}
"""

EMPTY_TABLE = """\
initial variation points: 0
final variation points:   0
reduction:                0%
merged:                   none
unconstrained configs:    1 -> 1
valid configs:            1 -> 1
"""


def golden_plm(name: str) -> ProductLineModel:
    return documents.parse_variability_model((GOLDEN_DIR / name).read_bytes())


def golden_trace(name: str):
    return documents.parse_trace((GOLDEN_DIR / name).read_bytes())


class TestReport:
    def test_engine_table(self, capsys, engine_plm_path):
        code, out, _ = run(
            capsys, "report", str(engine_plm_path),
            str(GOLDEN_DIR / "engine-flat-reduced.json"),
            "--trace", str(GOLDEN_DIR / "engine-flat-trace.json"))
        assert code == 0
        assert "initial variation points: 3" in out
        assert "final variation points:   1" in out
        assert "reduction:                67%" in out
        assert "sf into pf" in out and "ip into pf" in out
        assert "12 -> 3" in out
        assert "2 -> 3" in out

    def test_hierarchical_trace_replays(self, capsys):
        code, out, err = run(
            capsys, "report", *(str(GOLDEN_DIR / f"hierarchical-{name}.json")
                                for name in ("derived", "reduced")),
            "--trace", str(GOLDEN_DIR / "hierarchical-trace.json"))
        assert (code, err) == (0, "")
        assert out == HIERARCHICAL_TABLE

    def test_hierarchical_trace_replays_in_a_child(self):
        result = run_child(
            "report", *(str(GOLDEN_DIR / f"hierarchical-{name}.json")
                        for name in ("derived", "reduced")),
            "--trace", str(GOLDEN_DIR / "hierarchical-trace.json"))
        assert (result.returncode, result.stdout, result.stderr) == (0, HIERARCHICAL_TABLE, "")

    def test_logistics_json(self, capsys, logistics_path):
        code, out, _ = run(
            capsys, "report", str(logistics_path),
            str(GOLDEN_DIR / "logistics-reduced.json"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["initial_vp_count"] == 5
        assert payload["final_vp_count"] == 4
        assert payload["reduction_percentage"] == 20
        assert payload["unconstrained_before"] == "32"
        assert payload["valid_before"] == "16"
        assert "merges" not in payload  # only known with a trace

    def test_mismatched_trace_is_an_error(self, capsys, logistics_path):
        code, _, err = run(
            capsys, "report", str(logistics_path), str(logistics_path),
            "--trace", str(GOLDEN_DIR / "logistics-trace.json"))
        assert code == 1
        assert "trace" in err

    def test_trace_of_another_model_with_matching_count_is_an_error(
            self, capsys, engine_plm_path):
        # Both traces list two merges; this one reduced the derived engine model.
        code, out, err = run(
            capsys, "report", str(engine_plm_path),
            str(GOLDEN_DIR / "engine-flat-reduced.json"),
            "--trace", str(GOLDEN_DIR / "engine-flat-derived-trace.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: trace merge 0 ")

    @pytest.mark.parametrize("pass_count", [0, 99])
    def test_trace_with_another_pass_count_is_an_error(
            self, capsys, tmp_path, engine_plm_path, pass_count):
        doc = json.loads((GOLDEN_DIR / "engine-flat-trace.json").read_text())
        assert doc["body"]["pass_count"] == 3
        doc["body"]["pass_count"] = pass_count
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "report", str(engine_plm_path),
            str(GOLDEN_DIR / "engine-flat-reduced.json"), "--trace", str(trace))
        assert (code, out) == (1, "")
        assert err == f"error: trace records {pass_count} passes for 2 merges\n"

    def test_logistics_json_with_its_trace(self, capsys, logistics_path):
        code, out, err = run(
            capsys, "report", str(logistics_path), str(GOLDEN_DIR / "logistics-reduced.json"),
            "--trace", str(GOLDEN_DIR / "logistics-trace.json"), "--format", "json")
        assert (code, err) == (0, "")
        assert out == LOGISTICS_JSON

    def test_empty_model_against_its_own_reduction(self, capsys, tmp_path):
        empty = corpus_path("empty-vm.json")
        reduced, trace = tmp_path / "reduced.json", tmp_path / "trace.json"
        assert run(capsys, "reduce", "-i", str(empty), "-o", str(reduced),
                   "--trace", str(trace))[0] == 0
        code, out, err = run(capsys, "report", str(empty), str(reduced),
                             "--trace", str(trace))
        assert (code, err) == (0, "")
        assert out == EMPTY_TABLE

    def test_library_report_lists_the_merges_of_its_trace(self, logistics_plm):
        report = build_report(logistics_plm, golden_plm("logistics-reduced.json"),
                              golden_trace("logistics-trace.json"), 10**6)
        assert report.merges == (("ble", "tir"),)

    def test_library_report_refuses_a_trace_of_more_merges(self, logistics_plm):
        with pytest.raises(ModelError) as exc:
            build_report(logistics_plm, logistics_plm, golden_trace("logistics-trace.json"),
                         10**6)
        assert str(exc.value) == "trace lists 1 merges but the models differ by 0 variation points"

    @pytest.mark.parametrize("case, text", [
        # The derived model's trace: as many merges, of variation points neither model has.
        ("source-neither-has",
         "trace merge 0: the model before lacks source 'vp:Process Function'"),
        ("target-kept", "trace merge 0: target 'ble' is not left to remove"),
        ("target-twice", "trace merge 1: target 'sf' is not left to remove"),
        ("after-adds", "no trace merge removes 'ip', which the model after lacks"),
    ], ids=["source-neither-has", "target-kept", "target-twice", "after-adds"])
    def test_library_report_refuses_merges_the_models_do_not_differ_by(
            self, engine_plm, logistics_plm, case, text):
        def last_merge(trace, source, target):
            last = replace(trace.merges[-1], source_vp_id=source, target_vp_id=target)
            return replace(trace, merges=trace.merges[:-1] + (last,))

        engine_trace = golden_trace("engine-flat-trace.json")
        pf_zz = ProductLineModel(vm=VariabilityModel(variation_points=tuple(
            VariationPoint(id=vp, name=vp, level=Layer.FEATURE) for vp in ("pf", "zz"))))
        before, after, trace = {
            "source-neither-has": (engine_plm, golden_plm("engine-flat-reduced.json"),
                                   golden_trace("engine-flat-derived-trace.json")),
            "target-kept": (logistics_plm, golden_plm("logistics-reduced.json"),
                            last_merge(golden_trace("logistics-trace.json"), "tir", "ble")),
            "target-twice": (engine_plm, golden_plm("engine-flat-reduced.json"),
                             last_merge(engine_trace, "pf", "sf")),
            # One variation point fewer for its one merge, but "zz" is new.
            "after-adds": (engine_plm, pf_zz,
                           replace(engine_trace, merges=engine_trace.merges[:1])),
        }[case]
        with pytest.raises(Exception) as exc:
            build_report(before, after, trace, 10**6)
        assert type(exc.value) is ModelError
        assert str(exc.value) == text

    def test_identical_models_zero_percent(self, capsys, logistics_path):
        code, out, _ = run(
            capsys, "report", str(logistics_path), str(logistics_path),
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reduction_percentage"] == 0

    @pytest.mark.parametrize("budget, valid", [
        (1, (None, None)), (16, (None, 16)), (32, (16, 16))])
    def test_each_unconstrained_space_is_counted_once_per_report(
            self, monkeypatch, logistics_plm, budget, valid):
        reduced, trace = reduce(logistics_plm)
        calls = counted_calls(monkeypatch)
        report = build_report(logistics_plm, reduced, trace, budget)
        assert len(calls) == 2
        assert report == ReductionReport(5, 4, 20, 32, 16, *valid, (("ble", "tir"),))

    @pytest.mark.parametrize("budget", [1, 10**6])
    def test_an_invalid_model_is_refused_at_every_budget(self, logistics_plm, budget):
        # A binding to an unknown activity: only the whole-model check sees it.
        bad = replace(logistics_plm, bindings=logistics_plm.bindings + (
            Binding(BindingKind.ACTIVITY_VARIANT, "ghost", "v22"),))
        with pytest.raises(Exception) as exc:
            build_report(bad, bad, None, budget)
        assert type(exc.value) is ModelError
        assert str(exc.value) == refusal_text(validate(bad))

    def test_a_negative_budget_exits_one(self, capsys, logistics_path):
        code, out, err = run(capsys, "report", str(logistics_path), str(logistics_path),
                             "--budget", "-1")
        assert (code, out, err) == (1, "", "error: budget must be positive\n")

    def test_percentage_formula_holds(self, capsys, engine_plm_path, logistics_path):
        for before, after in [
            (engine_plm_path, GOLDEN_DIR / "engine-flat-reduced.json"),
            (logistics_path, GOLDEN_DIR / "logistics-reduced.json"),
        ]:
            code, out, _ = run(capsys, "report", str(before), str(after),
                               "--format", "json")
            assert code == 0
            payload = json.loads(out)
            initial, final = payload["initial_vp_count"], payload["final_vp_count"]
            assert payload["reduction_percentage"] == round(
                100 * (initial - final) / initial)


class TestConfigs:
    def test_count_random_model_seed_191(self, capsys, tmp_path):
        path = tmp_path / "seed-191.json"
        path.write_bytes(serialize(random_plm(random.Random(191), max_vps=14, max_variants=40)))
        code, out, _ = run(capsys, "configs", "-i", str(path), "--count")
        assert code == 0
        assert out.strip() == "36000 unconstrained, 12 valid"

    def test_count_engine(self, capsys, engine_plm_path):
        code, out, _ = run(capsys, "configs", "-i", str(engine_plm_path), "--count")
        assert code == 0
        assert out.strip() == "12 unconstrained, 2 valid"

    def test_count_engine_in_a_child(self, engine_plm_path):
        result = run_child("configs", "-i", str(engine_plm_path), "--count")
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "12 unconstrained, 2 valid\n", "")

    def test_count_one_over_the_engine_budget_in_a_child(self, engine_plm_path):
        result = run_child("configs", "-i", str(engine_plm_path), "--count", "--budget", "11")
        assert (result.returncode, result.stdout, result.stderr) == (3, "", (
            "error: enumeration budget exceeded: 12 unconstrained configurations (budget 11)\n"))

    def test_validate_reads_no_budget_in_a_child(self, engine_plm_path):
        result = run_child(
            "configs", "-i", str(engine_plm_path),
            "--validate", str(corpus_path("configs", "engine-valid.json")),
            env={**CHILD_ENV, "PLSE_BUDGET": "lots"})
        assert (result.returncode, result.stdout, result.stderr) == (
            0, "configuration is valid\n", "")

    def test_count_empty_model(self, capsys):
        code, out, _ = run(capsys, "configs", "-i", str(corpus_path("empty-vm.json")),
                           "--count")
        assert code == 0
        assert out.strip() == "1 unconstrained, 1 valid"

    def test_enumerate_engine(self, capsys, engine_plm_path):
        code, out, _ = run(capsys, "configs", "-i", str(engine_plm_path),
                           "--enumerate", "--format", "json")
        assert code == 0
        assert json.loads(out)["configurations"] == [
            ["p2", "pf2", "s2"], ["p3", "pf3", "s3"]]

    def test_count_engine_json(self, capsys, engine_plm_path):
        code, out, err = run(capsys, "configs", "-i", str(engine_plm_path), "--count",
                             "--format", "json")
        assert (code, out, err) == (0, '{\n  "unconstrained": "12",\n  "valid": "2"\n}\n', "")

    @pytest.mark.parametrize("name, listing", [
        ("engine-flat-plm.json", "p2 pf2 s2\np3 pf3 s3\n"), ("empty-vm.json", "(empty)\n")])
    def test_enumerate_table(self, capsys, name, listing):
        code, out, err = run(capsys, "configs", "-i", str(corpus_path(name)), "--enumerate")
        assert (code, out, err) == (0, listing, "")

    def test_enumerate_json_is_json_dumps_indented(self, capsys, tmp_path):
        """An empty configuration, and ids a JSON string escapes, non-ASCII kept."""
        odd = ('a"1', "b\\2", "c\t3", "é4")
        plm = ProductLineModel(vm=VariabilityModel(
            variation_points=(VariationPoint(id="q", name="q", level=Layer.FEATURE),),
            variants=tuple(Variant(id=v, name="v", vp_id="q") for v in odd)))
        (tmp_path / "odd.json").write_bytes(serialize(plm))
        for path, listing in ((corpus_path("empty-vm.json"), [[]]),
                              (tmp_path / "odd.json", [[v] for v in sorted(odd)])):
            assert run(capsys, "configs", "-i", str(path), "--enumerate", "--format", "json") == (
                0, json.dumps({"configurations": listing}, ensure_ascii=False, indent=2) + "\n",
                "")

    def test_validate_json(self, capsys, engine_plm_path):
        def violations(config: str):
            code, out, err = run(
                capsys, "configs", "-i", str(engine_plm_path),
                "--validate", str(corpus_path("configs", config)), "--format", "json")
            assert err == ""
            return code, json.loads(out)

        closure = "interaction ({!r}, {!r}) requires both variants selected together"
        assert violations("engine-invalid.json") == (1, {"violations": [
            {"invariant": "interaction-closure", "subjects": [a, b],
             "message": closure.format(a, b)}
            for a, b in (("p2", "s2"), ("p3", "s3"), ("s3", "pf3"))]})
        assert violations("engine-valid.json") == (0, {"violations": []})

    def test_validate_valid_configuration(self, capsys, engine_plm_path):
        code, out, _ = run(
            capsys, "configs", "-i", str(engine_plm_path),
            "--validate", str(corpus_path("configs", "engine-valid.json")))
        assert code == 0
        assert "configuration is valid" in out

    def test_validate_invalid_configuration(self, capsys, engine_plm_path):
        code, out, _ = run(
            capsys, "configs", "-i", str(engine_plm_path),
            "--validate", str(corpus_path("configs", "engine-invalid.json")))
        assert code == 1
        assert "interaction-closure" in out

    def test_budget_exceeded_exits_three(self, capsys, logistics_path):
        code, _, err = run(capsys, "configs", "-i", str(logistics_path),
                           "--count", "--budget", "10")
        assert code == 3
        assert "32" in err

    def test_budget_env_var(self, capsys, monkeypatch, logistics_path):
        monkeypatch.setenv("PLSE_BUDGET", "10")
        code, _, err = run(capsys, "configs", "-i", str(logistics_path), "--count")
        assert code == 3
        assert "32" in err
        # An explicit flag beats the environment.
        monkeypatch.setenv("PLSE_BUDGET", "10")
        code, out, _ = run(capsys, "configs", "-i", str(logistics_path),
                           "--count", "--budget", "1000")
        assert code == 0
        assert "16 valid" in out

    def test_a_budget_env_var_of_too_many_digits_is_refused_unechoed(
            self, capsys, monkeypatch, engine_plm_path):
        monkeypatch.setenv("PLSE_BUDGET", "1" * 4301)
        code, out, err = run(capsys, "configs", "-i", str(engine_plm_path), "--count")
        assert (code, out, err) == (1, "", "error: PLSE_BUDGET has more than 4300 digits\n")

    @pytest.mark.parametrize("env, text", [
        ("lots", "PLSE_BUDGET must be an integer, got 'lots'"),
        ("0", "PLSE_BUDGET must be positive, got '0'")])
    def test_a_budget_env_var_that_is_no_budget_is_refused(
            self, capsys, monkeypatch, engine_plm_path, env, text):
        monkeypatch.setenv("PLSE_BUDGET", env)
        code, out, err = run(capsys, "configs", "-i", str(engine_plm_path), "--count")
        assert (code, out, err) == (1, "", f"error: {text}\n")

    def test_count_builds_no_configuration(self, capsys, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("--count enumerated the configurations")

        monkeypatch.setattr(configs, "enumerate_valid", refuse)
        # 10^6 selections, the default budget.
        code, out, _ = run(capsys, "configs", "-i", str(grid_path(tmp_path, 6)), "--count")
        assert code == 0
        assert out.strip() == "1000000 unconstrained, 1000000 valid"

    def test_count_one_over_the_budget_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "configs", "-i", str(grid_path(tmp_path, 6)),
                           "--count", "--budget", "999999")
        assert code == 3
        assert "1000000" in err

    def test_count_counts_the_unconstrained_space_once(self, capsys, monkeypatch,
                                                        logistics_path):
        calls = counted_calls(monkeypatch)
        code, out, _ = run(capsys, "configs", "-i", str(logistics_path), "--count")
        assert (code, out, len(calls)) == (0, "32 unconstrained, 16 valid\n", 1)

    def test_count_refuses_a_zero_budget(self, capsys, engine_plm_path):
        code, out, err = run(capsys, "configs", "-i", str(engine_plm_path),
                             "--count", "--budget", "0")
        assert (code, out, err) == (1, "", "error: budget must be positive\n")

    @pytest.mark.parametrize("env, flags", [("lots", ()), ("10", ("--budget", "0"))])
    def test_validate_reads_no_budget(self, capsys, monkeypatch, engine_plm_path,
                                      env, flags):
        monkeypatch.setenv("PLSE_BUDGET", env)
        code, out, err = run(
            capsys, "configs", "-i", str(engine_plm_path), *flags,
            "--validate", str(corpus_path("configs", "engine-valid.json")))
        assert (code, out, err) == (0, "configuration is valid\n", "")


@pytest.fixture(scope="module")
def non_ascii_dir(tmp_path_factory) -> Path:
    """A model whose ids are not ASCII, with its reduction, trace and a
    configuration that breaks the interaction's closure."""
    plm = ProductLineModel(vm=VariabilityModel(
        variation_points=tuple(VariationPoint(id=vp, name=vp, level=Layer.FEATURE)
                               for vp in ("vp-ü", "vp-é")),
        variants=(Variant(id="v-ä", name="ä", vp_id="vp-ü"),
                  Variant(id="v-☃", name="☃", vp_id="vp-ü"),
                  Variant(id="v-ö", name="ö", vp_id="vp-é")),
        variant_interactions=(Interaction("v-ö", "v-ä", InteractionKind.MATERIAL,
                                          InteractionLevel.VARIANT, requires=True),)))
    reduced, trace = reduce(plm)
    assert len(trace.merges) == 1
    path = tmp_path_factory.mktemp("non-ascii")
    for name, document in (("model", plm), ("reduced", reduced), ("trace", trace),
                           ("config", Configuration(frozenset({"v-☃", "v-ö"})))):
        (path / f"{name}.json").write_bytes(serialize(document))
    return path


class TestStdoutEncoding:
    @pytest.mark.parametrize("args", [
        ("configs", "-i", "model.json", "--enumerate"),
        ("configs", "-i", "model.json", "--enumerate", "--format", "json"),
        ("configs", "-i", "model.json", "--validate", "config.json"),
        ("configs", "-i", "model.json", "--validate", "config.json", "--format", "json"),
        ("report", "model.json", "reduced.json", "--trace", "trace.json"),
        ("report", "model.json", "reduced.json", "--trace", "trace.json", "--format", "json"),
    ], ids=" ".join)
    def test_an_ascii_stdout_gets_the_utf8_bytes(self, non_ascii_dir, args):
        runs = [subprocess.run([sys.executable, "-S", "-m", "ovmkit", *args], cwd=non_ascii_dir,
                               capture_output=True, env={**CHILD_ENV, "PYTHONIOENCODING": encoding})
                for encoding in ("utf-8", "ascii")]
        utf8, ascii_run = [(r.returncode, r.stdout, r.stderr) for r in runs]
        assert ascii_run == utf8
        assert utf8[2] == b"" and not utf8[1].isascii()


# 10^4301: a count of more digits than ``str`` writes.
HUGE = "1" + "0" * 4301


@pytest.fixture(scope="module")
def huge_grid_path(tmp_path_factory) -> Path:
    return grid_path(tmp_path_factory.mktemp("huge"), 4301)


@pytest.mark.parametrize("seed", range(50))
def test_enumerate_prints_the_reference_listing(capsys, tmp_path, seed):
    """``configs --enumerate``, as text and as JSON, prints exactly the listing
    of the generate-and-test oracle (29 of the 50 models list at least one
    configuration). A fourth of the models keep their bindings and
    interactions, a fourth drop each, and a fourth drop both."""
    plm = random_plm(random.Random(seed), max_vps=10, max_variants=30)
    if seed % 2:
        plm = replace(plm, bindings=())
    if seed % 4 >= 2:
        plm = replace(plm, vm=replace(plm.vm, variant_interactions=()))
    path = tmp_path / "model.json"
    path.write_bytes(serialize(plm))
    listing = [c.sorted_ids() for c in reference_configs.enumerate_valid(plm)]
    text = "".join(f"{' '.join(ids) or '(empty)'}\n" for ids in listing)
    payload = json.dumps({"configurations": [list(ids) for ids in listing]},
                         ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    for fmt, out in (("table", text), ("json", payload)):
        assert run(capsys, "configs", "-i", str(path), "--enumerate", "--format", fmt) == (
            0, out, "")


class TestCountsOfOver4300Digits:
    def test_count_over_the_budget_in_a_child(self, huge_grid_path):
        result = run_child("configs", "-i", str(huge_grid_path), "--count", "--budget", "1")
        assert (result.returncode, result.stdout, result.stderr) == (3, "", (
            f"error: enumeration budget exceeded: {HUGE} unconstrained configurations "
            "(budget 1)\n"))

    def test_enumerate_over_the_default_budget(self, capsys, huge_grid_path):
        code, out, err = run(capsys, "configs", "-i", str(huge_grid_path), "--enumerate")
        assert (code, out, err) == (3, "", (
            f"error: enumeration budget exceeded: {HUGE} unconstrained configurations "
            "(budget 1000000)\n"))

    def test_report_table_prints_them_in_full(self, capsys, huge_grid_path):
        code, out, err = run(capsys, "report", str(huge_grid_path), str(huge_grid_path))
        assert (code, err) == (0, "")
        assert out == ("initial variation points: 4301\n"
                       "final variation points:   4301\n"
                       "reduction:                0%\n"
                       f"unconstrained configs:    {HUGE} -> {HUGE}\n")

    def test_report_json_prints_them_in_full(self, capsys, huge_grid_path):
        code, out, err = run(capsys, "report", str(huge_grid_path), str(huge_grid_path),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "initial_vp_count": 4301, "final_vp_count": 4301, "reduction_percentage": 0,
            "unconstrained_before": HUGE, "unconstrained_after": HUGE}

    def test_the_library_raises_budget_exceeded(self, huge_grid_path):
        plm = documents.parse_variability_model(huge_grid_path.read_bytes())
        for call in (configs.count_valid, configs.enumerate_valid):
            with pytest.raises(BudgetExceededError) as exc:
                call(plm, 1)
            assert exc.value.unconstrained == 10**4301
            assert str(exc.value) == (
                f"enumeration budget exceeded: {HUGE} unconstrained configurations (budget 1)")


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "mystify")[0] == 2

    def test_missing_file_is_model_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "derive", "-i", str(tmp_path / "gone.json"),
                           "-o", str(tmp_path / "out.json"))
        assert code == 1
        assert "gone.json" in err

    @pytest.mark.parametrize("command, error", [
        (["configs", "-i", "x", "--count"], "ovmkit configs: error: "),
        (["report", "a", "b"], "ovmkit report: error: "),
    ], ids=["configs", "report"])
    @pytest.mark.parametrize("budget, text", [
        ("1" * 4301, "argument --budget: has more than 4300 digits"),
        ("abc", "argument --budget: invalid int value: 'abc'"),
    ], ids=["4301-digits", "abc"])
    def test_a_budget_that_is_no_int_is_a_usage_error(self, capsys, monkeypatch, command,
                                                       error, budget, text):
        # A budget of more digits than ``int`` reads from text is refused unechoed.
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps the usage to
        # The usage as the running Python's argparse wraps it (3.13 wraps it otherwise).
        subcommands = next(action.choices for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        usage = subcommands[command[0]].format_usage()
        assert usage.startswith(f"usage: ovmkit {command[0]} [-h] ")
        code, out, err = run(capsys, *command, "--budget", budget)
        assert (code, out, err) == (2, "", f"{usage}{error}{text}\n")


class TestCollector:
    """``main`` runs the command with the cyclic collector off and leaves it
    as it found it, whichever way the command ends."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("args, code", [
        (["--count"], 0), (["--enumerate"], 0), (["--count", "--budget", "1"], 3)],
        ids=["count", "enumerate", "budget"])
    def test_a_configs_run(self, capsys, monkeypatch, collector, engine_plm_path, args, code):
        seen = []
        search = configs._search_space
        monkeypatch.setattr(configs, "_search_space",
                            lambda *a: seen.append(gc.isenabled()) or search(*a))
        assert run(capsys, "configs", "-i", str(engine_plm_path), *args)[0] == code
        assert (seen, gc.isenabled()) == ([False], collector)

    @pytest.mark.parametrize("args, code", [
        (["configs", "-i", str(corpus_path("negative", "dangling-variant.json")), "--count"], 1),
        (["mystify"], 2), ([], 2)], ids=["model-error", "unknown-command", "no-command"])
    def test_a_failed_run(self, capsys, collector, args, code):
        assert run(capsys, *args)[0] == code
        assert gc.isenabled() == collector

    def test_an_unexpected_exception(self, monkeypatch, collector, engine_plm_path):
        def crash(*args):
            raise RuntimeError("crash")

        monkeypatch.setattr(configs, "_counts", crash)
        with pytest.raises(RuntimeError):
            main(["configs", "-i", str(engine_plm_path), "--count"])
        assert gc.isenabled() == collector
