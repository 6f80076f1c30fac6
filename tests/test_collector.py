"""The cyclic collector during the library's whole-model calls.

Each entry that reads, builds or writes a whole model runs with the
collector off, through ``model._collector_paused``, and leaves it as it
found it, on return and on a raise. ``cli.main`` runs a command through the
same helper. A model is a tree of records, so a run of the pipeline leaves
nothing for the collector to find.
"""

from __future__ import annotations

import gc
from pathlib import Path
from random import Random

import pytest

from modelgen import random_plm
from ovmkit import cli, configs, corpus_path, derivation, documents, model, reduction
from ovmkit.model import Layer

GOLDEN = Path(__file__).parent / "golden"
ENGINE = corpus_path("engine-flat-plm.json")
LAYERED = ("engine-flat-layered.json", "engine-hierarchical-layered.json")
MODELS = ("engine-flat-plm.json", "logistics-vm.json", "empty-vm.json")


def _plm():
    return documents.parse_variability_model(ENGINE.read_bytes())


def _layered():
    return documents.parse_layered_model(corpus_path(LAYERED[0]).read_bytes())


# entry: (a call of it, and a module attribute the entry calls, to observe it from inside)
ENTRIES = {
    "documents.parse_layered_model": (_layered, documents, "_body"),
    "documents.parse_variability_model": (_plm, documents, "_body"),
    "documents.parse_configuration": (lambda: documents.parse_configuration(
        corpus_path("configs", "engine-valid.json").read_bytes()), documents, "_body"),
    "documents.parse_trace": (lambda: documents.parse_trace(
        (GOLDEN / "engine-flat-trace.json").read_bytes()), documents, "_body"),
    "documents.serialize": (lambda: documents.serialize(_plm()), documents, "_escape"),
    "derivation.derive_initial_vm": (
        lambda: derivation.derive_initial_vm(*_layered()), derivation, "diff"),
    "derivation.map_layers": (lambda: derivation.map_layers(
        _plm(), Layer.COMPONENT, Layer.FUNCTIONAL), derivation, "check_valid"),
    "reduction.reduce": (lambda: reduction.reduce(_plm()), reduction, "roots"),
    "configs.enumerate_valid": (
        lambda: configs.enumerate_valid(_plm()), configs, "_search_space"),
    "configs.count_valid": (lambda: configs.count_valid(_plm()), configs, "_search_space"),
    "cli.build_report": (
        lambda: cli.build_report(_plm(), _plm(), None, None), configs, "_counts"),
    "cli.main": (lambda: cli.main(["configs", "-i", str(ENGINE), "--count"]),
                 configs, "_search_space"),
}


class Crash(Exception):
    pass


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_the_entries_are_every_paused_function():
    paused = model._collector_paused(None).__code__
    found = {f"{module.__name__.rpartition('.')[2]}.{name}"
             for module in (cli, configs, derivation, documents, model, reduction)
             for name, value in vars(module).items()
             if getattr(value, "__code__", None) is paused and value.__module__ == module.__name__}
    assert found == set(ENTRIES)


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("call, module, attr", ENTRIES.values(), ids=list(ENTRIES))
def test_an_entry_runs_with_the_collector_off_and_restores_it(
        monkeypatch, collector, call, module, attr, raises):
    seen, inner = [], getattr(module, attr)

    def observe(*args, **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise Crash
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, observe)
    if raises:
        with pytest.raises(Crash):
            call()
    else:
        call()
    assert seen and not any(seen)
    assert gc.isenabled() == collector


def test_a_run_leaves_no_cyclic_garbage():
    """With the collector off, derive, reduce, report and enumerate over
    every corpus and a seeded random model leave nothing to collect."""
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        plms = [documents.parse_variability_model(corpus_path(name).read_bytes())
                for name in MODELS] + [random_plm(Random(3), max_vps=12, max_variants=30)]
        for name in LAYERED:
            derived = derivation.derive_initial_vm(
                *documents.parse_layered_model(corpus_path(name).read_bytes()))
            plms.append(documents.parse_variability_model(documents.serialize(derived)))
        for plm in plms:
            reduced, trace = reduction.reduce(plm)
            reduced = documents.parse_variability_model(documents.serialize(reduced))
            trace = documents.parse_trace(documents.serialize(trace))
            reduction.verify_trace(plm, trace, reduced)
            report = cli.build_report(plm, reduced, trace, None)
            assert report.valid_before == len(configs.enumerate_valid(plm))
            assert report.valid_after == configs.count_valid(reduced)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
