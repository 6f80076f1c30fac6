"""The cyclic collector during the library's calls.

A call that builds or writes a model, a trace or a configuration list in
bulk, or compares two models, runs with the collector off, through
``model._collector_paused``; so does ``cli.main``, for a whole command. A
paused call that found the collector on turns it back on when it returns or
raises, even if another thread turned it off meanwhile; one that found it
off leaves it off. The calls that read one configuration or count run with
the collector as the caller left it. A model is a tree of records, so a run
of the pipeline leaves nothing for the collector to find.
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
    "cli.build_report": (
        lambda: cli.build_report(_plm(), _plm(), None, None), configs, "_counts"),
    "cli.main": (lambda: cli.main(["configs", "-i", str(ENGINE), "--count"]),
                 configs, "_search_space"),
}


# The calls that run unpaused, in the same form.
UNPAUSED = {
    "documents.parse_configuration": (lambda: documents.parse_configuration(
        corpus_path("configs", "engine-valid.json").read_bytes()), documents, "_body"),
    "configs.count_valid": (lambda: configs.count_valid(_plm()), configs, "_search_space"),
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


def _observed(monkeypatch, call, module, attr, raises: bool) -> list[bool]:
    """Whether the collector was on each time ``call`` reached ``module.attr``,
    which raises ``Crash`` there when ``raises``."""
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
    assert seen
    return seen


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("call, module, attr", ENTRIES.values(), ids=list(ENTRIES))
def test_an_entry_runs_with_the_collector_off_and_restores_it(
        monkeypatch, collector, call, module, attr, raises):
    assert not any(_observed(monkeypatch, call, module, attr, raises))
    assert gc.isenabled() == collector


@pytest.mark.parametrize("call, module, attr", UNPAUSED.values(), ids=list(UNPAUSED))
def test_an_unpaused_call_runs_with_the_collector_as_the_caller_left_it(
        monkeypatch, collector, call, module, attr):
    assert set(_observed(monkeypatch, call, module, attr, False)) == {collector}
    assert gc.isenabled() == collector


@pytest.mark.parametrize("collector", [True], ids=["on"], indirect=True)
def test_a_paused_call_that_found_the_collector_on_turns_it_on_at_its_end(
        monkeypatch, collector):
    """Even when something turned it off meanwhile, as another thread may."""
    plm = _plm()

    def turn_off(*args):
        gc.disable()
        raise Crash

    monkeypatch.setattr(configs, "_search_space", turn_off)
    with pytest.raises(Crash):
        configs.enumerate_valid(plm)
    assert gc.isenabled()


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
