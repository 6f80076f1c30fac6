"""The workloads: their inputs, the library calls they time, and the
checks on their outputs.

A workload is a list of cases, one per generated model. ``setup`` builds
the cases from a seed and serializes every input, so the timed code starts
from document bytes as the CLI does. ``run`` drives one case through the
same public functions the CLI commands call; it looks each function up on
its module at call time, so the traced run's wrappers see every call.
``check`` inspects the outputs of one case outside the timed region and
returns what is wrong with them.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from ovmkit import cli, configs, derivation, documents, reduction
from ovmkit.configs import Configuration
from ovmkit.model import validate

import gen

BUDGET = configs.DEFAULT_BUDGET
CHAIN_DEPTH = 2000


@dataclass
class Case:
    model_id: str
    inputs: tuple[bytes, ...]
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[random.Random], list[Case]]
    run: Callable[[Case], tuple]
    check: Callable[[Case, tuple], list[str]]
    chain: bool = False


def digest(outputs) -> str:
    """Hash of a case's outputs: document bytes as they are, other values by
    their repr (counts, report fields, configuration id lists)."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(out if isinstance(out, bytes) else repr(out).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- reduce-forest ------------------------------------------------------------

def setup_reduce(rng: random.Random) -> list[Case]:
    return [
        Case(f"forest{k}", (documents.serialize(
            gen.forest(rng, [3] * 246, 744, n_bound=150, n_pairs=2)),), {"merges": 2})
        for k in range(3)
    ]


def run_reduce(case: Case):
    plm = documents.parse_variability_model(case.inputs[0])
    reduced, trace = reduction.reduce(plm)
    return documents.serialize(reduced), documents.serialize(trace)


def check_reduce(case: Case, outputs) -> list[str]:
    errors = _check_reduction(case.inputs[0], outputs[0], outputs[1])
    if not errors:
        merges = len(documents.parse_trace(outputs[1]).merges)
        if merges < case.facts["merges"]:
            errors.append(f"{merges} merges, but {case.facts['merges']} pairs were planted")
    return errors


# -- pipeline-derived ---------------------------------------------------------

PIPELINE_SIZES = (450, 485, 520, 555, 590, 625, 660, 700)


def setup_pipeline(rng: random.Random) -> list[Case]:
    cases = []
    for k, size in enumerate(PIPELINE_SIZES * 2):
        case = gen.layered_model(rng, size, size, with_products=k % 2 == 0, n_pairs=4)
        cases.append(Case(
            f"pipeline{k}", (documents.serialize(case.model, products=case.products),),
            {"vps": case.n_groups, "variants": case.n_variable}))
    return cases


def run_pipeline(case: Case):
    model, products = documents.parse_layered_model(case.inputs[0])
    derived = documents.serialize(derivation.derive_initial_vm(model, products))
    before = documents.parse_variability_model(derived)
    reduced, trace = reduction.reduce(before)
    reduced_bytes, trace_bytes = documents.serialize(reduced), documents.serialize(trace)
    report = cli.build_report(before, reduced, trace, BUDGET)
    return derived, reduced_bytes, trace_bytes, report


def check_pipeline(case: Case, outputs) -> list[str]:
    derived, reduced, trace, report = outputs
    errors = _check_derived(case, derived) + _check_reduction(derived, reduced, trace)
    if errors:
        return errors
    before = documents.parse_variability_model(derived)
    after = documents.parse_variability_model(reduced)
    merges = documents.parse_trace(trace).merges
    initial, final = len(before.vm.variation_points), len(after.vm.variation_points)
    expected = (
        initial, final, round(100 * (initial - final) / initial) if initial else 0,
        tuple((m.source_vp_id, m.target_vp_id) for m in merges))
    got = (report.initial_vp_count, report.final_vp_count,
           report.reduction_percentage, report.merges)
    if got != expected:
        errors.append(f"report {got} does not match the models and trace {expected}")
    for label, count, valid in (
            ("before", report.unconstrained_before, report.valid_before),
            ("after", report.unconstrained_after, report.valid_after)):
        if count <= BUDGET or valid is not None:
            errors.append(f"report {label}: expected the budget refusal path, got "
                          f"{count} unconstrained, valid {valid}")
    return errors


# -- configs-enumerate --------------------------------------------------------

def setup_configs(rng: random.Random) -> list[Case]:
    cases = []
    for k, (bound, n_interactions) in enumerate(((True, 10), (False, 0))):
        case = gen.config_model(rng, n_interactions, bound=bound)
        config = documents.serialize(Configuration(selection=case.selection))
        cases.append(Case(
            f"configs{k}", (documents.serialize(case.plm), config),
            {"unconstrained": case.unconstrained, "selection": case.selection,
             "all_valid": not bound and not n_interactions}))
    return cases


def run_configs(case: Case):
    # The library calls behind `configs --count`, `--enumerate` and
    # `--validate`, each starting from the document bytes.
    plm = documents.parse_variability_model(case.inputs[0])
    count = (configs.unconstrained_count(plm.vm), len(configs.enumerate_valid(plm, BUDGET)))
    plm = documents.parse_variability_model(case.inputs[0])
    listed = [c.sorted_ids() for c in configs.enumerate_valid(plm, BUDGET)]
    plm = documents.parse_variability_model(case.inputs[0])
    cfg = documents.parse_configuration(case.inputs[1])
    violations = [str(v) for v in configs.validate_config(plm, cfg)]
    return count, listed, violations


def check_configs(case: Case, outputs) -> list[str]:
    (unconstrained, valid), listed, violations = outputs
    errors = []
    if unconstrained != case.facts["unconstrained"]:
        errors.append(f"{unconstrained} unconstrained, expected {case.facts['unconstrained']}")
    if valid != len(listed):
        errors.append(f"count says {valid} valid but enumeration lists {len(listed)}")
    if listed != sorted(set(listed)):
        errors.append("enumeration is not sorted and duplicate-free")
    if not 0 < len(listed) <= unconstrained:
        errors.append(f"{len(listed)} valid configurations out of {unconstrained}")
    if case.facts["all_valid"] and len(listed) != unconstrained:
        errors.append(f"no bindings and no interactions, yet only {len(listed)} of "
                      f"{unconstrained} selections are valid")
    plm = documents.parse_variability_model(case.inputs[0])
    for ids in (listed[0], listed[-1]) if listed else ():
        if configs.validate_config(plm, Configuration(selection=frozenset(ids))):
            errors.append(f"enumerated configuration {ids} does not validate")
    listed_selection = tuple(sorted(case.facts["selection"])) in set(listed)
    if listed_selection == bool(violations):
        errors.append("validating the chosen configuration disagrees with the enumeration")
    return errors


# -- deep chain ---------------------------------------------------------------

def chain_attempts(chain_bytes: bytes) -> Iterator[tuple[str, str | None]]:
    """Feed a valid chain CHAIN_DEPTH deep to reduce, unconstrained_count
    and enumerate_valid. Yields (call, error or None) per attempt; a call
    that raises is a failed operation."""
    plm = documents.parse_variability_model(chain_bytes)
    attempts = (
        ("reduce", lambda: reduction.reduce(plm),
         lambda r: r[1].merges == () and documents.serialize(r[0]) == chain_bytes),
        ("unconstrained_count", lambda: configs.unconstrained_count(plm.vm),
         lambda r: r == 1),
        ("enumerate_valid", lambda: configs.enumerate_valid(plm, BUDGET),
         lambda r: [c.selection for c in r] == [frozenset(v.id for v in plm.vm.variants)]),
    )
    for name, call, ok in attempts:
        try:
            result = call()
        except RecursionError:
            yield name, "RecursionError"
            continue
        except Exception as exc:  # anything else is a new failure
            yield name, f"raised {type(exc).__name__}: {exc}"
            continue
        yield name, None if ok(result) else "wrong result"


# -- shared checks ------------------------------------------------------------

def _check_derived(case: Case, data: bytes) -> list[str]:
    """The derived model round-trips and has the variation points and
    variants the generator planned."""
    derived = _round_trip(data, "derived model")
    if isinstance(derived, str):
        return [derived]
    errors = []
    if len(derived.vm.variation_points) != case.facts["vps"]:
        errors.append(f"{len(derived.vm.variation_points)} variation points, "
                      f"expected {case.facts['vps']}")
    if len(derived.vm.variants) != case.facts["variants"]:
        errors.append(f"{len(derived.vm.variants)} variants, expected {case.facts['variants']}")
    return errors


def _round_trip(data: bytes, what: str):
    """The parsed model, or a message when it does not validate or does not
    re-serialize byte-identically."""
    try:
        plm = documents.parse_variability_model(data)
    except documents.ParseError as exc:
        return f"{what} does not parse: {exc}"
    if validate(plm):
        return f"{what} violates model invariants"
    if documents.serialize(plm) != data:
        return f"{what} does not round-trip byte-identically"
    return plm


def _check_reduction(model: bytes, reduced: bytes, trace: bytes) -> list[str]:
    """The reduced model round-trips, and replaying the trace's merges on the
    input gives it back."""
    after = _round_trip(reduced, "reduced model")
    if isinstance(after, str):
        return [after]
    parsed = documents.parse_trace(trace)
    if documents.serialize(parsed) != trace:
        return ["trace does not round-trip byte-identically"]
    current = documents.parse_variability_model(model)
    for i, record in enumerate(parsed.merges):
        try:
            current, applied = reduction.merge(current, record.source_vp_id, record.target_vp_id)
        except reduction.ReductionError as exc:
            return [f"trace merge {i} does not replay: {exc}"]
        if applied != record:
            return [f"trace merge {i} replays to a different record"]
    if current != after:
        return ["replaying the trace does not give the reduced model"]
    return _check_merge_effects(documents.parse_variability_model(model), parsed, after)


def _check_merge_effects(before, trace, after) -> list[str]:
    """Apply each record's pairing to the input's variation points,
    interactions and activity bindings without ovmkit's merge, and compare
    with the reduced model."""
    vps = {vp.id for vp in before.vm.variation_points}
    edges = {(e.from_id, e.to_id) for e in before.vm.variant_interactions}
    bound = {(b.source_id, b.target_id) for b in before.activity_bindings()}
    for record in trace.merges:
        pairing = record.pairing()
        vps.discard(record.target_vp_id)
        moved = ((pairing.get(f, f), pairing.get(t, t)) for f, t in edges)
        edges = {(f, t) for f, t in moved if f != t}
        bound = {(a, pairing.get(v, v)) for a, v in bound}
    errors = []
    if vps != {vp.id for vp in after.vm.variation_points}:
        errors.append("the reduced model's variation points are not the input's minus the targets")
    if edges != {(e.from_id, e.to_id) for e in after.vm.variant_interactions}:
        errors.append("the reduced model's interactions are not the input's moved by the pairings")
    if bound != {(b.source_id, b.target_id) for b in after.activity_bindings()}:
        errors.append("the reduced model's bindings are not the input's moved by the pairings")
    return errors


WORKLOADS = {w.name: w for w in (
    Workload("reduce-forest", setup_reduce, run_reduce, check_reduce, chain=True),
    Workload("pipeline-derived", setup_pipeline, run_pipeline, check_pipeline),
    Workload("configs-enumerate", setup_configs, run_configs, check_configs, chain=True),
)}
