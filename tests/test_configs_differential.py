"""Differential tests: the pruned configuration search against the frozen
generate-and-test oracle (``reference_configs``, the enumerator it replaced).

For every model both must list the same configurations in the same order,
or both refuse with the same unconstrained count.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_configs
from conftest import GOLDEN_DIR
from modelgen import random_plm
from ovmkit import corpus_dir, documents
from ovmkit.configs import BudgetExceededError, enumerate_valid, validate_config
from ovmkit.derivation import derive_initial_vm
from ovmkit.reduction import reduce

BUDGET = 5000  # models up to this many unconstrained selections are enumerated

FUZZ = settings(derandomize=True, deadline=None, max_examples=250, database=None)


def _outcome(enumerate_fn, plm):
    try:
        return [c.sorted_ids() for c in enumerate_fn(plm, BUDGET)]
    except BudgetExceededError as exc:
        return "refused", exc.unconstrained


def same_configurations(plm) -> bool:
    return _outcome(enumerate_valid, plm) == _outcome(reference_configs.enumerate_valid, plm)


def _bundled_models():
    """Every model among the bundled corpora and goldens: variability models
    as they are, layered models derived; each also reduced."""
    paths = sorted(corpus_dir().rglob("*.json")) + sorted(GOLDEN_DIR.glob("*.json"))
    for path in paths:
        data = path.read_bytes()
        try:
            kind = documents.load_document(data).kind
            if kind == "variability-model":
                plm = documents.parse_variability_model(data)
            elif kind == "layered-model":
                plm = derive_initial_vm(*documents.parse_layered_model(data))
            else:
                continue
        except documents.ParseError:
            continue  # the negative corpus
        yield path.name, plm
        yield path.name + " reduced", reduce(plm)[0]


def test_bundled_corpora_and_goldens():
    models = dict(_bundled_models())
    assert {"logistics-vm.json", "engine-hierarchical-layered.json"} <= models.keys()
    assert [name for name, plm in models.items() if not same_configurations(plm)] == []


def test_bundled_configurations_listed_exactly_when_valid(engine_plm):
    listed = {c.sorted_ids() for c in enumerate_valid(engine_plm)}
    paths = sorted((corpus_dir() / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cfg = documents.parse_configuration(path.read_bytes())
        assert (cfg.sorted_ids() in listed) == (validate_config(engine_plm, cfg) == [])


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(((4, 12), (8, 25), (14, 40), (25, 70))),
    keep_bindings=st.booleans(),
    keep_interactions=st.booleans(),
)
def test_random_models(seed, shape, keep_bindings, keep_interactions):
    max_vps, max_variants = shape
    plm = random_plm(random.Random(seed), max_vps=max_vps, max_variants=max_variants)
    if not keep_bindings:
        plm = replace(plm, bindings=())
    if not keep_interactions:
        plm = replace(plm, vm=replace(plm.vm, variant_interactions=()))
    assert same_configurations(plm)
