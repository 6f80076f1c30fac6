"""Differential and fuzz tests: the table-driven documents layer against the
frozen reference (``reference_documents``, the hand-written reader and
writer it replaced).

Every input goes through the four ``parse_*`` functions of both modules.
Each pair must return equal values, or raise the same exception type with
the same message, and a parsed value must serialize to the same bytes with
both. Every failure must be a ``ParseError`` or ``ModelError``: any other
exception escapes and fails the test. Three differences are allowed. Two
are inputs that the reference accepted:
- an unknown field inside a trace sub-record, which the reference ignored:
  there the test removes the field, checks that the reference did not care,
  and compares the two modules on what is left;
- a lone surrogate (a ``\\u`` escape of an unpaired U+D800 to U+DFFF) in a
  string, which the reference parsed and then could not serialize: there
  the test replaces every surrogate with ``?`` and compares the two modules
  on that.

The third is a group label on a mandatory activity. The reference's reader
refused it while reading the activities; here ``validate`` reports it as
``activity-mandatory-group``, after the whole document is read. There the
test removes the group label of every mandatory activity and compares the
two modules on what is left.
"""

from __future__ import annotations

import ast
import json
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_documents
from conftest import GOLDEN_DIR
from modelgen import random_layered, random_plm
from ovmkit import corpus_dir, corpus_path, documents
from ovmkit.derivation import derive_initial_vm
from ovmkit.model import ModelError
from ovmkit.reduction import reduce

PARSERS = ("parse_layered_model", "parse_variability_model", "parse_configuration", "parse_trace")

# JSON texts, decoded afresh for each use so that no mutation is shared.
REPLACEMENTS = (
    'null', '0', '-1', '1.5', 'true', '""', '"x"', '[]', '{}', '["a"]',
    '"feature"', '"component"', '"material"', '"decomposition"', '"activity-variant"',
)

SUBRECORD_JUNK = re.compile(
    r"body\.merges\[(\d+)\]\.(rebound_bindings|transferred_refinements|transferred_interactions)"
    r"\[(\d+)\]: unknown field (.+)")

LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")

MANDATORY_GROUP = re.compile(
    r"body(\.layered)?\.activities\[\d+\]: mandatory activity .+ cannot carry a group label")

FUZZ = settings(derandomize=True, deadline=None, max_examples=300, database=None)


@lru_cache(maxsize=None)
def base_documents() -> tuple[bytes, ...]:
    """Every bundled corpus and golden, plus serialized random models and
    traces (seeds 25 and 128 give traces with every kind of sub-record)."""
    paths = sorted(corpus_dir().rglob("*.json")) + sorted(GOLDEN_DIR.glob("*.json"))
    docs = [path.read_bytes() for path in paths]
    for seed in (0, 1, 2, 3, 25, 128):
        plm = random_plm(random.Random(seed), max_vps=10, max_variants=30)
        model, trace = reduce(plm)
        docs += [documents.serialize(plm), documents.serialize(model), documents.serialize(trace)]
        layered, products = random_layered(random.Random(seed), label_all_difs=True)
        docs.append(documents.serialize(layered, products=products))
        _, trace = reduce(derive_initial_vm(layered, products))
        docs.append(documents.serialize(trace))
    return tuple(docs)


def _outcome(module, parser: str, data: bytes):
    try:
        return "ok", getattr(module, parser)(data)
    except ModelError as exc:
        return type(exc), str(exc)


def _serialize(module, value) -> bytes:
    if isinstance(value, tuple):
        model, products = value
        return module.serialize(model, products=products)
    return module.serialize(value)


def check_parsers_agree(data: bytes) -> None:
    for parser in PARSERS:
        _check_parser(parser, data)


def _check_parser(parser: str, data: bytes) -> None:
    new = _outcome(documents, parser, data)
    old = _outcome(reference_documents, parser, data)
    junk = SUBRECORD_JUNK.fullmatch(new[1]) if new[0] is documents.ParseError else None
    if new != old and parser == "parse_trace" and junk:
        merge, field, index, key = junk.groups()
        doc = json.loads(data)
        del doc["body"]["merges"][int(merge)][field][int(index)][ast.literal_eval(key)]
        stripped = json.dumps(doc).encode()
        assert _outcome(reference_documents, parser, stripped) == old
        _check_parser(parser, stripped)
        return
    if new != old and old[0] is documents.ParseError and MANDATORY_GROUP.fullmatch(old[1]):
        doc = _drop_mandatory_groups(json.loads(data))
        assert doc != json.loads(data)
        stripped = json.dumps(doc).encode()
        if "activity-mandatory-group [" not in new[1]:
            # A fault later in the document, which the reference never reached.
            assert _outcome(documents, parser, stripped) == new
        _check_parser(parser, stripped)
        return
    if new != old and new[0] is documents.ParseError and "lone surrogate" in new[1]:
        doc = _replace_surrogates(json.loads(data))
        assert doc != json.loads(data)
        _check_parser(parser, json.dumps(doc).encode())
        return
    assert new == old
    if new[0] == "ok":
        assert _serialize(documents, new[1]) == _serialize(reference_documents, new[1])


def _replace_surrogates(value):
    if isinstance(value, str):
        return LONE_SURROGATE.sub("?", value)
    if isinstance(value, dict):
        return {_replace_surrogates(k): _replace_surrogates(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_replace_surrogates(v) for v in value]
    return value


def _drop_mandatory_groups(value):
    """``value`` without the ``group`` key of any object whose ``mandatory`` is true."""
    if isinstance(value, dict):
        return {k: _drop_mandatory_groups(v) for k, v in value.items()
                if not (k == "group" and value.get("mandatory") is True)}
    if isinstance(value, list):
        return [_drop_mandatory_groups(v) for v in value]
    return value


def _paths(value, path=()):
    """Every (container path, key or index) inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw) -> bytes:
    """A base document with one to three mutations: a value replaced, a key
    or array item deleted, or an unknown key added."""
    doc = json.loads(draw(st.sampled_from(base_documents())))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        container = _at(doc, path)
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace":
            container[key] = json.loads(draw(st.sampled_from(REPLACEMENTS)))
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(("junk", "id", "vp", "group")))] = 1
        else:
            container.append(json.loads(draw(st.sampled_from(REPLACEMENTS))))
    return json.dumps(doc).encode()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False)
    | st.sampled_from(("", "x", "1", "feature", "variability-model", "reduction-trace")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(("body", "kind", "schema_version", "merges", "id",
                                       "selection", "activities", "pairing", "x")),
                      children, max_size=4),
    max_leaves=20,
)


def test_base_documents_agree():
    for data in base_documents():
        check_parsers_agree(data)


@FUZZ
@given(mutated_documents())
def test_mutated_documents_agree(data):
    check_parsers_agree(data)


@FUZZ
@given(JSON_VALUES, st.sampled_from(("layered-model", "variability-model",
                                     "product-line-model", "configuration",
                                     "reduction-trace")))
def test_arbitrary_json_agrees(value, kind):
    check_parsers_agree(json.dumps(value).encode())
    envelope = {"schema_version": "1", "kind": kind, "body": value}
    check_parsers_agree(json.dumps(envelope).encode())


def test_lone_surrogates_are_the_other_difference(logistics_path):
    doc = json.loads(logistics_path.read_bytes())
    doc["body"]["variants"][0]["name"] = "x\ud800"
    data = json.dumps(doc).encode()
    accepted = reference_documents.parse_variability_model(data)
    with pytest.raises(UnicodeEncodeError):
        reference_documents.serialize(accepted)
    with pytest.raises(documents.ParseError, match=r"body\.variants\[0\]\.name"):
        documents.parse_variability_model(data)
    check_parsers_agree(data)


def test_a_group_on_a_mandatory_activity_is_refused_by_validate():
    data = corpus_path("negative", "mandatory-group.json").read_bytes()
    assert _outcome(reference_documents, "parse_layered_model", data) == (
        documents.ParseError,
        "body.activities[0]: mandatory activity 'a1' cannot carry a group label")
    assert _outcome(documents, "parse_layered_model", data) == (
        documents.ParseError,
        "document violates model invariants: activity-mandatory-group [a1]: "
        "mandatory activity 'a1' cannot carry a group label")
    ungrouped = json.dumps(_drop_mandatory_groups(json.loads(data))).encode()
    assert _outcome(documents, "parse_layered_model", ungrouped)[0] == "ok"
    check_parsers_agree(ungrouped)
    check_parsers_agree(data)


def test_trace_subrecord_junk_is_the_only_difference():
    trace = {"schema_version": "1", "kind": "reduction-trace", "body": {"pass_count": 1}}
    trace["body"]["merges"] = [{
        "source_vp": "a", "target_vp": "b", "pairing": {},
        "rebound_bindings": [{"activity": "x", "from_variant": "y", "to_variant": "z",
                              "junk": 1}],
    }]
    check_parsers_agree(json.dumps(trace).encode())
