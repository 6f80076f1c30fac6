"""Span recording for the traced run, from outside the library.

``Tracer.install`` swaps public functions on the ovmkit modules for wrappers.
The library calls its own stages through module globals (``reduce`` calls
``check_completeness``, ``derive_initial_vm`` calls ``map_layers``), so a
wrapper on the module attribute sees those inner calls too. Each wrapper
records the span name, start, end, parent span, the id of the model being
processed, and one number about the call (its result or its input size).
Spans stay in memory until the run writes them out; ``restore`` puts the
originals back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from ovmkit import cli, configs, derivation, documents, reduction
from ovmkit.model import Layer

_PASS_NAMES = {
    (Layer.COMPONENT, Layer.FUNCTIONAL): "component_functional",
    (Layer.FUNCTIONAL, Layer.FEATURE): "functional_feature",
    (Layer.FEATURE, Layer.FEATURE): "feature_feature",
}


def _map_layers_name(args, kwargs) -> str:
    return "derivation.map_layers." + _PASS_NAMES[(args[1], args[2])]


# (module, attribute, span name or a function of the call's arguments,
#  the number recorded from (args, result))
TARGETS = (
    (documents, "parse_layered_model", "documents.parse", lambda a, r: len(a[0])),
    (documents, "parse_variability_model", "documents.parse", lambda a, r: len(a[0])),
    (documents, "parse_trace", "documents.parse", lambda a, r: len(a[0])),
    (documents, "parse_configuration", "documents.parse", lambda a, r: len(a[0])),
    (documents, "serialize", "documents.serialize", lambda a, r: len(r)),
    (documents, "validate", "model.validate", lambda a, r: len(r)),
    (derivation, "derive_initial_vm", "derivation.derive",
     lambda a, r: len(r.vm.variant_interactions)),
    (derivation, "diff", "derivation.diff", lambda a, r: len(r.groups)),
    (derivation, "create_variation_points", "derivation.create_variation_points",
     lambda a, r: len(r.vm.variation_points)),
    (derivation, "map_layers", _map_layers_name, lambda a, r: 0),
    (reduction, "reduce", "reduction.reduce", lambda a, r: r[1].pass_count),
    (reduction, "roots", "reduction.roots", lambda a, r: len(r)),
    (reduction, "tree_size", "reduction.tree_size", lambda a, r: r),
    (reduction, "interacting_pairs", "reduction.interacting_pairs", lambda a, r: len(r)),
    (reduction, "check_completeness", "reduction.check_completeness", lambda a, r: int(r)),
    (reduction, "check_uniqueness", "reduction.check_uniqueness", lambda a, r: int(r)),
    (reduction, "forest_preserved", "reduction.forest_preserved", lambda a, r: int(r)),
    (reduction, "merge", "reduction.merge", lambda a, r: 0),
    (configs, "unconstrained_count", "configs.unconstrained_count", lambda a, r: 0),
    (configs, "enumerate_valid", "configs.enumerate_valid", lambda a, r: len(r)),
    (configs, "validate_config", "configs.validate_config", lambda a, r: int(not r)),
    (cli, "build_report", "cli.build_report", lambda a, r: 0),
)

# A span is (name, start_ns, end_ns, parent index or -1, model id, value);
# value is -1 when the call raised.
NAME, START, END, PARENT, MODEL, VALUE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.model_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, value in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, value))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, fn, name, value):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            span_name = name if isinstance(name, str) else name(args, kwargs)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (span_name, start, clock(), parent, self.model_id, -1)
                raise
            finally:
                stack.pop()
            spans[index] = (span_name, start, clock(), parent, self.model_id, value(args, result))
            return result

        return wrapper



def write_spans(spans: list[tuple], path: Path) -> None:
    """One JSON object per span; ``parent`` is the parent's ``id``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for i, (name, start, end, parent, model, value) in enumerate(spans):
            out.write(json.dumps({
                "id": i, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent, "model": model, "value": value}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer times (seconds), counts and ratios from one traced batch."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]

    total = defaultdict(int)      # ns, by name
    self_ns = defaultdict(int)    # ns, by name
    under = defaultdict(int)      # ns, by (name, parent name)
    calls = defaultdict(int)      # by (name, parent name)
    value_sum = defaultdict(int)  # by (name, parent name)
    for i, span in enumerate(spans):
        name = span[NAME]
        ns = span[END] - span[START]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        total[name] += ns
        self_ns[name] += ns - child_ns[i]
        under[name, parent] += ns
        calls[name, parent] += 1
        value_sum[name, parent] += max(span[VALUE], 0)

    def s(ns: int) -> float:
        return ns / 1e9

    def sum_values(name: str) -> int:
        return sum(v for (n, _), v in value_sum.items() if n == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    checks = ("check_completeness", "check_uniqueness", "forest_preserved")
    m = {
        "documents.parse.s": s(total["documents.parse"]),
        "documents.parse.self_s": s(self_ns["documents.parse"]),
        "documents.serialize.s": s(total["documents.serialize"]),
        "documents.bytes_in": sum_values("documents.parse"),
        "documents.bytes_out": sum_values("documents.serialize"),
        "model.validate.s": s(total["model.validate"]),
        "model.validate.calls": sum(c for (n, _), c in calls.items() if n == "model.validate"),
        "derivation.diff.s": s(total["derivation.diff"]),
        "derivation.create_variation_points.s": s(total["derivation.create_variation_points"]),
        "derivation.vps_created": sum_values("derivation.create_variation_points"),
        "derivation.variant_edges": sum_values("derivation.derive"),
        "reduction.reduce.s": s(total["reduction.reduce"]),
        "reduction.tree_order.s": s(
            under["reduction.roots", "reduction.reduce"]
            + under["reduction.tree_size", "reduction.reduce"]),
        "reduction.interacting_pairs.s": s(total["reduction.interacting_pairs"]),
        "reduction.merge.s": s(total["reduction.merge"]),
        "reduction.merge.recheck_s": s(sum(
            under[f"reduction.{c}", "reduction.merge"] for c in checks)),
        "reduction.passes": sum_values("reduction.reduce"),
        "reduction.merges": calls["reduction.merge", "reduction.reduce"],
        "reduction.pairs_examined": calls["reduction.check_completeness", "reduction.reduce"],
        "cli.build_report.s": s(total["cli.build_report"]),
        "configs.unconstrained_count.s": s(total["configs.unconstrained_count"]),
        "configs.enumerate_valid.s": s(total["configs.enumerate_valid"]),
        "configs.validate_config.s": s(total["configs.validate_config"]),
        "configs.selections_tried": calls["configs.validate_config", "configs.enumerate_valid"],
        "configs.valid_found": value_sum["configs.validate_config", "configs.enumerate_valid"],
    }
    for layer_pass in _PASS_NAMES.values():
        key = f"derivation.map_layers.{layer_pass}"
        m[key + ".s"] = s(total[key])
    for check, reason in zip(checks, ("completeness", "uniqueness", "forest")):
        key = f"reduction.{check}", "reduction.reduce"
        m[f"reduction.{check}.s"] = s(under[key])
        m[f"reduction.rejected.{reason}"] = calls[key] - value_sum[key]
    m["reduction.merge_yield"] = ratio(m["reduction.merges"], m["reduction.pairs_examined"])
    m["configs.valid_yield"] = ratio(m["configs.valid_found"], m["configs.selections_tried"])
    return m
