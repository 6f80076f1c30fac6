"""The public entries that read a model, and the text each raises on a
model ``validate`` rejects: the first five violations, then a count, as a
parse error gives them for a document."""

from __future__ import annotations

from ovmkit.cli import build_report
from ovmkit.configs import (
    Configuration,
    count_valid,
    enumerate_valid,
    unconstrained_count,
    validate_config,
)
from ovmkit.derivation import (
    DiffResult,
    create_variation_points,
    derive_initial_vm,
    diff,
    map_layers,
)
from ovmkit.model import Layer, LayeredModel, ProductLineModel, ProductSet, tree_size
from ovmkit.reduction import (
    ReductionTrace,
    check_completeness,
    check_uniqueness,
    forest_preserved,
    interacting_pairs,
    main_root,
    merge,
    reduce,
    verify_trace,
)


def refusal_text(violations) -> str:
    more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
    return f"model violates model invariants: {'; '.join(map(str, violations[:5]))}{more}"


def plm_entries(plm: ProductLineModel, a: str, b: str) -> dict:
    """A call of each entry that checks the whole model, by name; ``a`` and
    ``b`` are variation point ids."""
    return {
        "merge": lambda: merge(plm, a, b),
        "reduce": lambda: reduce(plm),
        "verify_trace": lambda: verify_trace(plm, ReductionTrace(pass_count=1), plm),
        "map_layers": lambda: map_layers(plm, Layer.COMPONENT, Layer.FUNCTIONAL),
        "enumerate_valid": lambda: enumerate_valid(plm),
        "count_valid": lambda: count_valid(plm),
        "validate_config": lambda: validate_config(plm, Configuration()),
        "build_report": lambda: build_report(plm, plm, None, 1),
    }


def layered_entries(model: LayeredModel, products: ProductSet) -> dict:
    """A call of each derivation entry that takes a layered model, by name.
    The model is refused before ``products`` is read."""
    return {
        "diff": lambda: diff(model),
        "diff with products": lambda: diff(model, products),
        "create_variation_points": lambda: create_variation_points(DiffResult(()), model),
        "derive_initial_vm": lambda: derive_initial_vm(model, products),
        "derive_initial_vm strict": lambda: derive_initial_vm(model, products, strict=True),
    }


def vm_entries(plm: ProductLineModel, a: str, b: str) -> dict:
    """A call of each entry that checks only the variability model, by name."""
    vm = plm.vm
    return {
        "interacting_pairs": lambda: interacting_pairs(vm, a),
        "check_completeness": lambda: check_completeness(vm, a, b),
        "check_uniqueness": lambda: check_uniqueness(vm, a, b),
        "forest_preserved": lambda: forest_preserved(vm, a, b),
        "main_root": lambda: main_root(vm),
        "tree_size": lambda: tree_size(vm, a),
        "unconstrained_count": lambda: unconstrained_count(vm),
    }
