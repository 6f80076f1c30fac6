"""Toolkit for orthogonal variability models derived from layered activity models."""

from pathlib import Path

from .configs import (
    BudgetExceededError,
    Configuration,
    count_valid,
    enumerate_valid,
    unconstrained_count,
    validate_config,
)
from .derivation import (
    DerivationError,
    DiffGroup,
    DiffResult,
    create_variation_points,
    derive_initial_vm,
    diff,
    map_layers,
)
from .documents import (
    ParseError,
    parse_configuration,
    parse_layered_model,
    parse_trace,
    parse_variability_model,
    serialize,
)
from .model import (
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
    Product,
    ProductLineModel,
    ProductSet,
    Refinement,
    RefinementKind,
    VariabilityModel,
    VariabilityRefinement,
    VariationPoint,
    Variant,
    Violation,
    roots,
    tree_size,
    validate,
)
from .reduction import (
    MergeRecord,
    ReductionError,
    ReductionTrace,
    check_completeness,
    check_uniqueness,
    interacting_pairs,
    main_root,
    merge,
    reduce,
    verify_trace,
)

__version__ = "0.1.0"


def corpus_dir() -> Path:
    """Directory holding the bundled corpora."""
    return Path(__file__).resolve().parent / "corpus"


def corpus_path(*parts: str) -> Path:
    return corpus_dir().joinpath(*parts)
