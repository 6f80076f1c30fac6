"""Batch command-line front end.

Commands: ``derive`` (layered model in, variability model out), ``reduce``
(variability model in, optimized model out, optional trace), ``report``
(before/after comparison with counts and reduction percentage), and
``configs`` (count, enumerate, or validate configurations).

Exit codes: 0 success, 1 model or validation error, 2 usage error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import configs as configspace
from . import documents
from .configs import BudgetExceededError
from .derivation import derive_initial_vm
from .model import ModelError, ProductLineModel, _collector_paused
from .reduction import ReductionTrace, reduce, verify_trace

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class ReductionReport:
    """Before/after counts for a reduction run.

    ``merges`` lists (source, target) pairs and is only known when a trace
    is supplied; valid counts are omitted when enumeration would exceed the
    budget. The percentage is rounded to the nearest integer, a half to the
    even one (``round``): 1 merge of 8 variation points gives 12.
    """

    initial_vp_count: int
    final_vp_count: int
    reduction_percentage: int
    unconstrained_before: int
    unconstrained_after: int
    valid_before: int | None
    valid_after: int | None
    merges: tuple[tuple[str, str], ...] | None


@_collector_paused
def build_report(
    before: ProductLineModel,
    after: ProductLineModel,
    trace: ReductionTrace | None,
    budget: int | None,
) -> ReductionReport:
    """Compare the models. Each is checked, and its space counted once, by
    ``configs._counts`` under ``budget`` (``None``: ``default_budget()``);
    a model over the budget gets no valid count. Of a trace, only the ids
    are checked here; ``verify_trace``, which ``report`` runs first, replays it."""
    initial = len(before.vm.variation_points)
    final = len(after.vm.variation_points)
    percentage = round(100 * (initial - final) / initial) if initial else 0

    def counts(plm: ProductLineModel) -> tuple[int, int | None]:
        try:
            return configspace._counts(plm, budget)
        except BudgetExceededError as exc:
            return exc.unconstrained, None

    merges = None
    if trace is not None:
        merges = tuple((m.source_vp_id, m.target_vp_id) for m in trace.merges)
        if len(merges) != initial - final:
            raise ModelError(
                f"trace lists {len(merges)} merges but the models differ by "
                f"{initial - final} variation points")
        vps = before.vm._index.vps
        left = vps.keys() - after.vm._index.vps.keys()  # to remove, once each
        for i, (source, target) in enumerate(merges):
            if source not in vps:
                raise ModelError(f"trace merge {i}: the model before lacks source {source!r}")
            if target not in left:
                raise ModelError(f"trace merge {i}: target {target!r} is not left to remove")
            left.remove(target)
        if left:
            raise ModelError(f"no trace merge removes {min(left)!r}, which the model after lacks")
    unconstrained_before, valid_before = counts(before)
    unconstrained_after, valid_after = counts(after)
    return ReductionReport(
        initial_vp_count=initial,
        final_vp_count=final,
        reduction_percentage=percentage,
        unconstrained_before=unconstrained_before,
        unconstrained_after=unconstrained_after,
        valid_before=valid_before,
        valid_after=valid_after,
        merges=merges,
    )


def _budget(raw: str) -> int:
    """``--budget``'s type: ``int``, refusing a text of too many digits without it."""
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            configspace._too_long(raw) or f"invalid int value: {raw!r}") from None


def _path(raw: str) -> str:
    """``--trace``'s and ``--validate``'s type: refuses ``""``, which would read as absent."""
    if not raw:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovmkit",
        description="Derive, reduce, and analyze variability models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive_p = sub.add_parser("derive", help="derive a variability model from a layered model")
    derive_p.set_defaults(run=_cmd_derive)
    derive_p.add_argument("-i", "--input", required=True, help="layered-model document ('-' for stdin)")
    derive_p.add_argument("-o", "--output", required=True, help="output path ('-' for stdout)")
    derive_p.add_argument(
        "--strict-alg1", action="store_true",
        help="only add hierarchy edges witnessed by an interaction between variable activities")

    reduce_p = sub.add_parser("reduce", help="merge variation points where checks allow")
    reduce_p.set_defaults(run=_cmd_reduce, parser=reduce_p)
    reduce_p.add_argument("-i", "--input", required=True, help="variability or product-line document ('-' for stdin)")
    reduce_p.add_argument("-o", "--output", required=True, help="output path ('-' for stdout)")
    reduce_p.add_argument("--trace", type=_path, help="also write the merge trace document here")

    report_p = sub.add_parser("report", help="compare models before and after reduction")
    report_p.set_defaults(run=_cmd_report)
    report_p.add_argument("before", help="model document before reduction")
    report_p.add_argument("after", help="model document after reduction")
    report_p.add_argument("--trace", type=_path, help="trace document (adds the merge list)")
    report_p.add_argument("--budget", type=_budget, help="enumeration budget for valid counts")
    report_p.add_argument("--format", choices=("json", "table"), default="table")

    configs_p = sub.add_parser("configs", help="count, enumerate, or validate configurations")
    configs_p.set_defaults(run=_cmd_configs)
    configs_p.add_argument("-i", "--input", required=True, help="model document ('-' for stdin)")
    mode = configs_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true", help="print unconstrained and valid counts")
    mode.add_argument("--enumerate", action="store_true", help="list all valid configurations")
    mode.add_argument("--validate", type=_path, metavar="CONFIG", help="check a configuration document")
    configs_p.add_argument("--budget", type=_budget, help="enumeration budget")
    configs_p.add_argument("--format", choices=("json", "table"), default="table")
    return parser


@_collector_paused  # for the whole run, listing and writing included
def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse's exit: a usage error, or --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_MODEL_ERROR


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _destination(path: str) -> str:
    return path if path == "-" else os.path.abspath(path)


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


def _cmd_derive(args) -> int:
    model, products = documents.parse_layered_model(_read(args.input))
    plm = derive_initial_vm(model, products, strict=args.strict_alg1)
    _write(args.output, documents.serialize(plm))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.trace and _destination(args.trace) == _destination(args.output):
        args.parser.error("argument --trace: names the destination of --output")
    plm = documents.parse_variability_model(_read(args.input))
    reduced, trace = reduce(plm)
    _write(args.output, documents.serialize(reduced))
    if args.trace:
        _write(args.trace, documents.serialize(trace))
    return EXIT_OK


def _cmd_report(args) -> int:
    before = documents.parse_variability_model(_read(args.before))
    after = documents.parse_variability_model(_read(args.after))
    trace = None
    if args.trace:
        trace = documents.parse_trace(_read(args.trace))
        verify_trace(before, trace, after)
    report = build_report(before, after, trace, args.budget)
    # The JSON document: the report's fields, counts as text, a missing one left out.
    fields = {name: configspace._count_text(value) if name.startswith(("unconstrained_", "valid_"))
              else value for name, value in vars(report).items() if value is not None}
    if report.merges is not None:
        fields["merges"] = [{"source": s, "target": t} for s, t in report.merges]

    if args.format == "json":
        _print_json(fields)
        return EXIT_OK
    lines = [f"initial variation points: {report.initial_vp_count}",
             f"final variation points:   {report.final_vp_count}",
             f"reduction:                {report.reduction_percentage}%"]
    if report.merges is not None:
        lines += [f"merged:                   {target} into {source}"
                  for source, target in report.merges] or ["merged:                   none"]
    lines.append(f"unconstrained configs:    {fields['unconstrained_before']} -> "
                 f"{fields['unconstrained_after']}")
    if "valid_before" in fields and "valid_after" in fields:
        lines.append(f"valid configs:            {fields['valid_before']} -> "
                     f"{fields['valid_after']}")
    _print(*lines)
    return EXIT_OK


def _cmd_configs(args) -> int:
    plm = documents.parse_variability_model(_read(args.input))

    if args.validate:
        cfg = documents.parse_configuration(_read(args.validate))
        violations = configspace.validate_config(plm, cfg)
        if args.format == "json":
            _print_json({"violations": [
                {"invariant": v.invariant, "subjects": list(v.subject_ids), "message": v.message}
                for v in violations]})
        else:
            _print(*map(str, violations or ["configuration is valid"]))
        return EXIT_MODEL_ERROR if violations else EXIT_OK

    if args.count:
        unconstrained, valid = map(configspace._count_text, configspace._counts(plm, args.budget))
        if args.format == "json":
            _print_json({"unconstrained": unconstrained, "valid": valid})
        else:
            _print(f"{unconstrained} unconstrained, {valid} valid")
        return EXIT_OK

    valid_configs = configspace.enumerate_valid(plm, args.budget)
    if args.format == "json":
        # ``_print_json``'s bytes; with ``indent`` set, ``json.dumps`` runs its pure-Python encoder.
        listing = documents._block([documents._block(list(map(documents._escape, c.sorted_ids())),
                                                     "    ") for c in valid_configs], "  ")
        _write("-", f'{{\n  "configurations": {listing}\n}}\n'.encode())
    else:
        _print(*(" ".join(cfg.sorted_ids()) if cfg.sorted_ids() else "(empty)"
                 for cfg in valid_configs))
    return EXIT_OK


def _print(*lines: str) -> None:
    """Write the lines to stdout as UTF-8, whatever the locale's encoding."""
    _write("-", "".join(f"{line}\n" for line in lines).encode())


def _print_json(payload: dict) -> None:
    _print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
