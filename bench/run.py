#!/usr/bin/env python3
"""Benchmark for ovmkit: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload reduce-forest --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``
and nothing is installed. The run re-executes itself with a fixed
PYTHONHASHSEED and builds the workload's inputs from the seed after a fresh
import. It then runs the workload's fixed batch over and over in one thread,
one model at a time, until the next batch would end after ``--seconds``.
After every batch the set-up is repeated outside the timed region, and
after every set-up a fixed calibration loop that does not use ovmkit is
timed. ``wall_s`` is the batches' time and ``setup_s`` the median set-up,
both scaled to a host on which the calibration takes CALIBRATION_S: the
host's speed drifts by up to 2x over minutes, and the scaling divides that
drift out. With
``--trace 1`` traced and untraced batches alternate and the per-layer
metrics come from the traced ones. Every output is checked outside the timed
region. The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HASH_SEED = "0"
DEFAULT_SEED = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Seconds the calibration loop takes on the reference host; scaled times are
# seconds on a host of that speed.
CALIBRATION_S = 0.5


@dataclass
class Tally:
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    # The calibration time around each batch: the mean of the two that
    # bracket it.
    batch_cals: dict = field(default_factory=lambda: {False: [], True: []})
    setups: list = field(default_factory=list)
    cals: list = field(default_factory=list)  # the calibration after each set-up
    layer_runs: list = field(default_factory=list)
    reference: list | None = None
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: bool = False


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order must not differ between runs.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "ovmkit" / "__init__.py").is_file():
        print(f"error: no ovmkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ovmkit
    if Path(ovmkit.__file__).resolve().parent != (src / "ovmkit").resolve():
        print(f"error: imported ovmkit from {ovmkit.__file__}, not {src}", file=sys.stderr)
        return 2

    tally = Tally()
    workloads, workload, cases = _set_up(args.workload, args.seed, tally)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    from spans import Tracer
    _measure(workloads, workload, cases, args.seed, args.seconds,
             Tracer() if args.trace else None, tally)
    if args.seed == DEFAULT_SEED:
        _compare_digests(workload, cases, tally)
    chain_calls, known_defects = _chain_attempts(workloads, workload, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = not tally.wrong

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"commit {_commit()}  python {platform.python_version()}  "
          f"nproc {len(os.sched_getaffinity(0))}  PYTHONHASHSEED {HASH_SEED}")
    for traced in (False, True):
        if tally.walls[traced]:
            print(f"{'traced' if traced else 'untraced'} batches of {len(cases)} models, "
                  "seconds: " + " ".join(f"{w:.3f}" for w in tally.walls[traced]))
    print("setup seconds: " + " ".join(f"{t:.3f}" for t in tally.setups))
    print("calibration seconds: " + " ".join(f"{t:.3f}" for t in tally.cals))
    for error in tally.errors:
        print(f"check failed: {error}")
    for defect in known_defects:
        print(f"known defect: {workloads.CHAIN_DEPTH}-deep chain, {defect}")
    print(f"correct {str(correct).lower()}  attempted {tally.attempted}  failed {tally.failed}")

    untraced = _scaled(tally.walls[False], tally.batch_cals[False])
    # The known defects count in failed_frac, but not in the result line's
    # attempted and failed, which count only the workload's operations.
    failed_frac = ((tally.failed + len(known_defects))
                   / (tally.attempted + chain_calls))
    if args.trace:
        values = {name: statistics.median(run[name] for run in tally.layer_runs)
                  for name in tally.layer_runs[0]}
        values["trace.overhead_frac"] = (
            _scaled(tally.walls[True], tally.batch_cals[True]) / untraced - 1)
        values["failed_frac"] = failed_frac
        shown = values
    else:
        values = {
            "wall_s": untraced,
            "setup_s": statistics.median(
                CALIBRATION_S * t / c for t, c in zip(tally.setups, tally.cals)),
            "peak_rss_mb": peak_rss_mb,
        }
        shown = dict(values, failed_frac=failed_frac)
    for name, value in shown.items():
        print(f"{name:46s} {value:>16.6f} {_unit(name)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in values.items()},
    }))
    return 0


def _measure(workloads, workload, cases, seed, seconds, tracer, tally: Tally) -> None:
    """Run batches until the next one would end past the deadline; with a
    tracer, alternate untraced and traced batches, at least one of each.
    Each batch is followed by a repeated set-up, whose inputs must equal the
    first set-up's; the run keeps using the first set-up's modules."""
    from spans import layer_metrics, write_spans
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            tracer.reset()
            tracer.install()
        outputs = []
        start = time.perf_counter()
        for case in cases:
            if tracer:
                tracer.model_id = case.model_id
            try:
                outputs.append(workload.run(case))
            except Exception as exc:  # a raising operation is a failed one
                outputs.append(exc)
        wall = time.perf_counter() - start
        if traced:
            tracer.restore()
            tally.layer_runs.append(layer_metrics(tracer.spans))
            if len(tally.layer_runs) == 1:
                first_spans = tracer.spans
        tally.walls[traced].append(wall)
        _check_batch(workloads, workload, cases, outputs, traced, tally)
        again = _set_up(workload.name, seed, tally)[2]
        tally.batch_cals[traced].append((tally.cals[-2] + tally.cals[-1]) / 2)
        if [c.inputs for c in again] != [c.inputs for c in cases]:
            tally.wrong = True
            tally.errors.append("a repeated set-up built other inputs from the same seed")
        del again
        gc.collect()  # the discarded set-up's garbage is not collected in a timed batch

        done = time.perf_counter() + wall > deadline
        if tracer:
            traced = not traced
            done = done and all(tally.walls.values())
        if done:
            if tracer:
                write_spans(first_spans, OUT_DIR / f"spans-{workload.name}.jsonl")
            return


def _check_batch(workloads, workload, cases, outputs, traced, tally: Tally) -> None:
    """Check the first batch's outputs in full; later batches, traced ones
    included, must reproduce its digests."""
    digests = []
    for i, (case, out) in enumerate(zip(cases, outputs)):
        tally.attempted += 1
        if isinstance(out, Exception):
            digests.append(None)
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            digests.append(workloads.digest(out))
            if tally.reference is None:
                try:
                    problems = workload.check(case, out)
                except Exception as exc:  # output the checks cannot even read
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            elif digests[i] != tally.reference[i]:
                problems = ["output differs from the first batch's"
                            + (" under tracing" if traced else "")]
            else:
                problems = []
        if problems:
            tally.failed += 1
            tally.wrong = True
            tally.errors.extend(f"{case.model_id}: {p}" for p in problems)
    if tally.reference is None:
        tally.reference = digests


def _compare_digests(workload, cases, tally: Tally) -> None:
    """Outputs for the default seed are frozen: each case must match the
    digest committed in digests.json."""
    expected = json.loads(DIGESTS.read_text()).get(workload.name, [])
    expected += [None] * (len(cases) - len(expected))
    for case, got, want in zip(cases, tally.reference, expected):
        if got is not None and got != want:
            tally.failed += 1
            tally.wrong = True
            tally.errors.append(f"{case.model_id}: output digest {got} differs from the "
                                f"committed {want}")


def _chain_attempts(workloads, workload, tally: Tally) -> tuple[int, list[str]]:
    """Run the deep-chain calls; return how many ran and the failed ones. A
    RecursionError is the known defect; a wrong result or any other error
    makes the run incorrect. These calls are not workload operations, so
    they stay out of ``tally.attempted`` and ``tally.failed``."""
    if not workload.chain:
        return 0, []
    calls, defects = 0, []
    chain = workloads.documents.serialize(workloads.gen.chain(workloads.CHAIN_DEPTH))
    for call, problem in workloads.chain_attempts(chain):
        calls += 1
        if problem:
            defects.append(f"{call}: {problem}")
            tally.wrong = tally.wrong or problem != "RecursionError"
    return calls, defects


def _set_up(name: str, seed: int, tally: Tally):
    """Import ovmkit and the benchmark modules afresh, then build and
    serialize the workload's inputs; the time taken goes to ``tally.setups``
    and a calibration timed right after it to ``tally.cals``.
    Returns the workloads module, the workload (None if unknown) and its
    cases."""
    start = time.perf_counter()
    for module in list(sys.modules):
        if module.split(".")[0] in ("ovmkit", "gen", "workloads", "spans"):
            del sys.modules[module]
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS.get(name)
    cases = workload.setup(random.Random(seed)) if workload else []
    tally.setups.append(time.perf_counter() - start)
    tally.cals.append(_calibrate())
    return workloads, workload, cases


def _calibrate() -> float:
    """Seconds for a fixed pure-Python job that does not use ovmkit:
    breadth-first searches over a seeded random graph, with the collector
    off so that the heap the run has built does not change its time."""
    rng = random.Random(0)
    n = 3000
    adjacent = [set() for _ in range(n)]
    for _ in range(4 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        adjacent[a].add(b)
        adjacent[b].add(a)
    gc.disable()
    try:
        start = time.perf_counter()
        for source in range(0, n, 24):
            seen, frontier = {source}, [source]
            while frontier:
                following = []
                for v in frontier:
                    for u in adjacent[v]:
                        if u not in seen:
                            seen.add(u)
                            following.append(u)
                frontier = following
            sorted(seen, key=lambda v: (v % 7, v))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _scaled(walls: list[float], cals: list[float]) -> float:
    """Mean batch time on a host where the calibration takes CALIBRATION_S."""
    return CALIBRATION_S * sum(walls) / sum(cals)


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("documents.bytes"):
        return "bytes"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git;
    'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
