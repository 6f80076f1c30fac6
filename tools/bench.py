#!/usr/bin/env python3
"""Record one round of the benchmark in BENCH_<pr>.json. Run from anywhere:

    python3 tools/bench.py 26

Runs every workload of BENCHMARK.json through its command (bench/run.py),
once with --trace 0 and once with --trace 1, each for BENCHMARK.json's
run_seconds, and adds each run's result line (the last line of its stdout)
to BENCH_<pr>.json at the root of this checkout. The file also holds the
commit, the Python version, nproc and PYTHONHASHSEED that bench/run.py
reports, and whether tracked files differ from that commit. A file that
exists gains the new round, and is refused if it came from another
checkout. So calling this in turns on a parent checkout and on a change
gives alternating parent/change pairs. A run that reports "correct": false
or a failed operation is recorded too, but named on stderr, and the round
exits 1, so it cannot pass as evidence. Each run also records which bytecode
caches of the checkout existed when it started, named on stderr too: with
one, bench/run.py compiles less in its set-up, and setup_s reads 9-23% low.
Set PYTHONDONTWRITEBYTECODE=1 on both checkouts to compare them without.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The fields of bench/run.py's header line that describe the checkout and host.
HOST_FIELDS = ("commit", "python", "nproc", "PYTHONHASHSEED")
CACHES = ("src/ovmkit/__pycache__", "bench/__pycache__")


def main() -> int:
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        print("usage: python3 tools/bench.py <pr>", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = ROOT / f"BENCH_{sys.argv[1]}.json"
    record = json.loads(path.read_text()) if path.exists() else None
    changed = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            caches = [name for name in CACHES if (ROOT / name).is_dir()]
            lines = subprocess.run(
                [*spec["command"], "--workload", workload, "--trace", str(trace),
                 "--seconds", str(spec["run_seconds"])],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
            # "workload W  seed S  trace T  commit C  python P  nproc N  PYTHONHASHSEED H"
            words = next(line for line in lines if line.startswith("workload ")).split()
            header = dict(zip(words[::2], words[1::2]))
            host = {name: header[name] for name in HOST_FIELDS}
            host["uncommitted_changes"] = bool(changed)
            if record is None:
                record = {"pr": int(sys.argv[1]), **host, "run_seconds": spec["run_seconds"],
                          "runs": []}
            elif any(record[name] != value for name, value in host.items()):
                print(f"error: {path.name} holds runs of another checkout or host",
                      file=sys.stderr)
                return 1
            runs.append({"workload": workload, "seed": int(header["seed"]), "trace": trace,
                         "bytecode_cache": caches, "result": json.loads(lines[-1])})
            print(f"{workload} --trace {trace}: {lines[-1]}")
            if caches:
                print(f"note: {workload} --trace {trace} started with a bytecode cache in "
                      f"{', '.join(caches)}; its setup_s reads low", file=sys.stderr)
    record["runs"] += runs
    path.write_text(json.dumps(record, indent=2) + "\n")
    bad = [run for run in runs if not run["result"]["correct"] or run["result"]["failed"]]
    for run in bad:
        result = run["result"]
        print(f"error: {run['workload']} --trace {run['trace']}: correct "
              f"{json.dumps(result['correct'])}, {result['failed']} failed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
