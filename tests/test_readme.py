"""README examples: each command of "Command line" and the "Library" snippet
run as written and print the output the README shows."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

from ovmkit import corpus_dir
from test_cli import CHILD_ENV

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str = "") -> str:
    """The first fenced block of the README section under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S).group(1)


def _commands(block: str) -> list[tuple[str, list[str]]]:
    """Each command, with the ``# …`` lines right under it: the output it shows."""
    commands, last = [], None
    for line in block.splitlines():
        if not line:
            last = None
        elif not line.startswith("#"):
            last = (line, [])
            commands.append(last)
        elif last is not None:
            last[1].append(line.removeprefix("# "))
    return commands


def _run(args: list[str], cwd: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, encoding="utf-8",
                          env={**CHILD_ENV, **(env or {})})


def test_the_command_line_block_runs_as_written(tmp_path):
    commands = _commands(_block("Command line"))
    assert len(commands) == 8
    ovmkit = f'ovmkit() {{ {shlex.quote(sys.executable)} -S -m ovmkit "$@"; }}'
    for command, shown in commands:
        done = _run(["bash", "-c", f"set -o pipefail\n{ovmkit}\n{command}"], tmp_path,
                    {"CORPUS": str(corpus_dir())})
        assert done.returncode == 0, (command, done.stderr)
        printed = done.stdout.splitlines()
        assert [line for line in shown if line != "..." and line not in printed] == [], command


def test_the_library_snippet_runs(tmp_path):
    done = _run([sys.executable, "-S", "-c", _block("Library", "python")], tmp_path)
    assert done.returncode == 0, done.stderr
