"""The frozen oracles (``tests/reference_*.py``) may import only public
names from ovmkit: a private helper changes with the library and would move
the oracle that is meant to check it."""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = sorted(Path(__file__).parent.glob("reference_*.py"))


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ovmkit":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "ovmkit"]
        else:
            continue
        found += [name for name in names if any(p.startswith("_") for p in name.split("."))]
    return found


def test_oracles_import_only_public_ovmkit_names():
    assert ORACLES
    assert {path.name: private_imports(path.read_text()) for path in ORACLES} == {
        path.name: [] for path in ORACLES}


def test_a_private_import_is_caught():
    assert private_imports("from ovmkit.configs import _options, enumerate_valid\n"
                           "import ovmkit._internal\nfrom os import _exit\n") == [
        "ovmkit.configs._options", "ovmkit._internal"]
