"""The traced benchmark run wraps library functions by module attribute
(``bench/spans.py``, ``TARGETS``), so each name it lists must stay an
attribute of its module: a renamed or inlined one breaks only ``--trace 1``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
