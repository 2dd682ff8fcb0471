"""The benchmark's tracer wraps lfdrkit functions by module and name; a
deletion or rename in ``src/`` must not leave one of its targets dangling."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert spans.TARGETS
    assert missing == []
