"""The benchmark's span tracer patches names by (module, attribute); each
one must still exist, or ``bench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _name, _kind in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), (module_name, attr)
