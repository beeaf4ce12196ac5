"""The traced benchmark wraps library functions by name: every target must exist."""

import importlib.util
import os

import wblow.cli  # noqa: F401  (the tracer resolves wblow.cli as well)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    specs = [target for targets in tracing.TARGETS.values() for target in targets]
    assert specs
    for target in specs:
        owner, attribute = tracing._resolve(target)
        assert callable(getattr(owner, attribute, None)), target
