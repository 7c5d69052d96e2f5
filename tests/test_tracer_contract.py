"""The benchmark tracer names library functions by ``<module>.<function>``;
a rename in ``weylbox`` must not leave one of those names dangling. The
tracer file is only read here, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span", tracer.SPAN_NAMES)
def test_span_resolves(span):
    mod, fn = span.split(".")
    assert callable(getattr(importlib.import_module(f"weylbox.{mod}"), fn, None))


@pytest.mark.parametrize("metric", sorted(tracer.CACHES))
def test_cache_resolves(metric):
    mod, fn = tracer.CACHES[metric]
    target = getattr(importlib.import_module(f"weylbox.{mod}"), fn, None)
    assert callable(getattr(target, "cache_info", None))
