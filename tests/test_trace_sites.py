"""The benchmark's traced replay (`perfbench/tracing.py`) wraps qsdp
functions at the module or class attribute where their callers look them up.
Deleting such an attribute, or moving it onto a base class, breaks the
traced benchmark; this test catches it in the main suite."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_site_is_bound_where_the_benchmark_wraps_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = tracing.snapshot()  # KeyError names a missing site
    assert len(bound) == sum(len(places) for places in tracing.SITES.values())
    assert all(callable(obj) for obj in bound)
