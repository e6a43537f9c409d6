"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qsdp import quantize, sharded, wire  # noqa: E402


@pytest.mark.parametrize("bits", range(1, 17))
@pytest.mark.parametrize("length,bucket", [(1000, 64), (64, 64), (5, 64), (1, 1)])
def test_wire_size_formula_matches_message_size_bits(bits, length, bucket):
    v = np.random.default_rng(bits).standard_normal(length)
    blocks = quantize.bucketed_quantize(
        v, quantize.BucketSpec(bucket), bits, rng=np.random.default_rng(0)
    )
    assert workloads.message_bits(length, bits, bucket) == wire.message_size_bits(blocks)
    assert 8 * len(wire.encode(blocks)) == wire.message_size_bits(blocks)


@pytest.mark.parametrize("quantized", [True, False])
def test_expected_step_bits_match_the_ledger(quantized):
    widths, P, bits, bucket = (10, 7, 3), 3, 3, 4
    cfg = sharded.SimConfig(
        widths=widths, P=P, batch=6, lr=0.05,
        quant=sharded.QuantConfig(
            quantize_weights=quantized, quantize_gradients=quantized,
            weight_bits=bits, gradient_bits=bits, bucket_size=bucket,
        ),
    )
    _, entry = sharded.ShardedMLP(cfg).train_step(0)
    b = bits if quantized else None
    assert workloads.expected_step_bits(widths, P, b, b, bucket) == (
        entry.allgather_bits, entry.reducescatter_bits
    )


def test_self_time_on_a_synthetic_span_tree():
    #        root [0, 100]
    #        ├── a [10, 30]          └── grandchild [12, 20]
    #        ├── b [25, 50]          (overlaps a: the union 10..50 counts once)
    #        └── c [90, 120]         (clipped to the parent: 90..100)
    spans = [
        ["root", 0, 100, -1, 0, ()],
        ["a", 10, 30, 0, 0, ()],
        ["grandchild", 12, 20, 1, 0, ()],
        ["b", 25, 50, 0, 0, ()],
        ["c", 90, 120, 0, 0, ()],
    ]
    assert tracing.self_times(spans) == [50, 12, 8, 25, 30]
    totals = tracing.site_totals(spans, tracing.self_times(spans), 0, 2)
    assert totals["root"] == {
        "calls": 1, "self_s": pytest.approx(50e-9), "total_s": pytest.approx(100e-9)
    }


def _bindings(problem):
    owners = {id(tracing.resolve(p)): tracing.resolve(p)
              for places in tracing.SITES.values() for p, _ in places}
    state = {k: dict(vars(o)) for k, o in owners.items()}
    state["problem"] = dict(vars(problem))
    return state


def test_wrappers_leave_qsdp_attributes_as_found():
    wl = workloads.make_workload("converge-g4", 3)
    wl.setup()
    before = _bindings(wl.problem)
    original = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install(wl.problem)
    try:
        assert all(w is not o for w, o in zip(tracing.snapshot(), original))
        assert sharded.encode is not wire.encode  # wrapped where sharded looks it up
        wl.run_round(0, tracer)
    finally:
        tracer.restore()
    after = _bindings(wl.problem)
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys()
        for attr, value in before[key].items():
            assert after[key][attr] is value, attr
    assert sharded.encode is wire.encode


def test_traced_train_step_records_nested_spans_and_counts():
    cfg = sharded.SimConfig(
        widths=(10, 7, 3), P=2, batch=4, lr=0.05,
        quant=sharded.QuantConfig(weight_bits=4, gradient_bits=4, bucket_size=8),
    )
    model = sharded.ShardedMLP(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model.train_step(0)
    finally:
        tracer.restore()
    spans = tracer.spans
    assert spans[0][0] == "sharded.train_step" and spans[0][3] == -1
    totals = tracing.site_totals(spans, tracing.self_times(spans), 0, len(spans))
    layer_parents = {spans[s[3]][0] for s in spans if s[0] == "quantize.quantize_bucket"}
    assert layer_parents == {"sharded.forward_layer", "sharded.backward_layer"}
    dense = 10 * 7 + 7 * 3
    # every dense element is quantized for 2 gathers and P reduce-scatter sends
    assert totals["quantize.quantize_bucket"]["elements"] == (2 + cfg.P) * dense
    assert totals["wire.encode"]["bytes"] == totals["wire.decode"]["bytes"]


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90, pytest.approx(90.1))
    assert run.tail_percentile([1.0, 3.0, 2.0]) == (None, 3.0)


def test_benchmark_json_matches_the_reported_metrics_and_table():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metric_specs())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    table = json.loads((HERE / "layer_table.json").read_text())
    listed = [name for row in table["rows"] for name in row["layer_metrics"]]
    assert sorted(listed) == sorted(run.layer_metric_specs())
    for row in table["rows"]:
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"]) <= set(run.WORKLOADS)
