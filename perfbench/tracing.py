"""Span tracing of the qsdp layers from outside the package.

A Tracer replaces the public functions of each layer with wrappers, at the
module or class attribute where the consuming code looks them up (for
example `qsdp.sharded.encode`, not `qsdp.wire.encode`, because `sharded`
bound the name at import).  Each call records one span

    [site, start_ns, end_ns, parent span index, op id, work]

where `work` is a tuple of counts taken at the boundary (elements quantized,
bytes encoded, ...).  Spans stay in memory; `restore` puts every attribute
back exactly as it was found.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# site -> attributes the site is bound at, as (owner path, attribute name).
# An owner path is a module, or a module plus a class name after the last dot.
SITES = {
    "quantize.quantize_bucket": [
        ("qsdp.sharded", "quantize_bucket"),
        ("qsdp.quantize", "quantize_bucket"),  # used by bucketed_quantize
    ],
    "quantize.dequantize": [
        ("qsdp.sharded", "dequantize"),
        ("qsdp.optimizer", "dequantize"),
        ("qsdp.lattice_oracle", "dequantize"),
    ],
    "quantize.bucketed_quantize": [
        ("qsdp.optimizer", "bucketed_quantize"),
        ("qsdp.lattice_oracle", "bucketed_quantize"),
    ],
    "sharded.bucket_rng": [("qsdp.sharded", "bucket_rng")],
    "sharded.make_batch": [("qsdp.sharded", "make_batch")],
    "sharded.forward_layer": [("qsdp.sharded.ShardedMLP", "forward_layer")],
    "sharded.backward_layer": [("qsdp.sharded.ShardedMLP", "backward_layer")],
    "sharded.train_step": [("qsdp.sharded.ShardedMLP", "train_step")],
    "wire.encode": [("qsdp.sharded", "encode")],
    "wire.decode": [("qsdp.sharded", "decode")],
    "wire.message_size_bits": [("qsdp.optimizer", "message_size_bits")],
    "optimizer.run": [("qsdp.optimizer", "run")],
    "optimizer.qsdp_step": [("qsdp.optimizer", "qsdp_step")],
    "optimizer.gradient_quantizer": [
        ("qsdp.optimizer.UniformStochasticGradientQuantizer", "__call__")
    ],
    "problems.stochastic_gradient": [
        ("qsdp.problems.ProblemSpec", "stochastic_gradient")
    ],
    "lattice_oracle.benchmark_expectation": [
        ("qsdp.lattice_oracle", "benchmark_expectation")
    ],
    "lattice_oracle.gradient_quantizer_variance_budget": [
        ("qsdp.lattice_oracle", "gradient_quantizer_variance_budget")
    ],
}

# `ProblemSpec.objective` is a per-instance field, so it is wrapped on the
# problem object the workload built (see Tracer.install).
OBJECTIVE_SITE = "problems.objective"

# site -> (counter names, function of (args, result) giving their values)
WORK = {
    "quantize.quantize_bucket": (("elements",), lambda a, r: (r.length,)),
    "quantize.dequantize": (("elements",), lambda a, r: (a[0].length,)),
    "quantize.bucketed_quantize": (
        ("elements",), lambda a, r: (sum(b.length for b in r),)
    ),
    "wire.encode": (("bytes",), lambda a, r: (len(r),)),
    "wire.decode": (("bytes",), lambda a, r: (len(a[0]),)),
    "wire.message_size_bits": (
        ("ledger_bits", "payload_bits"),
        lambda a, r: (r, sum(b.length * b.bit_width for b in a[0])),
    ),
}


def resolve(owner_path: str):
    """Import the module an owner path names, then walk to the class."""
    try:
        return importlib.import_module(owner_path)
    except ModuleNotFoundError:
        module, _, cls = owner_path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def snapshot() -> list:
    """The objects currently bound at every site, in SITES order."""
    return [
        vars(resolve(path))[attr] for places in SITES.values() for path, attr in places
    ]


class Tracer:
    """Records one span per call of every wrapped site while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, problem=None) -> None:
        """Wrap every site; with a problem, also wrap its objective field."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for site, places in SITES.items():
            for path, attr in places:
                self._patch(resolve(path), attr, site)
        if problem is not None:
            self._patch(problem, "objective", OBJECTIVE_SITE)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, site: str) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(site, original))
        self._saved.append((owner, attr, original))

    def _wrap(self, site: str, fn):
        spans, stack = self.spans, self._stack
        count = WORK.get(site, (None, None))[1]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [site, 0, 0, stack[-1] if stack else -1, self.op, ()]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, run_start, run_end = 0, None, None
        for c_start, c_end in sorted((spans[j][1], spans[j][2]) for j in children[i]):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def site_totals(spans: list[list], selfs: list[int], lo: int, hi: int) -> dict:
    """Per site over spans[lo:hi]: calls, self_s, total_s and work counters."""
    totals = {}
    for i in range(lo, hi):
        site, start, end, _, _, work = spans[i]
        t = totals.setdefault(site, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i] * 1e-9
        t["total_s"] += (end - start) * 1e-9
        if work:
            for name, value in zip(WORK[site][0], work):
                t[name] = t.get(name, 0) + value
    return totals
