"""Benchmark of the qsdp package: quantized sharded training and the
convergent quantized SGD iteration, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload train-q8 --seed 1 --seconds 30 --trace 0

Workloads are `train-q8`, `train-fp32` and `converge-g4` (see workloads.py).
The load comes from this one process with one BLAS thread.  Set-up (import,
inputs, model or plan) is repeated SETUP_REPEATS times, each import in a
fresh interpreter, and reported as the median.  The timed phase then runs
whole rounds of ops for `--seconds`; every op's output is checked.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time on
untraced rounds and half on traced rounds that replay them, wrapping each
layer's public functions (tracing.py); it reports the per-layer metrics and
fails unless the traced outputs are bit-identical to the untraced ones.

Every metric is printed by name and unit.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
full record, with provenance, goes to .perfbench_out/ (spans too, when
traced).  Without the qsdp sources next to this directory the run exits 2.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train-q8", "train-fp32", "converge-g4")
SETUP_REPEATS = 5
MAX_SPANS = 300_000  # tracing stops here; a converge round records ~96k spans
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qsdp; print(repr(time.perf_counter() - t))"
)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "peak_rss_mb": "MB",
    "wire_bits_per_step": "bit",
    "final_loss": "loss",
    "mean_gap": "loss",
}

RATE_SITES = {  # site -> work counter the rate is taken over
    "quantize.quantize_bucket": "elements",
    "quantize.dequantize": "elements",
    "quantize.bucketed_quantize": "elements",
    "wire.encode": "bytes",
    "wire.decode": "bytes",
}
TIMED_SITES = (
    "sharded.bucket_rng",
    "sharded.make_batch",
    "sharded.forward_layer",
    "sharded.backward_layer",
    "sharded.train_step",
    "wire.message_size_bits",
    "optimizer.run",
    "optimizer.qsdp_step",
    "optimizer.gradient_quantizer",
    "problems.stochastic_gradient",
    "problems.objective",
)
SETUP_SITES = (
    "lattice_oracle.benchmark_expectation",
    "lattice_oracle.gradient_quantizer_variance_budget",
)


def layer_metric_specs() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order."""
    specs = {}
    for site, work in RATE_SITES.items():
        unit = "count" if work == "elements" else "B"
        specs[f"{site}.calls"] = ("count", "lower")
        specs[f"{site}.self_s"] = ("s", "lower")
        specs[f"{site}.total_s"] = ("s", "lower")
        specs[f"{site}.{work}"] = (unit, "lower")
        specs[f"{site}.{work}_per_s"] = (f"{unit}/s" if unit == "B" else "1/s", "higher")
    for site in TIMED_SITES + SETUP_SITES:
        specs[f"{site}.calls"] = ("count", "lower")
        specs[f"{site}.self_s"] = ("s", "lower")
    specs.update({
        "wire.sent_messages": ("count", "lower"),
        "wire.sent_ratio": ("ratio", "higher"),
        "wire.payload_bits_per_step": ("bit", "lower"),
        "wire.ledger_bits_per_step": ("bit", "lower"),
        "wire.payload_ratio": ("ratio", "higher"),
        "sharded.allgather_bits_per_step": ("bit", "lower"),
        "sharded.reducescatter_bits_per_step": ("bit", "lower"),
        "sharded.collectives_per_step": ("count", "lower"),
        "trace.untraced_run_s": ("s", "lower"),
        "trace.traced_run_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.spans_per_round": ("count", "lower"),
    })
    return specs


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def tail_percentile(samples: list[float]) -> tuple[int | None, float]:
    """Highest whole percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile None.
    """
    xs = sorted(samples)
    if len(xs) > 10:
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for p in range(99, 0, -1):
            if sum(x > cuts[p - 1] for x in xs) >= 10:
                return p, cuts[p - 1]
    return None, xs[-1]


def time_import() -> float:
    """Seconds to import qsdp (and numpy) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout)


def run_rounds(workload, seconds):
    """Whole rounds until the next would end past `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(len(rounds)))
        if time.perf_counter() - start + rounds[-1].seconds > seconds:
            return rounds


def end_to_end_metrics(workload, rounds, setup_s, summary):
    ops = [t for r in rounds for t in r.op_seconds]
    p, tail = tail_percentile(ops)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.seconds for r in rounds),
        "step_s_p50": statistics.median(ops),
        "step_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **summary,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "run_s": f"median of {len(rounds)} rounds of {workload.ops_per_round} ops",
        "step_s_p50": f"median of {len(ops)} ops",
        "step_s_tail": (f"p{p}" if p else "max") + f" of {len(ops)} ops",
    }
    return values, notes


def layer_metrics(tracer, traced, marks, setup_marks, untraced):
    selfs = tracing.self_times(tracer.spans)
    per_round = []
    for rnd, (lo, hi) in zip(traced, marks):
        totals = tracing.site_totals(tracer.spans, selfs, lo, hi)
        per_round.append(round_layer_metrics(totals, rnd.counts))
        per_round[-1]["trace.spans_per_round"] = hi - lo
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    setup = tracing.site_totals(tracer.spans, selfs, *setup_marks)
    for site in SETUP_SITES:
        metrics[f"{site}.calls"] = setup.get(site, {}).get("calls", 0)
        metrics[f"{site}.self_s"] = setup.get(site, {}).get("self_s", 0.0)
    untraced_s = statistics.median(r.seconds for r in untraced)
    traced_s = statistics.median(r.seconds for r in traced)
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    return {k: metrics[k] for k in layer_metric_specs()}


def round_layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced round; every ratio next to its base."""
    def get(site, key):
        return totals.get(site, {}).get(key, 0)

    m = {}
    for site, work in RATE_SITES.items():
        for key in ("calls", "self_s", "total_s", work):
            m[f"{site}.{key}"] = get(site, key)
        total_s = get(site, "total_s")
        m[f"{site}.{work}_per_s"] = get(site, work) / total_s if total_s else 0.0
    for site in TIMED_SITES:
        m[f"{site}.calls"] = get(site, "calls")
        m[f"{site}.self_s"] = get(site, "self_s")
    # Train rounds carry a ledger; converge's wire bits are the gradient
    # messages sized by message_size_bits.
    ledger = counts.get("ledger_bits", get("wire.message_size_bits", "ledger_bits"))
    payload = counts.get("payload_bits", get("wire.message_size_bits", "payload_bits"))
    steps = counts["steps"]
    encoded = get("wire.encode", "calls")
    sent = counts.get("sent_messages", 0)
    m["wire.sent_messages"] = sent
    m["wire.sent_ratio"] = sent / encoded if encoded else 0.0
    m["wire.payload_bits_per_step"] = payload / steps
    m["wire.ledger_bits_per_step"] = ledger / steps
    m["wire.payload_ratio"] = payload / ledger if ledger else 0.0
    m["sharded.allgather_bits_per_step"] = counts.get("allgather_bits", 0) / steps
    m["sharded.reducescatter_bits_per_step"] = counts.get("reducescatter_bits", 0) / steps
    m["sharded.collectives_per_step"] = counts.get("collectives", 0) / steps
    return m


def trace_run(workload, seconds, fingerprint):
    """A traced set-up, then untraced rounds each followed by a traced replay.

    Alternating the two keeps machine drift out of the tracing overhead.
    Returns the per-layer metrics, the trace checks, the untraced and the
    traced rounds, and the tracer holding the spans.
    """
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        same_setup = workload.setup() == fingerprint
    finally:
        tracer.restore()
    setup_marks = (0, len(tracer.spans))
    problem = getattr(workload, "problem", None)
    objective = problem.objective if problem is not None else None
    untraced, traced, marks = [], [], []
    start = time.perf_counter()
    while True:
        index = len(untraced)
        untraced.append(workload.run_round(index))
        lo = len(tracer.spans)
        tracer.install(problem)
        try:
            traced.append(workload.run_round(index, tracer))
        finally:
            tracer.restore()
        marks.append((lo, len(tracer.spans)))
        pair_s = untraced[-1].seconds + traced[-1].seconds
        if (
            time.perf_counter() - start + pair_s > seconds
            or len(tracer.spans) - setup_marks[1] >= MAX_SPANS
        ):
            break
    restored = tracing.snapshot() == before and (
        problem is None or problem.objective is objective
    )
    checks = {
        "traced_setup_identical": same_setup,
        "traced_outputs_identical": all(
            t.outputs == u.outputs for u, t in zip(untraced, traced)
        ),
        "wrappers_removed": restored,
    }
    metrics = layer_metrics(tracer, traced, marks, setup_marks, untraced)
    return metrics, checks, untraced, traced, tracer


def provenance(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, or the pinned setting."""
    with open("/proc/self/maps") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        })
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return f"{THREAD_VARS[0]}={os.environ.get(THREAD_VARS[0])}"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qsdp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsdp" / "__init__.py").is_file():
        print(f"perfbench: no qsdp sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = [time_import() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import qsdp

    if Path(qsdp.__file__).resolve().parent != SRC / "qsdp":
        print(f"perfbench: qsdp imported from {qsdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make_workload(args.workload, args.seed)
    construct_s, fingerprints = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fingerprints.append(workload.setup())
        construct_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + c for i, c in zip(import_s, construct_s))
    checks = {"setup_repeatable": all(f == fingerprints[0] for f in fingerprints)}

    tracer, traced = None, []
    if args.trace:
        metrics, trace_checks, rounds, traced, tracer = trace_run(
            workload, args.seconds, fingerprints[0]
        )
        checks.update(trace_checks)
    else:
        rounds = run_rounds(workload, args.seconds)
    summary, checks["run_check"], run_note = workload.summarize(rounds)
    if args.trace:
        units, notes = {k: u for k, (u, _) in layer_metric_specs().items()}, {}
    else:
        metrics, notes = end_to_end_metrics(workload, rounds, setup_s, summary)
        units = END_TO_END
    rounds += traced

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and all(checks.values())
    prov = provenance(args.seed)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value!r} {units[name]}{note}")
    print(f"  failed_ops = {failed}/{attempted} ops")
    print(f"  run check: {run_note}")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k)} for k, v in metrics.items()},
        "checks": checks, "run_check": run_note, "provenance": prov,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = {"fields": ["site", "start_ns", "end_ns", "parent", "op", "work"], "spans": tracer.spans}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
