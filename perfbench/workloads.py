"""The benchmark workloads, driven through the public qsdp API.

train-q8 / train-fp32: `ShardedMLP` with widths (256, 512, 512, 64), P=4,
batch 32, lr 0.05 and a fresh batch every step; 8-bit weights and gradients
in buckets of 1024, or both quantizers off.  One op is one `train_step`; a
round trains a freshly built model for ROUND_STEPS steps from its own seeds.

converge-g4: the criterion-6 problem, diag(1, 1, 2, 4) with sigma 0.2,
epsilon 0.05, delta* 0.25 and x0 = 1, a 4-bit uniform stochastic gradient
quantizer and T from `make_plan`.  One op is one seed's `optimizer.run` to T;
a round runs ROUND_SEEDS fresh seeds.

Every seed below is derived from the workload seed.  Functions are looked up
on their module at call time, so a Tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from qsdp import lattice_oracle, optimizer, problems, quantize, sharded

# Wire format v1, from its layout: a 14-byte header, then per block 12 bytes
# of f32 metadata and the codes packed into whole bytes.
WIRE_HEADER_BYTES = 14
WIRE_BLOCK_META_BYTES = 12
RAW_BITS = 32  # ledger width of an unquantized element

TRAIN_WIDTHS = (256, 512, 512, 64)
TRAIN_P = 4
TRAIN_BATCH = 32
TRAIN_LR = 0.05
TRAIN_BITS = 8
TRAIN_BUCKET = 1024
ROUND_STEPS = 10

CONVERGE_DIAG = (1.0, 1.0, 2.0, 4.0)
CONVERGE_SIGMA = 0.2
CONVERGE_EPSILON = 0.05
CONVERGE_DELTA_STAR = 0.25
CONVERGE_BITS = 4
CONVERGE_SHIFTS = 10**5
CONVERGE_PILOT = 16
CONVERGE_DRAWS = 128
ROUND_SEEDS = 16


def derive_seeds(key: str, count: int) -> list[int]:
    rng = random.Random(key)
    return [rng.getrandbits(32) for _ in range(count)]


def message_bits(length: int, bits: int, bucket: int) -> int:
    """Encoded size of one segment of `length` elements in wire v1."""
    full, tail = divmod(length, bucket)
    blocks = [bucket] * full + ([tail] if tail else [])
    return 8 * (
        WIRE_HEADER_BYTES
        + sum(WIRE_BLOCK_META_BYTES + (n * bits + 7) // 8 for n in blocks)
    )


def shard_lengths(size: int, P: int) -> list[int]:
    base = size // P
    return [base] * (P - 1) + [size - (P - 1) * base]


def expected_step_bits(widths, P, weight_bits, gradient_bits, bucket):
    """(allgather, reducescatter) ledger bits of one MLP step.

    Bit widths of None mean unquantized.  Each layer is gathered twice per
    step (forward and backward), every shard message crossing to P-1 peers,
    and reduce-scattered once, every shard receiving P-1 messages.  Only
    dense layers are quantized.
    """
    def shard_bits(n, bits):
        return message_bits(n, bits, bucket) if bits else RAW_BITS * n

    allgather = reducescatter = 0
    for i in range(len(widths) - 1):
        for size, dense in ((widths[i] * widths[i + 1], True), (widths[i + 1], False)):
            for n in filter(None, shard_lengths(size, P)):
                allgather += 2 * (P - 1) * shard_bits(n, dense and weight_bits)
                reducescatter += (P - 1) * shard_bits(n, dense and gradient_bits)
    return allgather, reducescatter


@dataclass
class Round:
    """The timed ops of one round, their outputs and their check results."""

    seconds: float                 # wall time of the round's ops
    op_seconds: list[float]        # one per op that returned
    attempted: int
    failed: int                    # ops that raised or failed a check
    outputs: tuple                 # must equal its traced replay bit for bit
    counts: dict                   # transport totals over the round


class TrainWorkload:
    """One ShardedMLP training round of ROUND_STEPS steps."""

    ops_per_round = ROUND_STEPS

    def __init__(self, name: str, seed: int, quantized: bool):
        self.name = name
        self.seed = seed
        self.quantized = quantized
        bits = TRAIN_BITS if quantized else None
        self.expected_bits = expected_step_bits(
            TRAIN_WIDTHS, TRAIN_P, bits, bits, TRAIN_BUCKET
        )
        self.config = None

    def round_seeds(self, index: int) -> dict:
        root, param, data = derive_seeds(f"{self.name}:{self.seed}:{index}", 3)
        return {"root_seed": root, "param_seed": param, "data_seed": data}

    def setup(self):
        """Build the config and a model; returns a fingerprint of the model."""
        self.config = sharded.SimConfig(
            widths=TRAIN_WIDTHS,
            P=TRAIN_P,
            batch=TRAIN_BATCH,
            lr=TRAIN_LR,
            quant=sharded.QuantConfig(
                quantize_weights=self.quantized,
                quantize_gradients=self.quantized,
                weight_bits=TRAIN_BITS,
                gradient_bits=TRAIN_BITS,
                bucket_size=TRAIN_BUCKET,
            ),
            **self.round_seeds(0),
        )
        return _params_digest(sharded.ShardedMLP(self.config))

    def run_round(self, index: int, tracer=None) -> Round:
        model = sharded.ShardedMLP(
            dataclasses.replace(self.config, **self.round_seeds(index))
        )
        results, times = [], []
        start = time.perf_counter()
        for step in range(ROUND_STEPS):
            if tracer is not None:
                tracer.op = index * ROUND_STEPS + step
            t0 = time.perf_counter()
            try:
                results.append(model.train_step(step))
            except Exception as exc:  # a failed op is counted, not fatal
                _report_error(self.name, step, exc)
                break
            times.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
        attempted = min(len(results) + 1, ROUND_STEPS)
        losses = [loss for loss, _ in results]
        ledger = [entry for _, entry in results]
        counts = self.transport_counts(ledger)
        ag, rs = self.expected_bits
        failed = sum(
            not math.isfinite(loss) or e.allgather_bits != ag or e.reducescatter_bits != rs
            for loss, e in results
        )
        if len(results) < ROUND_STEPS or not losses[-1] < losses[0]:
            failed = attempted  # the round's loss check covers every step
        outputs = (
            tuple(losses),
            tuple((e.allgather_bits, e.reducescatter_bits) for e in ledger),
            _params_digest(model),
        )
        return Round(seconds, times, attempted, failed, outputs, counts)

    def summarize(self, rounds: list[Round]) -> tuple[dict, bool, str]:
        """End-to-end outputs, the run-level check and a note on it."""
        full = [r for r in rounds if len(r.outputs[0]) == ROUND_STEPS]
        if not full:
            return {}, False, "no round completed"
        final = statistics.median(r.outputs[0][-1] for r in full)
        return {
            "final_loss": final,
            # the noise-free linear teacher can be approached arbitrarily
            # closely, so the regression's optimum value is 0
            "mean_gap": final - 0.0,
            "wire_bits_per_step": sum(full[0].outputs[1][0]),
        }, True, (
            f"final_loss is the median over {len(full)} rounds "
            f"of the loss at step {ROUND_STEPS - 1}"
        )

    def transport_counts(self, ledger: list) -> dict:
        """Ledger totals of one round; quantized messages are the dense ones."""
        transfers = [t for e in ledger for t in e.transfers]
        return {
            "steps": len(ledger),
            "allgather_bits": sum(e.allgather_bits for e in ledger),
            "reducescatter_bits": sum(e.reducescatter_bits for e in ledger),
            "collectives": sum(e.collective_count for e in ledger),
            "ledger_bits": sum(t.total_bits for t in transfers),
            "payload_bits": sum(t.payload_bits * t.copies for t in transfers),
            "sent_messages": sum(
                self.quantized and t.layer.startswith("dense") and t.copies > 0
                for t in transfers
            ),
        }


class ConvergeWorkload:
    """ROUND_SEEDS seeds of the gradient-quantized QSDP iteration."""

    ops_per_round = ROUND_SEEDS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.oracle_seed, self.pilot_seed, self.run_seed_base = derive_seeds(
            f"{name}:{seed}", 3
        )
        self.x0 = np.ones(len(CONVERGE_DIAG))
        self.step_bits = message_bits(
            len(CONVERGE_DIAG), CONVERGE_BITS, quantize.BucketSpec().bucket_size
        )
        self.problem = self.plan = self.bench = self.quantizer = None

    def setup(self):
        """Oracle, variance budget and plan; returns the plan as a fingerprint."""
        problem = problems.quadratic_problem(np.diag(CONVERGE_DIAG), sigma=CONVERGE_SIGMA)
        bench = lattice_oracle.benchmark_expectation(
            problem, CONVERGE_DELTA_STAR, CONVERGE_SHIFTS,
            np.random.default_rng(self.oracle_seed),
        )
        pilot_rng = np.random.default_rng(self.pilot_seed)
        pilot = [problem.stochastic_gradient(self.x0, pilot_rng) for _ in range(CONVERGE_PILOT)]
        budget = lattice_oracle.gradient_quantizer_variance_budget(
            CONVERGE_BITS, quantize.BucketSpec(), pilot, pilot_rng, draws=CONVERGE_DRAWS
        )
        self.plan = optimizer.make_plan(
            problem, CONVERGE_EPSILON, CONVERGE_DELTA_STAR,
            problem.objective(self.x0) - bench.mean,
            gradient_variance=budget.sigma_nabla_sq,
            gradient_bit_width=CONVERGE_BITS,
        )
        self.problem, self.bench = problem, bench
        self.quantizer = optimizer.UniformStochasticGradientQuantizer(CONVERGE_BITS)
        return (self.plan, bench.mean, bench.standard_error)

    def seeds(self, index: int) -> list[int]:
        first = self.run_seed_base + index * ROUND_SEEDS
        return list(range(first, first + ROUND_SEEDS))

    def run_round(self, index: int, tracer=None) -> Round:
        finals, bits, times = [], [], []
        start = time.perf_counter()
        for k, s in enumerate(self.seeds(index)):
            if tracer is not None:
                tracer.op = index * ROUND_SEEDS + k
            t0 = time.perf_counter()
            try:
                res = optimizer.run(
                    self.problem, self.plan, self.x0, seeds=[s],
                    gradient_quantizer=self.quantizer, benchmark=self.bench.mean,
                )
            except Exception as exc:  # a failed op is counted, not fatal
                _report_error(self.name, s, exc)
                finals.append(math.nan)
                bits.append(-1)
                continue
            times.append(time.perf_counter() - t0)
            finals.append(float(res.final_values[0]))
            bits.append(int(res.gradient_bits_per_seed[0]))
        seconds = time.perf_counter() - start
        want = self.plan.iteration_count * self.step_bits
        failed = sum(not math.isfinite(f) or b != want for f, b in zip(finals, bits))
        steps = self.plan.iteration_count * len(times)
        return Round(
            seconds, times, ROUND_SEEDS, failed, (tuple(finals), tuple(bits)), {"steps": steps}
        )

    def summarize(self, rounds: list[Round]) -> tuple[dict, bool, str]:
        """End-to-end outputs; the run-level check is criterion 6 over every seed."""
        finals = np.array([f for r in rounds for f in r.outputs[0]])
        se = finals.std(ddof=1) / math.sqrt(finals.size) if finals.size > 1 else 0.0
        tolerance = CONVERGE_EPSILON + 2 * math.sqrt(se**2 + self.bench.standard_error**2)
        mean = float(finals.mean())
        gap = mean - self.bench.mean
        return {
            "final_loss": mean,
            "mean_gap": gap,
            "wire_bits_per_step": rounds[0].outputs[1][0] / self.plan.iteration_count,
        }, gap <= tolerance, (
            f"over {finals.size} seeds, T={self.plan.iteration_count}: "
            f"mean_gap must be <= {tolerance!r}"
        )

def make_workload(name: str, seed: int):
    if name == "train-q8":
        return TrainWorkload(name, seed, quantized=True)
    if name == "train-fp32":
        return TrainWorkload(name, seed, quantized=False)
    if name == "converge-g4":
        return ConvergeWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")



def _params_digest(model) -> str:
    h = hashlib.sha256()
    for name, values in sorted(model.full_params().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def _report_error(workload: str, op, exc: Exception) -> None:
    print(f"{workload}: op {op} raised {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
