"""Deterministic multi-worker simulation of sharded training with quantized
collectives.

Each layer is one flat float64 array, and worker q permanently owns the
contiguous slice `params[name][s:e]` given by `shard_bounds`; a shard is a view
of the layer, never a copy.  A step runs a forward pass (quantize own shard,
all-gather, compute, discard), a backward pass (gather again, compute
gradients), and one reduce-scatter per layer that leaves each worker with the
average of all workers' gradient contributions restricted to its shard.  Dense
layers are quantized; bias and normalization layers always travel at full
precision.

Every worker runs the same layer math on its own rows of the batch, so
activations are one (P, rows, width) array and a layer's matmul is one stacked
call; numpy runs it as one gemm per worker slice, which matches per-worker
matmuls bit for bit (one flat (batch, width) matmul would not).

Each quantized shard message is quantized straight into its wire v1 bytes
and dequantized from views of them straight into the receiver's array: the
gather buffer, or a shard-sized one that the reduce-scatter adds.  Its
randomness comes from one generator per quantized collective, keyed by (root
seed, step, layer, kind) with kind `WEIGHTS` or `GRADIENTS`.  An all-gather's
shard messages draw from it in shard order; a reduce-scatter's draw
worker-major, then in shard order, and only the messages that cross to
another worker draw.  So any worker count replays exactly the same
quantization draws as a single-process formulation of the same iteration
(the tests keep one), and the two must agree bit for bit.

A layer's weights are quantized once per step: the forward gather keeps its
messages' wire bytes, and the backward gather of the same step and layer
re-sends them, so both passes compute at the same quantized point.  A
backward gather that finds no kept bytes quantizes again under the same key,
which gives the same bytes.  A worker's gradient shard for its own slice
never leaves it and skips the codec: the owner adds it exactly.

Once warm, a step allocates no array the size of a layer.  A full-precision
gather receives every shard unchanged, so it returns the layer array itself; a
quantized gather writes what the peers reconstruct into a scratch buffer and
returns that.  The reduce-scatter runs worker by worker: one worker's
full-layer gradient is computed into scratch, its shard messages are sent, and
what each owner reconstructs is added into a zeroed sum buffer; then the sum
is divided by P, scaled by the learning rate and subtracted from the layer in
place.  Each shard still sums 0 + v_0 + ... + v_{P-1} in worker order, so the
values match the reference.  Scratch and kept bytes belong to the model
instance, scratch one buffer per (role, layer kind) grown to the largest layer
seen, so separate models (one per thread, say) never share them.  The order
of `LedgerEntry.transfers` is not part of the contract; only the totals over
it are.

Communication accounting is peer-to-peer: a shard's encoded message crossing
to P-1 other workers is counted P-1 times, in the backward re-gather as in the
forward gather, and a message that stays on its worker records no transfer.
Full-precision transfers carry no framing and are charged at 32 bits per
element (by ledger convention; the math stays float64).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .wire import dequantize_message, quantize_message, segment_size_bits

# The per-bucket codec stays bound here for code that looks it up on this
# module (perfbench/tracing.py); the simulation itself runs on wire bytes.
from .quantize import dequantize, quantize_bucket  # noqa: F401
from .wire import decode, encode  # noqa: F401

__all__ = [
    "LayerSpec",
    "QuantConfig",
    "NetworkModel",
    "Transfer",
    "LedgerEntry",
    "shard_bounds",
    "step_time_terms",
    "step_ledger",
    "simulate_step_time",
    "bucket_rng",
    "mlp_layer_specs",
    "init_mlp_params",
    "make_batch",
    "ShardedMLP",
    "PHASE_W_FWD",
    "PHASE_W_BWD",
    "WEIGHTS",
    "GRADIENTS",
]

# The two gathers of a layer in one step; the backward one re-sends the
# forward's bytes.
PHASE_W_FWD = 0
PHASE_W_BWD = 1

# The kinds of quantized collective, one generator each per (step, layer).
WEIGHTS = 0
GRADIENTS = 1


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str           # dense | bias | norm
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("dense", "bias", "norm"):
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class QuantConfig:
    quantize_weights: bool = True
    quantize_gradients: bool = True
    weight_bits: int = 8
    gradient_bits: int = 8
    bucket_size: int = 1024

    def __post_init__(self):
        for name in ("weight_bits", "gradient_bits"):
            if not 1 <= getattr(self, name) <= 16:
                raise ValueError(f"{name} must be in [1, 16]")
        if self.bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")


@dataclass(frozen=True)
class NetworkModel:
    """Simulated interconnect; communication may overlap with compute.

    With overlap (the default, matching prefetching sharded runtimes) a step
    costs latency * collectives + max(compute, transport).  overlap=False
    gives the strictly serial sum of the three terms.
    """

    bandwidth_bps: float
    latency_s: float = 0.0
    compute_time_s: float = 0.0
    overlap: bool = True

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass
class Transfer:
    collective: str     # allgather | reducescatter
    layer: str
    bit_width: int
    nbytes: int         # bytes of one message copy
    copies: int         # boundary crossings for this message
    payload_bits: int   # code/value bits, framing excluded

    @property
    def total_bits(self) -> int:
        return self.nbytes * 8 * self.copies


@dataclass
class LedgerEntry:
    step: int
    allgather_bits: int = 0
    reducescatter_bits: int = 0
    allgather_events: int = 0
    reducescatter_events: int = 0
    transfers: list[Transfer] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return self.allgather_bits + self.reducescatter_bits

    @property
    def collective_count(self) -> int:
        return self.allgather_events + self.reducescatter_events

    def record(self, transfer: Transfer) -> None:
        self.transfers.append(transfer)
        if transfer.collective == "allgather":
            self.allgather_bits += transfer.total_bits
        else:
            self.reducescatter_bits += transfer.total_bits


def step_time_terms(entry: LedgerEntry, network: NetworkModel) -> dict[str, float]:
    """The three terms of a simulated step time, in seconds, keyed by the
    `NetworkModel` field each comes from: transport (total bits over
    bandwidth), compute, and latency times the collective count."""
    return {
        "bandwidth_bps": entry.total_bits / network.bandwidth_bps,
        "compute_time_s": network.compute_time_s,
        "latency_s": network.latency_s * entry.collective_count,
    }


def step_ledger(widths, P: int, quant: QuantConfig) -> LedgerEntry:
    """The entry a `ShardedMLP` step of `widths` records, from the shard layout
    alone: no model is built, and the entry has its four counters, no transfers."""
    def sent(layer, quantized, bits):  # one copy of each non-empty shard
        base = layer.size // P  # shard_bounds: P - 1 shards of `base`, the rest last
        quantized = quantized and layer.kind == "dense"  # the others travel at fp32
        return sum(k * (segment_size_bits(n, quant.bucket_size, bits) if quantized else 32 * n)
                   for k, n in ((P - 1, base), (1, layer.size - (P - 1) * base)) if n)

    pairs, q = len(widths) - 1, quant
    entry = LedgerEntry(0, allgather_events=4 * pairs, reducescatter_events=2 * pairs)
    # each shard crosses P - 1 worker boundaries in both gathers and in the reduce-scatter
    for layer in mlp_layer_specs(list(widths)):
        entry.allgather_bits += 2 * (P - 1) * sent(layer, q.quantize_weights, q.weight_bits)
        entry.reducescatter_bits += (P - 1) * sent(layer, q.quantize_gradients, q.gradient_bits)
    return entry


def simulate_step_time(entry: LedgerEntry, network: NetworkModel) -> float:
    """Deterministic step time for one ledger entry under a network model."""
    transport, compute, overhead = step_time_terms(entry, network).values()
    if network.overlap:
        return overhead + max(compute, transport)
    return compute + transport + overhead


def shard_bounds(size: int, P: int) -> list[tuple[int, int]]:
    """Contiguous partition; the remainder goes to the last worker."""
    if P < 1:
        raise ValueError("P must be >= 1")
    base = size // P
    bounds = [(p * base, (p + 1) * base) for p in range(P - 1)]
    bounds.append(((P - 1) * base, size))
    return bounds


def bucket_rng(
    root_seed: int, step: int, layer_idx: int, kind: int
) -> np.random.Generator:
    """Deterministic generator for one quantized collective of `kind`
    (`WEIGHTS` or `GRADIENTS`).

    The collective's messages draw from it in send order, and each message's
    buckets in order.
    """
    ss = np.random.SeedSequence((root_seed, step, layer_idx, kind))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Toy MLP: alternating dense and bias layers, tanh between pairs.
# ---------------------------------------------------------------------------


def mlp_layer_specs(widths: list[int]) -> list[LayerSpec]:
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    specs = []
    for i in range(len(widths) - 1):
        specs.append(LayerSpec(f"dense{i}", "dense", (widths[i], widths[i + 1])))
        specs.append(LayerSpec(f"bias{i}", "bias", (widths[i + 1],)))
    return specs


def init_mlp_params(widths: list[int], param_seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence((param_seed, 0)))
    params = {}
    for i in range(len(widths) - 1):
        fan_in = widths[i]
        params[f"dense{i}"] = rng.standard_normal(fan_in * widths[i + 1]) / math.sqrt(
            fan_in
        )
        params[f"bias{i}"] = 0.01 * rng.standard_normal(widths[i + 1])
    return params


@functools.lru_cache(maxsize=1)
def _teacher(fan_in: int, fan_out: int, data_seed: int) -> np.ndarray:
    """The fixed linear teacher of `make_batch`; the last one drawn is kept."""
    teacher_rng = np.random.default_rng(np.random.SeedSequence((data_seed, 1)))
    w = teacher_rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
    w.flags.writeable = False  # shared by every call with the same key
    return w


def make_batch(
    widths: list[int], batch: int, data_seed: int, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic regression batch from a fixed random linear teacher."""
    batch_rng = np.random.default_rng(np.random.SeedSequence((data_seed, 2, step)))
    x = batch_rng.standard_normal((batch, widths[0]))
    return x, x @ _teacher(widths[0], widths[-1], data_seed)


@dataclass(frozen=True)
class SimConfig:
    widths: tuple[int, ...]
    P: int
    batch: int
    lr: float
    quant: QuantConfig
    root_seed: int = 0
    param_seed: int = 0
    data_seed: int = 0
    fixed_batch: bool = False   # reuse the step-0 batch (full-batch descent)

    def __post_init__(self):
        if self.batch % self.P != 0:
            raise ValueError("batch must divide evenly across workers")


class ShardedMLP:
    """The P-worker protocol simulation with exact transport accounting.

    `train_step` returns the step's loss and its `LedgerEntry`; the model
    keeps no per-step history."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.quant = config.quant
        self.layers = mlp_layer_specs(list(config.widths))
        self.params = init_mlp_params(list(config.widths), config.param_seed)
        self.bounds: dict[str, list[tuple[int, int]]] = {}
        for layer in self.layers:
            if config.P > layer.size:
                warnings.warn(
                    f"layer {layer.name}: P={config.P} exceeds size {layer.size}; "
                    "kept whole on one worker",
                    RuntimeWarning,
                )
            self.bounds[layer.name] = shard_bounds(layer.size, config.P)
        self._pairs = len(config.widths) - 1
        self._scratch: dict[tuple[str, str], np.ndarray] = {}
        # (step, layer index) -> the forward gather's wire bytes, one per shard
        self._sent: dict[tuple[int, int], list[bytes]] = {}

    def _buffer(self, role: str, layer: LayerSpec) -> np.ndarray:
        """Scratch of layer.size for `role`, shared by every layer of its kind.

        The backing array grows to the largest layer asked for and is then
        reused, so its contents last only until the next request for the same
        (role, kind).
        """
        key = (role, layer.kind)
        buf = self._scratch.get(key)
        if buf is None or buf.size < layer.size:
            buf = self._scratch[key] = np.empty(layer.size)
        return buf[: layer.size]

    # -- transport -----------------------------------------------------

    def _bits(self, layer: LayerSpec, kind: int) -> int:
        """Quantizer bit width of `layer`'s messages of `kind`; 0 if none."""
        q = self.quant
        if layer.kind != "dense":
            return 0
        if kind == GRADIENTS:
            return q.gradient_bits if q.quantize_gradients else 0
        return q.weight_bits if q.quantize_weights else 0

    def _encode(self, values, bits, kind, rng) -> bytearray:
        """Wire v1 bytes of one quantized shard message."""
        mode = "uniform_stochastic" if kind == GRADIENTS else "shift"
        return quantize_message(values, self.quant.bucket_size, bits, mode, rng)

    def _deliver(self, layer, collective, bits, values, wire, copies, entry, out=None):
        """Send one shard message of `values` to `copies` other workers.

        Returns what a receiver reconstructs: from the wire v1 bytes alone if
        quantized, written into `out` (a new array if None), else `values`
        itself; records a transfer if copies > 0."""
        if wire is None:
            received, bits, nbytes = values, 32, values.size * 4
        else:
            out = np.empty(values.size) if out is None else out
            received, nbytes = dequantize_message(wire, out), len(wire)
        if copies:
            entry.record(
                Transfer(collective, layer.name, bits, nbytes, copies, values.size * bits)
            )
        return received

    def _gather(self, step: int, layer_idx: int, phase: int, entry: LedgerEntry):
        """All-gather one layer into scratch, or at full precision return the
        layer array itself (read-only for the caller).

        Quantized, the forward gather keeps its wire bytes and the backward
        gather of the same step and layer re-sends them."""
        layer = self.layers[layer_idx]
        flat = self.params[layer.name]
        shards = [(s, e) for s, e in self.bounds[layer.name] if e > s]
        bits = self._bits(layer, WEIGHTS)
        if bits:
            full = self._buffer("gather", layer)
            key = (step, layer_idx)
            wires = self._sent.pop(key, None) if phase == PHASE_W_BWD else None
            if wires is None:
                rng = bucket_rng(self.cfg.root_seed, step, layer_idx, WEIGHTS)
                wires = [self._encode(flat[s:e], bits, WEIGHTS, rng) for s, e in shards]
                if phase == PHASE_W_FWD:
                    self._sent[key] = wires
        else:  # every peer receives the shard itself
            full, wires = flat, [None] * len(shards)
        for (s, e), wire in zip(shards, wires):
            full[s:e] = self._deliver(  # a no-op copy when decoded in place
                layer, "allgather", bits, flat[s:e], wire, self.cfg.P - 1, entry, full[s:e]
            )
        entry.allgather_events += 1
        return full

    def _reduce_scatter(self, layer_idx, p, grad, total, rng, entry):
        """Send worker p's gradient shards to their owners, adding what each
        owner reconstructs into its slice of `total`.

        p's own shard never leaves it and is added exactly.  Quantized, the
        other shards draw from `rng`, the collective's generator."""
        layer = self.layers[layer_idx]
        bits = self._bits(layer, GRADIENTS)
        for q, (s, e) in enumerate(self.bounds[layer.name]):
            if e == s:
                continue
            if q == p:
                total[s:e] += grad[s:e]
                continue
            wire = self._encode(grad[s:e], bits, GRADIENTS, rng) if bits else None
            total[s:e] += self._deliver(
                layer, "reducescatter", bits, grad[s:e], wire, 1, entry
            )

    # -- per-layer building blocks --------------------------------------

    def forward_layer(self, step, pair_idx, inputs, entry):
        """Gather one dense+bias pair; map (P, rows, fan_in) inputs to outputs."""
        w_full = self._gather(step, 2 * pair_idx, PHASE_W_FWD, entry)
        b_full = self._gather(step, 2 * pair_idx + 1, PHASE_W_FWD, entry)
        z = inputs @ w_full.reshape(self.layers[2 * pair_idx].shape)
        z += b_full
        if pair_idx < self._pairs - 1:
            np.tanh(z, out=z)
        return z

    def backward_layer(self, step, pair_idx, inputs, dzs, entry):
        """Re-gather the pair (re-sending the forward gather's bytes), sync
        gradients, update the layers.

        The reduce-scatter runs worker by worker: each worker's full-layer
        gradient is computed into one scratch buffer, sent, and summed into
        the destination shards before the next worker's is computed.
        Returns the dz for the previous pair, whose tanh outputs are `inputs`
        (None at the input)."""
        dense_idx = 2 * pair_idx
        dense, bias = self.layers[dense_idx], self.layers[dense_idx + 1]
        w_full = self._gather(step, dense_idx, PHASE_W_BWD, entry)
        self._gather(step, dense_idx + 1, PHASE_W_BWD, entry)  # bias, fp32
        w = w_full.reshape(dense.shape)
        P = self.cfg.P
        dz_prev = (dzs @ w.T) * (1.0 - inputs**2) if pair_idx > 0 else None
        dw, db = self._buffer("grad", dense), self._buffer("grad", bias)
        w_total, b_total = self._buffer("sum", dense), self._buffer("sum", bias)
        w_total.fill(0.0)
        b_total.fill(0.0)
        rng = None
        if self._bits(dense, GRADIENTS):
            rng = bucket_rng(self.cfg.root_seed, step, dense_idx, GRADIENTS)
        for p in range(P):  # worker-major, as the collective's messages draw
            np.matmul(inputs[p].T, dzs[p], out=dw.reshape(dense.shape))
            dzs[p].sum(axis=0, out=db)
            self._reduce_scatter(dense_idx, p, dw, w_total, rng, entry)
            self._reduce_scatter(dense_idx + 1, p, db, b_total, None, entry)
        entry.reducescatter_events += 2
        lr = self.cfg.lr
        for layer, total in ((dense, w_total), (bias, b_total)):
            total /= P
            total *= lr
            self.params[layer.name] -= total
        return dz_prev

    # -- one full step ---------------------------------------------------

    def train_step(self, step: int) -> tuple[float, LedgerEntry]:
        cfg = self.cfg
        entry = LedgerEntry(step=step)
        self._sent.clear()  # bytes a failed or partial step left behind
        data_step = 0 if cfg.fixed_batch else step
        x, y = make_batch(list(cfg.widths), cfg.batch, cfg.data_seed, data_step)
        rows = cfg.batch // cfg.P
        inputs = [x.reshape(cfg.P, rows, -1)]  # per pair: (P, rows, fan_in)
        for i in range(self._pairs - 1):
            inputs.append(self.forward_layer(step, i, inputs[i], entry))
        e = self.forward_layer(step, self._pairs - 1, inputs[-1], entry)
        e -= y.reshape(cfg.P, rows, -1)
        losses = [float((ep**2).sum() / (2 * rows)) for ep in e]  # per worker
        loss = float(np.mean(losses))
        dzs = e / rows
        for i in range(self._pairs - 1, -1, -1):
            dzs = self.backward_layer(step, i, inputs[i], dzs, entry)
        return loss, entry

    def full_params(self) -> dict[str, np.ndarray]:
        """A copy of every layer; later steps leave it unchanged."""
        return {name: flat.copy() for name, flat in self.params.items()}
