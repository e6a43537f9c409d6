"""Independent reference implementations that the tests compare the package
against.

`ReferenceMLP` is criterion 7's single-process formulation of the sharded
simulation's quantized iteration: full tensors, one codec round trip per
shard message, its own layer math and no transport.  `_oracle_bucket` and
`_oracle_message` are the per-bucket quantize, encode and dequantize loop
that the segment codec and the gradient quantizer must match; they share no
code with the package.
"""

import struct

import numpy as np

from qsdp.quantize import _roundtrip
from qsdp.sharded import (
    GRADIENTS,
    WEIGHTS,
    SimConfig,
    bucket_rng,
    init_mlp_params,
    make_batch,
    mlp_layer_specs,
    shard_bounds,
)


# -- criterion 7: the single-process MLP ---------------------------------------


class ReferenceMLP:
    """Single-process execution of the same quantized iteration.

    Holds full tensors, replays the identical quantization draws of each
    collective, quantizes each layer's weights once per step, and performs no
    transport.  Used as the bit-exact comparison target for the sharded
    simulation.
    """

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.quant = config.quant
        self.layers = mlp_layer_specs(list(config.widths))
        self.params = {
            k: np.asarray(v, dtype=float).copy()
            for k, v in init_mlp_params(list(config.widths), config.param_seed).items()
        }
        self._pairs = len(config.widths) - 1

    def _quantized_view(self, step, layer_idx):
        """The layer as every worker reconstructs it from the all-gather."""
        layer = self.layers[layer_idx]
        flat = self.params[layer.name]
        if not (layer.kind == "dense" and self.quant.quantize_weights):
            return flat.copy()
        size, bits = self.quant.bucket_size, self.quant.weight_bits
        rng = bucket_rng(self.cfg.root_seed, step, layer_idx, WEIGHTS)
        return np.concatenate([
            _roundtrip(flat[s:e], size, bits, "shift", rng)
            for s, e in shard_bounds(flat.size, self.cfg.P) if e > s
        ])

    def _averaged_gradient(self, step, layer_idx, per_worker_grads):
        """Each owner's average of the workers' shards of its slice.

        A shard that crosses to another worker goes through the codec,
        worker-major and then in shard order; an owner's own shard is exact."""
        layer = self.layers[layer_idx]
        P = self.cfg.P
        bounds = shard_bounds(layer.size, P)
        sent = [[g[s:e] for s, e in bounds] for g in per_worker_grads]  # [p][q]
        if layer.kind == "dense" and self.quant.quantize_gradients:
            rng = bucket_rng(self.cfg.root_seed, step, layer_idx, GRADIENTS)
            for p, row in enumerate(sent):
                for q, seg in enumerate(row):
                    if q != p and seg.size:
                        row[q] = _roundtrip(seg, self.quant.bucket_size,
                                            self.quant.gradient_bits,
                                            "uniform_stochastic", rng)
        segments = []
        for q in range(P):
            acc = np.zeros(sent[0][q].size)
            for p in range(P):
                acc = acc + sent[p][q]
            segments.append(acc / P)
        return np.concatenate(segments)

    def train_step(self, step: int) -> float:
        cfg = self.cfg
        data_step = 0 if cfg.fixed_batch else step
        x, y = make_batch(list(cfg.widths), cfg.batch, cfg.data_seed, data_step)
        rows = cfg.batch // cfg.P
        xs = [x[p * rows : (p + 1) * rows] for p in range(cfg.P)]
        ys = [y[p * rows : (p + 1) * rows] for p in range(cfg.P)]

        inputs, outputs, ws = [], [], []
        hs = xs
        for i in range(self._pairs):
            w = self._quantized_view(step, 2 * i).reshape(self.layers[2 * i].shape)
            b = self._quantized_view(step, 2 * i + 1)
            ws.append(w)  # the backward computes at the same quantized point
            inputs.append(hs)
            zs = [h @ w + b for h in hs]
            outs = [z if i == self._pairs - 1 else np.tanh(z) for z in zs]
            outputs.append(outs)
            hs = outs

        losses = [
            float(((hs[p] - ys[p]) ** 2).sum() / (2 * rows)) for p in range(cfg.P)
        ]
        dzs = [(hs[p] - ys[p]) / rows for p in range(cfg.P)]
        for i in range(self._pairs - 1, -1, -1):
            w = ws[i]
            dw = [(inputs[i][p].T @ dzs[p]).ravel() for p in range(cfg.P)]
            db = [dzs[p].sum(axis=0) for p in range(cfg.P)]
            new_dzs = None
            if i > 0:
                new_dzs = [
                    (dzs[p] @ w.T) * (1.0 - outputs[i - 1][p] ** 2)
                    for p in range(cfg.P)
                ]
            self.params[f"dense{i}"] -= cfg.lr * self._averaged_gradient(
                step, 2 * i, dw
            )
            self.params[f"bias{i}"] -= cfg.lr * self._averaged_gradient(
                step, 2 * i + 1, db
            )
            dzs = new_dzs
        return float(np.mean(losses))

    def run(self, steps: int) -> list[float]:
        return [self.train_step(t) for t in range(steps)]


# -- the per-bucket codec -------------------------------------------------------


def _oracle_bucket(values, bit_width, inner, rng):
    """(codes, shift, scale_lo, scale_hi) of one bucket."""
    lo = float(np.float32(values.min()))
    hi = float(np.float32(values.max()))
    top = (1 << bit_width) - 1
    # a degenerate bucket (lo == hi) scales by 0 and draws as any other
    scaled = (values - lo) * (top / (hi - lo) if hi > lo else 0.0)
    shift = 0.0
    if inner == "shift":
        r = float(rng.uniform(-0.5, 0.5))
        codes = np.clip(np.round(scaled - r), 0, top)
        shift = float(np.float32(r * (hi - lo) / top)) + 0.0  # never -0.0
    else:
        codes = np.clip(np.floor(scaled + rng.random(values.size)), 0, top)
    return codes.astype(np.uint32), shift, lo, hi


def _oracle_message(v, bucket_size, bit_width, inner, rng):
    """Wire v1 bytes and dequantized values of the per-bucket loop."""
    blocks = [
        _oracle_bucket(v[i : i + bucket_size], bit_width, inner, rng)
        for i in range(0, v.size, bucket_size)
    ]
    out = [struct.pack("<BBIII", 1, bit_width, blocks[0][0].size, len(blocks), v.size)]
    values = []
    for codes, shift, lo, hi in blocks:
        out.append(struct.pack("<fff", shift, lo, hi))
        planes = (codes[:, None] >> np.arange(bit_width, dtype=np.uint32)) & 1
        packed = np.packbits(planes.astype(np.uint8).ravel(), bitorder="little")
        out.append(packed.tobytes())
        values.append(lo + codes * ((hi - lo) / ((1 << bit_width) - 1)) + shift)
    return b"".join(out), np.concatenate(values)
