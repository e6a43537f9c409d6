"""Config-driven experiment commands; each maps a validated JSON document to
CSV rows.  Validation is strict: unknown fields are rejected and nothing is
computed until the whole config has been checked."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .lattice_oracle import benchmark_expectation, gradient_quantizer_variance_budget
from .optimizer import UniformStochasticGradientQuantizer, make_plan, run
from .problems import quadratic_problem
from .quantize import (
    BucketSpec,
    LevelTable,
    _groups,
    _layout,
    learn_levels,
    quantize_with_levels,
    shift_round,
)
from .sharded import (NetworkModel, QuantConfig, ShardedMLP, SimConfig, simulate_step_time,
                      step_ledger, step_time_terms)

__all__ = [
    "ConfigError",
    "dispatch",
    "cmd_quant_stats",
    "cmd_converge",
    "cmd_train_sim",
    "cmd_bandwidth_sweep",
    "cmd_learn_levels",
    "learned_vs_uniform_error",
]


class ConfigError(ValueError):
    pass


# Most steps of a sequential loop that a command runs: a converge seed's T
# (about 7 h at the ~27 us per step measured for the criterion-6 problem on
# one CPU core), learn-levels' passes x num_values level updates, and
# quant-stats' draws and sparsity shift-matrix entries.
MAX_ITERATIONS = 10**9

# Most elements of one array that a command builds, 800 MB of float64.
MAX_ELEMENTS = 10**8

# Shifts drawn per vector by quant-stats' sparsity check.
SPARSITY_SHIFTS = 4000


_MISSING = object()


def _take(cfg: dict, used: set, key: str, kind, default=_MISSING, check=None):
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"{key}: required field is missing")
        return default
    used.add(key)
    val = cfg[key]
    if val is None:
        if default is _MISSING:
            raise ConfigError(f"{key}: must not be null")
        return default
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if kind is not None and (
        not isinstance(val, kind) or (kind is int and isinstance(val, bool))
    ):
        raise ConfigError(f"{key}: expected {getattr(kind, '__name__', kind)}, got {val!r}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {val!r}")
    if check is not None:
        err = check(val)
        if err:
            raise ConfigError(f"{key}: {err}")
    return val


def _finish(cfg: dict, used: set) -> None:
    unknown = set(cfg) - used - {"experiment"}
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(sorted(unknown))}")


def _budget(field: str, count: int, limit: int, what: str) -> None:
    """Refuse, naming `field`, a config whose `count` of `what` exceeds `limit`."""
    if count > limit:
        raise ConfigError(f"{field}: needs more {what} than the budget of {limit:.0e}")


def _positive(v):
    return None if v > 0 else f"must be > 0, got {v}"


def _non_negative(v):
    return None if v >= 0 else f"must be >= 0, got {v}"


def _positive_list(vs):
    if not vs:
        return "must be non-empty"
    for v in vs:
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v) or v <= 0):
            return f"entries must be finite and > 0, got {v!r}"
    return None


def _int_list(vs):
    if not vs:
        return "must be non-empty"
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return f"entries must be integers >= 0, got {v!r}"
    return None


def _number_list(vs):
    for v in vs:
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return f"entries must be finite numbers, got {v!r}"
    return None


# ---------------------------------------------------------------------------
# quant-stats
# ---------------------------------------------------------------------------


def cmd_quant_stats(cfg: dict):
    used: set = set()
    deltas = _take(cfg, used, "deltas", list, [0.1, 0.5, 1.0], _positive_list)
    num_scalars = _take(cfg, used, "num_scalars", int, 20, _positive)
    samples = _take(cfg, used, "samples", int, 100_000, _positive)
    seed = _take(cfg, used, "seed", int, 0, _non_negative)
    sparsity_dim = _take(cfg, used, "sparsity_dim", int, 32, _positive)
    sparsity_vectors = _take(cfg, used, "sparsity_vectors", int, 5, _positive)
    _finish(cfg, used)
    _budget("num_scalars", num_scalars, MAX_ELEMENTS, "array elements")
    _budget("samples", samples, MAX_ELEMENTS, "array elements per scalar")
    _budget("sparsity_dim", SPARSITY_SHIFTS * sparsity_dim, MAX_ELEMENTS,
            f"array elements in the ({SPARSITY_SHIFTS}, sparsity_dim) shift matrix")
    _budget("num_scalars", len(deltas) * num_scalars * samples, MAX_ITERATIONS,
            "draws (len(deltas) x num_scalars x samples)")
    _budget("sparsity_vectors",
            len(deltas) * sparsity_vectors * SPARSITY_SHIFTS * sparsity_dim, MAX_ITERATIONS,
            f"shift-matrix entries (len(deltas) x sparsity_vectors x {SPARSITY_SHIFTS}"
            " x sparsity_dim)")

    header = ["kind", "delta", "x", "n", "estimate", "target", "tolerance", "passed"]
    rows = []
    try:  # a delta too large for float64 squares or sums to inf
        with np.errstate(over="raise", invalid="raise"):
            for di, delta in enumerate(deltas):
                rng = np.random.default_rng((seed, di))
                ints = rng.integers(-3, 4, num_scalars)
                fracs = rng.uniform(0.1, 0.9, num_scalars)
                for x in delta * (ints + fracs):
                    rs = rng.uniform(-delta / 2, delta / 2, samples)
                    lattice = delta * shift_round(x, rs, delta)
                    mean = float((lattice + rs).mean())
                    mean_tol = 4 * delta / (2 * math.sqrt(samples))
                    rows.append(
                        ["mean", delta, x, samples, mean, x, mean_tol,
                         abs(mean - x) <= mean_tol]
                    )
                    z = (x / delta) - math.floor(x / delta)
                    true_var = delta**2 * z * (1 - z)
                    est_var = float(((lattice - x) ** 2).mean())
                    rel = abs(est_var - true_var) / true_var
                    rows.append(
                        ["variance", delta, x, samples, est_var, true_var, 0.01, rel <= 0.01]
                    )
                for _ in range(sparsity_vectors):
                    v = rng.uniform(-delta, delta, sparsity_dim) * 0.95
                    bound = float(np.abs(v).sum() / delta)
                    n_r = SPARSITY_SHIFTS
                    rs = rng.uniform(-delta / 2, delta / 2, n_r)
                    counts = np.count_nonzero(
                        shift_round(v[None, :], rs[:, None], delta), axis=1
                    )
                    est = float(counts.mean())
                    tol = 3 * float(counts.std(ddof=1) / math.sqrt(n_r))
                    rows.append(
                        ["sparsity", delta, bound, n_r, est, bound, tol, est <= bound + tol]
                    )
    except ArithmeticError as exc:
        raise ArithmeticError(f"deltas: {delta!r} is out of range: {exc}") from exc
    return header, rows


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def cmd_converge(cfg: dict):
    used: set = set()
    diagonal = _take(cfg, used, "diagonal", list, check=_positive_list)
    n = len(diagonal)
    linear = _take(cfg, used, "linear", list, [0.0] * n, _number_list)
    sigma = _take(cfg, used, "sigma", float, 0.0, _non_negative)
    epsilon = _take(cfg, used, "epsilon", float, check=_positive)
    delta_star = _take(cfg, used, "delta_star", float, check=_positive)
    x0 = _take(cfg, used, "x0", list, check=_number_list)
    seeds = _take(cfg, used, "seeds", list, check=_int_list)
    gradient_bits = _take(cfg, used, "gradient_bits", int, None)
    bench_seed = _take(cfg, used, "benchmark_seed", int, 1, _non_negative)
    keep_trace = _take(cfg, used, "trace", bool, True)
    _finish(cfg, used)
    if len(x0) != n:
        raise ConfigError(f"x0: expected {n} entries, got {len(x0)}")
    if len(linear) != n:
        raise ConfigError(f"linear: expected {n} entries, got {len(linear)}")
    if gradient_bits is not None and not 1 <= gradient_bits <= 16:
        raise ConfigError(f"gradient_bits: must be in [1, 16], got {gradient_bits}")
    _budget("diagonal", n * n, MAX_ELEMENTS, "array elements in the dense (n, n) matrix")
    if sigma * sigma == math.inf:  # the plan needs sigma**2
        raise ArithmeticError(f"sigma {sigma!r}: its square is beyond the float range")

    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        problem = quadratic_problem(np.diag(diagonal), np.asarray(linear, float), sigma)
    if not math.isfinite(problem.optimal_value):
        raise ArithmeticError(f"linear: optimal value {problem.optimal_value!r} is not finite")
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        bench = benchmark_expectation(problem, delta_star)
        gap0 = problem.objective(x0) - bench.mean
    if not math.isfinite(bench.mean):
        raise RuntimeError(f"diagonal and delta_star {delta_star!r}: benchmark "
                           f"{bench.mean!r} is not finite")
    if not math.isfinite(gap0):
        raise RuntimeError(f"x0: initial gap {gap0!r} is not finite")

    quantizer = None
    grad_var = 0.0
    if gradient_bits is not None:
        pilot_rng = np.random.default_rng((bench_seed, 99))
        pilot = [problem.stochastic_gradient(x0, pilot_rng) for _ in range(16)]
        budget = gradient_quantizer_variance_budget(gradient_bits, BucketSpec(), pilot)
        grad_var = budget.sigma_nabla_sq
        quantizer = UniformStochasticGradientQuantizer(gradient_bits)
    at_sigma = f" at sigma {sigma!r}" if sigma > 0 else ""  # eta scales as 1/sigma**2
    try:
        plan = make_plan(
            problem, epsilon, delta_star, gap0,
            gradient_variance=grad_var, gradient_bit_width=gradient_bits,
        )
    except (ArithmeticError, ValueError) as exc:  # valid fields, out of float range
        raise ArithmeticError(
            f"diagonal (condition number {max(diagonal) / min(diagonal):.3g}) and "
            f"epsilon {epsilon!r}{at_sigma} give no finite plan: {exc}"
        ) from exc
    if plan.iteration_count > MAX_ITERATIONS:
        raise RuntimeError(f"epsilon {epsilon!r}{at_sigma} needs T={plan.iteration_count:.3g} "
                           f"iterations per seed, more than {MAX_ITERATIONS:.0e}")

    try:  # a pitch too fine for the iterates overflows their lattice indices
        with np.errstate(all="ignore"):
            result = run(problem, plan, x0, seeds, gradient_quantizer=quantizer,
                         benchmark=bench.mean, keep_traces=keep_trace)
    except RuntimeError as exc:
        raise RuntimeError(f"delta_star {delta_star!r} (fine lattice pitch "
                           f"{plan.fine_resolution!r}): {exc}") from exc

    header = [
        "record", "seed", "step", "f", "gap", "quant_error_norm", "grad_norm",
        "eta", "delta", "T", "benchmark", "benchmark_se", "passed",
    ]
    rows = []
    for seed, trace in zip(seeds, result.traces):
        for t, rec in enumerate(trace.steps, start=1):
            rows.append(
                ["trace", seed, t, rec.objective, rec.objective - bench.mean,
                 rec.quantization_error, rec.gradient_norm, "", "", "", "", "", ""]
            )
    mean_gap = result.mean_final - bench.mean
    tol = epsilon + 2 * math.sqrt(result.stderr_final**2 + bench.standard_error**2)
    rows.append(
        ["summary", "", plan.iteration_count, result.mean_final, mean_gap, "", "",
         plan.eta, plan.fine_resolution, plan.iteration_count,
         bench.mean, bench.standard_error, mean_gap <= tol]
    )
    return header, rows


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------


def _quant_from_bits(bit_widths: dict, bucket_size: int, field: str,
                     extra_keys=()) -> QuantConfig:
    """QuantConfig from {"weights": bits, "gradients": bits}; a null or
    missing width leaves that side unquantized.  Errors name `field`."""
    unknown = set(bit_widths) - {"weights", "gradients", *extra_keys}
    if unknown:
        raise ConfigError(f"{field}: unknown key(s) {', '.join(sorted(unknown))}")
    w = bit_widths.get("weights")
    g = bit_widths.get("gradients")
    for key, v in (("weights", w), ("gradients", g)):
        if v is not None and (
            not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= 16
        ):
            raise ConfigError(
                f"{field}: {key} must be an integer in [1, 16] or null, got {v!r}"
            )
    return QuantConfig(
        quantize_weights=w is not None,
        quantize_gradients=g is not None,
        weight_bits=w if w is not None else 8,
        gradient_bits=g if g is not None else 8,
        bucket_size=bucket_size,
    )


def _sim_common(cfg: dict, used: set):
    """The fields `train-sim` and `bandwidth-sweep` share: (layers, P,
    bucket_size) and the network's (latency_s, compute_time_s, overlap)."""
    layers = _take(cfg, used, "layers", list,
                   check=lambda vs: _int_list(vs) or _positive(min(vs)))
    P = _take(cfg, used, "P", int, 1, _positive)
    bucket_size = _take(cfg, used, "bucket_size", int, 1024, _positive)
    latency = _take(cfg, used, "latency_s", float, 0.0, _non_negative)
    compute = _take(cfg, used, "compute_time_s", float, 0.0, _non_negative)
    overlap = _take(cfg, used, "overlap", bool, True)
    if len(layers) < 2:
        raise ConfigError("layers: need at least input and output widths")
    return layers, P, bucket_size, (latency, compute, overlap)


def cmd_train_sim(cfg: dict):
    used: set = set()
    layers, P, bucket_size, link = _sim_common(cfg, used)
    batch = _take(cfg, used, "batch", int, 64, _positive)
    lr = _take(cfg, used, "lr", float, 0.05, _positive)
    bandwidth = _take(cfg, used, "bandwidth_bps", float, 1e10, _positive)
    bit_widths = _take(cfg, used, "bit_widths", dict, {"weights": 8, "gradients": 8})
    steps = _take(cfg, used, "steps", int, check=_positive)
    seeds = _take(cfg, used, "seeds", list, [0], _int_list)
    fixed_batch = _take(cfg, used, "fixed_batch", bool, False)
    _finish(cfg, used)
    if batch % P:
        raise ConfigError(f"batch: {batch} does not divide across P={P} workers")
    dense = [fan_in * fan_out for fan_in, fan_out in zip(layers, layers[1:])]
    _budget("layers", sum(dense) + sum(layers[1:]) + 3 * max(dense), MAX_ELEMENTS,
            "array elements (every layer plus three buffers of the largest dense one)")
    _budget("batch", batch * max(layers), MAX_ELEMENTS,
            "array elements in the (batch, max(layers)) activations")
    messages = (len(layers) - 1) * P * P
    _budget("P", messages, MAX_ITERATIONS, "shard messages in one step ((len(layers) - 1) x P^2)")
    _budget("steps", steps * len(seeds) * messages, MAX_ITERATIONS,
            f"shard messages ({steps * len(seeds)} simulated steps x (len(layers) - 1) x P^2)")

    network = NetworkModel(bandwidth, *link)
    quant = _quant_from_bits(bit_widths, bucket_size, "bit_widths")
    header = ["seed", "step", "loss", "allgather_bits", "reducescatter_bits", "step_time_s"]
    rows = []
    # An lr too large diverges: numpy's overflow warnings give way to one
    # error naming lr, raised at the first non-finite loss or at the first
    # weight or gradient the quantizer refuses as beyond the float32 range.
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in seeds:
            sim = ShardedMLP(SimConfig(tuple(layers), P, batch, lr, quant, seed, seed, seed,
                                       fixed_batch))
            for t in range(steps):
                try:
                    loss, entry = sim.train_step(t)
                except ValueError as exc:
                    raise ArithmeticError(
                        f"lr {lr!r} diverged at seed {seed}, step {t}: {exc}"
                    ) from exc
                if not math.isfinite(loss):
                    raise ArithmeticError(
                        f"lr {lr!r} diverged at seed {seed}, step {t}: loss {loss!r}"
                    )
                rows.append(
                    [seed, t, loss, entry.allgather_bits, entry.reducescatter_bits,
                     _step_time(entry, network, "bandwidth_bps")]
                )
    return header, rows


def _step_time(entry, net: NetworkModel, field: str) -> float:
    """simulate_step_time, refusing an infinite one by naming the field of
    its largest term; `field` names the bandwidth."""
    t = simulate_step_time(entry, net)
    if not math.isfinite(t):
        terms = step_time_terms(entry, net)
        largest = max(terms, key=terms.get)
        raise ArithmeticError(
            f"{field if largest == 'bandwidth_bps' else largest}: step time {t!r} s"
        )
    return t


# ---------------------------------------------------------------------------
# bandwidth-sweep
# ---------------------------------------------------------------------------


def _priceable(entry):
    """`entry`, refusing exact bits beyond the float range that prices them."""
    if entry.total_bits > sys.float_info.max:  # only a huge `layers` or `P`
        raise ArithmeticError(f"layers and P: one step sends about 10^"
                              f"{math.log10(entry.total_bits):.0f} bits, beyond the float range")
    return entry


def cmd_bandwidth_sweep(cfg: dict):
    used: set = set()
    layers, P, bucket_size, link = _sim_common(cfg, used)
    bandwidths = _take(cfg, used, "bandwidths_gbps", list, check=_positive_list)
    mode = _take(cfg, used, "mode", str, "bits")
    nets = [NetworkModel(gbps * 1e9, *link) for gbps in bandwidths]
    if max(bandwidths) * 1e9 == math.inf:
        raise ArithmeticError(f"bandwidths_gbps: {max(bandwidths)!r} Gbit/s overflows bit/s")
    if mode == "bits":
        configs = _take(cfg, used, "configs", list)
        _finish(cfg, used)
        if not configs:
            raise ConfigError("configs: must be non-empty")
        labelled = []
        for conf in configs:
            if not isinstance(conf, dict) or "label" not in conf:
                raise ConfigError("configs: each entry needs a 'label'")
            labelled.append(
                (conf["label"], _quant_from_bits(conf, bucket_size, "configs", ("label",)))
            )
        header = ["label", "bandwidth_bps", "total_bits", "allgather_bits",
                  "reducescatter_bits", "step_time_s"]
        rows = []
        for label, quant in labelled:
            entry = _priceable(step_ledger(layers, P, quant))
            for net in nets:
                rows.append(
                    [label, net.bandwidth_bps, entry.total_bits, entry.allgather_bits,
                     entry.reducescatter_bits, _step_time(entry, net, "bandwidths_gbps")]
                )
        return header, rows

    if mode != "ratios":
        raise ConfigError(f"mode: expected 'bits' or 'ratios', got {mode!r}")
    w_ratios = _take(cfg, used, "weight_ratios", list, check=_positive_list)
    g_ratios = _take(cfg, used, "gradient_ratios", list, check=_positive_list)
    _finish(cfg, used)
    fp32 = QuantConfig(quantize_weights=False, quantize_gradients=False)
    base = _priceable(step_ledger(layers, P, fp32))
    for name, ratios, bits in (("weight_ratios", w_ratios, base.allgather_bits),
                               ("gradient_ratios", g_ratios, base.reducescatter_bits)):
        for ratio in ratios:
            if not math.isfinite(bits / ratio):
                raise ArithmeticError(f"{name}: ratio {ratio!r} scales {bits} bits a step to inf")
    header = ["label", "bandwidth_bps", "weight_ratio", "gradient_ratio",
              "total_bits", "step_time_s"]
    rows = []
    # idealized compression: a ratio-r buffer ships 1/r of its bits
    for wr in w_ratios:
        for gr in g_ratios:
            scaled = dataclasses.replace(
                base,
                allgather_bits=base.allgather_bits / wr,
                reducescatter_bits=base.reducescatter_bits / gr,
            )
            for net in nets:
                rows.append([f"w{wr}g{gr}", net.bandwidth_bps, wr, gr, scaled.total_bits,
                             _step_time(scaled, net, "bandwidths_gbps")])
    return header, rows


# ---------------------------------------------------------------------------
# learn-levels
# ---------------------------------------------------------------------------


def learned_vs_uniform_error(
    values: np.ndarray,
    bit_width: int,
    bucket_size: int = 1024,
    passes: int = 1,
    learning_rate: float = 0.01,
):
    """Relative L2 reconstruction error of uniform vs learned level tables.

    Values are min-max normalized bucket-wise; one shared table is trained
    over all normalized values in order, unless the uniform one is already
    exact, and both tables are evaluated with deterministic nearest-level
    quantization on the original scale.
    """
    values = np.asarray(values, dtype=float)
    size = _layout(values.size, bucket_size)[0]
    starts = np.arange(0, values.size, size)
    lo = np.minimum.reduceat(values, starts)
    span = np.maximum.reduceat(values, starts) - lo
    lo, span = np.repeat(lo, size)[: values.size], np.repeat(span, size)[: values.size]
    normalized = np.divide(values - lo, span, out=np.zeros_like(values), where=span > 0)

    def rel_err(tab):
        recon = lo + tab.levels[quantize_with_levels(normalized, tab)] * span
        sq = (values - recon) ** 2
        # summed bucket by bucket, then over the buckets in order, as a
        # per-bucket loop sums, so the errors do not move in the last bits
        per_bucket = [np.atleast_1d(x.sum(axis=-1)) for x in _groups(sq, bucket_size)]
        err = sum(np.concatenate(per_bucket).tolist())
        return math.sqrt(err) / math.sqrt(float((values**2).sum()))

    table = LevelTable.uniform(bit_width)
    uniform_err = rel_err(table)
    for _ in range(passes if uniform_err else 0):  # an exact table has nothing to learn
        table = learn_levels(normalized, table, learning_rate)
    return uniform_err, rel_err(table), table


def cmd_learn_levels(cfg: dict):
    used: set = set()
    distribution = _take(cfg, used, "distribution", str, "gaussian")
    num_values = _take(cfg, used, "num_values", int, 100_000, _positive)
    bit_width = _take(cfg, used, "bit_width", int, 4, _positive)
    passes = _take(cfg, used, "passes", int, 1, _positive)
    learning_rate = _take(cfg, used, "learning_rate", float, 0.01, _positive)
    bucket_size = _take(cfg, used, "bucket_size", int, 1024, _positive)
    seed = _take(cfg, used, "seed", int, 0, _non_negative)
    _finish(cfg, used)
    if distribution not in ("gaussian", "uniform"):
        raise ConfigError(f"distribution: expected gaussian or uniform, got {distribution!r}")
    if not 1 <= bit_width <= 16:
        raise ConfigError("bit_width: must be in [1, 16]")
    _budget("num_values", num_values, MAX_ELEMENTS, "array elements")
    _budget("passes", passes * num_values, MAX_ITERATIONS, "level updates (passes x num_values)")

    rng = np.random.default_rng(seed)
    if distribution == "gaussian":
        values = rng.standard_normal(num_values)
    else:
        values = rng.uniform(0.0, 1.0, num_values)
    try:  # a learning_rate too large overflows the level updates
        with np.errstate(over="raise", invalid="raise"):
            uniform_err, learned_err, _ = learned_vs_uniform_error(
                values, bit_width, bucket_size, passes, learning_rate
            )
    except FloatingPointError as exc:
        raise ArithmeticError(
            f"learning_rate {learning_rate!r} is out of range: {exc}"
        ) from exc
    header = ["distribution", "bit_width", "num_values", "uniform_rel_err",
              "learned_rel_err", "improvement"]
    rows = [[distribution, bit_width, num_values, uniform_err, learned_err,
             1.0 - learned_err / uniform_err if uniform_err else 0.0]]
    return header, rows


COMMANDS = {
    "quant-stats": cmd_quant_stats,
    "converge": cmd_converge,
    "train-sim": cmd_train_sim,
    "bandwidth-sweep": cmd_bandwidth_sweep,
    "learn-levels": cmd_learn_levels,
}


def dispatch(command: str, cfg: dict):
    if command not in COMMANDS:
        raise ConfigError(f"unknown experiment command {command!r}")
    declared = cfg.get("experiment")
    if declared is not None and declared != command:
        raise ConfigError(
            f"experiment: config declares {declared!r} but command is {command!r}"
        )
    return COMMANDS[command](cfg)
