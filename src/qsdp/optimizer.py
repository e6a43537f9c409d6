"""SGD over lattice-projected iterates, with derived hyperparameters.

The iteration takes a stochastic gradient step of effective size eta/beta,
optionally passes the gradient through an unbiased quantizer, then snaps the
iterate to the nearest point of a randomly shifted lattice whose pitch is
coupled to eta through the grid derivation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec
from .quantize import BucketSpec, dequantize_segment, quantize_segment, sample_shift
from .wire import segment_size_bits

# The block-list codec stays bound here for code that looks it up on this
# module (perfbench/tracing.py); the quantizer itself runs on segments.
from .quantize import bucketed_quantize, dequantize  # noqa: F401
from .wire import message_size_bits  # noqa: F401

__all__ = [
    "RunPlan",
    "StepRecord",
    "IterateTrace",
    "RunResult",
    "derive_eta",
    "derive_grid",
    "derive_T",
    "make_plan",
    "qsdp_step",
    "run",
    "UniformStochasticGradientQuantizer",
    "write_trace_csv",
]

_CEIL_GUARD = 1e-9


def _iceil(x: float) -> int:
    """Ceiling with a guard against float noise just above an integer."""
    return int(math.ceil(x - _CEIL_GUARD))


def derive_eta(epsilon: float, alpha: float, sigma_sq_total: float) -> float:
    """Step-size factor min{(3/10) * epsilon * alpha / sigma_sq, 1}."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if sigma_sq_total < 0:
        raise ValueError("total gradient variance must be nonnegative")
    if sigma_sq_total == 0:
        return 1.0
    return min(0.3 * epsilon * alpha / sigma_sq_total, 1.0)


def derive_grid(
    eta: float, alpha: float, beta: float, delta_star: float
) -> tuple[float, int]:
    """Fine pitch delta = eta * delta_star / ceil(16 (beta/alpha)^2).

    Returns (delta, ratio) with ratio = delta_star / delta forced to an
    integer; when eta makes the exact ratio non-integral, delta is rounded
    down (ratio up), which only refines the grid.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not 0 < alpha <= beta:
        raise ValueError("need 0 < alpha <= beta")
    if delta_star <= 0:
        raise ValueError("delta_star must be > 0")
    m = _iceil(16.0 * (beta / alpha) ** 2)
    exact = m / eta
    ratio = round(exact) if abs(exact - round(exact)) < 1e-9 else _iceil(exact)
    return delta_star / ratio, ratio


def derive_T(
    eta: float, alpha: float, beta: float, initial_gap: float, epsilon: float
) -> int:
    """Iteration count ceil((10/eta) (beta/alpha) ln(gap/epsilon))."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if initial_gap <= epsilon:
        return 0
    return _iceil((10.0 / eta) * (beta / alpha) * math.log(initial_gap / epsilon))


@dataclass(frozen=True)
class RunPlan:
    """Derived hyperparameters tying step size, grid, and horizon together."""

    eta: float
    coarse_resolution: float
    fine_resolution: float
    iteration_count: int
    epsilon: float
    grid_ratio: int
    gradient_bit_width: int | None = None
    gradient_variance: float | None = None

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if self.grid_ratio < 1:
            raise ValueError("grid ratio must be a positive integer")
        expected = self.coarse_resolution / self.grid_ratio
        if not math.isclose(self.fine_resolution, expected, rel_tol=1e-12):
            raise ValueError(
                "fine_resolution must equal coarse_resolution / grid_ratio"
            )
        if self.iteration_count < 0:
            raise ValueError("iteration_count must be nonnegative")


def make_plan(
    problem: ProblemSpec,
    epsilon: float,
    delta_star: float,
    initial_gap: float,
    gradient_variance: float = 0.0,
    gradient_bit_width: int | None = None,
) -> RunPlan:
    """Assemble a RunPlan from the three derivations."""
    sigma_sq = problem.noise_sigma**2 + gradient_variance
    eta = derive_eta(epsilon, problem.pl_constant, sigma_sq)
    delta, ratio = derive_grid(
        eta, problem.pl_constant, problem.smoothness, delta_star
    )
    T = derive_T(eta, problem.pl_constant, problem.smoothness, initial_gap, epsilon)
    return RunPlan(
        eta=eta,
        coarse_resolution=delta_star,
        fine_resolution=delta,
        iteration_count=T,
        epsilon=epsilon,
        grid_ratio=ratio,
        gradient_bit_width=gradient_bit_width,
        gradient_variance=gradient_variance if gradient_variance else None,
    )


@dataclass
class StepRecord:
    objective: float
    gradient_norm: float
    quantization_error: float
    shift: float
    gradient_bits: int = 0


@dataclass
class IterateTrace:
    """Per-step history of one seed plus the final gap to the benchmark."""

    seed: int
    steps: list[StepRecord] = field(default_factory=list)
    final_objective: float = math.nan
    final_gap: float = math.nan
    gradient_bits: int = 0


@dataclass
class RunResult:
    final_values: np.ndarray
    mean_final: float
    std_final: float
    traces: list[IterateTrace]
    gradient_bits_per_seed: np.ndarray

    @property
    def stderr_final(self) -> float:
        n = self.final_values.size
        return float(self.std_final / math.sqrt(n)) if n > 1 else 0.0


class UniformStochasticGradientQuantizer:
    """Bucketed unbiased gradient quantizer that accounts its wire bits.

    A gradient is one `quantize_segment` message: the values, draws and bit
    count of `bucketed_quantize` followed by a per-block `dequantize`.
    """

    def __init__(self, bit_width: int, bucket: BucketSpec | None = None):
        if not 1 <= bit_width <= 16:
            raise ValueError(f"bit_width must be in [1, 16], got {bit_width}")
        self.bit_width = bit_width
        self.bucket = bucket or BucketSpec()

    def __call__(
        self, g: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        seg = quantize_segment(
            g, self.bucket.bucket_size, self.bit_width, "uniform_stochastic", rng
        )
        bits = segment_size_bits(seg.length, self.bucket.bucket_size, self.bit_width)
        return dequantize_segment(seg, "uniform_stochastic"), bits


def _all_finite(a: np.ndarray) -> bool:
    # a finite sum has finite terms; scan only when the sum is not finite
    return math.isfinite(np.add.reduce(a)) or bool(np.isfinite(a).all())


def _step(x, problem, plan, rng, gradient_quantizer, shift):
    """The iteration itself: returns (x_new, y, g, r, bits), where y is the
    gradient step before the lattice snap and g the (quantized) gradient."""
    if not _all_finite(x):
        raise RuntimeError("iterate became non-finite; run aborted")
    g = problem.stochastic_gradient(x, rng)
    if not _all_finite(g):
        raise RuntimeError(
            f"non-finite gradient at x with |x|_max={np.abs(x).max():g}; run aborted"
        )
    bits = 0
    if gradient_quantizer is not None:
        g, bits = gradient_quantizer(g, rng)
    y = x - (plan.eta / problem.smoothness) * g
    d = plan.fine_resolution
    r = sample_shift(d, rng) if shift is None else shift
    x_new = y - r
    x_new /= d
    np.rint(x_new, out=x_new)  # ties to even, as np.round
    x_new *= d
    x_new += r
    return x_new, y, g, r, bits


def qsdp_step(
    x: np.ndarray,
    problem: ProblemSpec,
    plan: RunPlan,
    rng: np.random.Generator,
    gradient_quantizer=None,
    shift: float | None = None,
) -> tuple[np.ndarray, StepRecord]:
    """One iteration: gradient step at rate eta/beta, then lattice snap.

    The result lies on fine_resolution * Z^n + r * 1 for the drawn (or
    forced) shift r.
    """
    x = np.asarray(x, dtype=float)
    x_new, y, g, r, bits = _step(x, problem, plan, rng, gradient_quantizer, shift)
    rec = StepRecord(
        objective=problem.objective(x_new),
        gradient_norm=float(np.linalg.norm(g)),
        quantization_error=float(np.linalg.norm(x_new - y)),
        shift=r,
        gradient_bits=bits,
    )
    return x_new, rec


def run(
    problem: ProblemSpec,
    plan: RunPlan,
    x0: np.ndarray,
    seeds,
    gradient_quantizer=None,
    benchmark: float | None = None,
    keep_traces: bool = False,
) -> RunResult:
    """Execute the planned iteration for every seed independently.

    Seeds are deterministic and order-independent, so callers may fan them
    out across threads without changing the result.  Per-step records
    (`qsdp_step`'s objective, norms and shift) are built only with
    `keep_traces`; without it each seed's trace holds just its final
    objective, gap and bit count, and the objective is evaluated once.
    """
    x0 = np.asarray(x0, dtype=float)
    ref = benchmark if benchmark is not None else (problem.optimal_value or 0.0)
    finals, traces, bits_per_seed = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = x0.copy()
        trace = IterateTrace(seed=int(seed))
        total_bits = 0
        for _ in range(plan.iteration_count):
            if keep_traces:
                x, rec = qsdp_step(x, problem, plan, rng, gradient_quantizer)
                trace.steps.append(rec)
                bits = rec.gradient_bits
            else:
                x, _, _, _, bits = _step(x, problem, plan, rng, gradient_quantizer, None)
            total_bits += bits
        f_final = problem.objective(x)
        trace.final_objective = f_final
        trace.final_gap = f_final - ref
        trace.gradient_bits = total_bits
        finals.append(f_final)
        bits_per_seed.append(total_bits)
        traces.append(trace)
    finals = np.asarray(finals, dtype=float)
    return RunResult(
        final_values=finals,
        mean_final=float(finals.mean()),
        std_final=float(finals.std(ddof=1)) if finals.size > 1 else 0.0,
        traces=traces,
        gradient_bits_per_seed=np.asarray(bits_per_seed, dtype=np.int64),
    )


def write_trace_csv(traces: list[IterateTrace], path, benchmark: float = 0.0) -> None:
    """Emit (seed, step, f, gap, quant_error_norm, grad_norm) rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "step", "f", "gap", "quant_error_norm", "grad_norm"])
        for trace in traces:
            for t, rec in enumerate(trace.steps, start=1):
                w.writerow(
                    [
                        trace.seed,
                        t,
                        repr(rec.objective),
                        repr(rec.objective - benchmark),
                        repr(rec.quantization_error),
                        repr(rec.gradient_norm),
                    ]
                )
