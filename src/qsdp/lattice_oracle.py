"""Independent oracles: lattice minimizers, benchmark expectations, and
gradient-quantizer variance budgets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .optimizer import UniformStochasticGradientQuantizer
from .problems import ProblemSpec
from .quantize import BucketSpec

# The block-list codec stays bound here for code that looks it up on this
# module (perfbench/tracing.py); the budget runs the gradient quantizer.
from .quantize import bucketed_quantize, dequantize  # noqa: F401

__all__ = [
    "brute_force_lattice_min",
    "benchmark_expectation",
    "BenchmarkEstimate",
    "gradient_quantizer_variance_budget",
    "VarianceBudget",
]

MAX_ENUMERATION = 10**8


def _separable_argmin(problem: ProblemSpec, delta_star: float, rs: np.ndarray):
    """Exact per-coordinate lattice minimization for a diagonal quadratic.

    For each shift in `rs`, each coordinate takes the better of the floor
    and ceil lattice neighbours of its unconstrained minimizer b_i / a_i.
    Returns (x, vals), both (shifts, n): the minimizers and the smaller of
    the two neighbours' terms 0.5 a_i x_i^2 - b_i x_i (NaN if either is).
    """
    a = np.diag(problem.matrix)
    b = problem.linear
    k_lo = np.floor((b / a - rs[:, None]) / delta_star)
    x_lo, x_hi = (k * delta_star + rs[:, None] for k in (k_lo, k_lo + 1.0))
    f_lo, f_hi = (0.5 * a * x**2 - b * x for x in (x_lo, x_hi))
    up = (f_hi < f_lo) | (np.isnan(f_hi) & ~np.isnan(f_lo))  # as np.argmin picks
    return np.where(up, x_hi, x_lo), np.minimum(f_lo, f_hi)


def brute_force_lattice_min(
    problem: ProblemSpec,
    delta_star: float,
    r: float,
    search_radius: float | None = None,
    mode: str = "auto",
):
    """Minimize the objective over the lattice delta_star * Z^n + r * 1.

    Diagonal quadratics use exact coordinate-wise minimization; otherwise an
    exhaustive box search around the unconstrained minimizer is used (n <= 8).
    The default radius doubles the PL distance bound
    ||x - x*|| <= sqrt(2 (f(x) - f*) / alpha) evaluated at the nearest
    lattice point, which is guaranteed to contain every lattice minimizer.
    """
    if delta_star <= 0:
        raise ValueError("delta_star must be > 0")
    if mode not in ("auto", "separable", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "separable" if problem.is_diagonal_quadratic() else "exhaustive"
    if mode == "separable":
        if not problem.is_diagonal_quadratic():
            raise ValueError("separable mode requires a diagonal quadratic")
        best_x = _separable_argmin(problem, delta_star, np.array([r]))[0][0]
        return best_x, problem.objective(best_x)

    if problem.minimizer is None or problem.optimal_value is None:
        raise ValueError("exhaustive mode requires a known minimizer")
    n = problem.dimension
    if n > 8:
        raise ValueError(f"exhaustive mode supports n <= 8, got n={n}")
    xhat = problem.minimizer
    if search_radius is None:
        near = delta_star * np.round((xhat - r) / delta_star) + r
        gap = max(problem.objective(near) - problem.optimal_value, 0.0)
        search_radius = 2.0 * math.sqrt(2.0 * gap / problem.pl_constant)
        search_radius = max(search_radius, delta_star)
    ranges = []
    count = 1
    for i in range(n):
        lo = math.ceil((xhat[i] - search_radius - r) / delta_star)
        hi = math.floor((xhat[i] + search_radius - r) / delta_star)
        if hi < lo:
            k = round((xhat[i] - r) / delta_star)
            lo = hi = k
        ranges.append(range(lo, hi + 1))
        count *= len(ranges[-1])
        if count > MAX_ENUMERATION:
            raise ValueError(
                f"enumeration would visit ~{count:.2e} points (> {MAX_ENUMERATION:.0e})"
            )
    best_x, best_f = None, math.inf
    for ks in itertools.product(*ranges):
        x = np.asarray(ks, dtype=float) * delta_star + r
        f = problem.objective(x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


@dataclass
class BenchmarkEstimate:
    mean: float
    standard_error: float


def benchmark_expectation(
    problem: ProblemSpec,
    delta_star: float,
    num_r_samples: int,
    rng: np.random.Generator,
) -> BenchmarkEstimate:
    """Monte-Carlo estimate of E_r[min over the shifted coarse lattice of f].

    The shift r is a scalar drawn uniformly from [-delta_star/2,
    delta_star/2); one lattice minimization is solved per sample.
    """
    if num_r_samples < 1:
        raise ValueError("need at least one shift sample")
    rs = rng.uniform(-delta_star / 2, delta_star / 2, num_r_samples)
    if problem.is_diagonal_quadratic():
        f = _separable_argmin(problem, delta_star, rs)[1].sum(axis=-1)
    else:
        f = np.array(
            [brute_force_lattice_min(problem, delta_star, r, mode="exhaustive")[1]
             for r in rs]
        )
    se = float(f.std(ddof=1) / math.sqrt(f.size)) if f.size > 1 else 0.0
    return BenchmarkEstimate(float(f.mean()), se)


@dataclass
class VarianceBudget:
    """Empirical and analytic bounds for a gradient quantizer's variance."""

    sigma_nabla_sq: float
    analytic_bound: float
    per_sample_mean: np.ndarray
    per_sample_se: np.ndarray


def gradient_quantizer_variance_budget(
    bit_width: int,
    bucket: BucketSpec,
    sample_gradients,
    rng: np.random.Generator,
    draws: int = 128,
) -> VarianceBudget:
    """Estimate E||Q(g) - g||^2 over representative gradients.

    Q is `UniformStochasticGradientQuantizer(bit_width, bucket)`, the
    quantizer a run uses.  Returns the empirical upper envelope (max over
    samples of the Monte-Carlo mean plus three standard errors) together
    with the analytic per-bucket pitch * l1-norm bound.
    """
    if draws < 2:
        raise ValueError("need at least two draws per sample")
    quantizer = UniformStochasticGradientQuantizer(bit_width, bucket)
    means, ses, analytic = [], [], 0.0
    for g in sample_gradients:
        g = np.asarray(g, dtype=float)
        errs = np.empty(draws)
        for j in range(draws):
            ghat, _ = quantizer(g, rng)
            errs[j] = float(np.sum((ghat - g) ** 2))
        means.append(errs.mean())
        ses.append(errs.std(ddof=1) / math.sqrt(draws))
        bound = 0.0
        for start in range(0, g.size, bucket.bucket_size):
            seg = g[start : start + bucket.bucket_size]
            span = seg.max() - seg.min()
            pitch = span / ((1 << bit_width) - 1)
            bound += pitch * np.abs(seg).sum()
        analytic = max(analytic, bound)
    means = np.asarray(means)
    ses = np.asarray(ses)
    return VarianceBudget(
        sigma_nabla_sq=float((means + 3.0 * ses).max()),
        analytic_bound=float(analytic),
        per_sample_mean=means,
        per_sample_se=ses,
    )
