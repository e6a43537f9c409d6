"""Independent oracles: lattice minimizers, benchmark expectations, and
gradient-quantizer variance budgets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .optimizer import UniformStochasticGradientQuantizer
from .problems import ProblemSpec
from .quantize import BucketSpec, _groups, _roundtrip_draws

# The block-list codec stays bound here for code that looks it up on this
# module (perfbench/tracing.py).
from .quantize import bucketed_quantize, dequantize  # noqa: F401

__all__ = [
    "brute_force_lattice_min",
    "benchmark_expectation",
    "BenchmarkEstimate",
    "gradient_quantizer_variance_budget",
    "VarianceBudget",
]

MAX_ENUMERATION = 10**8

# Values per chunk of the array work, (shifts, n) in the benchmark and
# (draws, n) in the budget: the temporaries stay small enough to be reused
# from cache, and memory no longer grows with the sample count.
_CHUNK_VALUES = 1 << 14


def _neighbour_terms(problem: ProblemSpec, delta_star: float, rs: np.ndarray):
    """Floor and ceil lattice neighbours of each coordinate's unconstrained
    minimizer b_i / a_i of a diagonal quadratic, for each shift in `rs`.

    Returns (x_lo, x_hi, f_lo, f_hi), each (shifts, n): the two neighbours
    and their terms 0.5 a_i x_i^2 - b_i x_i.
    """
    a = np.diag(problem.matrix)
    b = problem.linear
    k_lo = np.floor((b / a - rs[:, None]) / delta_star)
    x_lo, x_hi = (k * delta_star + rs[:, None] for k in (k_lo, k_lo + 1.0))
    f_lo, f_hi = (0.5 * a * x**2 - b * x for x in (x_lo, x_hi))
    return x_lo, x_hi, f_lo, f_hi


def _separable_argmin(problem: ProblemSpec, delta_star: float, rs: np.ndarray):
    """Exact per-coordinate lattice minimizers for a diagonal quadratic, one
    row per shift in `rs`: each coordinate takes the better of its two
    lattice neighbours, as np.argmin over them would pick."""
    x_lo, x_hi, f_lo, f_hi = _neighbour_terms(problem, delta_star, rs)
    up = (f_hi < f_lo) | (np.isnan(f_hi) & ~np.isnan(f_lo))
    return np.where(up, x_hi, x_lo)


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
        best_x = _separable_argmin(problem, delta_star, np.array([r]))[0]
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
    delta_star/2); one lattice minimization is solved per sample.  A
    diagonal quadratic is minimized per coordinate in fixed-size chunks of
    shifts, so no (samples, n) array is built; the chunks draw their shifts
    in order, and chunking changes neither the estimate nor the draws.
    """
    if num_r_samples < 1:
        raise ValueError("need at least one shift sample")
    half = delta_star / 2
    if problem.is_diagonal_quadratic():
        f = np.empty(num_r_samples)
        step = max(1, _CHUNK_VALUES // problem.dimension)
        for start in range(0, num_r_samples, step):
            rs = rng.uniform(-half, half, min(step, num_r_samples - start))
            _, _, f_lo, f_hi = _neighbour_terms(problem, delta_star, rs)
            np.minimum(f_lo, f_hi, out=f_lo).sum(axis=-1, out=f[start : start + rs.size])
    else:
        rs = rng.uniform(-half, half, num_r_samples)
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
    quantizer a run uses.  The `draws` realizations of a gradient are
    quantized as the rows of one array (in fixed-size chunks for long
    gradients) and consume `rng` exactly as `draws` sequential quantizer
    calls would, so the estimate is bit for bit theirs.  Returns the
    empirical upper envelope (max over samples of the Monte-Carlo mean plus
    three standard errors) together with the analytic per-bucket
    pitch * l1-norm bound.
    """
    if draws < 2:
        raise ValueError("need at least two draws per sample")
    sample_gradients = list(sample_gradients)
    if not sample_gradients:
        raise ValueError("sample_gradients: need at least one gradient")
    quantizer = UniformStochasticGradientQuantizer(bit_width, bucket)
    size, bits = quantizer.bucket.bucket_size, quantizer.bit_width
    means, ses, analytic = [], [], 0.0
    for g in sample_gradients:
        g = np.asarray(g, dtype=float).ravel()  # as the quantizer takes it
        if not g.size:
            raise ValueError("cannot quantize an empty vector")
        errs = np.empty(draws)
        step = max(1, _CHUNK_VALUES // g.size)
        for start in range(0, draws, step):
            count = min(step, draws - start)
            err = _roundtrip_draws(g, count, size, bits, rng)
            err -= g
            np.square(err, out=err).sum(axis=1, out=errs[start : start + count])
        means.append(errs.mean())
        ses.append(errs.std(ddof=1) / math.sqrt(draws))
        bound = 0.0
        for group in _groups(g, size):  # the quantizer's buckets, in order
            for seg in np.atleast_2d(group):
                span = seg.max() - seg.min()
                pitch = span / ((1 << bits) - 1)
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
