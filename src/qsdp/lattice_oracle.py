"""Independent oracles: lattice minimizers, benchmark expectations, and
gradient-quantizer variance budgets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .optimizer import UniformStochasticGradientQuantizer
from .problems import ProblemSpec
from .quantize import BucketSpec, _ends, _groups

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


def brute_force_lattice_min(problem: ProblemSpec, delta_star: float, r: float):
    """Minimize the objective over the lattice delta_star * Z^n + r * 1 by an
    exhaustive box search around the known minimizer (n <= 8).

    The box radius doubles the PL distance bound
    ||x - x*|| <= sqrt(2 (f(x) - f*) / alpha) evaluated at the nearest
    lattice point, which is guaranteed to contain every lattice minimizer.
    """
    if delta_star <= 0:
        raise ValueError("delta_star must be > 0")
    if problem.minimizer is None or problem.optimal_value is None:
        raise ValueError("the lattice search requires a known minimizer")
    n = problem.dimension
    if n > 8:
        raise ValueError(f"the lattice search supports n <= 8, got n={n}")
    xhat = problem.minimizer
    near = delta_star * np.round((xhat - r) / delta_star) + r
    gap = max(problem.objective(near) - problem.optimal_value, 0.0)
    radius = max(2.0 * math.sqrt(2.0 * gap / problem.pl_constant), delta_star)
    ranges = []
    count = 1
    for i in range(n):
        lo = math.ceil((xhat[i] - radius - r) / delta_star)
        hi = math.floor((xhat[i] + radius - r) / delta_star)
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
    num_r_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> BenchmarkEstimate:
    """E_r[min over the shifted coarse lattice delta_star * Z^n + r * 1 of f],
    with the scalar shift r uniform on [-delta_star/2, delta_star/2).

    For a diagonal quadratic each coordinate's distance from its minimizer
    to the nearest lattice point is uniform on a pitch, so the value is
    exactly f* + delta_star^2 * tr(A) / 24, with standard error 0; nothing is
    drawn.  Any other problem takes a Monte-Carlo estimate over
    `num_r_samples` shifts drawn from `rng`, one exhaustive lattice
    minimization per shift.
    """
    if num_r_samples is not None and num_r_samples < 1:
        raise ValueError("need at least one shift sample")
    if problem.is_diagonal_quadratic():
        tr = float(np.diag(problem.matrix).sum())
        return BenchmarkEstimate(problem.optimal_value + delta_star * delta_star * tr / 24, 0.0)
    if num_r_samples is None or rng is None:
        raise ValueError("a non-diagonal problem needs num_r_samples and rng")
    half = delta_star / 2
    rs = rng.uniform(-half, half, num_r_samples)
    f = np.array([brute_force_lattice_min(problem, delta_star, r)[1] for r in rs])
    se = float(f.std(ddof=1) / math.sqrt(f.size)) if f.size > 1 else 0.0
    return BenchmarkEstimate(float(f.mean()), se)


@dataclass
class VarianceBudget:
    """The exact variance of a gradient quantizer on each pilot gradient, and
    the analytic bound on it."""

    sigma_nabla_sq: float
    analytic_bound: float
    per_sample_mean: np.ndarray


def _flip_error(x, lo, hi, top: int) -> float:
    """Exact E||Q(x) - x||^2 of the uniform_stochastic codec over the buckets
    (rows, or one 1-D bucket) of the group `x`, given their float32 `lo` and
    `hi` from `_ends`.

    A live bucket scales to a = (x - lo) * top / span; floor(a + u) then
    errs by f(1 - f) in squared code units (f = frac a) for 0 <= a <= top,
    and the clip to [0, top] makes the error a^2 below and (a - top)^2 above
    (float32 rounding can move lo above the minimum or hi below the
    maximum).  A degenerate bucket (lo == hi) decodes to lo.
    """
    x, lo, hi = np.atleast_2d(x), np.reshape(lo, (-1, 1)), np.reshape(hi, (-1, 1))
    span = hi - lo
    dead = span == 0
    a = (x - lo) * (top / np.where(dead, 1.0, span))
    f = a - np.floor(a)
    h = np.where(a < 0, a * a, np.where(a > top, (a - top) ** 2, f * (1 - f)))
    live = float(((span / top) ** 2 * h.sum(axis=1, keepdims=True)).sum())
    return live + float(np.square(x - lo)[dead[:, 0]].sum())


def gradient_quantizer_variance_budget(
    bit_width: int,
    bucket: BucketSpec,
    sample_gradients,
    rng: np.random.Generator | None = None,
    draws: int = 128,
) -> VarianceBudget:
    """E||Q(g) - g||^2 over representative gradients, computed exactly.

    Q is `UniformStochasticGradientQuantizer(bit_width, bucket)`, the
    quantizer a run uses; each pilot is checked as Q checks it.  Returns
    the maximum over the pilots (sigma_nabla_sq), each pilot's value, and
    the analytic per-bucket pitch * l1-norm bound.  Nothing is sampled:
    `rng` and `draws` are accepted and unused.
    """
    sample_gradients = list(sample_gradients)
    if not sample_gradients:
        raise ValueError("sample_gradients: need at least one gradient")
    quantizer = UniformStochasticGradientQuantizer(bit_width, bucket)
    size, top = quantizer.bucket.bucket_size, (1 << quantizer.bit_width) - 1
    exact, bounds = [], []
    for g in sample_gradients:
        g = np.asarray(g, dtype=float).ravel()  # as the quantizer takes it
        if not g.size:
            raise ValueError("cannot quantize an empty vector")
        groups = _groups(g, size)  # the quantizer's buckets, in order
        ends = [_ends(x, g) for x in groups]  # checks every value first
        exact.append(sum(_flip_error(x, *e, top) for x, e in zip(groups, ends)))
        bounds.append(sum(float(np.sum(np.ptp(x, axis=-1) / top * np.abs(x).sum(axis=-1)))
                          for x in groups))
    exact = np.asarray(exact)
    return VarianceBudget(float(exact.max()), max(bounds), exact)
