import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdp.lattice_oracle import (
    benchmark_expectation,
    brute_force_lattice_min,
    gradient_quantizer_variance_budget,
)
from qsdp.problems import quadratic_problem
from qsdp.quantize import BucketSpec


class TestBruteForce:
    def test_unshifted_parabola(self):
        p = quadratic_problem(np.eye(1))
        x, f = brute_force_lattice_min(p, 1.0, 0.0)
        assert x[0] == 0.0 and f == 0.0

    def test_shifted_parabola(self):
        # candidates 0.3 and -0.7; the nearer one wins with f = 0.045
        p = quadratic_problem(np.eye(1))
        x, f = brute_force_lattice_min(p, 1.0, 0.3)
        assert x[0] == pytest.approx(0.3)
        assert f == pytest.approx(0.045)

    def test_enumeration_size_guard(self):
        # one stiff coordinate makes the PL box ~200 points wide per coordinate
        a = np.array([1.0] * 7 + [1e4])
        p = quadratic_problem(np.diag(a), a * 0.25)
        with pytest.raises(ValueError, match="enumeration"):
            brute_force_lattice_min(p, 0.5, 0.0)

    def test_dimension_guard(self):
        p = quadratic_problem(np.eye(9))
        with pytest.raises(ValueError, match="n <= 8"):
            brute_force_lattice_min(p, 0.5, 0.0)


def _one_shot_benchmark(problem, delta_star, num_r_samples, rng):
    """Monte-Carlo benchmark of a diagonal quadratic as one (samples, n) array
    computation: all shifts drawn at once, both lattice neighbours of every
    coordinate, the smaller term."""
    rs = rng.uniform(-delta_star / 2, delta_star / 2, num_r_samples)
    a, b = np.diag(problem.matrix), problem.linear
    k_lo = np.floor((b / a - rs[:, None]) / delta_star)
    x_lo, x_hi = (k * delta_star + rs[:, None] for k in (k_lo, k_lo + 1.0))
    f_lo, f_hi = (0.5 * a * x**2 - b * x for x in (x_lo, x_hi))
    f = np.minimum(f_lo, f_hi).sum(axis=-1)
    se = float(f.std(ddof=1) / math.sqrt(f.size)) if f.size > 1 else 0.0
    return float(f.mean()), se


@st.composite
def _diagonal_problems(draw):
    """A random diagonal quadratic with a nonzero linear term, and a pitch."""
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = gen.uniform(0.1, 10.0, n)
    linear = gen.uniform(-5.0, 5.0, n)
    return quadratic_problem(np.diag(diag), linear), draw(st.floats(0.01, 2.0))


class TestBenchmark:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_diagonal_problems())
    def test_diagonal_closed_form_matches_sampling(self, case):
        p, delta_star = case
        rng = np.random.default_rng(21)
        state = rng.bit_generator.state
        est = benchmark_expectation(p, delta_star, 10**4, rng)
        assert est.standard_error == 0.0
        assert rng.bit_generator.state == state  # nothing is drawn
        mean, se = _one_shot_benchmark(p, delta_star, 20000, np.random.default_rng(22))
        assert abs(mean - est.mean) <= 5 * se + 1e-12 * (1 + abs(est.mean))

    def test_non_diagonal_problem_is_sampled(self):
        p = quadratic_problem(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2]))
        with pytest.raises(ValueError, match="num_r_samples and rng"):
            benchmark_expectation(p, 0.5)
        est = benchmark_expectation(p, 0.5, 200, np.random.default_rng(8))
        rs = np.random.default_rng(8).uniform(-0.25, 0.25, 200)
        f = [brute_force_lattice_min(p, 0.5, r)[1] for r in rs]
        assert est.mean == float(np.mean(f))
        assert est.standard_error == float(np.std(f, ddof=1) / math.sqrt(200))

    def test_fine_grid_limit_reaches_optimum(self):
        p = quadratic_problem(np.diag([1.0, 2.0]))
        est = benchmark_expectation(p, 1e-3, 2000, np.random.default_rng(0))
        assert est.mean == pytest.approx(0.0, abs=1e-5)

    def test_parabola_quadrature_value(self):
        # E_r min over Z + r of x^2/2 equals the integral of r^2/2, i.e. 1/24
        p = quadratic_problem(np.eye(1))
        exact = 1.0 / 24.0
        est = benchmark_expectation(p, 1.0, 10**5, np.random.default_rng(1))
        assert abs(est.mean - exact) <= 4 * est.standard_error
        # independent quadrature oracle over the shift
        rs = (np.arange(10**5) + 0.5) / 10**5 - 0.5
        cands = np.stack([np.round(-rs), np.round(-rs) + np.sign(rs + 1e-18)]) + rs
        quad = (np.minimum(cands[0] ** 2, cands[1] ** 2) / 2).mean()
        assert abs(est.mean - quad) <= 4 * est.standard_error + 1e-6

    def test_separable_additivity(self):
        diag = np.array([1.0, 2.0, 3.0])
        p = quadratic_problem(np.diag(diag))
        est = benchmark_expectation(p, 0.5, 10**5, np.random.default_rng(2))
        # per coordinate the minimizer is the nearest lattice point to 0,
        # so E f = sum_i a_i E[r^2]/2 = sum(a) d^2 / 24
        exact = diag.sum() * 0.5**2 / 24
        assert abs(est.mean - exact) <= 4 * est.standard_error

    def test_sample_count_validated(self):
        p = quadratic_problem(np.eye(1))
        with pytest.raises(ValueError):
            benchmark_expectation(p, 0.5, 0, np.random.default_rng(0))


class TestVarianceBudget:
    def test_fine_grid_budget_vanishes(self):
        rng = np.random.default_rng(4)
        grads = [rng.standard_normal(64) for _ in range(4)]
        budget = gradient_quantizer_variance_budget(16, BucketSpec(), grads, rng, draws=16)
        scale = max(float(np.ptp(g)) for g in grads)
        assert budget.sigma_nabla_sq < 64 * (scale / (2**16 - 1)) ** 2 * 2

    def test_l1_bound_fixed_grid(self):
        # variance identity implies d^2 sum z(1-z) <= d * |g|_1, checked exactly
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.standard_normal(32)
            d = float(rng.uniform(0.05, 0.5))
            z = g / d - np.floor(g / d)
            exact_var = d**2 * np.sum(z * (1 - z))
            assert exact_var <= d * np.abs(g).sum() + 1e-12

    def test_analytic_bound_dominates_empirical(self):
        rng = np.random.default_rng(6)
        grads = [rng.standard_normal(128) for _ in range(3)]
        budget = gradient_quantizer_variance_budget(4, BucketSpec(), grads, rng, draws=64)
        assert budget.per_sample_mean.max() <= budget.analytic_bound

    def test_extra_bit_quarters_variance(self):
        rng = np.random.default_rng(7)
        grads = [rng.standard_normal(512) for _ in range(2)]
        b3 = gradient_quantizer_variance_budget(3, BucketSpec(), grads, rng, draws=256)
        b4 = gradient_quantizer_variance_budget(4, BucketSpec(), grads, rng, draws=256)
        ratio = b3.per_sample_mean.mean() / b4.per_sample_mean.mean()
        # pitch ratio is 15/7, so the variance ratio is (15/7)^2 ~ 4.59
        expected = ((2**4 - 1) / (2**3 - 1)) ** 2
        assert abs(ratio - expected) / expected < 0.2
