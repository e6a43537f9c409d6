import math
import tracemalloc

import numpy as np
import pytest

from qsdp import lattice_oracle
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

    def test_separable_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            diag = rng.uniform(0.5, 4.0, 3)
            b = rng.uniform(-1, 1, 3)
            p = quadratic_problem(np.diag(diag), b)
            r = float(rng.uniform(-0.25, 0.25))
            xs, fs = brute_force_lattice_min(p, 0.5, r, mode="separable")
            xe, fe = brute_force_lattice_min(p, 0.5, r, mode="exhaustive")
            assert fs == pytest.approx(fe, abs=1e-12)
            assert np.allclose(xs, xe)

    def test_enumeration_size_guard(self):
        p = quadratic_problem(np.eye(8))
        with pytest.raises(ValueError, match="enumeration"):
            brute_force_lattice_min(
                p, 1e-3, 0.0, search_radius=10.0, mode="exhaustive"
            )

    def test_dimension_guard(self):
        p = quadratic_problem(np.eye(9))
        with pytest.raises(ValueError, match="n <= 8"):
            brute_force_lattice_min(p, 0.5, 0.0, mode="exhaustive")


def _one_shot_benchmark(problem, delta_star, num_r_samples, rng):
    """The benchmark as one (samples, n) array computation: all shifts drawn
    at once, both lattice neighbours of every coordinate, the smaller term."""
    rs = rng.uniform(-delta_star / 2, delta_star / 2, num_r_samples)
    a, b = np.diag(problem.matrix), problem.linear
    k_lo = np.floor((b / a - rs[:, None]) / delta_star)
    x_lo, x_hi = (k * delta_star + rs[:, None] for k in (k_lo, k_lo + 1.0))
    f_lo, f_hi = (0.5 * a * x**2 - b * x for x in (x_lo, x_hi))
    f = np.minimum(f_lo, f_hi).sum(axis=-1)
    se = float(f.std(ddof=1) / math.sqrt(f.size)) if f.size > 1 else 0.0
    return float(f.mean()), se


_ORACLE_PROBLEMS = {
    "diagonal-linear": lambda: quadratic_problem(
        np.diag([1.0, 1.0, 2.0, 4.0]), np.array([0.3, -1.2, 0.0, 2.5])
    ),
    "parabola": lambda: quadratic_problem(np.eye(1)),
}


class TestBenchmark:
    @pytest.mark.parametrize("name", sorted(_ORACLE_PROBLEMS))
    @pytest.mark.parametrize(
        "chunks", [0.0, 0.5, 2.0, 2.25], ids=["one", "below", "multiple", "ragged"]
    )
    def test_chunks_match_the_one_shot_formula(self, name, chunks):
        p = _ORACLE_PROBLEMS[name]()
        step = lattice_oracle._CHUNK_VALUES // p.dimension
        samples = max(1, int(chunks * step))
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        est = benchmark_expectation(p, 0.3, samples, rng)
        mean, se = _one_shot_benchmark(p, 0.3, samples, ref_rng)
        assert est.mean.hex() == mean.hex()
        assert est.standard_error.hex() == se.hex()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_memory_stays_below_one_samples_by_n_array(self):
        p = quadratic_problem(np.diag([1.0, 1.0, 2.0, 4.0]))
        samples = 10**6
        tracemalloc.start()
        try:
            benchmark_expectation(p, 0.25, samples, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # f and its std's temporary take two (samples,) vectors, 16 MB; one
        # (samples, 4) float64 array takes 32 MB
        assert peak < 0.75 * samples * p.dimension * 8

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
