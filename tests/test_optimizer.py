import math

import numpy as np
import pytest

from qsdp.optimizer import (
    RunPlan,
    UniformStochasticGradientQuantizer,
    derive_T,
    derive_eta,
    derive_grid,
    make_plan,
    qsdp_step,
    run,
)
from qsdp.problems import quadratic_problem
from qsdp.quantize import BucketSpec


class TestQuadraticProblem:
    def test_identity(self):
        p = quadratic_problem(np.eye(3))
        assert p.pl_constant == 1.0 and p.smoothness == 1.0
        assert np.allclose(p.minimizer, 0)
        assert p.optimal_value == 0.0

    def test_diagonal_constants(self):
        p = quadratic_problem(np.diag([1.0, 4.0]))
        assert p.pl_constant == 1.0
        assert p.smoothness == 4.0

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            quadratic_problem(np.array([[1.0, 0.0], [0.0, -2.0]]))
        with pytest.raises(ValueError):
            quadratic_problem(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        A = A @ A.T + 4 * np.eye(4)
        b = rng.standard_normal(4)
        p = quadratic_problem(A, b)
        h = 1e-5
        for _ in range(10):
            x = rng.standard_normal(4)
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            fd = (p.objective(x + h * u) - p.objective(x - h * u)) / (2 * h)
            assert abs(fd - p.gradient(x) @ u) <= 10 * p.smoothness * h

    def test_noise_scale(self):
        p = quadratic_problem(np.eye(8), sigma=0.5)
        rng = np.random.default_rng(6)
        x = np.zeros(8)
        sq = [np.sum((p.stochastic_gradient(x, rng)) ** 2) for _ in range(20000)]
        assert abs(np.mean(sq) - 0.25) < 0.01

    def test_pl_distance_bound_holds_exactly(self):
        # f(x) - f* >= (alpha/2) ||x - x*||^2
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        A = A @ A.T + np.eye(5)
        b = rng.standard_normal(5)
        p = quadratic_problem(A, b)
        xs = rng.standard_normal((10**4, 5)) * 3
        for x in xs:
            lhs = p.objective(x) - p.optimal_value
            rhs = 0.5 * p.pl_constant * np.sum((x - p.minimizer) ** 2)
            assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))

    def test_smoothness_stepping_inequality(self):
        # f(x+D) <= f(x) + (1-eta)<g,D> - eta^2/(2b) |g|^2 + b/2 |eta/b g + D|^2
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4))
        A = A @ A.T + np.eye(4)
        p = quadratic_problem(A)
        beta = p.smoothness
        for _ in range(10**4):
            x = rng.standard_normal(4) * 2
            D = rng.standard_normal(4) * 2
            eta = rng.uniform(0.05, 1.0)
            g = p.gradient(x)
            lhs = p.objective(x + D)
            rhs = (
                p.objective(x)
                + (1 - eta) * (g @ D)
                - eta**2 / (2 * beta) * (g @ g)
                + beta / 2 * np.sum((eta / beta * g + D) ** 2)
            )
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestDerivations:
    def test_eta_zero_noise(self):
        assert derive_eta(0.5, 2.0, 0.0) == 1.0

    def test_eta_formula(self):
        assert derive_eta(1.0, 1.0, 1.0) == pytest.approx(0.3)

    def test_eta_combined_variance(self):
        assert derive_eta(0.01, 1.0, 10.0) == pytest.approx(3e-4)

    def test_eta_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_eta(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            derive_eta(1.0, -1.0, 1.0)

    def test_grid_well_conditioned(self):
        delta, ratio = derive_grid(1.0, 1.0, 1.0, 0.5)
        assert delta == 0.03125 and ratio == 16

    def test_grid_condition_two(self):
        delta, ratio = derive_grid(1.0, 1.0, 2.0, 1.0)
        assert delta == 1 / 64 and ratio == 64

    def test_grid_linear_in_eta(self):
        delta, ratio = derive_grid(0.5, 1.0, 1.0, 1.0)
        assert delta == 1 / 32 and ratio == 32

    def test_grid_rounds_ratio_up(self):
        delta, ratio = derive_grid(0.375, 1.0, 4.0, 0.25)
        assert ratio == 683  # ceil(256 / 0.375)
        assert delta == 0.25 / 683

    def test_T_log_e(self):
        assert derive_T(1.0, 1.0, 1.0, math.e, 1.0) == 10

    def test_T_compound(self):
        assert derive_T(0.5, 1.0, 2.0, math.e**2, 1.0) == 80

    def test_T_zero_when_converged(self):
        assert derive_T(1.0, 1.0, 1.0, 0.5, 0.5) == 0
        assert derive_T(1.0, 1.0, 1.0, 0.4, 0.5) == 0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            RunPlan(
                eta=1.0, coarse_resolution=1.0, fine_resolution=0.1,
                iteration_count=5, epsilon=0.1, grid_ratio=16,
            )


class TestQsdpStep:
    def test_lattice_fixed_point_with_forced_shift(self):
        p = quadratic_problem(np.eye(2))
        plan = make_plan(p, epsilon=0.1, delta_star=1.0, initial_gap=0.05)
        d = plan.fine_resolution
        r = d / 4
        x = np.array([3 * d + r, -5 * d + r])  # on the shifted lattice
        # gradient is x itself, so step from the minimizer stays put only at 0;
        # use a problem whose gradient vanishes at x instead
        shifted = quadratic_problem(np.eye(2), b=x.copy())
        x_new, rec = qsdp_step(x, shifted, plan, np.random.default_rng(0), shift=r)
        assert np.array_equal(x_new, x)
        assert rec.quantization_error == 0.0

    def test_exact_step_lands_on_zero(self):
        p = quadratic_problem(np.eye(1))
        plan = RunPlan(
            eta=1.0, coarse_resolution=1.0, fine_resolution=1 / 16,
            iteration_count=1, epsilon=0.1, grid_ratio=16,
        )
        x_new, _ = qsdp_step(np.array([1.0]), p, plan, np.random.default_rng(0), shift=0.0)
        assert x_new[0] == 0.0

    def test_iterates_stay_on_lattice(self):
        p = quadratic_problem(np.diag([1.0, 2.0, 4.0]), sigma=0.3)
        plan = make_plan(p, epsilon=0.05, delta_star=0.5, initial_gap=10.0)
        rng = np.random.default_rng(1)
        x = np.array([1.0, -2.0, 0.5])
        for _ in range(25):
            x, rec = qsdp_step(x, p, plan, rng)
            k = (x - rec.shift) / plan.fine_resolution
            assert np.all(np.abs(k - np.round(k)) <= 1e-9 * np.maximum(1, np.abs(k)))

    def test_non_finite_gradient_aborts(self):
        p = quadratic_problem(np.eye(1))
        p.gradient = lambda x: np.array([np.nan])
        plan = RunPlan(
            eta=1.0, coarse_resolution=1.0, fine_resolution=1 / 16,
            iteration_count=1, epsilon=0.1, grid_ratio=16,
        )
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            qsdp_step(np.array([1.0]), p, plan, np.random.default_rng(0))


class TestRun:
    def test_zero_iterations_reports_start(self):
        p = quadratic_problem(np.eye(2))
        plan = make_plan(p, epsilon=1.0, delta_star=0.5, initial_gap=0.5)
        assert plan.iteration_count == 0
        res = run(p, plan, np.array([1.0, 1.0]), seeds=[0, 1])
        assert res.mean_final == pytest.approx(1.0)

    def test_seed_order_does_not_matter(self):
        p = quadratic_problem(np.eye(2), sigma=0.2)
        plan = make_plan(p, epsilon=0.1, delta_star=0.5, initial_gap=5.0)
        a = run(p, plan, np.ones(2), seeds=[3, 4, 5])
        b = run(p, plan, np.ones(2), seeds=[5, 3, 4])
        assert sorted(a.final_values) == sorted(b.final_values)

    def test_small_convergence_run(self):
        p = quadratic_problem(np.eye(4), sigma=0.1)
        gap0 = p.objective(np.ones(4))
        plan = make_plan(p, epsilon=0.05, delta_star=0.5, initial_gap=gap0)
        res = run(p, plan, np.ones(4), seeds=range(50))
        # benchmark is >= f* = 0, so the raw objective must come close too
        assert res.mean_final <= 0.05


class TestStochasticStepping:
    def test_single_step_contraction_with_noise(self):
        # E[f(x') | x] - bench <= (1 - 3/4 eta a/b)(f(x) - bench) + 5/4 eta^2 s^2 / b
        from qsdp.lattice_oracle import benchmark_expectation

        problem = quadratic_problem(np.diag([1.0, 1.0, 2.0, 4.0]), sigma=0.2)
        epsilon, delta_star = 0.05, 0.25
        bench = benchmark_expectation(
            problem, delta_star, 10**5, np.random.default_rng(40)
        )
        plan = make_plan(problem, epsilon, delta_star, initial_gap=4.0)
        eta, alpha, beta = plan.eta, problem.pl_constant, problem.smoothness
        rng = np.random.default_rng(41)
        for x in (np.ones(4), np.array([0.5, -1.0, 0.25, 0.75])):
            n = 4000
            vals = np.empty(n)
            for i in range(n):
                x_new, _ = qsdp_step(x, problem, plan, rng)
                vals[i] = problem.objective(x_new)
            lhs = vals.mean() - bench.mean
            rhs = (1 - 0.75 * eta * alpha / beta) * (
                problem.objective(x) - bench.mean
            ) + 1.25 * eta**2 * problem.noise_sigma**2 / beta
            slack = 3 * vals.std(ddof=1) / math.sqrt(n)
            assert lhs <= rhs + slack


class TestGradientQuantizer:
    def test_unbiased_and_bit_accounting(self):
        rng = np.random.default_rng(9)
        q = UniformStochasticGradientQuantizer(4, BucketSpec())
        g = rng.standard_normal(4)
        acc = np.zeros(4)
        n = 20000
        for _ in range(n):
            ghat, bits = q(g, rng)
            acc += ghat
            assert bits == 112 + 96 + 8 * math.ceil(4 * 4 / 8)
        assert np.abs(acc / n - g).max() < 0.01

    def test_variance_composition(self):
        # quantized stochastic gradient variance about the true gradient
        # stays within sigma^2 + sigma_nabla^2 (plus Monte-Carlo slack)
        rng = np.random.default_rng(10)
        p = quadratic_problem(np.diag([1.0, 1.0, 2.0, 4.0]), sigma=0.2)
        q = UniformStochasticGradientQuantizer(4, BucketSpec())
        x = np.array([1.0, -0.5, 0.3, 0.8])
        true_g = p.gradient(x)
        n = 6000
        errs = np.empty(n)
        quant_errs = np.empty(n)
        for i in range(n):
            g = p.stochastic_gradient(x, rng)
            ghat, _ = q(g, rng)
            errs[i] = np.sum((ghat - true_g) ** 2)
            quant_errs[i] = np.sum((ghat - g) ** 2)
        sigma_sq = p.noise_sigma**2
        sigma_nabla_sq = quant_errs.mean() + 3 * quant_errs.std(ddof=1) / math.sqrt(n)
        se = errs.std(ddof=1) / math.sqrt(n)
        assert errs.mean() <= sigma_sq + sigma_nabla_sq + 3 * se
