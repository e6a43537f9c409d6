"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its margin and runtime (run pytest with -s to see them)."""

import math
import time

import numpy as np
import pytest

from qsdp.lattice_oracle import (
    benchmark_expectation,
    gradient_quantizer_variance_budget,
)
from qsdp.optimizer import (
    UniformStochasticGradientQuantizer,
    make_plan,
    qsdp_step,
    run,
)
from qsdp.problems import quadratic_problem
from qsdp.quantize import BucketSpec, dequantize, flip_round, qshift_quantize, shift_round
from qsdp.experiments import learned_vs_uniform_error
from qsdp.sharded import (
    NetworkModel,
    QuantConfig,
    ShardedMLP,
    SimConfig,
    simulate_step_time,
)
from qsdp.wire import BLOCK_META_BITS, HEADER_BITS

from oracles import ReferenceMLP


def _report(num, name, passed, detail, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({detail}) [{elapsed:.1f}s < {limit:.0f}s]")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.1f}s"


# -- criterion 1: quantizer mean/variance/sparsity identities ----------------


def test_criterion_1_quantizer_identities():
    """The identities hold for the rounding kernels that every quantizer, the
    codec and the optimizer's lattice snap run: `shift_round` (random shift)
    and `flip_round` (coin flip)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024_01)
    n = 10**6
    worst_mean, worst_var = 0.0, 0.0
    for delta in (0.1, 0.5, 1.0):
        # fractional parts kept away from the lattice so the 1% relative
        # variance check is meaningful at this sample size
        ks = rng.integers(-3, 4, 100)
        zs = rng.uniform(0.15, 0.85, 100)
        xs = delta * (ks + zs)
        for x, z in zip(xs, zs):
            rs = rng.uniform(-delta / 2, delta / 2, n)
            lattice = delta * shift_round(x, rs, delta)
            mean_tol = 4 * delta / (2 * math.sqrt(n))
            err = abs(float((lattice + rs).mean()) - x)
            worst_mean = max(worst_mean, err / mean_tol)
            assert err <= mean_tol
            true_var = delta**2 * z * (1 - z)
            var_rel = abs(float(((lattice - x) ** 2).mean()) - true_var) / true_var
            worst_var = max(worst_var, var_rel / 0.01)
            assert var_rel <= 0.01
            # coin-flip quantizer obeys the same identities
            flips = delta * flip_round(np.full(n, x / delta), rng.random(n))
            err_f = abs(float(flips.mean()) - x)
            worst_mean = max(worst_mean, err_f / mean_tol)
            assert err_f <= mean_tol
            var_rel_f = abs(float(((flips - x) ** 2).mean()) - true_var) / true_var
            worst_var = max(worst_var, var_rel_f / 0.01)
            assert var_rel_f <= 0.01
        # sparsity: expected nonzero lattice codes <= |v|_1 / delta; the bound
        # is an equality in this regime, so the Monte-Carlo margin is pure
        # noise and the seed is fixed separately
        sp_rng = np.random.default_rng((2024_11, int(delta * 10)))
        for _ in range(3):
            v = sp_rng.uniform(-delta, delta, 64) * 0.95
            bound = float(np.abs(v).sum() / delta)
            shifts = sp_rng.uniform(-delta / 2, delta / 2, 3000)
            counts = np.count_nonzero(
                shift_round(v[None, :], shifts[:, None], delta), axis=1
            )
            se = counts.std(ddof=1) / math.sqrt(counts.size)
            assert counts.mean() <= bound + 3 * se
    # the vectorized draws match the public API
    for delta in (0.1, 0.5, 1.0):
        x = float(rng.uniform(-2, 2))
        block = qshift_quantize([x], delta, rng)
        lattice_api = dequantize(block)[0] - block.shift
        assert lattice_api == pytest.approx(
            delta * np.round((x - block.shift) / delta), abs=1e-15
        )
    _report(
        1, "quantizer identities", True,
        f"worst mean margin {worst_mean:.2f}, worst var margin {worst_var:.2f} (of 1)",
        time.perf_counter() - t0, 30,
    )


# -- criterion 2: fractional product inequality -------------------------------


def test_criterion_2_fractional_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024_02)
    y = rng.uniform(-100, 100, 10**5)
    k = rng.integers(1, 65, 10**5).astype(float)
    zy = y - np.floor(y)
    zyk = (y / k) - np.floor(y / k)
    lhs = zy * (1 - zy)
    rhs = k * zyk * (1 - zyk)
    ok = bool(np.all(lhs <= rhs + 1e-12))
    margin = float((rhs - lhs).min())
    _report(2, "fractional inequality", ok, f"min slack {margin:.3e}",
            time.perf_counter() - t0, 1)


# -- criterion 3: grid-ratio bound --------------------------------------------


def test_criterion_3_grid_ratio_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024_03)
    delta_star = 1.0
    n_vec, n_shift, dim = 1000, 10**4, 32
    worst = -np.inf
    ok = True
    for _ in range(n_vec):
        x = rng.uniform(-3, 3, dim)
        # coarse side: nearest point of the shifted coarse lattice
        rho = rng.uniform(-delta_star / 2, delta_star / 2, (n_shift, 1))
        tc = (x[None, :] - rho) / delta_star
        coarse_sq = (delta_star**2) * ((np.round(tc) - tc) ** 2).sum(axis=1)
        rhs_mean = float(coarse_sq.mean())
        rhs_se = float(coarse_sq.std(ddof=1) / math.sqrt(n_shift))
        for ratio in (2, 4, 8, 16):
            delta = delta_star / ratio
            rs = rng.uniform(-delta / 2, delta / 2, (n_shift, 1))
            tf = (x[None, :] - rs) / delta
            fine_sq = (delta**2) * ((np.round(tf) - tf) ** 2).sum(axis=1)
            lhs_mean = float(fine_sq.mean())
            lhs_se = float(fine_sq.std(ddof=1) / math.sqrt(n_shift))
            scale = delta / delta_star
            tol = 3 * math.sqrt(lhs_se**2 + (scale * rhs_se) ** 2)
            gap = lhs_mean - scale * rhs_mean
            worst = max(worst, gap - tol)
            if gap > tol:
                ok = False
    _report(3, "grid-ratio bound", ok, f"worst excess {worst:.3e} (<= 0 passes)",
            time.perf_counter() - t0, 60)


# -- criterion 4: deterministic contraction ------------------------------------


def test_criterion_4_deterministic_contraction():
    t0 = time.perf_counter()
    problem = quadratic_problem(np.eye(4))
    plan = make_plan(problem, epsilon=0.01, delta_star=0.5, initial_gap=10.0)
    assert plan.eta == 1.0 and plan.fine_resolution == pytest.approx(1 / 32)
    bench = benchmark_expectation(
        problem, 0.5, 10**5, np.random.default_rng(77)
    )
    seeds = range(200)
    steps = 12
    x0 = np.array([1.4, -0.8, 1.1, 0.6])
    f_by_step = np.zeros((len(seeds), steps + 1))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        x = x0.copy()
        f_by_step[i, 0] = problem.objective(x)
        for t in range(steps):
            x, _ = qsdp_step(x, problem, plan, rng)
            f_by_step[i, t + 1] = problem.objective(x)
    gaps = f_by_step.mean(axis=0) - bench.mean
    bound = (1 - problem.pl_constant / (2 * problem.smoothness)) + 0.05
    threshold = max(0.01 * gaps[0], 20 * bench.standard_error)
    ratios = [
        gaps[t + 1] / gaps[t] for t in range(steps) if gaps[t] > threshold
    ]
    ok = len(ratios) > 0 and max(ratios) <= bound
    _report(
        4, "deterministic contraction", ok,
        f"max ratio {max(ratios):.4f} <= {bound:.2f} over {len(ratios)} step(s)",
        time.perf_counter() - t0, 10,
    )


# -- criteria 5 and 6: end-to-end convergence ----------------------------------

_PROBLEM_DIAG = [1.0, 1.0, 2.0, 4.0]
_X0 = np.ones(4)


def test_criterion_5_stochastic_convergence():
    t0 = time.perf_counter()
    problem = quadratic_problem(np.diag(_PROBLEM_DIAG), sigma=0.2)
    epsilon, delta_star = 0.05, 0.25
    bench = benchmark_expectation(
        problem, delta_star, 10**5, np.random.default_rng(55)
    )
    gap0 = problem.objective(_X0) - bench.mean
    plan = make_plan(problem, epsilon, delta_star, gap0)
    res = run(problem, plan, _X0, seeds=range(200), benchmark=bench.mean)
    mean_gap = res.mean_final - bench.mean
    tol = epsilon + 2 * math.sqrt(res.stderr_final**2 + bench.standard_error**2)
    ok = mean_gap <= tol
    _report(
        5, "stochastic convergence",
        ok,
        f"eta={plan.eta:.4f} T={plan.iteration_count} mean gap {mean_gap:.4f} <= {tol:.4f}",
        time.perf_counter() - t0, 120,
    )


def test_criterion_6_gradient_quantized_convergence():
    t0 = time.perf_counter()
    problem = quadratic_problem(np.diag(_PROBLEM_DIAG), sigma=0.2)
    epsilon, delta_star, bits = 0.05, 0.25, 4
    bench = benchmark_expectation(
        problem, delta_star, 10**5, np.random.default_rng(56)
    )
    pilot_rng = np.random.default_rng(57)
    pilot = [problem.stochastic_gradient(_X0, pilot_rng) for _ in range(16)]
    budget = gradient_quantizer_variance_budget(
        bits, BucketSpec(), pilot, pilot_rng, draws=128
    )
    gap0 = problem.objective(_X0) - bench.mean
    plan = make_plan(
        problem, epsilon, delta_star, gap0,
        gradient_variance=budget.sigma_nabla_sq, gradient_bit_width=bits,
    )
    quantizer = UniformStochasticGradientQuantizer(bits)
    res = run(
        problem, plan, _X0, seeds=range(200),
        gradient_quantizer=quantizer, benchmark=bench.mean,
    )
    mean_gap = res.mean_final - bench.mean
    tol = epsilon + 2 * math.sqrt(res.stderr_final**2 + bench.standard_error**2)
    per_step_bits = HEADER_BITS + BLOCK_META_BITS + 8 * math.ceil(4 * bits / 8)
    bits_exact = bool(
        np.all(res.gradient_bits_per_seed == plan.iteration_count * per_step_bits)
    )
    ok = mean_gap <= tol and bits_exact
    _report(
        6, "gradient-quantized convergence", ok,
        f"sigma_nabla^2={budget.sigma_nabla_sq:.4f} T={plan.iteration_count} "
        f"mean gap {mean_gap:.4f} <= {tol:.4f}, bits exact={bits_exact}",
        time.perf_counter() - t0, 180,
    )


# -- criteria 7 and 8: sharded equivalence and ledger exactness ----------------


@pytest.fixture(scope="module")
def sharded_runs():
    t0 = time.perf_counter()
    runs = {}
    for P in (1, 2, 4):
        cfg = SimConfig(
            widths=(64, 64, 10), P=P, batch=32, lr=0.05,
            quant=QuantConfig(weight_bits=8, gradient_bits=8, bucket_size=1024),
            root_seed=11, param_seed=11, data_seed=11,
        )
        sim = ShardedMLP(cfg)
        ref = ReferenceMLP(cfg)
        ledger = []
        for t in range(100):
            ledger.append(sim.train_step(t)[1])
            ref.train_step(t)
        runs[P] = (sim, ref, ledger)
    runs["build_time"] = time.perf_counter() - t0
    return runs


def test_criterion_7_sharded_equivalence(sharded_runs):
    t0 = time.perf_counter()
    ok = True
    for P in (1, 2, 4):
        sim, ref, _ = sharded_runs[P]
        for name, full in sim.full_params().items():
            if not np.array_equal(full, ref.params[name]):
                ok = False
    _report(
        7, "sharded equivalence", ok,
        "concatenated shards bit-identical to reference for P in {1, 2, 4}",
        sharded_runs["build_time"] + time.perf_counter() - t0, 60,
    )


def test_criterion_8_ledger_exactness(sharded_runs):
    t0 = time.perf_counter()
    sim, _, ledger = sharded_runs[4]
    layers = {l.name: l for l in sim.layers}
    n_layers = len(sim.layers)
    ok = True
    for entry in ledger:
        recorded = entry.allgather_bits + entry.reducescatter_bits
        from_log = sum(t.nbytes * 8 * t.copies for t in entry.transfers)
        ok &= recorded == from_log
        ok &= entry.allgather_events == 2 * n_layers
        ok &= entry.reducescatter_events == n_layers
        for t in entry.transfers:
            kind = layers[t.layer].kind
            if kind in ("bias", "norm"):
                ok &= t.bit_width >= 32
            else:
                ok &= t.bit_width == 8
                # recompute the expected message size from the wire format
                length = t.payload_bits // 8
                full, rem = divmod(length, 1024)
                blocks = full + (1 if rem else 0)
                expected = (HEADER_BITS + blocks * BLOCK_META_BITS) // 8 + length
                ok &= t.nbytes == expected
    _report(
        8, "ledger exactness and exemptions", ok,
        f"{len(ledger)} steps checked, "
        "2 allgather + 1 reducescatter per layer, biases full precision",
        time.perf_counter() - t0, 30,
    )


# -- criterion 9: systems trend checks ------------------------------------------


def test_criterion_9_systems_trends():
    t0 = time.perf_counter()
    widths = (256, 512, 512, 64)

    def one_step_entry(quant):
        sim = ShardedMLP(
            SimConfig(widths=widths, P=4, batch=32, lr=0.05, quant=quant,
                      root_seed=3, param_seed=3, data_seed=3)
        )
        _, entry = sim.train_step(0)
        return entry

    entry_q = one_step_entry(QuantConfig(weight_bits=8, gradient_bits=8))
    entry_raw = one_step_entry(
        QuantConfig(quantize_weights=False, quantize_gradients=False)
    )

    def spread(entry):
        times = [
            simulate_step_time(
                entry, NetworkModel(g * 1e9, latency_s=1e-6, compute_time_s=0.008)
            )
            for g in (10, 50, 100)
        ]
        return max(times) - min(times)

    spread_q, spread_raw = spread(entry_q), spread(entry_raw)
    part_a = spread_q < 0.25 * spread_raw

    # equal idealized compression on weights vs on gradients, transport-bound
    net = NetworkModel(1e9, latency_s=1e-6, compute_time_s=0.001)
    base_ag, base_rs = entry_raw.allgather_bits, entry_raw.reducescatter_bits
    t_weights = (
        net.latency_s * entry_raw.collective_count
        + max(net.compute_time_s, (base_ag / 4 + base_rs) / net.bandwidth_bps)
    )
    t_grads = (
        net.latency_s * entry_raw.collective_count
        + max(net.compute_time_s, (base_ag + base_rs / 4) / net.bandwidth_bps)
    )
    part_b = t_weights < t_grads

    _report(
        9, "systems trend checks", part_a and part_b,
        f"spread ratio {spread_q / spread_raw:.3f} < 0.25; "
        f"weight-compressed {t_weights * 1e3:.2f}ms < gradient-compressed {t_grads * 1e3:.2f}ms",
        time.perf_counter() - t0, 10,
    )


# -- criterion 10: learned quantization levels ----------------------------------


def test_criterion_10_learned_levels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024_10)
    values = rng.standard_normal(10**5)
    uniform_err, learned_err, _ = learned_vs_uniform_error(values, bit_width=4)
    improvement = 1 - learned_err / uniform_err
    ok = improvement >= 0.05
    _report(
        10, "learned quantization levels", ok,
        f"uniform {uniform_err:.4f} -> learned {learned_err:.4f} "
        f"({improvement:.1%} better, need >= 5%)",
        time.perf_counter() - t0, 10,
    )
