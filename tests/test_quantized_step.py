"""The gradient quantizer, the variance budget and the QSDP iteration against
copies of the code paths they replaced.

The quantizer runs one segment message per gradient; the oracles below are
the per-bucket quantize, dequantize and size loop it must match value for
value, bit count for bit count and draw for draw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdp.lattice_oracle import gradient_quantizer_variance_budget
from qsdp.optimizer import (
    UniformStochasticGradientQuantizer,
    make_plan,
    qsdp_step,
    run,
)
from qsdp.problems import quadratic_problem
from qsdp.quantize import (
    BucketSpec,
    _roundtrip_draws,
    bucketed_quantize,
    dequantize,
    quantize_segment,
    uniform_stochastic_quantize,
)
from qsdp.wire import message_size_bits

# -- oracles --------------------------------------------------------------------


def _oracle_quantizer(g, bucket_size, bit_width, rng):
    """(values, bits) of the per-bucket uniform stochastic quantizer."""
    top = (1 << bit_width) - 1
    values, bits = [], 14 * 8
    for start in range(0, g.size, bucket_size):
        seg = g[start : start + bucket_size]
        lo, hi = float(np.float32(seg.min())), float(np.float32(seg.max()))
        codes = np.zeros(seg.size)
        if lo != hi:
            scaled = (seg - lo) * (top / (hi - lo))
            codes = np.clip(np.floor(scaled + rng.random(seg.size)), 0, top)
        values.append(lo + codes.astype(np.uint32) * ((hi - lo) / top) + 0.0)
        bits += 12 * 8 + 8 * ((seg.size * bit_width + 7) // 8)
    return np.concatenate(values), bits


def _block_path_quantizer(g, bucket, bit_width, rng):
    """The quantizer as it ran on the block list: bucketed_quantize, a
    dequantize per block and message_size_bits."""
    blocks = bucketed_quantize(g, bucket, bit_width, inner="uniform_stochastic", rng=rng)
    ghat = np.concatenate([dequantize(b) for b in blocks])
    return ghat, message_size_bits(blocks)


def _block_path_budget(bit_width, bucket, sample_gradients, rng, draws):
    """The variance budget's Monte-Carlo loop on the block list."""
    means, ses = [], []
    for g in sample_gradients:
        g = np.asarray(g, dtype=float)
        errs = np.empty(draws)
        for j in range(draws):
            ghat, _ = _block_path_quantizer(g, bucket, bit_width, rng)
            errs[j] = float(np.sum((ghat - g) ** 2))
        means.append(errs.mean())
        ses.append(errs.std(ddof=1) / math.sqrt(draws))
    means, ses = np.asarray(means), np.asarray(ses)
    return float((means + 3.0 * ses).max()), means, ses


# -- the quantizer --------------------------------------------------------------


@st.composite
def _gradients(draw):
    n = draw(st.integers(1, 3000))
    bucket = draw(
        st.one_of(
            st.integers(1, 64),
            st.integers(n + 1, n + 2048),  # longer than the gradient
            st.sampled_from([n, 1024]),
        )
    )
    bits = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "constant", "constant_runs"]))
    if kind == "constant":
        g = np.full(n, gen.standard_normal())
    else:
        g = gen.standard_normal(n) * 10.0 ** gen.integers(-3, 4)
        if kind == "constant_runs":
            for _ in range(3):
                a = int(gen.integers(0, n))
                g[a : a + int(gen.integers(1, 130))] = gen.standard_normal()
    return g, bucket, bits, seed


@settings(max_examples=150, deadline=None)
@given(_gradients())
def test_quantizer_matches_the_per_bucket_path(case):
    g, bucket, bits, seed = case
    quantizer = UniformStochasticGradientQuantizer(bits, BucketSpec(bucket))
    rng = np.random.default_rng(seed)
    ghat, nbits = quantizer(g, rng)
    for oracle in (
        lambda r: _oracle_quantizer(g, min(bucket, g.size), bits, r),
        lambda r: _block_path_quantizer(g, BucketSpec(bucket), bits, r),
    ):
        ref_rng = np.random.default_rng(seed)
        want, want_bits = oracle(ref_rng)
        assert ghat.tobytes() == want.tobytes()
        assert nbits == want_bits
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(_gradients(), st.integers(1, 5))
def test_draws_as_rows_are_sequential_quantizer_calls(case, count):
    g, bucket, bits, seed = case
    quantizer = UniformStochasticGradientQuantizer(bits, BucketSpec(bucket))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _roundtrip_draws(g, count, bucket, bits, rng)
    want = np.stack([quantizer(g, ref_rng)[0] for _ in range(count)])
    assert rows.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bits", [0, 17])
def test_quantizer_rejects_bit_widths_outside_1_to_16(bits):
    with pytest.raises(ValueError, match=r"\[1, 16\]"):
        UniformStochasticGradientQuantizer(bits)


def test_quantizers_leave_their_input_unchanged():
    rng = np.random.default_rng(3)
    u = rng.random(37)
    g = rng.standard_normal(37)
    u0, g0 = u.copy(), g.copy()
    uniform_stochastic_quantize(u, 4, rng)
    for inner in ("uniform_stochastic", "shift"):
        quantize_segment(g, 8, 4, inner, rng)
        quantize_segment(g, 64, 4, inner, rng)
    UniformStochasticGradientQuantizer(4, BucketSpec(8))(g, rng)
    UniformStochasticGradientQuantizer(4)(g, rng)
    assert u.tobytes() == u0.tobytes()
    assert g.tobytes() == g0.tobytes()


def test_quantizer_takes_any_array_as_a_flat_float64_gradient():
    g = np.random.default_rng(4).standard_normal(12).astype(np.float32)
    quantizer = UniformStochasticGradientQuantizer(4, BucketSpec(5))
    want = quantizer(g.astype(float), np.random.default_rng(0))
    for arg in (g, g.reshape(3, 4), g.tolist()):
        ghat, nbits = quantizer(arg, np.random.default_rng(0))
        assert ghat.tobytes() == want[0].tobytes()
        assert nbits == want[1]
    with pytest.raises(ValueError, match="empty"):
        quantizer(np.zeros(0), np.random.default_rng(0))


# -- the variance budget --------------------------------------------------------


def _first_bucket_constant(rng):
    g = rng.standard_normal(13)
    g[:5] = 0.75
    return g


# pilot kind -> three pilot gradients from the pilot generator
_PILOTS = {
    "constant": lambda rng: [np.full(9, 0.25), np.zeros(4), np.full(3, -1.5)],
    "first-bucket-constant": lambda rng: [_first_bucket_constant(rng) for _ in range(3)],
    # 4 full buckets of 48 and a tail of 8; 128 draws of it take two chunks
    "full-buckets-and-tail": lambda rng: [rng.standard_normal(200) for _ in range(3)],
}


@pytest.mark.parametrize(
    "seed,bits,bucket_size,pilot_kind,draws",
    [
        pytest.param(0, 4, 1024, None, 128, id="0-4-1024"),
        pytest.param(1, 1, 1024, None, 128, id="1-1-1024"),
        pytest.param(2, 8, 3, None, 128, id="2-8-3"),
        pytest.param(3, 16, 2, None, 128, id="3-16-2"),
        pytest.param(4, 4, 4, "constant", 128, id="constant-pilot"),
        pytest.param(5, 3, 5, "first-bucket-constant", 64, id="first-bucket-constant"),
        pytest.param(6, 8, 48, "full-buckets-and-tail", 128, id="full-buckets-and-tail"),
        pytest.param(7, 4, 1024, None, 2, id="two-draws"),
    ],
)
def test_variance_budget_is_pinned_to_the_block_path(
    seed, bits, bucket_size, pilot_kind, draws
):
    problem = quadratic_problem(np.diag([1.0, 1.0, 2.0, 4.0]), sigma=0.2)
    pilot_rng = np.random.default_rng((seed, 99))
    if pilot_kind is None:
        pilot = [problem.stochastic_gradient(np.ones(4), pilot_rng) for _ in range(16)]
    else:
        pilot = _PILOTS[pilot_kind](pilot_rng)
    state = pilot_rng.bit_generator.state
    bucket = BucketSpec(bucket_size)
    budget = gradient_quantizer_variance_budget(bits, bucket, pilot, pilot_rng, draws=draws)
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = state
    sigma_sq, means, ses = _block_path_budget(bits, bucket, pilot, ref_rng, draws)
    assert budget.sigma_nabla_sq.hex() == sigma_sq.hex()
    assert budget.per_sample_mean.tobytes() == means.tobytes()
    assert budget.per_sample_se.tobytes() == ses.tobytes()
    assert pilot_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("where", [0, 9])  # the first bucket, the tail
def test_variance_budget_rejects_a_nan_pilot_before_drawing(where):
    g = np.random.default_rng(9).standard_normal(10)
    g[where] = np.nan
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"non-finite bucket value at index {where}: .*nan"):
        gradient_quantizer_variance_budget(4, BucketSpec(4), [g], rng)
    assert rng.bit_generator.state == state


def test_variance_budget_rejects_an_empty_sample_list():
    with pytest.raises(ValueError, match="sample_gradients"):
        gradient_quantizer_variance_budget(4, BucketSpec(), [], np.random.default_rng(0))


@pytest.mark.parametrize("bits", [0, 17])
def test_variance_budget_rejects_bit_widths_outside_1_to_16(bits):
    with pytest.raises(ValueError, match=r"\[1, 16\]"):
        gradient_quantizer_variance_budget(
            bits, BucketSpec(), [np.ones(4)], np.random.default_rng(0)
        )


# -- the iteration --------------------------------------------------------------


@pytest.mark.parametrize("quantized", [False, True])
def test_run_with_and_without_traces_matches_a_qsdp_step_loop(quantized):
    problem = quadratic_problem(np.diag([1.0, 1.0, 2.0, 4.0]), sigma=0.2)
    quantizer = UniformStochasticGradientQuantizer(4) if quantized else None
    plan = make_plan(
        problem, 0.2, 0.25, initial_gap=4.0,
        gradient_variance=0.01 if quantized else 0.0,
    )
    x0, seeds = np.ones(4), [0, 1, 7, 12345]
    lean = run(problem, plan, x0, seeds, gradient_quantizer=quantizer)
    traced = run(problem, plan, x0, seeds, gradient_quantizer=quantizer, keep_traces=True)
    finals, bits = [], []
    for seed in seeds:
        rng, x, total = np.random.default_rng(seed), x0.copy(), 0
        for _ in range(plan.iteration_count):
            x, rec = qsdp_step(x, problem, plan, rng, quantizer)
            total += rec.gradient_bits
        finals.append(problem.objective(x))
        bits.append(total)
    for res in (lean, traced):
        assert res.final_values.tobytes() == np.asarray(finals).tobytes()
        assert res.gradient_bits_per_seed.tolist() == bits
    assert all(not t.steps for t in lean.traces)
    assert [len(t.steps) for t in traced.traces] == [plan.iteration_count] * len(seeds)
    assert [t.final_gap for t in lean.traces] == [t.final_gap for t in traced.traces]
    if quantized:
        assert bits == [plan.iteration_count * (112 + 96 + 16)] * len(seeds)


def test_non_finite_iterate_aborts_with_its_message():
    problem = quadratic_problem(np.eye(2))
    plan = make_plan(problem, 0.1, 1.0, initial_gap=5.0)
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="iterate became non-finite"):
        qsdp_step(np.array([1.0, np.inf]), problem, plan, rng)
    with pytest.raises(RuntimeError, match="iterate became non-finite"):
        run(problem, plan, np.array([np.nan, 0.0]), seeds=[0])
    # finite entries whose sum overflows pass the check (numpy warns of the overflow)
    with np.errstate(over="ignore"):
        qsdp_step(np.array([1.5e308, 1.5e308]), problem, plan, rng)
