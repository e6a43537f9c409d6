"""The gradient quantizer, the variance budget and the QSDP iteration against
copies of the code paths they replaced.

The quantizer runs one segment message per gradient; it must match the
per-bucket codec loop (`oracles._oracle_message`) and the block-list path
below value for value, bit count for bit count and draw for draw.  The
variance budget's closed form is checked against sampled codec realizations.
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
    _layout,
    bucketed_quantize,
    dequantize,
    dequantize_segment,
    quantize_segment,
    uniform_stochastic_quantize,
)
from qsdp.wire import encode_segment, message_size_bits

from oracles import _oracle_message

# -- oracles --------------------------------------------------------------------


def _block_path_quantizer(g, bucket, bit_width, rng):
    """The quantizer as it ran on the block list: bucketed_quantize, a
    dequantize per block and message_size_bits."""
    blocks = bucketed_quantize(g, bucket, bit_width, inner="uniform_stochastic", rng=rng)
    ghat = np.concatenate([dequantize(b) for b in blocks])
    return ghat, message_size_bits(blocks)


def _sampled_error(g, bucket_size, bit_width, rng, draws):
    """Mean and standard error of ||Q(g) - g||^2 over `draws` realizations of
    the gradient codec.  Each group of g's buckets (the full ones, the tail)
    is quantized as one message of `draws` copies with its own bucket size,
    so every copy keeps g's buckets."""
    size, k, tail = _layout(g.size, bucket_size)
    errs = np.zeros(draws)
    for part, part_size in ((g[: k * size], size), (g[k * size :], tail)):
        if part.size:
            copies = np.tile(part, draws)
            seg = quantize_segment(copies, part_size, bit_width, "uniform_stochastic", rng)
            errs += np.square(dequantize_segment(seg) - copies).reshape(draws, -1).sum(axis=1)
    return errs.mean(), errs.std(ddof=1) / math.sqrt(draws)


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
    seg = quantize_segment(g, bucket, bits, "uniform_stochastic", np.random.default_rng(seed))
    assert nbits == 8 * len(encode_segment(seg))
    oracle_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data, want = _oracle_message(
        g, min(bucket, g.size), bits, "uniform_stochastic", oracle_rng
    )
    block_want, block_bits = _block_path_quantizer(g, BucketSpec(bucket), bits, block_rng)
    for want, want_bits, ref_rng in (
        (want, 8 * len(data), oracle_rng),
        (block_want, block_bits, block_rng),
    ):
        assert ghat.tobytes() == want.tobytes()
        assert nbits == want_bits
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


_ULP32 = float(np.spacing(np.float32(1.0)))


@st.composite
def _pilot_layouts(draw):
    """A pilot gradient and its codec layout: one bucket or several, with or
    without a tail, at any bit width."""
    n = draw(st.integers(1, 400))
    bucket = draw(st.one_of(st.integers(1, 64), st.integers(n, n + 100)))
    bits = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "constant_runs", "float32_ends"]))
    g = gen.standard_normal(n) * 10.0 ** gen.integers(-3, 4)
    if kind == "constant_runs":  # degenerate buckets
        for _ in range(3):
            a = int(gen.integers(0, n))
            g[a : a + int(gen.integers(1, 130))] = gen.standard_normal()
    elif kind == "float32_ends":
        # values a few float32 ulps apart: a bucket's float32 lo and hi move
        # inside its range (clipping values), or meet (a degenerate bucket
        # whose values differ)
        g = 1.0 + gen.uniform(0.0, 6.0, n) * _ULP32
    return g, bucket, bits


def _assert_matches_sampling(g, bucket, bits, exact, draws=2000):
    """`exact` within 5 standard errors of the sampled mean, plus a slack for
    what sampling cannot see.  A value that rounds away from its nearest code
    with probability p < 1 / draws (one a hair off a grid point, as float32
    bucket ends make every bucket's minimum and maximum) adds p * pitch^2 to
    the expectation but is rarely drawn, so each value gets pitch^2 / draws;
    1e-9 relative covers float rounding of the reconstructed values."""
    mean, se = _sampled_error(g, bucket, bits, np.random.default_rng(5), draws)
    size, top = _layout(g.size, bucket)[0], (1 << bits) - 1
    unseen = sum(b.size * (np.ptp(b) / top) ** 2 for b in np.split(g, range(size, g.size, size)))
    assert abs(mean - exact) <= 5 * se + unseen / draws + 1e-9 * exact


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_pilot_layouts())
def test_variance_budget_is_the_sampled_quantizer_variance(case):
    g, bucket, bits = case
    budget = gradient_quantizer_variance_budget(bits, BucketSpec(bucket), [g])
    _assert_matches_sampling(g, bucket, bits, budget.sigma_nabla_sq)


@pytest.mark.parametrize("bits", [2, 8, 16])
def test_variance_budget_counts_the_clip_at_float32_ends(bits):
    # float32 rounds the minimum 0.4 ulp up and the maximum 0.4 ulp down; the
    # two clipped values then err by at least that much whatever is drawn
    g = 1.0 + _ULP32 * np.array([0.6, 1.3, 2.2, 3.7, 5.4])
    budget = gradient_quantizer_variance_budget(bits, BucketSpec(), [g])
    assert budget.sigma_nabla_sq >= 2 * (0.4 * _ULP32) ** 2 * (1 - 1e-6)
    _assert_matches_sampling(g, 1024, bits, budget.sigma_nabla_sq)


def test_variance_budget_is_the_largest_pilot_value_and_draws_nothing():
    gen = np.random.default_rng(6)
    pilots = [gen.standard_normal(200), np.full(9, 0.25), gen.standard_normal(13) * 3]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    budget = gradient_quantizer_variance_budget(8, BucketSpec(48), pilots, rng, draws=2)
    assert rng.bit_generator.state == state
    each = [gradient_quantizer_variance_budget(8, BucketSpec(48), [g]).sigma_nabla_sq
            for g in pilots]
    assert budget.per_sample_mean.tolist() == each
    assert budget.sigma_nabla_sq == max(each)
    assert each[1] == 0.0  # a constant pilot is one degenerate bucket, exact


@pytest.mark.parametrize("where", [0, 9])  # the first bucket, the tail
def test_variance_budget_rejects_a_nan_pilot_before_drawing(where):
    g = np.random.default_rng(9).standard_normal(10)
    g[where] = np.nan
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"non-finite bucket value at index {where}: nan"):
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
