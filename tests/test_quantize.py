import math

import numpy as np
import pytest

from qsdp.quantize import (
    BucketSpec,
    GridSpec,
    LevelTable,
    QuantizedBlock,
    bucketed_quantize,
    dequantize,
    learn_levels,
    qflip_quantize,
    qshift_quantize,
    qshift_scalar,
    quantize_with_levels,
    uniform_stochastic_quantize,
)


def _pitch(block):
    """Grid spacing of a block, as the wire format's reconstruction uses it."""
    return (block.scale_hi - block.scale_lo) / ((1 << block.bit_width) - 1)


class TestGridSpec:
    def test_validates_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(0.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0)

    def test_validates_shift_range(self):
        GridSpec(1.0, -0.5)
        GridSpec(1.0, 0.499)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.5)
        with pytest.raises(ValueError):
            GridSpec(1.0, -0.51)


class TestQshiftScalar:
    def test_plain_rounding(self):
        assert qshift_scalar(0.4, GridSpec(1.0)) == 0.0

    def test_shifted_grid(self):
        assert qshift_scalar(0.4, GridSpec(1.0, 0.25)) == 0.25

    def test_half_resolution(self):
        assert qshift_scalar(0.7, GridSpec(0.5)) == 0.5

    def test_ties_round_to_even(self):
        assert qshift_scalar(0.5, GridSpec(1.0)) == 0.0
        assert qshift_scalar(1.5, GridSpec(1.0)) == 2.0
        assert qshift_scalar(2.5, GridSpec(1.0)) == 2.0

    def test_result_on_lattice(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = float(rng.uniform(0.01, 2.0))
            r = float(rng.uniform(-d / 2, d / 2))
            x = float(rng.uniform(-10, 10))
            q = qshift_scalar(x, GridSpec(d, r))
            assert abs((q - r) / d - round((q - r) / d)) < 1e-9


class TestQshiftQuantize:
    def test_zero_vector_forced_zero_shift(self):
        block = qshift_quantize([0.0, 0.0, 0.0], 0.7, np.random.default_rng(0), shift=0.0)
        assert np.allclose(dequantize(block), [0.0, 0.0, 0.0])

    def test_rejects_non_finite_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            qshift_quantize([0.0, np.nan, 1.0], 1.0, np.random.default_rng(0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            qshift_quantize([], 1.0, np.random.default_rng(0))

    def test_monte_carlo_mean_is_unbiased(self):
        # E over the shift of the dequantized value equals the input
        rng = np.random.default_rng(11)
        n = 10**6
        x = 0.5
        vals = np.empty(n)
        chunk = 10**5
        for i in range(0, n, chunk):
            rs = rng.uniform(-0.5, 0.5, chunk)
            vals[i : i + chunk] = np.round(x - rs) + rs
        assert abs(vals.mean() - x) <= 4 * (0.5 / math.sqrt(n))

    def test_variance_identity_on_lattice_component(self):
        # var of the shift-stripped lattice value converges to d^2 z (1 - z)
        rng = np.random.default_rng(12)
        n = 10**6
        for x, d in [(0.5, 1.0), (0.3, 1.0), (0.12, 0.5)]:
            rs = rng.uniform(-d / 2, d / 2, n)
            lattice = d * np.round((x - rs) / d)
            z = x / d - math.floor(x / d)
            true = d**2 * z * (1 - z)
            assert abs(((lattice - x) ** 2).mean() - true) / true < 0.01

    def test_round_trip_lands_on_lattice(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = float(rng.uniform(0.01, 1.5))
            v = rng.uniform(-5, 5, 17)
            block = qshift_quantize(v, d, rng)
            deq = dequantize(block)
            k = (deq - block.shift) / d
            assert np.all(np.abs(k - np.round(k)) <= 1e-12 * np.maximum(1, np.abs(k)))

    def test_requantize_is_idempotent(self):
        rng = np.random.default_rng(14)
        v = rng.uniform(-2, 2, 64)
        block = qshift_quantize(v, 0.25, rng)
        again = qshift_quantize(dequantize(block), 0.25, rng, shift=block.shift)
        assert np.array_equal(block.codes, again.codes)

    def test_sparsity_bound(self):
        # expected nonzero lattice codes <= l1 norm / resolution
        rng = np.random.default_rng(15)
        d = 0.8
        v = rng.uniform(-d, d, 64) * 0.95
        bound = np.abs(v).sum() / d
        n_r = 5000
        rs = rng.uniform(-d / 2, d / 2, n_r)
        counts = np.count_nonzero(np.round((v[None, :] - rs[:, None]) / d), axis=1)
        se = counts.std(ddof=1) / math.sqrt(n_r)
        assert counts.mean() <= bound + 3 * se


class TestQflipQuantize:
    def test_two_point_distribution(self):
        rng = np.random.default_rng(21)
        n = 10**6
        x = 0.3
        scaled = x / 1.0
        ups = rng.random(n) < (scaled - math.floor(scaled))
        freq_up = ups.mean()
        assert abs(freq_up - 0.3) <= 0.005
        # and through the public API on a smaller sample
        vals = np.array(
            [dequantize(qflip_quantize([x], 1.0, rng))[0] for _ in range(4000)]
        )
        assert set(np.round(vals, 12)) <= {0.0, 1.0}
        assert abs(vals.mean() - x) < 0.03

    def test_lattice_point_is_fixed(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            block = qflip_quantize([2.0], 1.0, rng)
            assert dequantize(block)[0] == 2.0

    def test_variance_identity(self):
        rng = np.random.default_rng(23)
        n = 10**6
        x = 0.5
        low = math.floor(x)
        vals = low + (rng.random(n) < (x - low))
        est = ((vals - x) ** 2).mean()
        assert abs(est - 0.25) / 0.25 < 0.01

    def test_shift_field_is_zero(self):
        block = qflip_quantize([0.3, 1.7], 0.5, np.random.default_rng(24))
        assert block.shift == 0.0

    def test_sparsity_bound(self):
        rng = np.random.default_rng(25)
        d = 1.0
        v = rng.uniform(-d, d, 64) * 0.95
        bound = np.abs(v).sum() / d
        counts = []
        for _ in range(3000):
            block = qflip_quantize(v, d, rng)
            counts.append(np.count_nonzero(dequantize(block)))
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert counts.mean() <= bound + 3 * se


class TestDequantize:
    def test_code_times_pitch_plus_shift(self):
        block = QuantizedBlock(
            codes=np.array([0], dtype=np.uint32),
            shift=0.25,
            scale_lo=0.0,
            scale_hi=1.0,
            bit_width=1,
            length=1,
        )
        assert dequantize(block)[0] == 0.25

    def test_corrupted_code_rejected(self):
        block = QuantizedBlock(
            codes=np.array([1, 0], dtype=np.uint32),
            shift=0.0,
            scale_lo=0.0,
            scale_hi=1.0,
            bit_width=1,
            length=2,
        )
        block.codes[0] = 7  # corrupt in place, bypassing validation
        with pytest.raises(ValueError, match="corrupted code"):
            dequantize(block)


class TestBucketedQuantize:
    def test_bucket_count_exact_split(self):
        rng = np.random.default_rng(31)
        blocks = bucketed_quantize(rng.standard_normal(2048), BucketSpec(), 8, "shift", rng)
        assert [b.length for b in blocks] == [1024, 1024]

    def test_bucket_count_remainder(self):
        rng = np.random.default_rng(32)
        blocks = bucketed_quantize(rng.standard_normal(1500), BucketSpec(), 8, "shift", rng)
        assert [b.length for b in blocks] == [1024, 476]

    def test_constant_vector_round_trips_exactly(self):
        rng = np.random.default_rng(33)
        v = np.full(300, 3.0)
        blocks = bucketed_quantize(v, BucketSpec(), 8, "shift", rng)
        out = np.concatenate([dequantize(b) for b in blocks])
        assert np.array_equal(out, v)

    def test_bit_width_bounds(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError):
            bucketed_quantize([1.0, 2.0], BucketSpec(), 0, "shift", rng)
        with pytest.raises(ValueError):
            bucketed_quantize([1.0, 2.0], BucketSpec(), 17, "shift", rng)

    @pytest.mark.parametrize("inner", ["shift", "uniform_stochastic"])
    def test_round_trip_error_bound(self, inner):
        # reconstruction error is at most one pitch per coordinate
        rng = np.random.default_rng(35)
        v = rng.standard_normal(2500) * 4.0
        blocks = bucketed_quantize(v, BucketSpec(), 6, inner, rng)
        out = np.concatenate([dequantize(b) for b in blocks])
        start = 0
        for b in blocks:
            seg = v[start : start + b.length]
            err = np.abs(out[start : start + b.length] - seg)
            assert err.max() <= _pitch(b) * (1 + 1e-6) + 1e-12
            start += b.length

    def test_deterministic_nearest_error_bound(self):
        # without the random shift, nearest rounding stays within pitch/2
        rng = np.random.default_rng(36)
        v = rng.standard_normal(1024)
        blocks = bucketed_quantize(v, BucketSpec(), 8, "shift", rng)
        pitch = _pitch(blocks[0])
        # half-pitch plus the shift magnitude bounds the worst case
        out = np.concatenate([dequantize(b) for b in blocks])
        assert np.abs(out - v).max() <= pitch

    def test_bucketed_shift_unbiased(self):
        rng = np.random.default_rng(37)
        v = rng.uniform(-1, 1, 32)
        acc = np.zeros_like(v)
        n = 4000
        for _ in range(n):
            blocks = bucketed_quantize(v, BucketSpec(), 4, "shift", rng)
            acc += dequantize(blocks[0])
        pitch = _pitch(blocks[0])
        se = pitch  # loose bound on the per-coordinate standard error * sqrt(n)
        assert np.abs(acc / n - v).max() < 4 * se / math.sqrt(n) + 1e-3


class TestUniformStochasticQuantize:
    def test_on_level_is_exact(self):
        rng = np.random.default_rng(41)
        v = np.array([0.0, 1.0 / 15.0, 1.0])
        codes = uniform_stochastic_quantize(v, 4, rng)
        assert list(codes) == [0, 1, 15]

    def test_midpoint_is_fair_coin(self):
        rng = np.random.default_rng(42)
        n = 10**6
        mid = 0.5 / 15.0
        codes = uniform_stochastic_quantize(np.full(n, mid), 4, rng)
        assert abs((codes == 1).mean() - 0.5) <= 0.005

    def test_mean_matches_input(self):
        rng = np.random.default_rng(43)
        n = 10**6
        x = 0.37
        codes = uniform_stochastic_quantize(np.full(n, x), 4, rng)
        vals = codes / 15.0
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - x) <= 4 * se

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError, match="index 1"):
            uniform_stochastic_quantize([0.5, 1.2], 4, rng)
        with pytest.raises(ValueError):
            uniform_stochastic_quantize([-0.01], 4, rng)


class TestLevelTable:
    def test_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LevelTable(np.array([0.0, 0.5, 1.0]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            LevelTable(np.array([0.0, 0.0]))

    def test_uniform_constructor(self):
        t = LevelTable.uniform(2)
        assert np.allclose(t.levels, [0, 1 / 3, 2 / 3, 1])
        assert t.bit_width == 2


class TestLearnLevels:
    def test_values_on_levels_leave_table_unchanged(self):
        t = LevelTable.uniform(2)
        values = np.array([0.0, 1 / 3, 2 / 3, 1.0, 0.0])
        out = learn_levels(values, t)
        assert np.allclose(out.levels, t.levels)

    def test_single_update_rule(self):
        t = LevelTable(np.array([0.0, 1.0]))
        out = learn_levels(np.array([0.2, 0.9]), t, learning_rate=0.01)
        # closest level to 0.2 is 0.0; q' = q - 0.01 (q - v) = 0.002
        assert out.levels[0] == pytest.approx(0.0 - 0.01 * (0.0 - 0.2))
        assert out.levels[1] == pytest.approx(1.0 - 0.01 * (1.0 - 0.9))

    def test_too_few_distinct_values_warns(self):
        t = LevelTable.uniform(3)
        with pytest.warns(RuntimeWarning):
            out = learn_levels(np.array([0.5, 0.5, 0.5]), t)
        assert np.allclose(out.levels, t.levels)

    def test_output_strictly_increasing(self):
        rng = np.random.default_rng(51)
        values = rng.normal(0.5, 0.15, 5000).clip(0, 1)
        out = learn_levels(values, LevelTable.uniform(4))
        assert np.all(np.diff(out.levels) > 0)
        assert out.levels.size == 16

    def test_uniform_data_stays_close_to_uniform_levels(self):
        # endpoint-including uniform levels are within 1 - 15/16 = 6.25% of
        # the optimal (midpoint) grid for uniform data, so learning can
        # improve by at most that much
        from qsdp.experiments import learned_vs_uniform_error

        rng = np.random.default_rng(53)
        values = rng.uniform(0.0, 1.0, 100000)
        uniform_err, learned_err, _ = learned_vs_uniform_error(values, 4)
        assert abs(learned_err - uniform_err) / uniform_err <= 0.0625 + 0.01

    def test_single_level_error_is_variance_about_level(self):
        rng = np.random.default_rng(54)
        values = rng.uniform(0.0, 1.0, 5000)
        out = learn_levels(values, LevelTable(np.array([0.4])))
        codes = quantize_with_levels(values, out)
        mse = float(((values - out.levels[codes]) ** 2).mean())
        assert mse == pytest.approx(float(((values - out.levels[0]) ** 2).mean()))

    def test_gaussian_beats_uniform(self):
        rng = np.random.default_rng(52)
        raw = rng.standard_normal(20000)
        lo, hi = raw.min(), raw.max()
        values = (raw - lo) / (hi - lo)
        learned = learn_levels(values, LevelTable.uniform(4))
        uniform = LevelTable.uniform(4)

        def err(table):
            recon = table.levels[quantize_with_levels(values, table)]
            return np.linalg.norm(values - recon)

        assert err(learned) < err(uniform)


class TestQuantizeWithLevels:
    def test_exact_level_maps_to_its_index(self):
        t = LevelTable(np.array([0.0, 0.2, 0.7, 1.0]))
        assert list(quantize_with_levels(np.array([0.0, 0.2, 0.7, 1.0]), t)) == [0, 1, 2, 3]

    def test_clamps_beyond_span(self):
        t = LevelTable(np.array([0.0, 0.2, 0.7, 1.0]))
        assert quantize_with_levels(np.array([5.0]), t)[0] == 3
        assert quantize_with_levels(np.array([-1.0]), t)[0] == 0


def test_fractional_product_inequality():
    # {y}(1-{y}) <= k {y/k}(1-{y/k}) for integer k
    rng = np.random.default_rng(71)
    y = rng.uniform(-40, 40, 20000)
    k = rng.integers(1, 65, 20000).astype(float)
    zy = y - np.floor(y)
    zyk = y / k - np.floor(y / k)
    assert np.all(zy * (1 - zy) <= k * zyk * (1 - zyk) + 1e-12)
