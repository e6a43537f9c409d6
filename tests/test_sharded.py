import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdp import sharded
from qsdp.sharded import (
    PHASE_W_BWD,
    PHASE_W_FWD,
    LayerSpec,
    LedgerEntry,
    NetworkModel,
    QuantConfig,
    ShardedMLP,
    SimConfig,
    init_mlp_params,
    make_batch,
    mlp_layer_specs,
    shard_bounds,
    simulate_step_time,
    step_ledger,
    step_time_terms,
)
from qsdp.wire import segment_size_bits

from oracles import ReferenceMLP

WIDTHS = (64, 64, 10)


def _sim(P, quant=None, seed=0, widths=WIDTHS, batch=32, lr=0.05):
    quant = quant or QuantConfig()
    return ShardedMLP(
        SimConfig(widths=widths, P=P, batch=batch, lr=lr, quant=quant,
                  root_seed=seed, param_seed=seed, data_seed=seed)
    )


def _ref(P, quant=None, seed=0, widths=WIDTHS, batch=32, lr=0.05):
    quant = quant or QuantConfig()
    return ReferenceMLP(
        SimConfig(widths=widths, P=P, batch=batch, lr=lr, quant=quant,
                  root_seed=seed, param_seed=seed, data_seed=seed)
    )


class TestSharding:
    def test_even_split(self):
        assert shard_bounds(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_remainder_to_last(self):
        bounds = shard_bounds(10, 4)
        assert [e - s for s, e in bounds] == [2, 2, 2, 4]

    def test_single_worker(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_disjoint_cover(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 200))
            P = int(rng.integers(1, 9))
            bounds = shard_bounds(d, P)
            assert bounds[0][0] == 0 and bounds[-1][1] == d
            for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
                assert e0 == s1

    def test_oversharded_layer_warns(self):
        with pytest.warns(RuntimeWarning, match="kept whole") as caught:
            sim = _sim(P=8, widths=(2, 3), batch=8)
        assert [str(w.message) for w in caught] == [
            f"layer {name}: P=8 exceeds size {size}; kept whole on one worker"
            for name, size in (("dense0", 6), ("bias0", 3))
        ]
        assert [e - s for s, e in sim.bounds["bias0"]] == [0] * 7 + [3]
        for name, init in init_mlp_params([2, 3], 0).items():
            assert np.array_equal(sim.full_params()[name], init)


class TestGatherSemantics:
    def test_unquantized_forward_matches_reference(self):
        quant = QuantConfig(quantize_weights=False, quantize_gradients=False)
        sim = _sim(P=4, quant=quant)
        ref = _ref(P=4, quant=quant)
        for t in range(5):
            loss_s, _ = sim.train_step(t)
            loss_r = ref.train_step(t)
            assert loss_s == loss_r
        for name, full in sim.full_params().items():
            assert np.array_equal(full, ref.params[name])

    def test_bias_travels_full_precision(self):
        sim = _sim(P=4)
        entry = LedgerEntry(step=0)
        bias_idx = next(i for i, l in enumerate(sim.layers) if l.kind == "bias")
        gathered = sim._gather(0, bias_idx, PHASE_W_FWD, entry)
        assert np.array_equal(gathered, sim.full_params()[sim.layers[bias_idx].name])
        assert len(entry.transfers) == 4
        assert all(t.bit_width == 32 for t in entry.transfers)

    def test_norm_layer_exempt(self):
        sim = _sim(P=2)
        sim.layers = [LayerSpec("n0", "norm", (40,))]
        sim.params = {"n0": np.linspace(0, 1, 40)}
        sim.bounds = {"n0": shard_bounds(40, 2)}
        entry = LedgerEntry(step=0)
        gathered = sim._gather(0, 0, PHASE_W_FWD, entry)
        assert np.array_equal(gathered, np.linspace(0, 1, 40))
        assert len(entry.transfers) == 2
        assert all(t.bit_width == 32 for t in entry.transfers)

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_uneven_shards_record_only_crossing_transfers(self, P, quantized):
        # 70, 7, 21 and 3 parameters: P=3 leaves the last shard of two layers longer
        widths = (10, 7, 3)
        quant = QuantConfig(quantize_weights=quantized, quantize_gradients=quantized)
        sim = _sim(P=P, quant=quant, widths=widths, batch=6)
        ref = _ref(P=P, quant=quant, widths=widths, batch=6)
        assert [e - s for s, e in sim.bounds["dense0"]] == ([70] if P == 1 else [23, 23, 24])
        for t in range(3):
            loss, entry = sim.train_step(t)
            assert loss == ref.train_step(t)
            assert all(tr.copies > 0 for tr in entry.transfers)
            assert (P == 1) == (entry.transfers == [])
            for coll, bits in (("allgather", entry.allgather_bits),
                               ("reducescatter", entry.reducescatter_bits)):
                assert bits == sum(tr.total_bits for tr in entry.transfers
                                   if tr.collective == coll)
        for name, full in sim.full_params().items():
            assert full.tobytes() == ref.params[name].tobytes()

    def test_single_worker_has_no_traffic(self):
        sim = _sim(P=1)
        _, entry = sim.train_step(0)
        assert entry.allgather_bits == 0
        assert entry.reducescatter_bits == 0
        assert entry.allgather_events == 2 * len(sim.layers)  # events still counted


class TestEquivalence:
    @pytest.mark.parametrize("P", [1, 2, 4])
    def test_fully_quantized_matches_reference(self, P):
        sim = _sim(P=P)
        ref = _ref(P=P)
        for t in range(10):
            loss_s, _ = sim.train_step(t)
            loss_r = ref.train_step(t)
            assert loss_s == loss_r
        for name, full in sim.full_params().items():
            assert np.array_equal(full, ref.params[name])

    def test_gradient_quantization_only(self):
        quant = QuantConfig(quantize_weights=False, quantize_gradients=True)
        sim = _sim(P=2, quant=quant)
        ref = _ref(P=2, quant=quant)
        for t in range(8):
            sim.train_step(t)
            ref.train_step(t)
        for name, full in sim.full_params().items():
            assert np.array_equal(full, ref.params[name])

    def test_determinism_across_runs(self):
        a = _sim(P=4)
        b = _sim(P=4)
        for t in range(6):
            la, ea = a.train_step(t)
            lb, eb = b.train_step(t)
            assert la == lb
            assert ea.allgather_bits == eb.allgather_bits
            assert ea.reducescatter_bits == eb.reducescatter_bits
        for name, full in a.full_params().items():
            assert np.array_equal(full, b.full_params()[name])

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 24), min_size=2, max_size=4),
        P=st.integers(1, 6),
        rows=st.integers(1, 3),
        bucket=st.integers(1, 70),
        bits=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        quantized=st.tuples(st.booleans(), st.booleans()),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_configs_match_reference(
        self, widths, P, rows, bucket, bits, quantized, seed
    ):
        # small layers put P above a layer's size, and most buckets leave a
        # short tail in a shard
        quant = QuantConfig(
            quantize_weights=quantized[0], quantize_gradients=quantized[1],
            weight_bits=bits[0], gradient_bits=bits[1], bucket_size=bucket,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # P > layer size
            sim = _sim(P=P, quant=quant, seed=seed, widths=tuple(widths), batch=P * rows)
        ref = _ref(P=P, quant=quant, seed=seed, widths=tuple(widths), batch=P * rows)
        for t in range(2):
            loss_s, _ = sim.train_step(t)
            assert loss_s == ref.train_step(t)
        for name, full in sim.full_params().items():
            assert full.tobytes() == ref.params[name].tobytes()

    def test_zero_upstream_gradient_leaves_shards_unchanged(self):
        quant = QuantConfig(quantize_weights=False, quantize_gradients=False)
        sim = _sim(P=2, quant=quant)
        before = {k: v.copy() for k, v in sim.full_params().items()}
        entry = LedgerEntry(step=0)
        rows = sim.cfg.batch // sim.cfg.P
        inputs = np.ones((2, rows, WIDTHS[0]))
        zeros = np.zeros((2, rows, WIDTHS[1]))
        sim.backward_layer(0, 0, inputs, zeros, entry)
        after = sim.full_params()
        assert np.array_equal(before["dense0"], after["dense0"])
        assert np.array_equal(before["bias0"], after["bias0"])


def _counting(monkeypatch, name):
    """Count the calls of `qsdp.sharded.<name>` while monkeypatched."""
    calls = []
    original = getattr(sharded, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sharded, name, wrapper)
    return calls


class TestQuantizedTransport:
    def test_one_generator_per_collective(self, monkeypatch):
        # 3 dense layers: one weight gather and one gradient reduce-scatter
        # each; P shard messages per gather and P(P-1) per reduce-scatter
        sim = _sim(P=4, widths=(256, 512, 512, 64), batch=32)
        rngs = _counting(monkeypatch, "bucket_rng")
        quantized = _counting(monkeypatch, "quantize_message")
        sim.train_step(0)
        assert len(rngs) == 6
        assert sorted(args[2:] for args in rngs) == [
            (layer, kind) for layer in (0, 2, 4)
            for kind in (sharded.WEIGHTS, sharded.GRADIENTS)
        ]
        assert len(quantized) == 3 * 4 + 3 * 4 * 3

    def test_own_gradient_shard_is_exact_at_one_worker(self):
        quant = QuantConfig(quantize_weights=False, quantize_gradients=True)
        raw = QuantConfig(quantize_weights=False, quantize_gradients=False)
        sim, exact = _sim(P=1, quant=quant), _sim(P=1, quant=raw)
        assert sim.train_step(0)[0] == exact.train_step(0)[0]
        for name, full in sim.full_params().items():
            assert full.tobytes() == exact.full_params()[name].tobytes()

    def test_only_crossing_gradient_shards_are_quantized(self, monkeypatch):
        P, widths, bucket = 3, (10, 7, 3), 8  # uneven shards, tails in buckets
        quant = QuantConfig(quantize_weights=False, bucket_size=bucket)
        sim = _sim(P=P, quant=quant, widths=widths, batch=6)
        quantized = _counting(monkeypatch, "quantize_message")
        _, entry = sim.train_step(0)
        dense = [l for l in sim.layers if l.kind == "dense"]
        assert len(quantized) == len(dense) * P * (P - 1)
        rs = sum(
            (P - 1) * (segment_size_bits(e - s, bucket, 8) if l.kind == "dense"
                       else 32 * (e - s))
            for l in sim.layers for s, e in sim.bounds[l.name] if e > s
        )
        assert entry.reducescatter_bits == rs

    def test_backward_gather_resends_the_forward_bytes(self, monkeypatch):
        sim = _sim(P=4)
        fwd, bwd = LedgerEntry(step=0), LedgerEntry(step=0)
        forward = sim._gather(0, 0, PHASE_W_FWD, fwd).copy()
        quantized = _counting(monkeypatch, "quantize_message")
        backward = sim._gather(0, 0, PHASE_W_BWD, bwd)
        assert quantized == []  # nothing is quantized again
        assert backward.tobytes() == forward.tobytes()
        assert [t.nbytes for t in bwd.transfers] == [t.nbytes for t in fwd.transfers]
        assert not np.array_equal(forward, sim.full_params()["dense0"])

    def test_backward_without_forward_quantizes_the_same_bytes(self):
        rng = np.random.default_rng(5)
        sims = [_sim(P=4), _sim(P=4)]
        rows = sims[0].cfg.batch // 4
        inputs = rng.standard_normal((4, rows, WIDTHS[0]))
        dzs = rng.standard_normal((4, rows, WIDTHS[1]))
        sims[0].forward_layer(0, 0, inputs, LedgerEntry(step=0))
        entries = [LedgerEntry(step=0), LedgerEntry(step=0)]
        for sim, entry in zip(sims, entries):
            sim.backward_layer(0, 0, inputs, dzs.copy(), entry)
        assert entries[0].total_bits == entries[1].total_bits
        for name, full in sims[0].full_params().items():
            assert full.tobytes() == sims[1].full_params()[name].tobytes()

    def test_kept_bytes_last_one_step(self):
        sim = _sim(P=4)
        for t in range(2):
            sim.train_step(t)
            assert sim._sent == {}
        sim._gather(2, 0, PHASE_W_FWD, LedgerEntry(step=2))
        assert list(sim._sent) == [(2, 0)]
        sim.train_step(3)  # starts by dropping what step 2 left behind
        assert sim._sent == {}


class TestScratchBuffers:
    DENSE_LAYER_BYTES = 512 * 512 * 8  # one 512x512 float64 layer

    @staticmethod
    def _steady_step_peak(quant):
        """tracemalloc peak of a warm (256, 512, 512, 64) P=4 step."""
        sim = _sim(P=4, quant=quant, widths=(256, 512, 512, 64), batch=32)
        sim.train_step(0)  # warm-up sizes the scratch
        tracemalloc.start()
        try:
            sim.train_step(1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_steady_step_allocates_less_than_one_dense_layer(self):
        quant = QuantConfig(quantize_weights=False, quantize_gradients=False)
        assert self._steady_step_peak(quant) < self.DENSE_LAYER_BYTES

    def test_steady_quantized_step_allocates_less_than_one_and_a_half_dense_layers(self):
        # w8g8 peaks at 0.90 of a layer with numpy 2.4 on x86-64; the margin
        # leaves room for other numpy versions
        quant = QuantConfig(weight_bits=8, gradient_bits=8)
        assert self._steady_step_peak(quant) < 1.5 * self.DENSE_LAYER_BYTES

    def test_memory_stays_flat_over_steps(self):
        # the shipped train-sim model (w8g8); a warm step keeps nothing, so
        # 50 of them retain ~8 KB, where one LedgerEntry alone is ~14 KB
        sim = _sim(P=4, batch=64)
        sim.train_step(0)
        tracemalloc.start()
        try:
            for t in range(1, 51):
                sim.train_step(t)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    @staticmethod
    def _pair():
        # same layer kinds, different sizes, one quantized and one not
        return (
            lambda: _sim(P=4, seed=1),
            lambda: _sim(P=2, seed=2, widths=(32, 80, 10), batch=8,
                         quant=QuantConfig(quantize_weights=False,
                                           quantize_gradients=False)),
        )

    @staticmethod
    def _outputs(sim, losses, entries):
        bits = [(e.allgather_bits, e.reducescatter_bits, e.collective_count)
                for e in entries]
        params = {k: v.tobytes() for k, v in sim.full_params().items()}
        return losses, bits, params

    def _solo(self, make, steps):
        sim = make()
        losses, entries = [], []
        for t in range(steps):
            snapshot = sim.full_params()
            before = {k: v.copy() for k, v in snapshot.items()}
            loss, entry = sim.train_step(t)
            losses.append(loss)
            entries.append(entry)
            for k, v in snapshot.items():  # earlier snapshots stay unchanged
                assert np.array_equal(v, before[k])
        return self._outputs(sim, losses, entries)

    def test_interleaved_models_match_solo_runs(self):
        makers = self._pair()
        solo = [self._solo(make, 4) for make in makers]
        sims = [make() for make in makers]
        runs = [([], []) for _ in sims]
        for t in range(4):
            for sim, (losses, entries) in zip(sims, runs):
                loss, entry = sim.train_step(t)
                losses.append(loss)
                entries.append(entry)
        for sim, (losses, entries), expected in zip(sims, runs, solo):
            assert self._outputs(sim, losses, entries) == expected
        a, b = sims
        ga = a._gather(0, 0, PHASE_W_FWD, LedgerEntry(step=0))
        gb = b._gather(0, 0, PHASE_W_FWD, LedgerEntry(step=0))
        assert not np.shares_memory(ga, gb)

    def test_models_in_threads_match_solo_runs(self):
        makers = self._pair() * 2  # more threads than cores
        solo = [self._solo(make, 3) for make in makers]
        results = [None] * len(makers)

        def work(i):
            sim = makers[i]()
            out = [sim.train_step(t) for t in range(3)]
            losses, entries = zip(*out)
            results[i] = self._outputs(sim, list(losses), list(entries))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(makers))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == solo


class TestLedger:
    def test_bits_match_transfer_log(self):
        sim = _sim(P=4)
        _, entry = sim.train_step(0)
        ag = sum(t.total_bits for t in entry.transfers if t.collective == "allgather")
        rs = sum(t.total_bits for t in entry.transfers if t.collective == "reducescatter")
        assert entry.allgather_bits == ag
        assert entry.reducescatter_bits == rs

    def test_event_counts(self):
        sim = _sim(P=4)
        _, entry = sim.train_step(0)
        n_layers = len(sim.layers)
        assert entry.allgather_events == 2 * n_layers
        assert entry.reducescatter_events == n_layers

    def test_expected_allgather_bits(self):
        # dense0 has 4096 params; P=4 shards of 1024 encode to
        # 14 + 12 + 1024 bytes each, crossing to 3 peers, twice per step
        sim = _sim(P=4)
        _, entry = sim.train_step(0)
        dense0 = [
            t for t in entry.transfers
            if t.layer == "dense0" and t.collective == "allgather"
        ]
        assert len(dense0) == 8  # 4 shard messages, forward and backward
        assert all(t.nbytes == 14 + 12 + 1024 and t.copies == 3 for t in dense0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        widths=st.lists(st.integers(1, 12), min_size=2, max_size=4),
        P=st.integers(1, 20),
        bucket=st.integers(1, 64),
        bits=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        quantized=st.tuples(st.booleans(), st.booleans()),
    )
    def test_step_ledger_counts_what_a_step_sends(self, widths, P, bucket, bits, quantized):
        # small layers put P above a layer's size, shards are uneven, and the
        # buckets run from below a shard's size to above it
        quant = QuantConfig(
            quantize_weights=quantized[0], quantize_gradients=quantized[1],
            weight_bits=bits[0], gradient_bits=bits[1], bucket_size=bucket,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # P > layer size
            _, sent = _sim(P=P, quant=quant, widths=tuple(widths), batch=P).train_step(0)
        priced = step_ledger(widths, P, quant)
        counters = ("allgather_bits", "reducescatter_bits", "allgather_events",
                    "reducescatter_events")
        assert ([getattr(priced, c) for c in counters]
                == [getattr(sent, c) for c in counters])
        assert priced.transfers == []

    def test_payload_scales_inversely_with_bits(self):
        sim8 = _sim(P=4, quant=QuantConfig(weight_bits=8, gradient_bits=8))
        raw = _sim(P=4, quant=QuantConfig(quantize_weights=False,
                                          quantize_gradients=False))
        _, e8 = sim8.train_step(0)
        _, e32 = raw.train_step(0)

        def dense_payload(entry, coll):
            return sum(
                t.payload_bits * t.copies
                for t in entry.transfers
                if t.collective == coll and t.layer.startswith("dense")
            )

        assert dense_payload(e32, "allgather") == 4 * dense_payload(e8, "allgather")
        assert dense_payload(e32, "reducescatter") == 4 * dense_payload(e8, "reducescatter")


class TestStepTime:
    @pytest.mark.parametrize("overlap", [True, False])
    def test_step_time_is_composed_of_its_named_terms(self, overlap):
        entry = LedgerEntry(step=0, allgather_bits=3 * 10**8, reducescatter_bits=10**8,
                            allgather_events=4, reducescatter_events=2)
        net = NetworkModel(1e9, latency_s=1e-3, compute_time_s=0.25, overlap=overlap)
        terms = step_time_terms(entry, net)
        assert terms == {"bandwidth_bps": 0.4, "compute_time_s": 0.25, "latency_s": 6e-3}
        want = 6e-3 + (0.4 if overlap else 0.25 + 0.4)
        assert simulate_step_time(entry, net) == pytest.approx(want, rel=1e-15)

    def test_infinite_bandwidth_limit(self):
        entry = LedgerEntry(step=0, allgather_bits=10**9, allgather_events=4,
                            reducescatter_events=2)
        net = NetworkModel(1e18, latency_s=1e-4, compute_time_s=0.01)
        t = simulate_step_time(entry, net)
        assert t == pytest.approx(0.01 + 6 * 1e-4)

    def test_halving_bandwidth_doubles_transport_term(self):
        entry = LedgerEntry(step=0, allgather_bits=8 * 10**8, allgather_events=1)
        base = NetworkModel(1e9, overlap=False)
        half = NetworkModel(5e8, overlap=False)
        t1 = simulate_step_time(entry, base)
        t2 = simulate_step_time(entry, half)
        assert t2 == pytest.approx(2 * t1)
        # the serial model matches compute + bits/bandwidth + latency exactly
        assert t1 == pytest.approx(entry.total_bits / 1e9)

    def test_overlap_hides_communication_under_compute(self):
        entry = LedgerEntry(step=0, allgather_bits=10**7, allgather_events=1)
        net = NetworkModel(1e10, compute_time_s=0.05)
        assert simulate_step_time(entry, net) == pytest.approx(0.05)

    def test_time_ratio_matches_ledger_ratio_when_transport_bound(self):
        sim8 = _sim(P=4, quant=QuantConfig(weight_bits=8, gradient_bits=8))
        raw = _sim(P=4, quant=QuantConfig(quantize_weights=False,
                                          quantize_gradients=False))
        _, e8 = sim8.train_step(0)
        _, e32 = raw.train_step(0)
        net = NetworkModel(1e8)  # low bandwidth, zero compute and latency
        ratio_time = simulate_step_time(e32, net) / simulate_step_time(e8, net)
        ratio_bits = e32.total_bits / e8.total_bits
        assert ratio_time == pytest.approx(ratio_bits)

    def test_weight_compression_beats_gradient_compression(self):
        # weights cross twice per step, gradients once
        w_bits, g_bits = 2 * 10**9, 10**9
        ratio = 4
        w_comp = LedgerEntry(step=0, allgather_bits=w_bits // ratio,
                             reducescatter_bits=g_bits)
        g_comp = LedgerEntry(step=0, allgather_bits=w_bits,
                             reducescatter_bits=g_bits // ratio)
        net = NetworkModel(1e9, compute_time_s=0.01)
        assert simulate_step_time(w_comp, net) < simulate_step_time(g_comp, net)


class TestTraining:
    def test_loss_decreases_monotonically_on_fixed_batch(self):
        ok = 0
        seeds = range(12)
        for seed in seeds:
            sim = ShardedMLP(
                SimConfig(widths=WIDTHS, P=4, batch=64, lr=0.05,
                          quant=QuantConfig(), root_seed=seed, param_seed=seed,
                          data_seed=seed, fixed_batch=True)
            )
            losses = [sim.train_step(t)[0] for t in range(50)]
            ok += all(b < a for a, b in zip(losses, losses[1:]))
        assert ok >= 0.95 * len(seeds)

    def test_batches_are_deterministic(self):
        x1, y1 = make_batch(list(WIDTHS), 16, data_seed=3, step=5)
        x2, y2 = make_batch(list(WIDTHS), 16, data_seed=3, step=5)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        x3, _ = make_batch(list(WIDTHS), 16, data_seed=3, step=6)
        assert not np.array_equal(x1, x3)

    def test_param_init_shapes(self):
        params = init_mlp_params([8, 4, 2], 0)
        specs = {l.name: l for l in mlp_layer_specs([8, 4, 2])}
        assert params["dense0"].size == specs["dense0"].size == 32
        assert params["bias1"].size == 2
