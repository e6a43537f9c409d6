import csv
import hashlib
import json
import math
import pathlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qsdp.cli import main

CONFIGS = {
    "quant-stats": {
        "experiment": "quant-stats",
        "deltas": [0.5, 1.0],
        "num_scalars": 4,
        "samples": 20000,
        "seed": 0,
        "sparsity_vectors": 2,
    },
    "converge": {
        "experiment": "converge",
        "diagonal": [1.0, 2.0],
        "sigma": 0.1,
        "epsilon": 0.2,
        "delta_star": 0.5,
        "x0": [1.0, 1.0],
        "seeds": [0, 1, 2, 3],
        "trace": True,
    },
    "train-sim": {
        "experiment": "train-sim",
        "layers": [16, 16, 4],
        "P": 2,
        "batch": 8,
        "steps": 5,
        "seeds": [0],
        "bandwidth_bps": 1e9,
        "compute_time_s": 0.001,
    },
    "bandwidth-sweep": {
        "experiment": "bandwidth-sweep",
        "mode": "bits",
        "layers": [16, 16, 4],
        "P": 2,
        "bandwidths_gbps": [10, 100],
        "compute_time_s": 0.0,
        "configs": [
            {"label": "w8g8", "weights": 8, "gradients": 8},
            {"label": "fp32", "weights": None, "gradients": None},
        ],
    },
    "learn-levels": {
        "experiment": "learn-levels",
        "num_values": 5000,
        "bit_width": 3,
        "seed": 0,
    },
}


def _write(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_command_succeeds(tmp_path, command):
    cfg_path = _write(tmp_path, command, CONFIGS[command])
    out = tmp_path / "out.csv"
    rc = main([command, "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) >= 2  # header plus data


def test_reruns_are_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "quant-stats", CONFIGS["quant-stats"])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["quant-stats", "--config", cfg_path, "--out", str(out1), "--no-timestamp"]) == 0
    assert main(["quant-stats", "--config", cfg_path, "--out", str(out2), "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timestamp_header_present_by_default(tmp_path):
    cfg_path = _write(tmp_path, "learn-levels", CONFIGS["learn-levels"])
    out = tmp_path / "out.csv"
    assert main(["learn-levels", "--config", cfg_path, "--out", str(out)]) == 0
    assert out.read_text().startswith("# generated ")


def test_threads_flag_is_rejected(tmp_path):
    cfg_path = _write(tmp_path, "converge", CONFIGS["converge"])
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", cfg_path, "--out", str(tmp_path / "o.csv"),
              "--threads", "2"])
    assert exc.value.code == 2


def test_converge_trace_rows_follow_config_seed_order(tmp_path):
    def trace_rows(seeds):
        name = "converge-" + "-".join(map(str, seeds))
        cfg_path = _write(tmp_path, name, dict(CONFIGS["converge"], seeds=seeds, trace=True))
        out = tmp_path / f"{name}.csv"
        assert main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
        return [r for r in _rows(out)[1:] if r[0] == "trace"]

    rows = trace_rows([2, 0, 1])
    seed_runs = [r[1] for i, r in enumerate(rows) if i == 0 or r[1] != rows[i - 1][1]]
    assert seed_runs == ["2", "0", "1"]
    for seed in (2, 0, 1):
        assert [r for r in rows if r[1] == str(seed)] == trace_rows([seed])


def test_unknown_field_rejected(tmp_path):
    cfg = dict(CONFIGS["learn-levels"], bogus=1)
    cfg_path = _write(tmp_path, "learn-levels", cfg)
    out = tmp_path / "out.csv"
    rc = main(["learn-levels", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert not out.exists()  # no partial output on config error


def test_zero_delta_rejected(tmp_path):
    cfg = dict(CONFIGS["quant-stats"], deltas=[0.0, 1.0])
    cfg_path = _write(tmp_path, "quant-stats", cfg)
    rc = main(["quant-stats", "--config", cfg_path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_zero_samples_rejected(tmp_path):
    cfg = dict(CONFIGS["quant-stats"], samples=0)
    cfg_path = _write(tmp_path, "quant-stats", cfg)
    rc = main(["quant-stats", "--config", cfg_path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_missing_config_file(tmp_path):
    rc = main(["quant-stats", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_wrong_experiment_name(tmp_path):
    cfg = dict(CONFIGS["learn-levels"], experiment="converge")
    cfg_path = _write(tmp_path, "learn-levels", cfg)
    rc = main(["learn-levels", "--config", cfg_path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_converge_summary_passes(tmp_path):
    cfg_path = _write(tmp_path, "converge", CONFIGS["converge"])
    out = tmp_path / "out.csv"
    assert main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    rows = _rows(out)
    header = rows[0]
    summary = [r for r in rows[1:] if r[header.index("record")] == "summary"]
    assert len(summary) == 1
    assert summary[0][header.index("passed")] == "true"
    traces = [r for r in rows[1:] if r[0] == "trace"]
    assert len(traces) > 0


def test_converge_immediate_pass_with_large_epsilon(tmp_path):
    cfg = dict(CONFIGS["converge"], sigma=0.0, epsilon=10.0, trace=False)
    cfg_path = _write(tmp_path, "converge-e", cfg)
    out = tmp_path / "out.csv"
    assert main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    rows = _rows(out)
    header = rows[0]
    summary = [r for r in rows[1:] if r[0] == "summary"][0]
    assert summary[header.index("T")] == "0"
    assert summary[header.index("passed")] == "true"


def test_converge_with_quantized_gradients(tmp_path):
    base = dict(CONFIGS["converge"], sigma=0.5, epsilon=0.1, trace=False)
    cfg_path = _write(tmp_path, "converge-q", dict(base, gradient_bits=4))
    out = tmp_path / "out.csv"
    assert main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    rows = _rows(out)
    header = rows[0]
    summary = [r for r in rows[1:] if r[0] == "summary"][0]
    assert summary[header.index("passed")] == "true"
    # the recomputed eta must be strictly smaller than without quantization
    plain = _write(tmp_path, "converge-p", base)
    out2 = tmp_path / "out2.csv"
    assert main(["converge", "--config", plain, "--out", str(out2), "--no-timestamp"]) == 0
    s2 = [r for r in _rows(out2)[1:] if r[0] == "summary"][0]
    assert float(s2[header.index("eta")]) < 1.0
    assert float(summary[header.index("eta")]) < float(s2[header.index("eta")])


def test_bandwidth_sweep_compressed_flatter(tmp_path):
    cfg_path = _write(tmp_path, "bandwidth-sweep", CONFIGS["bandwidth-sweep"])
    out = tmp_path / "out.csv"
    assert main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    rows = _rows(out)
    header = rows[0]
    times = {}
    for r in rows[1:]:
        times.setdefault(r[0], []).append(float(r[header.index("step_time_s")]))
    spread = {k: max(v) - min(v) for k, v in times.items()}
    assert spread["w8g8"] < spread["fp32"]


def test_table6_grid_monotone(tmp_path):
    cfg = {
        "experiment": "bandwidth-sweep",
        "mode": "ratios",
        "layers": [32, 64, 16],
        "P": 2,
        "bandwidths_gbps": [1],
        "compute_time_s": 0.0001,
        "weight_ratios": [1, 2, 4, 8],
        "gradient_ratios": [1, 2, 4, 8],
    }
    cfg_path = _write(tmp_path, "sweep", cfg)
    out = tmp_path / "out.csv"
    assert main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    rows = _rows(out)
    header = rows[0]
    t = {
        (float(r[header.index("weight_ratio")]), float(r[header.index("gradient_ratio")])):
            float(r[header.index("step_time_s")])
        for r in rows[1:]
    }
    ratios = [1, 2, 4, 8]
    for i, wr in enumerate(ratios):
        for j, gr in enumerate(ratios):
            if i + 1 < len(ratios):
                assert t[(ratios[i + 1], gr)] <= t[(wr, gr)]
            if j + 1 < len(ratios):
                assert t[(wr, ratios[j + 1])] <= t[(wr, gr)]


def test_example_configs_parse(tmp_path):
    import pathlib

    here = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for cfg_file in sorted(here.glob("*.json")):
        cfg = json.loads(cfg_file.read_text())
        assert "experiment" in cfg


# sha256 of the `--no-timestamp` CSV of each file in configs/, recorded with
# numpy 2.4 on x86-64.  Every shipped config gives the same bytes on every
# run, so a changed digest means a changed draw stream or changed arithmetic.
SHIPPED_DIGESTS = {
    "bandwidth-sweep.json": "6f696f48df12a37717f6e36f2a1bbe4b1e77e07da898311c05ddb049147c709e",
    "converge.json": "7b9f19fcc78d55eb3f9e4695591e0aace0a5a0b16d221741e7ace935dbf49b75",
    "learn-levels.json": "92c58adeb28fcd71b0d948275959567845bf7c0dc558f1f8d1d44d49501b9e8e",
    "quant-stats.json": "ecdebf2630aa14b721730e49f15b931223ddaad9f7e1602a82d9d526a8dd4ba6",
    "train-sim.json": "1aed5927f9e7b16159dc4005919ce78f02db37e4f051dc20db9819ad662bae59",
}
SHIPPED = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.name for p in SHIPPED])
def test_shipped_config_output_bytes_are_pinned(tmp_path, path):
    command = json.loads(path.read_text())["experiment"]
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out), "--no-timestamp"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_DIGESTS[path.name]


# The shipped converge config runs unquantized gradients; this one pins the
# variance budget -> plan -> run path of a gradient-quantized run.
QUANTIZED_CONVERGE = {
    "experiment": "converge",
    "diagonal": [1.0, 1.0, 2.0, 4.0],
    "sigma": 0.2,
    "epsilon": 0.05,
    "delta_star": 0.25,
    "x0": [1.0, 1.0, 1.0, 1.0],
    "seeds": [0, 1, 2, 3],
    "gradient_bits": 4,
    "benchmark_seed": 7,
    "trace": False,
}
QUANTIZED_CONVERGE_DIGEST = "6ef157911970102b89538409fe2a1b8162cff77cfa52f57cbf05fdb153d4ddc9"


def test_gradient_quantized_converge_output_bytes_are_pinned(tmp_path):
    cfg_path = _write(tmp_path, "converge-g4", QUANTIZED_CONVERGE)
    out = tmp_path / "out.csv"
    assert main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QUANTIZED_CONVERGE_DIGEST

MALFORMED = [
    ("converge", {"gradient_bits": 17}, "gradient_bits"),
    ("converge", {"gradient_bits": 0}, "gradient_bits"),
    ("converge", {"gradient_bits": True}, "gradient_bits"),
    ("converge", {"linear": [0.0]}, "linear"),
    ("converge", {"linear": [0.0, 0.0, 0.0]}, "linear"),
    ("converge", {"benchmark_seed": False}, "benchmark_seed"),
    ("converge", {"seeds": [0, True]}, "seeds"),
    ("train-sim", {"steps": True}, "steps"),
    ("train-sim", {"P": True}, "P"),
    ("train-sim", {"bucket_size": True}, "bucket_size"),
    ("train-sim", {"bit_widths": {"weights": "8"}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"weights": 32}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"gradients": 0}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"gradients": 8.0}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"weights": True}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"weights": 8, "grads": 8}}, "bit_widths"),
    ("train-sim", {"bit_widths": {"label": "w8", "weights": 8}}, "bit_widths"),
    ("train-sim", {"latency_s": -1e-6}, "latency_s"),
    ("train-sim", {"compute_time_s": -0.001}, "compute_time_s"),
    ("train-sim", {"layers": [16, 16.5, 4]}, "layers"),
    ("train-sim", {"layers": [16, 0, 4]}, "layers"),
    ("bandwidth-sweep", {"configs": [{"label": "a", "weights": "8"}]}, "configs"),
    ("bandwidth-sweep", {"configs": [{"label": "a", "weights": 8},
                                     {"label": "b", "grads": 8}]}, "configs"),
    ("bandwidth-sweep", {"configs": [{"label": "a", "weights": 8},
                                     {"weights": 8}]}, "configs"),
    ("bandwidth-sweep", {"latency_s": -1.0}, "latency_s"),
    ("bandwidth-sweep", {"layers": [16, -4, 4]}, "layers"),
    ("train-sim", {"latency_s": math.inf}, "latency_s"),
    ("train-sim", {"bandwidth_bps": math.inf}, "bandwidth_bps"),
    ("bandwidth-sweep", {"bandwidths_gbps": [10, math.inf]}, "bandwidths_gbps"),
    ("converge", {"epsilon": math.inf}, "epsilon"),
    ("converge", {"delta_star": math.inf}, "delta_star"),
    ("converge", {"x0": [math.nan, 1.0]}, "x0"),
    ("quant-stats", {"deltas": [math.inf]}, "deltas"),
    ("converge", {"seeds": [-1]}, "seeds"),
    ("converge", {"benchmark_seed": -1}, "benchmark_seed"),
    ("train-sim", {"seeds": [0, -1]}, "seeds"),
    ("quant-stats", {"seed": -1}, "seed"),
    ("learn-levels", {"seed": -1}, "seed"),
]


@pytest.mark.parametrize(
    "command,patch,field", MALFORMED, ids=[f"{c}-{f}-{p[f]!r}" for c, p, f in MALFORMED]
)
def test_malformed_config_exits_2_before_any_output(tmp_path, capsys, command, patch, field):
    cfg_path = _write(tmp_path, command, dict(CONFIGS[command], **patch))
    out = tmp_path / "out.csv"
    rc = main([command, "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"qsdp: config error: {field}:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter reads integer literals of any length")
def test_an_integer_literal_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.load refuses an integer of more than sys.get_int_max_str_digits()
    # digits (4300 by default) with a plain ValueError
    shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bandwidth-sweep.json"
    path = tmp_path / "bw.json"
    path.write_text(shipped.read_text().replace('"P": 4', '"P": 1' + "0" * 5000))
    out = tmp_path / "out.csv"
    rc = main(["bandwidth-sweep", "--config", str(path), "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("qsdp: config error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field,value", [("benchmark_samples", 20000), ("budget_draws", 128)])
def test_converge_rejects_its_removed_sampling_fields(tmp_path, capsys, field, value):
    cfg_path = _write(tmp_path, "converge", dict(CONFIGS["converge"], **{field: value}))
    out = tmp_path / "out.csv"
    rc = main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    assert rc == 2
    assert capsys.readouterr().err == f"qsdp: config error: unknown field(s): {field}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value", [("batch", 8), ("lr", 0.05), ("seed", 0), ("bandwidth_bps", 1e9)]
)
def test_bandwidth_sweep_rejects_the_fields_its_ledger_does_not_read(
    tmp_path, capsys, field, value
):
    cfg_path = _write(tmp_path, "bw", dict(CONFIGS["bandwidth-sweep"], **{field: value}))
    out = tmp_path / "out.csv"
    rc = main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    assert rc == 2
    assert capsys.readouterr().err == f"qsdp: config error: unknown field(s): {field}\n"
    assert not out.exists()


def test_bandwidth_sweep_checks_every_config_before_computing(tmp_path, monkeypatch):
    import qsdp.experiments

    steps = []
    monkeypatch.setattr(qsdp.experiments, "step_ledger", lambda *a: steps.append(a))
    configs = [{"label": "ok", "weights": 8}, {"label": "bad", "weights": 17}]
    cfg_path = _write(tmp_path, "bw", dict(CONFIGS["bandwidth-sweep"], configs=configs))
    out = tmp_path / "out.csv"
    rc = main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert steps == []
    assert not out.exists()


_DROP = object()  # a patch value that removes the field


def _patched(command, patch):
    cfg = dict(CONFIGS[command], **patch)
    return {key: value for key, value in cfg.items() if value is not _DROP}


# the bandwidth-sweep config in ratios mode
_RATIOS = {"mode": "ratios", "configs": _DROP, "weight_ratios": [1, 2], "gradient_ratios": [1]}

# id: (command, patch, the field the one stderr line must name)
EXTREME = {
    "converge-x0": ("converge", {"x0": [1e300, 1e300]}, "x0"),
    "converge-diagonal": ("converge", {"diagonal": [1e-300, 1.0]}, "diagonal"),
    "converge-delta_star": ("converge", {"delta_star": 1e300}, "delta_star"),
    "converge-epsilon": ("converge", {"epsilon": 1e-300}, "epsilon"),  # T ~ 1e302
    "converge-epsilon-subnormal": ("converge", {"epsilon": 1e-320}, "epsilon"),
    "quant-stats-deltas": ("quant-stats", {"deltas": [1e300]}, "deltas"),
    "quant-stats-deltas-sum": ("quant-stats", {"deltas": [1e306]}, "deltas"),
    "train-sim-lr": ("train-sim", {"lr": 1e300}, "lr"),  # the quantizer refuses
    "train-sim-lr-fp32": (
        "train-sim", {"lr": 1e300, "bit_widths": {"weights": None, "gradients": None}}, "lr"
    ),
    "learn-levels-learning_rate": ("learn-levels", {"learning_rate": 1e300}, "learning_rate"),
    "converge-sigma": ("converge", {"sigma": 1e300}, "sigma"),  # sigma**2 overflows
    "converge-sigma-T": ("converge", {"sigma": 1e100}, "sigma"),  # T ~ 1e203
    "converge-sigma-plan": ("converge", {"sigma": 1e154}, "sigma"),  # eta subnormal
    "converge-linear": ("converge", {"linear": [1e300, 0.0]}, "linear"),  # f* is nan
    "converge-diagonal-huge": (
        "converge", {"diagonal": [1e300, 1.0, 2.0, 4.0], "x0": [1.0] * 4}, "diagonal"
    ),
    "train-sim-bandwidth_bps": ("train-sim", {"bandwidth_bps": 1e-320}, "bandwidth_bps"),
    "train-sim-latency_s": ("train-sim", {"latency_s": 1e308}, "latency_s"),
    "train-sim-compute_time_s": (  # the largest of two finite terms that overflow
        "train-sim", {"compute_time_s": 1.7e308, "latency_s": 1e307}, "compute_time_s"
    ),
    "bandwidth-sweep-bandwidths_gbps-tiny": (
        "bandwidth-sweep", {"bandwidths_gbps": [1e-320]}, "bandwidths_gbps"
    ),
    "bandwidth-sweep-bandwidths_gbps-huge": (  # 1e300 Gbit/s is inf bit/s
        "bandwidth-sweep", {"bandwidths_gbps": [1e300]}, "bandwidths_gbps"
    ),
    # exact integer bits that no float can price
    "bandwidth-sweep-P-bits": ("bandwidth-sweep", {"P": 10**400}, "P"),
    "bandwidth-sweep-layers-bits": ("bandwidth-sweep", {"layers": [10**160, 10**160]}, "layers"),
    "bandwidth-sweep-P-ratios": ("bandwidth-sweep", dict(_RATIOS, P=10**400), "P"),
    "bandwidth-sweep-layers-int": ("bandwidth-sweep", {"layers": [10**400, 4]}, "layers"),
    "bandwidth-sweep-layers-ratios": (
        "bandwidth-sweep", dict(_RATIOS, layers=[10**160, 10**160]), "layers"
    ),
    # a ratio that scales a finite step's bits to inf, at any bandwidth
    "bandwidth-sweep-weight_ratios": (
        "bandwidth-sweep", dict(_RATIOS, weight_ratios=[1e-310]), "weight_ratios"
    ),
    "bandwidth-sweep-gradient_ratios": (
        "bandwidth-sweep", dict(_RATIOS, gradient_ratios=[1e-310]), "gradient_ratios"
    ),
}


@pytest.mark.parametrize("command,patch,field", EXTREME.values(), ids=EXTREME.keys())
def test_extreme_config_numbers_exit_3_before_any_seed_runs(
    tmp_path, capsys, monkeypatch, command, patch, field
):
    import qsdp.experiments

    runs = []
    monkeypatch.setattr(qsdp.experiments, "run", lambda *a, **k: runs.append(a))
    cfg_path = _write(tmp_path, command, _patched(command, patch))
    out = tmp_path / "out.csv"
    rc = main([command, "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("qsdp: numerical failure:")
    assert field in err
    assert "np.float64(" not in err
    assert runs == []
    assert not out.exists()


# id: (command, patch, the field the one stderr line must name) for sizes whose
# arrays or loops exceed the documented budgets (MAX_ELEMENTS, MAX_ITERATIONS).
_WIDE = 10**4 + 1  # a diagonal whose dense (n, n) matrix exceeds MAX_ELEMENTS
EXTREME_SIZES = {
    "quant-stats-sparsity_dim": ("quant-stats", {"sparsity_dim": 10**10}, "sparsity_dim"),
    # the vector fits; the (4000, sparsity_dim) shift matrix does not
    "quant-stats-sparsity_dim-matrix": ("quant-stats", {"sparsity_dim": 10**6}, "sparsity_dim"),
    "quant-stats-samples": ("quant-stats", {"samples": 10**10}, "samples"),
    "quant-stats-num_scalars": ("quant-stats", {"num_scalars": 10**10}, "num_scalars"),
    # each array fits; the draws of the loops over them do not
    "quant-stats-num_scalars-draws": ("quant-stats", {"num_scalars": 10**7}, "num_scalars"),
    "quant-stats-sparsity_vectors": (
        "quant-stats", {"sparsity_vectors": 10**7}, "sparsity_vectors"
    ),
    "learn-levels-passes": ("learn-levels", {"passes": 10**9}, "passes"),
    "learn-levels-num_values": ("learn-levels", {"num_values": 10**10}, "num_values"),
    "converge-diagonal-wide": (
        "converge", {"diagonal": [1.0] * _WIDE, "linear": [0.0] * _WIDE, "x0": [1.0] * _WIDE},
        "diagonal",
    ),
    "train-sim-layers": ("train-sim", {"layers": [200_000, 200_000]}, "layers"),
    "train-sim-layers-int": ("train-sim", {"layers": [10**400, 4]}, "layers"),  # no float
    # each dense layer fits; the model, every layer of it, does not
    "train-sim-layers-sum": ("train-sim", {"layers": [10_000] * 12, "steps": 1}, "layers"),
    "train-sim-batch": ("train-sim", {"batch": 4 * 10**8}, "batch"),
    # the activations fit; one step's shard messages do not
    "train-sim-P": ("train-sim", {"P": 10**6, "batch": 10**6}, "P"),
    "train-sim-steps": ("train-sim", {"steps": 10**9}, "steps"),
}


@pytest.mark.parametrize("command,patch,field", EXTREME_SIZES.values(), ids=EXTREME_SIZES.keys())
def test_extreme_config_sizes_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, patch, field
):
    import qsdp.experiments

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    cfg_path = _write(tmp_path, command, dict(CONFIGS[command], **patch))
    out = tmp_path / "out.csv"
    # each command's work starts with a generator or, for converge, the problem
    monkeypatch.setattr(np.random, "default_rng", no_work)
    monkeypatch.setattr(qsdp.experiments, "quadratic_problem", no_work)
    rc = main([command, "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"qsdp: config error: {field}: ")
    assert "budget" in err
    assert not out.exists()


# (command, field, a patch at the budget, one just beyond it, the budget patched in)
AT_BUDGET = [
    ("quant-stats", "samples", {"samples": 128_000}, {"samples": 128_001},
     "MAX_ELEMENTS", 128_000),
    ("quant-stats", "sparsity_dim", {"sparsity_dim": 8}, {"sparsity_dim": 9},
     "MAX_ELEMENTS", 8 * 4000),
    ("learn-levels", "num_values", {"num_values": 5000}, {"num_values": 5001},
     "MAX_ELEMENTS", 5000),
    ("learn-levels", "passes", {"passes": 2}, {"passes": 3}, "MAX_ITERATIONS", 2 * 5000),
    ("quant-stats", "num_scalars", {"num_scalars": 4, "sparsity_dim": 1},
     {"num_scalars": 5, "sparsity_dim": 1}, "MAX_ITERATIONS", 2 * 4 * 20000),
    ("quant-stats", "sparsity_vectors", {"sparsity_vectors": 2, "samples": 1},
     {"sparsity_vectors": 3, "samples": 1}, "MAX_ITERATIONS", 2 * 2 * 4000 * 32),
    ("converge", "diagonal", {}, {"diagonal": [1.0, 2.0, 3.0], "x0": [1.0] * 3},
     "MAX_ELEMENTS", 2 * 2),
    # every layer of [16, 16, 4] plus three buffers of its largest dense layer
    ("train-sim", "layers", {}, {"layers": [16, 17, 4]}, "MAX_ELEMENTS",
     16 * 16 + 16 + 16 * 4 + 4 + 3 * 16 * 16),
    # activations above that model footprint
    ("train-sim", "batch", {"batch": 70}, {"batch": 72}, "MAX_ELEMENTS", 70 * 16),
    ("train-sim", "steps", {}, {"steps": 6}, "MAX_ITERATIONS", 5 * 2 * 2**2),
    ("train-sim", "P", {"steps": 1, "batch": 6}, {"steps": 1, "batch": 6, "P": 3},
     "MAX_ITERATIONS", 2 * 2**2),
]


@pytest.mark.parametrize(
    "command,field,within,beyond,budget,value", AT_BUDGET,
    ids=[f"{c}-{f}" for c, f, *_ in AT_BUDGET],
)
def test_size_budgets_admit_their_limit_and_refuse_one_more(
    tmp_path, capsys, monkeypatch, command, field, within, beyond, budget, value
):
    import qsdp.experiments

    monkeypatch.setattr(qsdp.experiments, budget, value)
    for name, patch, rc in (("within", within, 0), ("beyond", beyond, 2)):
        cfg_path = _write(tmp_path, name, dict(CONFIGS[command], **patch))
        out = tmp_path / f"{name}.csv"
        assert main([command, "--config", cfg_path, "--out", str(out), "--no-timestamp"]) == rc
    assert capsys.readouterr().err.startswith(f"qsdp: config error: {field}: ")


_HEADER, _BLOCK = 14 * 8, 12 * 8  # bits of a wire v1 header and of block metadata
# 78 dense layers of 2048 x 8192, 1.3 x 10^9 elements, over 8 workers
_GPT_SCALE = {"layers": [2048, 8192] * 39 + [2048], "P": 8}

# id: (patch, the w8g8 and the fp32 total_bits of one step in closed form); a
# shard crosses to P - 1 workers in each of two gathers and one reduce-scatter
PRICED = {
    # 2 x 10^10 dense values a shard, 19,531,250 full buckets, and 10^5 bias values
    "layers": (
        {"layers": [200_000, 200_000]},
        3 * 2 * (_HEADER + 19_531_250 * (_BLOCK + 8 * 1024) + 32 * 100_000),
        3 * 32 * (200_000**2 + 200_000),
    ),
    # P above every layer's size: the last worker holds each layer whole
    "P": (
        {"P": 10**6},
        3 * (10**6 - 1) * (2 * (_HEADER + _BLOCK) + 8 * (256 + 64) + 32 * (16 + 4)),
        3 * (10**6 - 1) * 32 * (256 + 16 + 64 + 4),
    ),
    # a dense layer beyond int64 in two shards of 2^53 full buckets
    "layers-beyond-int64": (
        {"layers": [2**32, 2**32]},
        3 * 2 * (_HEADER + 2**53 * (_BLOCK + 8 * 1024) + 32 * 2**31),
        3 * 32 * (2**64 + 2**32),
    ),
    # shards of 2048 full buckets, and bias shards of 1024 and 256 values
    "gpt-scale": (
        _GPT_SCALE,
        3 * 7 * (78 * 8 * (_HEADER + 2048 * (_BLOCK + 8 * 1024)) + 32 * 39 * (8192 + 2048)),
        3 * 7 * 32 * (78 * 2048 * 8192 + 39 * (8192 + 2048)),
    ),
}


@pytest.mark.parametrize("patch,w8g8,fp32", PRICED.values(), ids=PRICED.keys())
def test_bandwidth_sweep_prices_what_it_cannot_build(tmp_path, capsys, recwarn, patch,
                                                     w8g8, fp32):
    cfg_path = _write(tmp_path, "bw", dict(CONFIGS["bandwidth-sweep"], **patch))
    out = tmp_path / "out.csv"
    assert main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out),
                 "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""
    assert len(recwarn) == 0  # no "P exceeds size" warning: no model is built
    header, *rows = _rows(out)
    totals = {row[0]: int(row[header.index("total_bits")]) for row in rows}
    assert totals == {"w8g8": w8g8, "fp32": fp32}


def test_bandwidth_sweep_prices_gpt_scale_layers_in_under_a_second_and_1_mb(tmp_path):
    cfg_path = _write(tmp_path, "bw", dict(CONFIGS["bandwidth-sweep"], **_GPT_SCALE))
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rc = main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out),
                   "--no-timestamp"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert elapsed < 1.0
    assert peak < 2**20


@pytest.mark.parametrize("mode", ["bits", "ratios"])
def test_bandwidth_sweep_builds_no_model(tmp_path, monkeypatch, mode):
    import qsdp.experiments
    import qsdp.sharded
    from qsdp.sharded import ShardedMLP, SimConfig

    cfg = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "configs" / "bandwidth-sweep.json")
        .read_text()
    )
    if mode == "ratios":
        del cfg["configs"]
        cfg.update(mode="ratios", weight_ratios=[1, 2, 4], gradient_ratios=[1, 8])
    cfg_path = _write(tmp_path, "bw", cfg)

    def sweep(name):
        out = tmp_path / f"{name}.csv"
        assert main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out),
                     "--no-timestamp"]) == 0
        return out.read_bytes()

    def trained_ledger(layers, P, quant):  # one step of a built model, one row a worker
        return ShardedMLP(SimConfig(tuple(layers), P, P, 0.05, quant)).train_step(0)[1]

    with monkeypatch.context() as m:
        m.setattr(qsdp.experiments, "step_ledger", trained_ledger)
        built = sweep("built")

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(qsdp.experiments, "ShardedMLP", no_model)
    monkeypatch.setattr(qsdp.sharded, "ShardedMLP", no_model)
    monkeypatch.setattr(np.random, "default_rng", no_model)
    assert sweep("priced") == built


# A fine lattice pitch so small that an iterate has no finite index on it.
SNAP_OVERFLOW = {
    "delta_star-subnormal": {"delta_star": 1e-320},
    # x0 = 0 has an index; the first step, towards the optimum at 1e7, not
    "delta_star-x0-0": {
        "delta_star": 1e-300, "x0": [0.0, 0.0], "linear": [1e7, 1e7], "sigma": 0.0
    },
}


@pytest.mark.parametrize("patch", SNAP_OVERFLOW.values(), ids=SNAP_OVERFLOW.keys())
def test_converge_snap_overflow_exits_3_naming_delta_star(tmp_path, capsys, patch):
    cfg = dict(CONFIGS["converge"], **patch)
    cfg_path = _write(tmp_path, "converge", cfg)
    out = tmp_path / "out.csv"
    rc = main(["converge", "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("qsdp: numerical failure: delta_star")
    assert not out.exists()


def test_learn_levels_with_nothing_to_learn_reports_zero_improvement(tmp_path, capsys):
    # one value per bucket: every bucket is constant and both tables are exact
    cfg = dict(CONFIGS["learn-levels"], num_values=3, bit_width=1, bucket_size=1)
    cfg_path = _write(tmp_path, "learn-levels", cfg)
    out = tmp_path / "out.csv"
    rc = main(["learn-levels", "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    header, row = _rows(out)
    got = dict(zip(header, row))
    assert (got["uniform_rel_err"], got["learned_rel_err"], got["improvement"]) == (
        "0.0", "0.0", "0.0"
    )


def test_learn_levels_with_too_few_distinct_values_still_warns(tmp_path):
    # three values in one bucket against four levels: nothing is learned, but
    # the uniform table is not exact, so the warning is the only sign of it
    cfg = dict(CONFIGS["learn-levels"], num_values=3, bit_width=2, bucket_size=3)
    cfg_path = _write(tmp_path, "learn-levels", cfg)
    out = tmp_path / "out.csv"
    with pytest.warns(RuntimeWarning, match="fewer distinct values than levels"):
        rc = main(["learn-levels", "--config", cfg_path, "--out", str(out), "--no-timestamp"])
    assert rc == 0
    header, row = _rows(out)
    got = dict(zip(header, row))
    assert float(got["uniform_rel_err"]) > 0.0
    assert got["learned_rel_err"] == got["uniform_rel_err"]
    assert got["improvement"] == "0.0"


class _ConfigRead(Exception):
    """Raised in place of `_finish`, so a command stops once its config is read."""


def test_readme_cli_table_names_every_field_each_command_reads(monkeypatch):
    import pathlib
    import re

    import qsdp.experiments

    root = pathlib.Path(__file__).resolve().parents[1]
    table = {}
    for line in (root / "README.md").read_text().splitlines():
        row = re.match(r"\| `([a-z-]+)` \|", line)
        if row:
            table[row.group(1)] = line
    configs = [json.loads(p.read_text()) for p in sorted((root / "configs").glob("*.json"))]
    sweep = next(c for c in configs if c["experiment"] == "bandwidth-sweep")
    ratios = {k: v for k, v in sweep.items() if k != "configs"}
    configs.append(dict(ratios, mode="ratios", weight_ratios=[1, 2], gradient_ratios=[1]))

    take, read = qsdp.experiments._take, []

    def recording_take(cfg, used, key, *args, **kwargs):
        read.append(key)
        return take(cfg, used, key, *args, **kwargs)

    def stop(cfg, used):
        raise _ConfigRead

    monkeypatch.setattr(qsdp.experiments, "_take", recording_take)
    monkeypatch.setattr(qsdp.experiments, "_finish", stop)
    missing = []
    for cfg in configs:
        command = cfg["experiment"]
        read.clear()
        with pytest.raises(_ConfigRead):
            qsdp.experiments.dispatch(command, cfg)
        assert read
        missing += [f"{command}: {key}" for key in read if f"`{key}`" not in table[command]]
    assert missing == []
