import csv
import hashlib
import json
import math
import pathlib

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
        "benchmark_samples": 20000,
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
        "batch": 8,
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
        "batch": 8,
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
    "converge.json": "5dc161b7f8bacbb287c7b38e905b4a08b468a310bf0fa1d4adf867faf1b5f82e",
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

MALFORMED = [
    ("converge", {"gradient_bits": 17}, "gradient_bits"),
    ("converge", {"gradient_bits": 0}, "gradient_bits"),
    ("converge", {"gradient_bits": True}, "gradient_bits"),
    ("converge", {"linear": [0.0]}, "linear"),
    ("converge", {"linear": [0.0, 0.0, 0.0]}, "linear"),
    ("converge", {"benchmark_samples": True}, "benchmark_samples"),
    ("converge", {"benchmark_seed": False}, "benchmark_seed"),
    ("converge", {"budget_draws": 1, "gradient_bits": 4}, "budget_draws"),
    ("converge", {"budget_draws": True, "gradient_bits": 4}, "budget_draws"),
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
    ("bandwidth-sweep", {"seed": -1}, "seed"),
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


def test_bandwidth_sweep_checks_every_config_before_computing(tmp_path, monkeypatch):
    import qsdp.experiments

    steps = []
    monkeypatch.setattr(qsdp.experiments, "_sim", lambda *a: steps.append(a))
    configs = [{"label": "ok", "weights": 8}, {"label": "bad", "weights": 17}]
    cfg_path = _write(tmp_path, "bw", dict(CONFIGS["bandwidth-sweep"], configs=configs))
    out = tmp_path / "out.csv"
    rc = main(["bandwidth-sweep", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert steps == []
    assert not out.exists()


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
}


@pytest.mark.parametrize("command,patch,field", EXTREME.values(), ids=EXTREME.keys())
def test_extreme_config_numbers_exit_3_before_any_seed_runs(
    tmp_path, capsys, monkeypatch, command, patch, field
):
    import qsdp.experiments

    runs = []
    monkeypatch.setattr(qsdp.experiments, "run", lambda *a, **k: runs.append(a))
    cfg_path = _write(tmp_path, command, dict(CONFIGS[command], **patch))
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
