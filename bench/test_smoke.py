"""Smoke tests of the benchmark itself, at a tiny size per workload.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("train_accept", "train_wide_tax", "serve_mixed")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def smoke(workload, seed=5, trace=0):
    proc, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, kind):
    result = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared(kind)
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_repeats_final_loss_bitwise_across_processes():
    losses = []
    for _ in range(2):
        smoke("train_wide_tax", seed=9)
        details = json.loads((ROOT / ".bench_out" / "train_wide_tax-seed9-trace0-smoke.json")
                             .read_text())["details"]
        losses.append(details["final_train_loss"])
        assert set(details["environment"]) >= {"git_sha", "python", "numpy", "blas", "nproc"}
    assert losses[0] == losses[1]


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from ahmca import training
    import run

    real = training.predict

    def broken(model, doc, **kwargs):
        out = real(model, doc, **kwargs)
        out["fused_scores"] = np.full_like(out["fused_scores"], np.nan)
        return out

    monkeypatch.setattr(training, "predict", broken)
    assert run.main(["--workload", "serve_mixed", "--seconds", "1", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench("--workload", "train_accept", "--seed", "1", "--seconds", "1",
                        cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_missing_layer_is_reported_absent(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer

    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (
        ("ahmca.model", "renamed_away", "gone.fwd", None),
        ("ahmca.model", "Model.renamed_away", "gone.bwd", None),
    ))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["gone.fwd", "gone.bwd"]


def test_self_time_subtracts_direct_children():
    sys.path.insert(0, str(HERE))
    from tracer import self_times

    spans = [["a", 0.0, 10.0, -1, ""], ["b", 1.0, 4.0, 0, ""],
             ["c", 2.0, 3.0, 1, ""], ["d", 5.0, 6.0, 0, ""]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_rescaling_divides_times_and_multiplies_rates_by_the_phase_factor():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    raw = {"setup_s": 1.0, "peak_rss_mb": 80.0, "train_docs_per_s": 100.0, "epoch_s": 10.0,
           "step_ms_p50": 200.0, "step_ms_p90": 250.0, "predict_ms_p50": 5.0,
           "predict_ms_p95": 8.0, "predict_docs_per_s": 200.0, "eval_docs_per_s": 150.0}
    factors = {"run": 2.0, "train": 1.25, "serve": 0.5, "eval": 4.0}
    out = workloads.rescaled(raw, factors)
    assert out == {"setup_s": 0.5, "peak_rss_mb": 80.0, "train_docs_per_s": 125.0,
                   "epoch_s": 8.0, "step_ms_p50": 160.0, "step_ms_p90": 200.0,
                   "predict_ms_p50": 10.0, "predict_ms_p95": 16.0,
                   "predict_docs_per_s": 100.0, "eval_docs_per_s": 600.0}


def test_one_command_prints_every_metric_of_every_workload():
    proc, lines = bench("--workload", "all", "--seed", "2", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = {tuple(line.split()[:2]) + (line.split()[-1],) for line in lines}
    for workload in NAMES:
        for name, unit in declared("end_to_end").items():
            assert (workload, name, unit) in printed
