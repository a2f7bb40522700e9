#!/usr/bin/env python3
"""ahmca benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train_accept --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Workloads (see workloads.py):

- ``train_accept``: the acceptance gate's spec and default config; the
  BiLSTM encoder does most of the work.
- ``train_wide_tax``: an 8/64/256-label taxonomy over ~9-token documents;
  label matrices and the head dominate, the encoder barely shows.
- ``serve_mixed``: a checkpointed acceptance model serving held-out
  queries of 8 to 256 tokens (log-uniform), forward only.

With ``--trace 0`` the last line holds the end-to-end metrics, measured
with nothing wrapped but a clock on ``Adam.step`` and, during
``evaluate_model``, a copy of each document's scores.  Timings are rescaled
by the host's speed during the run, measured by a probe that runs between
units of work (see workloads.py); the details file keeps the raw values
and the factor.  With ``--trace 1`` the
public layer functions are wrapped in span recorders (tracer.py) and the
last line holds the per-layer metrics; the spans are written to
``.bench_out/``.  The exit code is 0 only when every correctness check
passed; without an importable ``src/ahmca`` it exits non-zero and prints
no result.
"""

import os

# Pinned before NumPy loads: the matrices are small, so one BLAS thread is
# both the fastest and the steadiest setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
NAMES = ("train_accept", "train_wide_tax", "serve_mixed")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_docs_per_s": "docs/s",
    "epoch_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "predict_ms_p50": "ms",
    "predict_ms_p95": "ms",
    "predict_docs_per_s": "docs/s",
    "eval_docs_per_s": "docs/s",
}

PER_LAYER = {
    "encoder.fwd_s": "s",
    "encoder.bwd_s": "s",
    "encoder.fwd_us_per_token": "us",
    "encoder.bwd_us_per_token": "us",
    "encoder.share": "ratio",
    "numerics.sigmoid_calls_per_token": "count",
    "embedding.label_mats_s": "s",
    "embedding.label_mats_share": "ratio",
    "embedding.label_mats_per_step": "count",
    "model.glue_s": "s",
    "hmcn.fwd_s": "s",
    "hmcn.loss_s": "s",
    "hmcn.bwd_s": "s",
    "attention.fwd_s": "s",
    "attention.bwd_s": "s",
    "attention.degenerate_fallbacks": "count",
    "training.adam_s": "s",
    "training.train_self_s": "s",
    "training.eval_s": "s",
    "training.decode_s": "s",
    "training.ckpt_load_s": "s",
    "training.ckpt_bytes": "bytes",
    "corpus.gen_s": "s",
    "trace.timed_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent_layers": "count",
}


def _import_package():
    """Import ahmca from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import ahmca
    except ImportError as e:
        sys.exit(f"bench: cannot import ahmca from {src}: {e}")
    if Path(ahmca.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: ahmca resolved to {ahmca.__file__}, not {src}")


def environment():
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_one(args):
    import workloads

    metrics, details, book, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    details["environment"] = environment()
    details["attempted"], details["failed"] = book.attempted, book.failed
    details["fail_frac"] = book.failed / max(1, book.attempted)
    details["problems"] = book.problems

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "metrics": metrics},
                                                 indent=1, default=float))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))

    for problem in book.problems:
        print(f"FAILED CHECK: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    correct = metrics is not None and book.failed == 0
    out = {}
    for name, unit in units.items():
        value = float(metrics[name]) if metrics is not None else 0.0
        out[name] = {"value": value, "unit": unit}
        print(f"{args.workload:15s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:15s} {'fail_frac':34s} {details['fail_frac']:14.6g} ratio")
    print(f"details: {OUT / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": max(1, book.attempted),
                      "failed": book.failed, "metrics": out}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process; one table of every metric."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:15s} produced no result (exit {proc.returncode})")
            status = 1
            continue
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15s} {'fail_frac':34s} "
              f"{result['failed'] / result['attempted']:14.6g} ratio")
        if proc.returncode != 0 or not result["correct"]:
            print(f"{name:15s} FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: checks that every metric is emitted")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
