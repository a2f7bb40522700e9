"""Run the benchmark over a few seeds and record each end-to-end metric's
median and quartiles, so that runs can be compared across commits.

    python3 tools/bench_record.py --label after-arena [--seeds 1 2 3] [--root DIR]

Runs ``python3 bench/run.py --workload W --seed S`` (untraced) in DIR, the
tree this file is in by default, for every workload and seed, one process
per run, and writes BENCH_<label>.json into DIR: per workload, the
quartiles of every metric over the seeds, the runs that were not correct,
and each run's values; and the seeds, the machine, ``git rev-parse HEAD``
with a flag for uncommitted changes to tracked files, and the git tree
hashes of src/ and bench/ as the working tree holds them, which equal
``git rev-parse C:src`` and ``C:bench`` of the commit C that holds the
measured code, committed or not.  A run that prints no result or fails a
correctness check is kept in the record and left out of the quartiles.
The file is all it writes besides what bench/run.py writes and git's
object store.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("train_accept", "train_wide_tax", "serve_mixed")


def git(root, *args, env=None):
    """Output of a git command in root, or None outside a checkout."""
    try:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=60, check=True, env=env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def tree_hashes(root, paths):
    """path -> the git tree hash of path as ``git add -A`` would stage it,
    taken through a temporary index so that root's own is not touched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git(root, "read-tree", "HEAD", env=env)
        git(root, "add", "-A", "--", *paths, env=env)
        tree = git(root, "write-tree", env=env)
    return {path: tree and git(root, "rev-parse", f"{tree}:{path}") for path in paths}


def run(root, workload, seed):
    """The last output line of one bench/run.py process, parsed, with its
    exit code; None for the result when there is none."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        return None, proc.returncode


def summary(runs, units):
    """name -> {median, q1, q3, unit} of every metric over the correct runs."""
    ok = [r["metrics"] for r in runs if r["correct"]]
    out = {}
    for name, unit in units.items():
        q1, median, q3 = np.percentile([m[name] for m in ok], [25, 50, 75]) if ok else [None] * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="source tree whose bench/run.py runs")
    args = ap.parse_args()
    root = args.root.resolve()

    record = {"label": args.label, "seeds": args.seeds,
              "git_head": git(root, "rev-parse", "HEAD"),
              "uncommitted_changes": bool(git(root, "status", "--porcelain",
                                              "--untracked-files=no")),
              "trees": tree_hashes(root, ["src", "bench"]),
              "machine": {"python": platform.python_version(), "numpy": np.__version__,
                          "nproc": os.cpu_count(), "platform": platform.platform()},
              "command": "python3 bench/run.py --workload W --seed S",
              "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        runs, units = [], {}
        for seed in args.seeds:
            result, code = run(root, workload, seed)
            correct = result is not None and result["correct"] and code == 0
            status |= not correct
            metrics = result["metrics"] if result else {}
            units.update((name, m["unit"]) for name, m in metrics.items())
            runs.append({"seed": seed, "correct": correct, "exit": code,
                         "attempted": result and result["attempted"],
                         "failed": result and result["failed"],
                         "metrics": {name: m["value"] for name, m in metrics.items()}})
            print(f"{workload} seed {seed}: {'correct' if correct else 'NOT CORRECT'}",
                  file=sys.stderr)
        record["workloads"][workload] = {
            "metrics": summary(runs, units),
            "not_correct": [r["seed"] for r in runs if not r["correct"]],
            "runs": runs}
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return status


if __name__ == "__main__":
    sys.exit(main())
