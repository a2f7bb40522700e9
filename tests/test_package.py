"""The public surface: every exported name resolves, the demos run to
completion (the package API ones and the command-line pipeline), the
benchmark tracer finds every function it wraps, every byte-hash config
builds, and no module imports a name it never uses."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ahmca

ROOT = Path(__file__).resolve().parent.parent


def _demo_env(**extra):
    src = str(Path(ahmca.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_demo(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=_demo_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exports_and_attention_demo():
    ns = {}
    exec("from ahmca import *", ns)
    missing = [name for name in ahmca.__all__ if name not in ns]
    assert not missing, f"exported but not importable: {missing}"
    assert "level embeddings x^0..x^2" in _run_demo("02_attention_walkthrough.py")


def test_gradient_check_demo():
    assert "->  PASS" in _run_demo("04_gradient_check.py")


def test_synthetic_benchmark_demo():
    assert "docs per leaf" in _run_demo("01_synthetic_benchmark.py")


def test_train_and_evaluate_demo():
    out = _run_demo("03_train_and_evaluate.py")
    assert "held-out metrics:" in out and "consistent label sets per level" in out


def test_cli_pipeline_demo(tmp_path):
    """demos/05_cli_pipeline.sh, once through an `ahmca` command that runs
    this interpreter's ahmca.cli and once with no `ahmca` on PATH, where the
    demo falls back to python3 -m ahmca.cli; its temp directories land under
    tmp_path."""
    with_cmd, without = tmp_path / "with", tmp_path / "without"
    for bin_dir in with_cmd, without:
        bin_dir.mkdir()
        (bin_dir / "python3").symlink_to(sys.executable)
    shim = with_cmd / "ahmca"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ahmca.cli "$@"\n')
    shim.chmod(0o755)
    path = [d for d in os.environ.get("PATH", "").split(os.pathsep)
            if d and not (Path(d) / "ahmca").exists()]
    for bin_dir in with_cmd, without:
        env = _demo_env(PATH=os.pathsep.join([str(bin_dir)] + path), TMPDIR=str(bin_dir))
        proc = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_pipeline.sh")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (bin_dir.name, proc.stderr)
        work = Path(proc.stdout.split("working in ", 1)[1].split("\n", 1)[0])
        assert work.parent == bin_dir and (work / "model.bin").exists()
        assert "done;" in proc.stdout


def test_bench_tracer_layers_resolve():
    """bench/tracer.py wraps package functions by name; a rename must fail
    here rather than show up as an absent layer in a traced run."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [entry[:2] for entry in tracer.LAYERS + tracer.COUNTED]
    absent = [f"{module}.{path}" for module, path in entries
              if tracer._resolve(module, path) is None]
    assert not absent, f"tracer targets missing from the package: {absent}"


def test_byte_hash_configs_build(monkeypatch):
    """tools/byte_hashes.py derives its configs from TrainConfig and the
    bench's; a retired field must fail here rather than at the tool's next
    run.  Every config's data and model are built, without training."""
    from ahmca import corpus
    from ahmca.model import Model
    from ahmca.training import TrainConfig

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # the tool sets it on import
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    spec = importlib.util.spec_from_file_location("byte_hashes", ROOT / "tools" / "byte_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = []
    for name, synth_spec, cfg, make in tool.configs(workloads, TrainConfig):
        tax, _, table = make(synth_spec, workloads, corpus)
        Model(tax, table, cfg)
        names.append(name)
    assert len(set(names)) == len(names) == 8


def test_no_unused_module_imports():
    """Every module-level import in src/ahmca/*.py is used in its module.
    __future__ imports and the __init__.py re-exports are exempt."""
    unused = []
    for path in sorted(Path(ahmca.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports: {unused}"
