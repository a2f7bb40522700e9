"""The public surface: every exported name resolves, and a demo that uses
the package API runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import ahmca

ROOT = Path(__file__).resolve().parent.parent


def test_exports_and_attention_demo():
    ns = {}
    exec("from ahmca import *", ns)
    missing = [name for name in ahmca.__all__ if name not in ns]
    assert not missing, f"exported but not importable: {missing}"

    src = str(Path(ahmca.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "02_attention_walkthrough.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "level embeddings x^0..x^2" in proc.stdout
