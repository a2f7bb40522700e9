"""Span recorder for the traced benchmark run.

The tracer wraps the public layer functions of ``ahmca`` from the outside;
the package itself is not edited.  Every call becomes a span (name, start,
end, parent, unit) kept in memory, and the per-layer metrics are derived
from the spans when the run ends.  A layer whose function the package no
longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name, extra measurement).  The attribute is looked
# up where the caller resolves it: ``ahmca.model`` calls the encoder,
# attention and head functions through its own module globals, and
# ``ahmca.training`` calls ``evaluate_model`` through its own.
LAYERS = (
    ("ahmca.model", "bilstm_encode", "encoder.fwd", "rows"),
    ("ahmca.model", "bilstm_backward", "encoder.bwd", "rows"),
    ("ahmca.model", "attention_forward", "attention.fwd", None),
    ("ahmca.model", "attention_backward", "attention.bwd", None),
    ("ahmca.model", "head_forward", "hmcn.fwd", None),
    ("ahmca.model", "head_loss", "hmcn.loss", None),
    ("ahmca.model", "head_backward", "hmcn.bwd", None),
    ("ahmca.model", "Model.label_matrices", "embedding.label_mats", None),
    ("ahmca.model", "Model.forward", "model.forward", None),
    ("ahmca.model", "Model.loss_and_grads", "model.loss_and_grads", None),
    ("ahmca.training", "Adam.step", "training.adam", "step"),
    ("ahmca.training", "train", "training.train", None),
    ("ahmca.training", "evaluate_model", "training.eval", "eval"),
    ("ahmca.training", "predict", "training.predict", None),
    ("ahmca.training", "save_checkpoint", "training.ckpt_save", "bytes"),
    ("ahmca.training", "load_checkpoint", "training.ckpt_load", None),
    ("ahmca.training", "Checkpoint.build_model", "training.ckpt_build", None),
    ("ahmca.corpus", "generate_synthetic", "corpus.gen", None),
)

# Functions only counted: a span per call would cost more than the call.
COUNTED = (
    ("ahmca.encoder", "sigmoid", "numerics.sigmoid"),
)

# Spans the benchmark itself opens around its timed phases.
PHASES = ("bench.train", "bench.serve", "bench.eval")


def _resolve(module, path):
    """(owner, attribute) for a dotted attribute path, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _rows(arg):
    """Token rows in an encoder argument: one matrix, or a list of them."""
    shape = getattr(arg, "shape", None)
    if shape:
        return shape[0]
    if isinstance(arg, (list, tuple)):
        return sum(_rows(a) for a in arg)
    return 0


class Tracer:
    """Records spans while installed (``with tracer:``).

    ``spans`` holds ``[name, start, end, parent, unit]`` lists, where
    ``parent`` is the index of the enclosing span or -1, and ``unit`` names
    the optimizer step, query or evaluation pass the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.rows = Counter()
        self.ckpt_bytes = 0
        self.absent = []
        self.unit = ""
        self._steps = 0
        self._stack = []
        self._saved = []

    # --- installing -------------------------------------------------------

    def __enter__(self):
        self.absent = []
        for module, path, name, extra in LAYERS:
            self._patch(module, path, name, lambda fn: self._spanned(fn, name, extra))
        for module, path, name in COUNTED:
            self._patch(module, path, name, lambda fn: self._counted(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, module, path, name, make):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        owner, attr = found
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    # --- recording --------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_unit = tracer.unit
            if extra == "eval":
                tracer.unit = "eval"
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.unit = outer_unit
            if extra == "rows" and args:
                tracer.rows[name] += _rows(args[0])
            elif extra == "bytes":
                tracer.ckpt_bytes = len(out)
            elif extra == "step":
                tracer._steps += 1
                tracer.unit = f"step:{tracer._steps}"
            return out

        return traced

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "unit"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "rows": dict(self.rows),
            "absent": self.absent,
        }


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(tracer, fallbacks, overhead_s, untraced_unit_s):
    """Per-layer metrics of a traced run.

    ``fallbacks`` is the number of degenerate-attention warnings captured;
    ``overhead_s`` is the traced minus the untraced wall time of the same
    unit of work, and ``untraced_unit_s`` the untraced time of that unit.
    """
    spans = tracer.spans

    selfs = self_times(spans)
    total, self_total, calls = Counter(), Counter(), Counter()
    for (name, start, end, _, _), own in zip(spans, selfs):
        total[name] += end - start
        self_total[name] += own
        calls[name] += 1

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    timed_s = sum(total[p] for p in PHASES)
    # Time inside the outermost layer spans of the timed phases.  train()
    # itself is not counted, so its own loop shows up as uncovered time.
    covered = 0.0
    label_mats_in_steps = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        up = list(ancestors(i))
        if not any(p in PHASES for p in up):
            continue
        if (name not in PHASES and name != "training.train"
                and all(p in PHASES or p == "training.train" for p in up)):
            covered += end - start
        if (name == "embedding.label_mats" and "training.train" in up
                and "training.eval" not in up):
            label_mats_in_steps += 1
    setups = sum(1 for s in spans if s[0] == "bench.setup")
    gen_in_setup = sum(
        end - start for i, (name, start, end, _, _) in enumerate(spans)
        if name == "corpus.gen" and "bench.setup" in ancestors(i))

    def ratio(num, den):
        return num / den if den else 0.0

    fwd_tokens = tracer.rows["encoder.fwd"]
    encoder_s = total["encoder.fwd"] + total["encoder.bwd"]
    return {
        "encoder.fwd_s": total["encoder.fwd"],
        "encoder.bwd_s": total["encoder.bwd"],
        "encoder.fwd_us_per_token": 1e6 * ratio(total["encoder.fwd"], fwd_tokens),
        "encoder.bwd_us_per_token": 1e6 * ratio(total["encoder.bwd"], tracer.rows["encoder.bwd"]),
        "encoder.share": ratio(encoder_s, timed_s),
        "numerics.sigmoid_calls_per_token": ratio(tracer.counts["numerics.sigmoid"], fwd_tokens),
        "embedding.label_mats_s": total["embedding.label_mats"],
        "embedding.label_mats_share": ratio(total["embedding.label_mats"], timed_s),
        "embedding.label_mats_per_step": ratio(label_mats_in_steps, calls["training.adam"]),
        "model.glue_s": self_total["model.forward"] + self_total["model.loss_and_grads"],
        "hmcn.fwd_s": total["hmcn.fwd"],
        "hmcn.loss_s": total["hmcn.loss"],
        "hmcn.bwd_s": total["hmcn.bwd"],
        "attention.fwd_s": total["attention.fwd"],
        "attention.bwd_s": total["attention.bwd"],
        "attention.degenerate_fallbacks": fallbacks,
        "training.adam_s": total["training.adam"],
        "training.train_self_s": self_total["training.train"],
        "training.eval_s": total["training.eval"],
        "training.decode_s": self_total["training.predict"],
        "training.ckpt_load_s": ratio(total["training.ckpt_load"] + total["training.ckpt_build"],
                                      calls["training.ckpt_load"]),
        "training.ckpt_bytes": tracer.ckpt_bytes,
        "corpus.gen_s": ratio(gen_in_setup, setups),
        "trace.timed_s": timed_s,
        "trace.coverage": ratio(covered, timed_s),
        "trace.overhead_s": overhead_s,
        "trace.overhead_frac": ratio(overhead_s, untraced_unit_s),
        "trace.absent_layers": len(tracer.absent),
    }
