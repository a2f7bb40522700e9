"""The benchmark workloads: inputs, timed phases and correctness checks.

Every workload is a closed loop with one client in one process:

1. a reference training whose final loss must repeat bitwise and match
   the value recorded in ``reference.json``;
2. a warm-up on a slice of the workload's own inputs;
3. rounds, each of them:
   - one ``train()`` epoch;
   - set-up, repeated: data generation, then the trained checkpoint
     through ``save_checkpoint`` -> ``load_checkpoint`` -> ``build_model``;
   - ``predict()`` on one query after another for the round's share of
     ``--seconds`` (the first round also finishes one pass over the pool);
   - ``evaluate_model`` over the round's slice of the query pool.

The machine's speed drifts within seconds, so the phases take turns
instead of running one after the other: every metric then samples the
whole run, not one stretch of it.  The package is driven only through its
public API and is never edited.
"""

from __future__ import annotations

import json
import math
import resource
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ahmca import corpus as corpus_mod
from ahmca import training
from ahmca.corpus import Corpus, SynthSpec
from ahmca.training import TrainConfig

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent

ACCEPT_SPEC = SynthSpec(level_sizes=(4, 16), docs_per_leaf=100, doc_length=30,
                        keywords_per_doc=3, leaf_vocab_size=120, noise_rate=0.2,
                        seed=0, embedding_dim=32)
WIDE_SPEC = SynthSpec(level_sizes=(8, 64, 256), docs_per_leaf=3, doc_length=6,
                      keywords_per_doc=3, leaf_vocab_size=20, noise_rate=0.2,
                      seed=0, embedding_dim=32)
TINY_SPEC = SynthSpec(level_sizes=(2, 4), docs_per_leaf=6, doc_length=8,
                      keywords_per_doc=2, leaf_vocab_size=8, noise_rate=0.2,
                      seed=0, embedding_dim=8)
TINY_WIDE_SPEC = SynthSpec(level_sizes=(2, 4, 8), docs_per_leaf=3, doc_length=4,
                           keywords_per_doc=2, leaf_vocab_size=6, noise_rate=0.2,
                           seed=0, embedding_dim=8)
TINY_CFG = TrainConfig(k=8, g=16, d_L=16, batch_size=4)

# Fixed-seed training whose final loss is checked against reference.json.
REFERENCE_SPEC = replace(TINY_SPEC, seed=123)
REFERENCE_CFG = replace(TINY_CFG, epochs=2, seed=123)


@dataclass(frozen=True)
class Workload:
    spec: SynthSpec          # the seed is replaced by --seed
    cfg: TrainConfig         # the seed is replaced by --seed; one epoch per train()
    rounds: int              # each round trains one epoch, then sets up, serves, evaluates
    serve_share: float       # share of --seconds spent in predict(), over all rounds
    setup_reps: int          # set-ups per round
    train_docs: int = 0      # train on this many training documents (0: all)
    val_docs: int = 0        # validate on this many (0: all)
    queries: tuple = ()      # (count, shortest, longest) ragged queries; () = test split


WORKLOADS = {
    # The acceptance gate's spec and config: the BiLSTM does most of the work.
    "train_accept": Workload(ACCEPT_SPEC, TrainConfig(), rounds=2,
                             serve_share=0.3, setup_reps=4),
    # 328 labels over ~9-token documents: label matrices and head dominate.
    "train_wide_tax": Workload(WIDE_SPEC, TrainConfig(), rounds=3,
                               serve_share=0.35, setup_reps=3),
    # Forward-only reads of a checkpointed acceptance model on ragged queries;
    # the short training only produces the model being served.
    "serve_mixed": Workload(ACCEPT_SPEC, TrainConfig(), rounds=4,
                            serve_share=0.7, setup_reps=1, train_docs=160, val_docs=64,
                            queries=(400, 8, 256)),
}

# The same workloads at a size that runs in about a second each.
SMOKE = {
    "train_accept": Workload(TINY_SPEC, TINY_CFG, rounds=1,
                             serve_share=0.0, setup_reps=2),
    "train_wide_tax": Workload(TINY_WIDE_SPEC, TINY_CFG, rounds=2,
                               serve_share=0.0, setup_reps=1),
    "serve_mixed": Workload(TINY_SPEC, TINY_CFG, rounds=2, serve_share=0.0,
                            setup_reps=1, train_docs=8, val_docs=4, queries=(12, 8, 32)),
}


class Book:
    """Operations attempted and failed, with a note per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._ok = True

    def check(self, ok, what):
        """A correctness check inside the current operation."""
        if not ok:
            self._ok = False
            self.problems.append(what)

    @contextmanager
    def op(self, what):
        """One operation: it fails if it raises or any of its checks fails."""
        self._ok = True
        try:
            yield
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what} raised")
        self.attempted += 1
        self.failed += not self._ok


@dataclass
class Data:
    tax: object
    table: object
    train: Corpus
    val: Corpus
    pool: Corpus            # queries for predict() and evaluate_model


# The host's speed drifts with other tenants' load, by up to 1.8x between
# runs on a shared two-vCPU machine.  A fixed probe, independent of ahmca and
# mixing small NumPy calls with interpreter-bound work like the package does,
# runs between units of work of each phase (after each optimizer step, every
# fifth query or evaluated document, after each set-up).  A phase's mean probe
# time against the reference probe time in reference.json rescales the
# timings of that phase; the raw timings are kept in the details file.
_PROBE_W = np.random.default_rng(0).standard_normal((128, 32)).astype(np.float32)


def _probe_kernel():
    x = _PROBE_W[0, :32].copy()
    for _ in range(150):
        x = np.tanh(_PROBE_W @ x)[:32] * 0.5 + 0.5 * x
    counts = {}
    for i in range(2500):
        counts[i % 97] = counts.get(i % 97, 0) + i


@dataclass
class Tally:
    """Raw samples of one run; times in seconds, probe time excluded."""
    epoch: list = field(default_factory=list)     # train() call to its epoch log line
    train: list = field(default_factory=list)     # train() call to its last optimizer step
    step: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    train_docs: int = 0
    setup: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    serve_wall: float = 0.0
    top1: list = field(default_factory=list)      # predict() top-1 leaf per pool document
    eval_s: float = 0.0
    eval_docs: int = 0
    probes: dict = field(default_factory=dict)    # phase -> probe kernel times
    probing: bool = True                          # off in traced runs
    paused: float = 0.0                           # wall time spent in probes

    def now(self):
        return time.perf_counter() - self.paused

    def probe(self, phase):
        if self.probing:
            t0 = time.perf_counter()
            _probe_kernel()
            elapsed = time.perf_counter() - t0
            self.probes.setdefault(phase, []).append(elapsed)
            self.paused += elapsed


def _part(c: Corpus, docs):
    return Corpus(documents=tuple(docs), taxonomy_hash=c.taxonomy_hash)


def _every(c: Corpus, n):
    """n documents spread evenly over a corpus (split() groups by leaf)."""
    if not n or n >= len(c):
        return c
    return _part(c, c.documents[::len(c) // n][:n])


def ragged_queries(spec: SynthSpec, count, shortest, longest, seed):
    """Held-out documents whose token counts are log-uniform in
    [shortest, longest].  Lengths are stratified (one per equal-probability
    slice), so every seed gets the same length profile in a new order."""
    _, pool, _ = corpus_mod.generate_synthetic(replace(
        spec, seed=seed + 1, doc_length=longest - spec.keywords_per_doc,
        docs_per_leaf=math.ceil(count / spec.level_sizes[-1])))
    rng = np.random.default_rng(seed)
    u = (np.arange(count) + rng.random(count)) / count
    lengths = np.rint(shortest * (longest / shortest) ** u).astype(int)
    picks = rng.permutation(len(pool))[:count]
    docs = []
    for length, j in zip(rng.permutation(lengths), picks):
        doc = pool.documents[j]
        body = (doc.title_tokens + doc.abstract_tokens)[:max(1, length - len(doc.keywords))]
        docs.append(replace(doc, title_tokens=body[:5], abstract_tokens=body[5:]))
    return _part(pool, docs)


def make_data(wl: Workload, seed) -> Data:
    tax, corpus, table = corpus_mod.generate_synthetic(replace(wl.spec, seed=seed))
    tr, va, te = corpus_mod.split(corpus, (3, 1, 1), seed=seed)
    pool = ragged_queries(wl.spec, *wl.queries, seed) if wl.queries else te
    return Data(tax, table, _every(tr, wl.train_docs), _every(va, wl.val_docs), pool)


@contextmanager
def _patched(owner_name, attr, make):
    """Replace ``ahmca.training.<owner>.<attr>`` for the block; yields
    False (and patches nothing) when the package no longer has it."""
    owner = getattr(training, owner_name, None)
    fn = getattr(owner, attr, None)
    if fn is None:
        yield False
        return
    setattr(owner, attr, make(fn))
    try:
        yield True
    finally:
        setattr(owner, attr, fn)


def _clocked(tally, ends):
    def make(step):
        def clocked_step(self, *args, **kwargs):
            out = step(self, *args, **kwargs)
            ends.append(tally.now())
            tally.probe("train")
            return out
        return clocked_step
    return make


def _capturing(tally, scores):
    def make(predict_scores):
        def capturing(self, doc):
            pred = predict_scores(self, doc)
            scores.append(pred.fused_scores)
            if len(scores) % 5 == 0:
                tally.probe("eval")
            return pred
        return capturing
    return make


# --- phases -----------------------------------------------------------------

def reference_check(book: Book):
    """Train the fixed reference twice: the final loss and checkpoint must
    repeat bitwise and stay within the recorded tolerance."""
    ref = json.loads((HERE / "reference.json").read_text())
    want = ref["final_train_loss"]
    with book.op("reference training"):
        tax, corpus, table = corpus_mod.generate_synthetic(REFERENCE_SPEC)
        tr, va, _ = corpus_mod.split(corpus, (3, 1, 1), seed=REFERENCE_SPEC.seed)
        runs = []
        for _ in range(2):
            ckpt, hist = training.train(REFERENCE_CFG, tr, va, tax, table)
            runs.append((hist.records[-1]["train_loss"], training.save_checkpoint(ckpt)))
        (loss, blob), (loss2, blob2) = runs
        book.check(loss == loss2 and blob == blob2, "reference training not bitwise repeatable")
        book.check(abs(loss - want) <= ref["rtol"] * abs(want),
                   f"reference loss {loss!r} not within rtol {ref['rtol']} of {want!r}")


def warmup(data: Data, cfg: TrainConfig):
    """One short training and a few queries at the workload's own shapes."""
    ckpt, _ = training.train(cfg, _part(data.train, data.train.documents[:2 * cfg.batch_size]),
                             _part(data.val, data.val.documents[:8]), data.tax, data.table)
    model, _ = ckpt.build_model()
    for doc in data.pool.documents[:8]:
        training.predict(model, doc)
    training.evaluate_model(model, _part(data.pool, data.pool.documents[:8]), ks=(1,))


def train_epoch(data: Data, cfg: TrainConfig, tally: Tally, book: Book):
    """One train() call of one epoch; returns its checkpoint (None if it failed)."""
    ends, logged = [], []
    with book.op("training epoch"), _patched("Adam", "step", _clocked(tally, ends)) as clocked:
        t0 = tally.now()
        ckpt, hist = training.train(cfg, data.train, data.val, data.tax, data.table,
                                    log=lambda _msg: logged.append(tally.now()))
        epoch_end = logged[0] if logged else tally.now()
        steps = ends if clocked else [epoch_end]
        tally.epoch.append(epoch_end - t0)
        tally.train.append(steps[-1] - t0)
        tally.step.extend(np.diff([t0] + steps))
        tally.train_docs += len(data.train)
        loss = hist.records[-1]["train_loss"]
        # train() raises on a non-finite step loss; the mean is finite iff all are.
        book.check(math.isfinite(loss), f"train loss {loss!r} not finite")
        if tally.losses:
            book.check(loss == tally.losses[0],
                       f"train loss {loss!r} differs from the first epoch's {tally.losses[0]!r}")
        tally.losses.append(loss)
        return ckpt
    return None


def setup(wl: Workload, seed, ckpt, tally: Tally, book: Book):
    """Timed set-up; the checkpoint round trip is checked outside the timing.
    Returns (data, model), or None if it failed."""
    with book.op("set-up"):
        t0 = tally.now()
        data = make_data(wl, seed)
        blob = training.save_checkpoint(ckpt)
        loaded = training.load_checkpoint(blob)
        model, _ = loaded.build_model()
        tally.setup.append(tally.now() - t0)
        book.check(training.save_checkpoint(loaded) == blob,
                   "checkpoint save -> load -> save is not byte-identical")
        tally.probe("setup")
        return data, model
    return None


def serve(model, pool: Corpus, budget, tally: Tally, book: Book, tracer=None):
    """Closed loop, one client: the next query is sent when the last returns.
    Runs for ``budget`` seconds and at least until the pool was seen once."""
    docs = pool.documents
    start = tally.now()
    while len(tally.latency) < len(docs) or tally.now() - start < budget:
        i = len(tally.latency)
        if tracer is not None:
            tracer.unit = f"query:{i}"
        with book.op("predict"):
            t0 = tally.now()
            try:
                out = training.predict(model, docs[i % len(docs)])
            finally:
                tally.latency.append(tally.now() - t0)
            scores = out["fused_scores"]
            book.check(bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
                       f"query {i}: fused score not finite or outside [0, 1]")
            if i < len(docs):
                tally.top1.append(out["top_leaves"][0][0])
        if i % 5 == 4:
            tally.probe("serve")
    if tracer is not None:
        tracer.unit = ""
    tally.serve_wall += tally.now() - start


def evaluate(model, pool: Corpus, start, stop, tally: Tally, book: Book):
    """evaluate_model over pool[start:stop]; its top-1 leaf per document
    must equal predict()'s."""
    part = _part(pool, pool.documents[start:stop])
    top1 = tally.top1[start:stop]
    scores = []
    with book.op("evaluate_model"):
        with _patched("Model", "predict_scores", _capturing(tally, scores)) as captured:
            t0 = tally.now()
            report = training.evaluate_model(model, part, ks=(1,))
            tally.eval_s += tally.now() - t0
        tally.eval_docs += len(part)
        tax = model.tax
        leaves = tax.labels_at_level(tax.depth)
        if captured and len(scores) == len(part) == len(top1):
            lo = sum(tax.level_sizes()[:-1])
            wrong = sum(leaves[int(np.argmax(s[lo:]))] != t for s, t in zip(scores, top1))
            book.check(wrong == 0, f"{wrong} documents: predict top-1 != evaluate_model argmax")
        else:
            # evaluate_model no longer goes through predict_scores: compare P@1.
            hits = sum(t in d.leaf_labels for t, d in zip(top1, part.documents))
            book.check(len(top1) == len(part) and report.p_at_k[1] == hits / len(part),
                       "evaluate_model P@1 disagrees with predict top-1")


# --- one run ----------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(tally: Tally):
    """Metrics as measured on this host, before rescaling."""
    return {
        "setup_s": float(np.median(tally.setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_docs_per_s": tally.train_docs / sum(tally.train),
        "epoch_s": float(np.median(tally.epoch)),
        "step_ms_p50": 1e3 * _pct(tally.step, 50),
        "step_ms_p90": 1e3 * _pct(tally.step, 90),
        "predict_ms_p50": 1e3 * _pct(tally.latency, 50),
        "predict_ms_p95": 1e3 * _pct(tally.latency, 95),
        "predict_docs_per_s": len(tally.latency) / tally.serve_wall,
        "eval_docs_per_s": tally.eval_docs / tally.eval_s,
    }


# The phase whose probes rescale each end-to-end metric.  A set-up is too
# short to average its own probes, so it takes the whole run's.
PHASE_OF = {
    "setup_s": "run",
    "train_docs_per_s": "train", "epoch_s": "train",
    "step_ms_p50": "train", "step_ms_p90": "train",
    "predict_ms_p50": "serve", "predict_ms_p95": "serve", "predict_docs_per_s": "serve",
    "eval_docs_per_s": "eval",
}


def host_factors(tally: Tally):
    """Per phase, how much slower the host ran than when reference.json was
    recorded (1.0 where the phase took no probes)."""
    ref = json.loads((HERE / "reference.json").read_text())["probe_s"]
    probes = dict(tally.probes, run=[t for times in tally.probes.values() for t in times])
    return {phase: float(np.mean(probes[phase])) / ref if probes.get(phase) else 1.0
            for phase in set(PHASE_OF.values())}


def rescaled(raw, factors):
    """Timings as the reference host would have measured them."""
    out = dict(raw)
    for name, phase in PHASE_OF.items():
        f = factors[phase]
        out[name] = raw[name] * f if name.endswith("_per_s") else raw[name] / f
    return out


@contextmanager
def _phase(tracer, name):
    """A timed phase: traced (wrappers installed, one span) when tracing."""
    if tracer is None:
        yield
        return
    with tracer, tracer.span(name):
        yield


def run(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (metrics or None, details, book, tracer).
    metrics is None when a phase failed so badly that the run had to stop."""
    wl = (SMOKE if smoke else WORKLOADS)[name]
    cfg = replace(wl.cfg, seed=seed, epochs=1)
    book, tally = Book(), Tally(probing=not trace)
    tracer = Tracer() if trace else None
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "smoke": smoke}

    reference_check(book)
    data = make_data(wl, seed)
    with book.op("warm-up"):
        warmup(data, cfg)

    # Tracing overhead: one unit of work untraced here, the same unit traced
    # below -- an epoch, or for the serving workload one pass over the pool.
    untraced = Tally(probing=False)
    if trace and not wl.queries:
        train_epoch(data, cfg, untraced, book)

    ckpt = model = None
    slices = np.linspace(0, len(data.pool), wl.rounds + 1).astype(int)
    with warnings.catch_warnings(record=True) as caught:
        if trace:
            warnings.simplefilter("always")
        for r in range(wl.rounds):
            with _phase(tracer, "bench.train"):
                ckpt = train_epoch(data, cfg, tally, book) or ckpt
            if ckpt is None:
                return None, details, book, tracer
            for _ in range(wl.setup_reps):
                with _phase(tracer, "bench.setup"):
                    data, model = setup(wl, seed, ckpt, tally, book) or (data, model)
            if model is None:
                return None, details, book, tracer
            if trace and wl.queries and r == 0:
                serve(model, data.pool, 0.0, untraced, book)
            with _phase(tracer, "bench.serve"):
                serve(model, data.pool, wl.serve_share * seconds / wl.rounds, tally, book,
                      tracer)
            with _phase(tracer, "bench.eval"):
                evaluate(model, data.pool, slices[r], slices[r + 1], tally, book)
    if len(tally.top1) < len(data.pool) or not tally.eval_docs:
        return None, details, book, tracer

    details.update({
        "epochs": len(tally.epoch), "steps": len(tally.step), "setups": len(tally.setup),
        "queries": len(tally.latency), "pool": len(data.pool),
        "pool_tokens_mean": float(np.mean([len(d.tokens) for d in data.pool])),
        "final_train_loss": tally.losses[-1],
        "degenerate_warnings": sum("degenerate" in str(w.message) for w in caught),
        "samples": {k: v for k, v in asdict(tally).items() if k != "top1"},
    })
    if not trace:
        raw, factors = end_to_end(tally), host_factors(tally)
        details.update({"host_factors": factors, "raw_metrics": raw,
                        "probes": {k: len(v) for k, v in tally.probes.items()}})
        return rescaled(raw, factors), details, book, tracer

    if wl.queries:
        before, after = sum(untraced.latency), sum(tally.latency[:len(data.pool)])
    else:
        before, after = sum(untraced.epoch[:1]), sum(tally.epoch[:1])
    details["absent_layers"] = tracer.absent
    metrics = layer_metrics(tracer, details["degenerate_warnings"], after - before, before)
    return metrics, details, book, tracer
