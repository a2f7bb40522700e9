"""End-to-end acceptance gate.

Each test_criterion_* function checks one release criterion and prints a
single PASS line when it holds; any assertion failure is the FAIL line.
The synthetic benchmark (criteria 1, 6, 7) is trained once per lambda
setting in module-scoped fixtures.
"""

import dataclasses
import time

import numpy as np
import pytest

from ahmca.attention import attention_forward, token_weights
from ahmca.corpus import SynthSpec, generate_synthetic, split
from ahmca.hmcn import fuse
from ahmca.metrics import macro_f1, macro_precision_recall, precision_at_k
from ahmca.model import Model
from ahmca.numerics import grad_check
from ahmca.training import (
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    save_checkpoint,
    train,
)

BENCH_SPEC = SynthSpec(level_sizes=(4, 16), docs_per_leaf=100, doc_length=30,
                       keywords_per_doc=3, leaf_vocab_size=120, noise_rate=0.2,
                       seed=7, embedding_dim=32)


def _ok(n, msg):
    print(f"\n[PASS] criterion {n}: {msg}")


@pytest.fixture(scope="module")
def bench_data():
    tax, corpus, table = generate_synthetic(BENCH_SPEC)
    tr, va, te = split(corpus, (3, 1, 1), seed=7)
    return tax, table, tr, va, te


@pytest.fixture(scope="module")
def bench_run(bench_data):
    """Criterion-1 training run with default config (beta 0.5, lambda 0.1)."""
    tax, table, tr, va, te = bench_data
    cfg = TrainConfig(seed=7)
    t0 = time.time()
    ckpt, hist = train(cfg, tr, va, tax, table)
    elapsed = time.time() - t0
    model, _ = ckpt.build_model()
    report = evaluate_model(model, te, ks=(1,))
    return {"ckpt": ckpt, "hist": hist, "elapsed": elapsed, "report": report}


@pytest.fixture(scope="module")
def bench_run_no_penalty(bench_data):
    """Same data and seed with the hierarchy penalty disabled."""
    tax, table, tr, va, te = bench_data
    cfg = dataclasses.replace(TrainConfig(seed=7), lambda_=0.0)
    ckpt, _ = train(cfg, tr, va, tax, table)
    model, _ = ckpt.build_model()
    return evaluate_model(model, te, ks=(1,))


def test_criterion_1_synthetic_end_to_end(bench_run):
    rep = bench_run["report"]
    assert rep.macro_f1 >= 0.90, f"held-out macro-F1@1 {rep.macro_f1:.4f} < 0.90"
    assert rep.p_at_k[1] >= 0.90, f"held-out P@1 {rep.p_at_k[1]:.4f} < 0.90"
    assert bench_run["elapsed"] <= 600, f"training took {bench_run['elapsed']:.0f}s"
    _ok(1, f"macro-F1@1={rep.macro_f1:.4f}, P@1={rep.p_at_k[1]:.4f}, "
           f"{bench_run['elapsed']:.0f}s wall clock")


def test_criterion_2_gradient_correctness(tiny_synth):
    tax, corpus, table = tiny_synth
    doc = next(d for d in corpus if len(d.tokens) >= 5)
    t0 = time.time()
    model = Model(tax, table, TrainConfig(k=4, g=8, d_L=8, seed=0), dtype=np.float64)
    rng = np.random.default_rng(1)
    # move biases off their zero init so no relu sits exactly on its kink
    point = {k: v + rng.normal(0, 0.01, v.shape) for k, v in model.params.items()}

    def f(params):
        model.params = params
        (loss,), grads = model.loss_and_grads([doc])
        return loss, grads

    rep = grad_check(f, point, tolerance=1e-3)
    elapsed = time.time() - t0
    assert rep.passed, f"worst relative error {rep.worst:.2e}: {rep.max_rel_error}"
    assert elapsed < 30, f"gradient check took {elapsed:.1f}s"
    _ok(2, f"all parameter groups within 1e-3 (worst {rep.worst:.2e}, "
           f"{elapsed:.1f}s)")


def test_criterion_3_attention_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        q = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        H_fwd = rng.standard_normal((n, k))
        H_bwd = rng.standard_normal((n, k))
        T = rng.standard_normal((q, k))
        # brute-force per-(token, row) oracle
        ref_f = np.array([max(float(np.dot(H_fwd[j], T[l])) for l in range(q))
                          for j in range(n)])
        ref_b = np.array([max(float(np.dot(H_bwd[j], T[l])) for l in range(q))
                          for j in range(n)])
        wf = token_weights(H_fwd, T)
        wb = token_weights(H_bwd, T)
        worst = max(worst, float(np.abs(wf - ref_f).max()),
                    float(np.abs(wb - ref_b).max()))
        for mode in ("sum_normalized", "none", "softmax"):
            if mode == "none":
                nf, nb = ref_f, ref_b
            elif mode == "sum_normalized":
                nf = (np.full(n, 1.0 / n) if abs(ref_f.sum()) <= 1e-8
                      else ref_f / ref_f.sum())
                nb = (np.full(n, 1.0 / n) if abs(ref_b.sum()) <= 1e-8
                      else ref_b / ref_b.sum())
            else:
                ef = np.exp(ref_f - ref_f.max())
                eb = np.exp(ref_b - ref_b.max())
                nf, nb = ef / ef.sum(), eb / eb.sum()
            ref_x = np.concatenate([nf @ H_fwd, nb @ H_bwd])
            x = attention_forward(H_fwd, H_bwd, [T], mode=mode)[0][1]
            worst = max(worst, float(np.abs(x - ref_x).max()))
    assert worst <= 1e-9, f"worst oracle deviation {worst:.2e}"
    _ok(3, f"100 random instances x 3 modes, worst deviation {worst:.2e}")


def test_criterion_4_metrics_oracle():
    # hand fixture: three classes predicted perfectly, one never used
    classes = ["a", "b", "c", "d"]
    sets = [{"a"}, {"b"}, {"c"}]
    p, r = macro_precision_recall(sets, sets, classes)
    assert (p, r) == (0.75, 0.75)
    assert macro_f1(p, r) == 0.75

    rng = np.random.default_rng(99)
    for _ in range(200):
        ncls = int(rng.integers(2, 7))
        cls = ["c%d" % i for i in range(ncls)]
        ndoc = int(rng.integers(1, 8))
        pred = [{c for c in cls if rng.random() < 0.4} for _ in range(ndoc)]
        true = [{c for c in cls if rng.random() < 0.4} for _ in range(ndoc)]
        # independent confusion enumeration
        ps, rs = [], []
        for c in cls:
            tp = sum(1 for a, b in zip(pred, true) if c in a and c in b)
            fp = sum(1 for a, b in zip(pred, true) if c in a and c not in b)
            fn = sum(1 for a, b in zip(pred, true) if c not in a and c in b)
            ps.append(tp / (tp + fp) if tp + fp else 0.0)
            rs.append(tp / (tp + fn) if tp + fn else 0.0)
        got = macro_precision_recall(pred, true, cls)
        assert got == (sum(ps) / ncls, sum(rs) / ncls)

        scores = [rng.uniform(size=ncls) for _ in range(ndoc)]
        truth = [{cls[int(rng.integers(ncls))]} for _ in range(ndoc)]
        k = int(rng.integers(1, ncls + 1))
        want = 0.0
        for s, t in zip(scores, truth):
            top = sorted(range(ncls), key=lambda i: (-s[i], i))[:k]
            want += len({cls[i] for i in top} & t) / k
        assert precision_at_k(scores, truth, k, cls) == want / ndoc
    _ok(4, "200 random fixtures match brute-force enumeration exactly; "
           "hand fixture P=R=0.75 -> F1=0.75")


def test_criterion_5_fusion():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        locals_ = [rng.uniform(size=s) for s in sizes]
        pg = rng.uniform(size=sum(sizes))
        cat = np.concatenate(locals_)
        assert np.array_equal(fuse(locals_, pg, 0.0), pg)
        assert np.array_equal(fuse(locals_, pg, 1.0), cat)
        f = fuse(locals_, pg, 0.5)
        assert np.all(f >= np.minimum(cat, pg) - 1e-12)
        assert np.all(f <= np.maximum(cat, pg) + 1e-12)
    _ok(5, "fusion endpoints exact and betweenness holds elementwise")


def test_criterion_6_hierarchy_consistency(bench_run, bench_run_no_penalty):
    with_pen = bench_run["report"].violation_rate
    without = bench_run_no_penalty.violation_rate
    assert with_pen <= 0.05, f"violation rate {with_pen:.4f} > 5%"
    assert without > with_pen, (
        f"lambda=0 rate {without:.4f} not above lambda=0.1 rate {with_pen:.4f}")
    _ok(6, f"violation rate {with_pen:.4f} with penalty vs {without:.4f} without")


def test_criterion_7_f1_rises_with_iterations(bench_run):
    recs = {r["epoch"]: r["val_macro_f1_at_1"] for r in bench_run["hist"].records}
    assert 10 in recs, "training stopped before epoch 10"
    assert recs[10] > recs[1], f"epoch 10 F1 {recs[10]:.4f} <= epoch 1 {recs[1]:.4f}"
    _ok(7, f"val macro-F1@1 rose from {recs[1]:.4f} (epoch 1) "
           f"to {recs[10]:.4f} (epoch 10)")


def test_criterion_8_determinism_and_persistence(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    cfg = TrainConfig(k=4, g=16, d_L=16, epochs=5, batch_size=4,
                      learning_rate=1e-2, seed=0, early_stop_patience=50)
    runs = [train(cfg, tr, va, tax, table) for _ in range(2)]
    blobs = [save_checkpoint(ck) for ck, _ in runs]
    assert blobs[0] == blobs[1], "checkpoints differ between identical runs"
    assert runs[0][1].to_csv() == runs[1][1].to_csv(), "history files differ"

    reloaded = load_checkpoint(blobs[0])
    assert save_checkpoint(reloaded) == blobs[0], "save/load not bitwise stable"

    m1, _ = runs[0][0].build_model()
    m2, _ = reloaded.build_model()
    r1 = evaluate_model(m1, va, ks=(1, 2))
    r2 = evaluate_model(m2, va, ks=(1, 2))
    assert r1.to_json() == r2.to_json(), "reloaded metrics differ"
    _ok(8, "bitwise-identical checkpoints/history; round-trip and metrics "
           "reproduce exactly")
