import json
from pathlib import Path

import numpy as np
import oracles
import pytest
from oracles import global_predict, global_step, local_predict, loss
from test_acceptance import BENCH_SPEC

from ahmca.errors import DimMismatchError
from ahmca.hmcn import (
    Prediction,
    _affine,
    child_parent_index_pairs,
    fuse,
    head_backward,
    head_forward,
    head_loss,
    head_param_shapes,
    violation_penalty,
)
from ahmca.model import init_params
from ahmca.numerics import grad_check
from ahmca.taxonomy import load_taxonomy
from ahmca.training import TrainConfig


def test_affine_is_bitwise_row_major_product(monkeypatch):
    """_affine issues X W^T + b weight-major, (W X^T)^T + b, for speed; in
    float32 that must give X @ W.T + b bit for bit, C-order, for every head
    weight shape of the acceptance config and of the bench specs, at the
    row counts of one query, a pair, a ragged tail and a batch.  If a NumPy
    or BLAS upgrade fails this, the training and serving bytes move."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    configs = [(BENCH_SPEC, TrainConfig(seed=7)),
               (workloads.REFERENCE_SPEC, workloads.REFERENCE_CFG)]
    configs += [(wl.spec, wl.cfg) for table in (workloads.WORKLOADS, workloads.SMOKE)
                for wl in table.values()]
    shapes = sorted({shape for spec, cfg in configs
                     for shape in head_param_shapes(cfg.k, cfg.g, cfg.d_L,
                                                    spec.level_sizes).values()
                     if len(shape) == 2})
    assert (384, 448) in shapes and (328, 448) in shapes
    rng = np.random.default_rng(0)
    for n, width in shapes:
        W = (rng.uniform(-1, 1, (n, width)) / np.sqrt(width)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, n).astype(np.float32)
        for rows in (1, 2, 12, 16, 64):
            X = np.maximum(rng.standard_normal((rows, width)), 0).astype(np.float32)
            got = _affine(W, b, X)
            assert got.flags.c_contiguous, (n, width, rows)
            assert np.array_equal(got, X @ W.T + b), (n, width, rows)


def test_global_step_zero_weights():
    out = global_step(None, np.ones(4), np.zeros((3, 4)), np.zeros(3))
    assert np.array_equal(out, np.zeros(3))


def test_global_step_concatenation_order():
    A_prev = np.array([1.0, 2.0])
    x = np.array([3.0])
    W = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = global_step(A_prev, x, W, np.zeros(2))
    assert np.array_equal(out, [1.0, 3.0])  # A_prev comes first, then x_h


def test_global_predict_zero_weights_half():
    p = global_predict(np.ones(3), np.ones(2), np.zeros((5, 5)), np.zeros(5))
    assert np.allclose(p, 0.5)


def test_local_predict_zero_weights_half():
    p = local_predict(np.ones(4), np.zeros((3, 4)), np.zeros(3),
                      np.zeros((2, 3)), np.zeros(2))
    assert np.allclose(p, 0.5)


def test_fuse_endpoints():
    pl = [np.array([0.2, 0.4]), np.array([0.6])]
    pg = np.array([0.9, 0.1, 0.5])
    assert np.array_equal(fuse(pl, pg, 0.0), pg)
    assert np.array_equal(fuse(pl, pg, 1.0), [0.2, 0.4, 0.6])
    # rows: one document per row, each fused on its own
    rows = fuse([np.stack([p, p[::-1]]) for p in pl], np.stack([pg, pg[::-1]]), 0.25)
    assert np.array_equal(rows[0], fuse(pl, pg, 0.25))
    assert np.array_equal(rows[1], fuse([p[::-1] for p in pl], pg[::-1], 0.25))


def test_fuse_betweenness():
    rng = np.random.default_rng(0)
    pl = [rng.uniform(size=3), rng.uniform(size=2)]
    pg = rng.uniform(size=5)
    cat = np.concatenate(pl)
    for beta in (0.25, 0.5, 0.75):
        f = fuse(pl, pg, beta)
        assert np.all(f >= np.minimum(cat, pg) - 1e-12)
        assert np.all(f <= np.maximum(cat, pg) + 1e-12)


def test_fuse_dim_mismatch():
    with pytest.raises(DimMismatchError):
        fuse([np.zeros(2)], np.zeros(3), 0.5)


def test_violation_penalty_hand_value(two_level_tax):
    pairs = child_parent_index_pairs(two_level_tax)
    # order is A, B, A1, A2, B1: make A1 exceed its parent A by 0.5
    scores = np.array([0.2, 0.9, 0.7, 0.1, 0.3])
    assert violation_penalty(scores, pairs, 0.1) == pytest.approx(0.1 * 0.5 ** 2)


def test_violation_penalty_consistent_is_zero(two_level_tax):
    pairs = child_parent_index_pairs(two_level_tax)
    scores = np.array([0.9, 0.8, 0.5, 0.4, 0.3])
    assert violation_penalty(scores, pairs, 1.0) == 0.0


def test_child_parent_pairs(two_level_tax):
    pairs = child_parent_index_pairs(two_level_tax)
    # A=0, B=1, A1=2, A2=3, B1=4
    assert pairs.shape == (3, 2)
    assert {tuple(p) for p in pairs} == {(2, 0), (3, 0), (4, 1)}


def _one_level_tax():
    return load_taxonomy(json.dumps({"labels": [
        {"id": "A", "text": "alpha", "level": 1, "parent": None},
        {"id": "B", "text": "beta", "level": 1, "parent": None}]}))


@pytest.mark.parametrize("one_level", [False, True])
def test_penalty_matches_pair_loop(two_level_tax, one_level):
    tax = _one_level_tax() if one_level else two_level_tax
    pairs = child_parent_index_pairs(tax)
    assert pairs.shape == ((0, 2) if one_level else (3, 2))
    level_sizes = tax.level_sizes()
    rng = np.random.default_rng(12)
    params = init_params(head_param_shapes(3, 5, 4, level_sizes), rng, np.float64)
    params["global.bout"] = 3 * rng.standard_normal(sum(level_sizes))
    xs = [rng.standard_normal((1, 6)) for _ in range(len(level_sizes) + 1)]
    Y = np.zeros((1, sum(level_sizes)))
    cache = head_forward(xs, params, level_sizes)
    (p_g,) = cache["p_g"]
    assert one_level or oracles.violation_penalty(p_g, pairs, 1.0) > 0
    for lam in (0.1, 2.0):
        assert violation_penalty(cache["p_g"], pairs, lam) == pytest.approx(
            [oracles.violation_penalty(p_g, pairs, lam)], rel=1e-12, abs=0)
        # the penalty reaches the scores only through dp_g * p_g (1 - p_g)
        with_pen, _ = head_backward(cache, Y, pairs, lam, params)
        without, _ = head_backward(cache, Y, pairs, 0.0, params)
        dp_g = oracles.violation_grad(p_g, pairs, lam)
        np.testing.assert_allclose(with_pen["global.bout"] - without["global.bout"],
                                   dp_g * p_g * (1 - p_g), rtol=1e-12, atol=1e-15)


def test_loss_at_half_scores(two_level_tax):
    # all probabilities 0.5 -> every BCE term is log 2, penalty is zero
    pred = Prediction(global_scores=np.full(5, 0.5),
                      local_scores=[np.full(2, 0.5), np.full(3, 0.5)],
                      fused_scores=np.full(5, 0.5))
    targets = [np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    val = loss(pred, targets, two_level_tax, lam=0.1)
    assert val == pytest.approx(3 * np.log(2))


def test_loss_target_length_mismatch(two_level_tax):
    params, xs, _, level_sizes = _head_setup()
    cache = head_forward(xs, params, level_sizes)
    pairs = child_parent_index_pairs(two_level_tax)
    with pytest.raises(DimMismatchError):
        head_loss(cache, np.zeros((2, 6)), pairs, lam=0.1)


def _head_setup(seed=0):
    """Head parameters, 2-row embeddings xs and the 2 x 5 targets Y of the
    two-level taxonomy (A, B, A1, A2, B1): row 0 is {A, A2}, row 1 {B, B1}."""
    rng = np.random.default_rng(seed)
    k, g, d_local = 3, 5, 4
    level_sizes = [2, 3]
    params = init_params(head_param_shapes(k, g, d_local, level_sizes), rng, np.float64)
    # nudge biases off zero so relu pre-activations avoid the kink
    for name in params:
        params[name] = params[name] + rng.normal(0, 0.01, params[name].shape)
    xs = [rng.standard_normal((2, 2 * k)) for _ in range(3)]
    Y = np.array([[1.0, 0.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 1.0]])
    return params, xs, Y, level_sizes


def test_head_forward_matches_public_ops():
    params, xs, _, level_sizes = _head_setup()
    cache = head_forward(xs, params, level_sizes)
    for r in range(2):
        A1 = global_step(None, xs[1][r], params["global.W1"], params["global.b1"])
        A2 = global_step(A1, xs[2][r], params["global.W2"], params["global.b2"])
        pg = global_predict(A2, xs[0][r], params["global.Wout"], params["global.bout"])
        assert np.allclose(cache["p_g"][r], pg, atol=1e-12)
        p1 = local_predict(A1, params["local.Wt1"], params["local.bt1"],
                           params["local.Wc1"], params["local.bc1"])
        assert np.allclose(cache["local"][0]["p"][r], p1, atol=1e-12)


def test_head_loss_matches_prob_loss(two_level_tax):
    params, xs, Y, level_sizes = _head_setup()
    cache = head_forward(xs, params, level_sizes)
    pairs = child_parent_index_pairs(two_level_tax)
    via_logits = head_loss(cache, Y, pairs, lam=0.1)
    assert via_logits.shape == (2,)
    for r in range(2):
        p_g = cache["p_g"][r]
        locals_ = [lv["p"][r] for lv in cache["local"]]
        pred = Prediction(p_g, locals_, fuse(locals_, p_g, 0.5))
        via_probs = loss(pred, np.split(Y[r], [2]), two_level_tax, lam=0.1)
        assert via_logits[r] == pytest.approx(via_probs, rel=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_head_gradients(two_level_tax, lam):
    params, xs, Y, level_sizes = _head_setup(seed=3)
    pairs = child_parent_index_pairs(two_level_tax)

    def f(p):
        cache = head_forward(xs, p, level_sizes)
        L = head_loss(cache, Y, pairs, lam).sum()
        grads, _ = head_backward(cache, Y, pairs, lam, p)
        return L, grads

    rep = grad_check(f, params, tolerance=1e-4)
    assert rep.passed, rep.max_rel_error


def test_head_embedding_gradients(two_level_tax):
    # finite differences of the summed row losses on the document embeddings
    params, xs, Y, level_sizes = _head_setup(seed=4)
    pairs = child_parent_index_pairs(two_level_tax)

    def L(xs_):
        cache = head_forward(xs_, params, level_sizes)
        return head_loss(cache, Y, pairs, lam=0.1).sum()

    cache = head_forward(xs, params, level_sizes)
    _, dxs = head_backward(cache, Y, pairs, 0.1, params)
    h = 1e-6
    for i in range(3):
        for j in np.ndindex(xs[i].shape):
            orig = xs[i][j]
            xs[i][j] = orig + h
            lp = L(xs)
            xs[i][j] = orig - h
            lm = L(xs)
            xs[i][j] = orig
            num = (lp - lm) / (2 * h)
            assert abs(num - dxs[i][j]) <= 1e-5 * max(1.0, abs(num))
