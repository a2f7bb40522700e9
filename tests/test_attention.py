import warnings

import numpy as np
import pytest
from oracles import attention_per_direction, similarity_backward

from ahmca.attention import (
    MODES,
    _similarity_backward,
    attention_backward,
    attention_forward,
    normalize_weights,
    splice_level,
    token_weights,
)
from ahmca.errors import ConfigRangeError, DimMismatchError, EmptyContextError
from ahmca.numerics import scatter_rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_row_scatter_is_bitwise_2d_scatter(dtype):
    """The backward's context gradient goes through scatter_rows, a flat 1-D
    np.add.at; it must equal the 2-D row scatter bit for bit, winners
    repeated many times over included (each element's additions in the same
    order), and -0.0 kept where only -0.0 arrives."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        M, k = rng.integers(1, 12), rng.integers(1, 40)
        n = rng.integers(0, 300)
        rows = rng.integers(0, M, n) if trial % 2 else np.sort(rng.integers(0, M, n))
        vals = (rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, k))).astype(dtype)
        vals[rng.random((n, k)) < 0.2] = -0.0
        start = np.where(rng.random((M, k)) < 0.5, -0.0, 0.0).astype(dtype)
        want, got = start.copy(), start.copy()
        np.add.at(want, rows, vals)
        scatter_rows(got, rows, vals)
        assert got.tobytes() == want.tobytes(), trial


def _dot_ids(mode):
    """Case ids name the similarity, dot product, before the mode."""
    return f"dot-{mode}"


def brute_force_weights(H, T):
    """Independent per-(token, row) dot-product oracle."""
    n, q = H.shape[0], T.shape[0]
    out = np.empty(n)
    for j in range(n):
        best = -np.inf
        for l in range(q):
            best = max(best, float(np.dot(H[j], T[l])))
        out[j] = best
    return out


def brute_force_embedding(H_fwd, H_bwd, wf, wb, mode):
    def norm(w):
        if mode == "none":
            return w
        if mode == "sum_normalized":
            s = w.sum()
            return np.full(len(w), 1.0 / len(w)) if abs(s) <= 1e-8 else w / s
        e = np.exp(w - w.max())
        return e / e.sum()

    wf, wb = norm(np.asarray(wf, float)), norm(np.asarray(wb, float))
    halves = []
    for H, w in ((H_fwd, wf), (H_bwd, wb)):
        acc = np.zeros(H.shape[1])
        for j in range(H.shape[0]):
            acc += w[j] * H[j]
        halves.append(acc)
    return np.concatenate(halves)


def test_splice_shapes():
    Ti = np.ones((3, 4))
    Ke = np.zeros((2, 4))
    Tc = splice_level(Ti, Ke)
    assert Tc.shape == (5, 4)
    assert np.array_equal(Tc[:3], Ti)


def test_splice_no_keywords():
    Ti = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(splice_level(Ti, np.zeros((0, 4))), Ti)


def test_splice_dim_mismatch():
    with pytest.raises(DimMismatchError):
        splice_level(np.ones((2, 3)), np.ones((2, 4)))


def test_token_weights_example():
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    T = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert np.array_equal(token_weights(H, T), [2.0, 3.0])


def test_token_weights_single_row():
    H = np.random.default_rng(0).standard_normal((4, 3))
    t = np.array([[1.0, -1.0, 0.5]])
    assert np.allclose(token_weights(H, t), H @ t[0])


def test_token_weights_duplicate_rows():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((5, 3))
    T = rng.standard_normal((4, 3))
    T_dup = np.vstack([T, T[1]])
    assert np.array_equal(token_weights(H, T), token_weights(H, T_dup))


def test_token_weights_empty_context():
    with pytest.raises(EmptyContextError):
        token_weights(np.ones((2, 3)), np.zeros((0, 3)))


@pytest.mark.parametrize("call", [
    lambda H: normalize_weights(np.ones(3), mode="bogus"),
    lambda H: attention_forward(H, H, [H], mode="bogus"),
], ids=["normalize_weights", "forward_mode"])
def test_unknown_mode(call):
    with pytest.raises(ConfigRangeError, match="bogus"):
        call(np.ones((3, 2)))


def test_level_embedding_hand_example():
    # raw weights [2, 3]: each token's best match against diag(2, 3)
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    T = np.array([[2.0, 0.0], [0.0, 3.0]])
    x = attention_forward(H, H, [T], mode="sum_normalized")[0][1]
    assert np.allclose(x[:2], [0.4, 0.6])


def test_level_embedding_uniform_is_mean():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((5, 3))
    x = attention_forward(H, H, [np.ones((1, 3))], mode="sum_normalized")[0][0]
    assert np.allclose(x[:3], H.mean(axis=0), atol=1e-12)


def test_level_embedding_literal_mode():
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    T = np.array([[2.0, 0.0], [0.0, 3.0]])
    x = attention_forward(H, H, [T], mode="none")[0][1]
    assert np.allclose(x[:2], [2.0, 3.0])


def test_degenerate_weights_fallback_warns():
    # one context row: the forward raw weights [1, -1 + 1e-9] sum to about 0,
    # the backward ones [1, 2] do not
    for dtype in (np.float32, np.float64):
        H_fwd = np.array([[1.0, 0.0], [-1.0 + 1e-9, 0.0]], dtype=dtype)
        H_bwd = np.array([[1.0, 0.0], [2.0, 1.0]], dtype=dtype)
        ctx = np.array([[1.0, 0.0]], dtype=dtype)
        raw = token_weights(np.stack([H_fwd, H_bwd]), ctx)
        assert abs(raw[0].sum()) <= 1e-8 < abs(raw[1].sum())
        outs = []
        for call in (lambda: normalize_weights(raw, "sum_normalized"),
                     lambda: attention_forward(H_fwd, H_bwd, [ctx])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outs.append(call())
            assert [str(w.message) for w in caught] == [
                "degenerate attention weights; falling back to uniform"]
        (w, _), (_, cache) = outs
        assert w.dtype == dtype
        assert np.array_equal(w[0], np.full(2, 1.0 / 2, dtype=dtype))
        assert np.array_equal(w[1], raw[1] / raw[1].sum())
        # no gradient flows through the fallback row: the forward states get the
        # pooling term alone, and the context's gradient ignores the forward half
        dx = np.array([0.5, -2.0, 1.5, 0.25], dtype=dtype)
        dH_fwd, _, (dctx,) = attention_backward([None, dx], cache)
        assert np.array_equal(dH_fwd, np.outer(w[0], dx[:2]))
        dx_bwd_only = np.concatenate([np.zeros(2, dtype=dtype), dx[2:]])
        assert np.array_equal(dctx, attention_backward([None, dx_bwd_only], cache)[2][0])
        assert np.any(dctx != 0)


def test_build_all_levels_shapes():
    rng = np.random.default_rng(3)
    H_fwd = rng.standard_normal((6, 4))
    H_bwd = rng.standard_normal((6, 4))
    ctxs = [rng.standard_normal((3, 4)), rng.standard_normal((5, 4))]
    xs, _ = attention_forward(H_fwd, H_bwd, ctxs)
    assert len(xs) == 3
    assert all(x.shape == (8,) for x in xs)


def test_row_permutation_invariance():
    rng = np.random.default_rng(4)
    H_fwd = rng.standard_normal((5, 3))
    H_bwd = rng.standard_normal((5, 3))
    ctx = rng.standard_normal((4, 3))
    perm = ctx[[2, 0, 3, 1]]
    for mode in ("sum_normalized", "none", "softmax"):
        a, _ = attention_forward(H_fwd, H_bwd, [ctx], mode=mode)
        b, _ = attention_forward(H_fwd, H_bwd, [perm], mode=mode)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)


def test_positive_scale_invariance():
    rng = np.random.default_rng(5)
    H_fwd = np.abs(rng.standard_normal((5, 3)))
    H_bwd = np.abs(rng.standard_normal((5, 3)))
    ctx = np.abs(rng.standard_normal((4, 3)))  # positive raw weights guaranteed
    a, _ = attention_forward(H_fwd, H_bwd, [ctx], mode="sum_normalized")
    b, _ = attention_forward(H_fwd, H_bwd, [3.7 * ctx], mode="sum_normalized")
    assert np.allclose(a[1], b[1], atol=1e-9)


def test_convex_hull_property():
    rng = np.random.default_rng(6)
    H_fwd = rng.standard_normal((6, 2))
    H_bwd = rng.standard_normal((6, 2))
    ctx = np.abs(rng.standard_normal((3, 2)))
    H_pos_f = np.abs(H_fwd)
    H_pos_b = np.abs(H_bwd)
    xs, _ = attention_forward(H_pos_f, H_pos_b, [ctx], mode="sum_normalized")
    x = xs[1]
    # each coordinate of each half lies within [min, max] of hidden rows
    for half, H in ((x[:2], H_pos_f), (x[2:], H_pos_b)):
        assert np.all(half >= H.min(axis=0) - 1e-12)
        assert np.all(half <= H.max(axis=0) + 1e-12)


def test_x0_equals_uniform_embedding():
    rng = np.random.default_rng(7)
    H_fwd = rng.standard_normal((4, 3))
    H_bwd = rng.standard_normal((4, 3))
    ctx = rng.standard_normal((2, 3))
    xs, _ = attention_forward(H_fwd, H_bwd, [ctx], mode="sum_normalized")
    ref = brute_force_embedding(H_fwd, H_bwd, np.ones(4), np.ones(4), "sum_normalized")
    assert np.allclose(xs[0], ref, atol=1e-12)


@pytest.mark.parametrize("mode", ["sum_normalized", "none", "softmax"], ids=_dot_ids)
def test_oracle_equivalence(mode):
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        q = int(rng.integers(1, 11))
        k = int(rng.integers(2, 9))
        H_fwd = rng.standard_normal((n, k))
        H_bwd = rng.standard_normal((n, k))
        ctx = rng.standard_normal((q, k))
        wf = token_weights(H_fwd, ctx)
        wb = token_weights(H_bwd, ctx)
        assert np.allclose(wf, brute_force_weights(H_fwd, ctx), atol=1e-9)
        x = attention_forward(H_fwd, H_bwd, [ctx], mode=mode)[0][1]
        ref = brute_force_embedding(H_fwd, H_bwd, wf, wb, mode)
        assert np.allclose(x, ref, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", MODES, ids=_dot_ids)
def test_direction_stack_is_bitwise_per_direction_oracle(dtype, mode):
    rng = np.random.default_rng(11)
    k = 5
    labels = [rng.standard_normal((3, k)).astype(dtype), rng.standard_normal((7, k)).astype(dtype)]
    for n in (1, 2, 33):
        for n_kw in (0, 2):
            H_fwd, H_bwd = (rng.standard_normal((n, k)).astype(dtype) for _ in range(2))
            Ke = rng.standard_normal((n_kw, k)).astype(dtype)
            contexts = [splice_level(T, Ke) for T in labels]
            xs, cache = attention_forward(H_fwd, H_bwd, contexts, mode=mode)
            ref_xs, ref_backward = attention_per_direction(H_fwd, H_bwd, contexts, mode)
            dxs = [rng.standard_normal(2 * k).astype(dtype) for _ in xs]
            dxs[0] = None if n == 2 else dxs[0]
            dH_fwd, dH_bwd, dctxs = attention_backward(dxs, cache)
            ref_dH_fwd, ref_dH_bwd, ref_dctxs = ref_backward(dxs)
            got = xs + [dH_fwd, dH_bwd] + dctxs
            want = ref_xs + [ref_dH_fwd, ref_dH_bwd] + ref_dctxs
            assert len(got) == len(want) == 7
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype and a.shape == b.shape
                assert np.array_equal(a, b), (n, n_kw)


def test_splice_keyword_stack_is_per_document_splices():
    rng = np.random.default_rng(12)
    Ti = rng.standard_normal((3, 4))
    for m in (0, 2):
        Ke = rng.standard_normal((5, m, 4))
        got = splice_level(Ti, Ke)
        assert got.shape == (5, 3 + m, 4) and got.flags.c_contiguous
        for g in range(5):
            assert np.array_equal(got[g], splice_level(Ti, Ke[g]))
    with pytest.raises(DimMismatchError):
        splice_level(Ti, np.ones((2, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", MODES, ids=_dot_ids)
def test_document_stack_is_bitwise_single_documents(dtype, mode):
    rng = np.random.default_rng(13)
    k, G = 5, 4
    labels = [rng.standard_normal((3, k)).astype(dtype), rng.standard_normal((7, k)).astype(dtype)]
    for n in (1, 2, 33):
        for n_kw in (0, 2):
            H_fwd, H_bwd = (rng.standard_normal((G, n, k)).astype(dtype) for _ in range(2))
            Ke = rng.standard_normal((G, n_kw, k)).astype(dtype)
            contexts = [splice_level(T, Ke) for T in labels]
            xs, cache = attention_forward(H_fwd, H_bwd, contexts, mode=mode)
            dxs = [rng.standard_normal((G, 2 * k)).astype(dtype) for _ in xs]
            dxs[0] = None if n == 2 else dxs[0]
            dH_fwd, dH_bwd, dctxs = attention_backward(dxs, cache)
            assert all(x.shape == (G, 2 * k) for x in xs)
            assert dH_fwd.shape == dH_bwd.shape == (G, n, k)
            assert [d.shape for d in dctxs] == [c.shape for c in contexts]
            for g in range(G):
                one_xs, one_cache = attention_forward(H_fwd[g], H_bwd[g],
                                                      [c[g] for c in contexts], mode=mode)
                one = attention_backward([None if dx is None else dx[g] for dx in dxs],
                                         one_cache)
                got = [x[g] for x in xs] + [dH_fwd[g], dH_bwd[g]] + [d[g] for d in dctxs]
                want = one_xs + list(one[:2]) + one[2]
                assert len(got) == len(want) == 7
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype == dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (n, n_kw, g)


def test_degenerate_fallback_warns_once_per_stacked_row():
    # one context row: document 0's forward raw weights [1, -1 + 1e-9] and
    # document 2's backward ones [2, -2] sum to about 0, the other rows do not
    ctx = np.array([[1.0, 0.0]])
    H_fwd = np.array([[[1.0, 0.0], [-1.0 + 1e-9, 0.0]], [[1.0, 0.0], [2.0, 1.0]],
                      [[3.0, 0.0], [1.0, 0.0]]])
    H_bwd = np.array([[[1.0, 0.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 0.0]],
                      [[2.0, 0.0], [-2.0, 0.0]]])

    def warned(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = call()
        assert {str(w.message) for w in caught} <= {
            "degenerate attention weights; falling back to uniform"}
        return len(caught), out

    count, (xs, _) = warned(lambda: attention_forward(H_fwd, H_bwd, [np.stack([ctx] * 3)]))
    assert count == 2
    singles = [warned(lambda g=g: attention_forward(H_fwd[g], H_bwd[g], [ctx])) for g in range(3)]
    assert [c for c, _ in singles] == [1, 0, 1]
    for g, (_, (one_xs, _)) in enumerate(singles):
        assert all(x[g].tobytes() == y.tobytes() for x, y in zip(xs, one_xs))


@pytest.mark.parametrize("mode", ["sum_normalized", "none", "softmax"])
def test_attention_gradients(mode):
    # check dH and dctx against finite differences at a unique-argmax point
    rng = np.random.default_rng(9)
    n, q, k = 5, 3, 3
    H_fwd0 = rng.standard_normal((n, k))
    H_bwd0 = rng.standard_normal((n, k))
    ctx0 = rng.standard_normal((q, k))
    readout = [rng.standard_normal(2 * k) for _ in range(2)]

    def loss_and_grads(Hf, Hb, ctx):
        xs, cache = attention_forward(Hf, Hb, [ctx], mode=mode)
        loss = float(np.dot(readout[0], xs[0]) + np.dot(readout[1], xs[1]))
        dH_f, dH_b, dctxs = attention_backward(list(readout), cache)
        return loss, dH_f, dH_b, dctxs[0]

    loss0, dH_f, dH_b, dctx = loss_and_grads(H_fwd0, H_bwd0, ctx0)
    h = 1e-6
    for arr, grad in ((H_fwd0, dH_f), (H_bwd0, dH_b), (ctx0, dctx)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss_and_grads(H_fwd0, H_bwd0, ctx0)[0]
            arr[idx] = orig - h
            lm = loss_and_grads(H_fwd0, H_bwd0, ctx0)[0]
            arr[idx] = orig
            num = (lp - lm) / (2 * h)
            assert abs(num - grad[idx]) <= 1e-4 * max(1.0, abs(num)), (idx, num, grad[idx])


def test_similarity_backward_matches_token_loop():
    # 9 tokens over 3 rows: winners repeat, so rows accumulate several tokens
    rng = np.random.default_rng(10)
    H = rng.standard_normal((9, 4)).astype(np.float32)
    ctx = rng.standard_normal((3, 4)).astype(np.float32)
    _, arg = token_weights(H, ctx, with_argmax=True)
    da = rng.standard_normal(9).astype(np.float32)
    da[[1, 5]] = 0.0
    dH, dctx = np.zeros_like(H), np.zeros_like(ctx)
    _similarity_backward(da, H, ctx, arg, dH, dctx)
    ref_dH, ref_dctx = similarity_backward(da, H, ctx, arg)
    assert len(set(arg.tolist())) < len(arg)
    # same float32 operations in the same order
    assert np.array_equal(dH, ref_dH)
    assert np.array_equal(dctx, ref_dctx)
