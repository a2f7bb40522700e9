import math

import numpy as np
import pytest
from oracles import (
    bilstm_document,
    bilstm_document_backward,
    lstm_step,
    packed_backward_direction_major,
    packed_encode_direction_major,
)

from ahmca import encoder
from ahmca.corpus import split
from ahmca.encoder import bilstm_backward, bilstm_encode, lstm_param_shapes
from ahmca.errors import DimMismatchError, EmptyInputError
from ahmca.model import init_params
from ahmca.numerics import grad_check, sigmoid
from ahmca.training import TrainConfig, load_checkpoint, save_checkpoint, train


def _zero_params(k):
    return {f"lstm_{d}.{n}": np.zeros((4 * k, k)) if n != "b" else np.zeros(4 * k)
            for d in ("fwd", "bwd") for n in ("Wx", "Wh", "b")}


def test_lstm_step_all_zero():
    k = 3
    state = (np.zeros(k), np.zeros(k))
    h, c = lstm_step(state, np.zeros(k), np.zeros((4 * k, k)),
                     np.zeros((4 * k, k)), np.zeros(4 * k))
    assert np.array_equal(h, np.zeros(k))
    assert np.array_equal(c, np.zeros(k))


def test_lstm_step_zero_weights_any_input():
    k = 2
    h, c = lstm_step((np.zeros(k), np.zeros(k)), np.array([5.0, -3.0]),
                     np.zeros((4 * k, k)), np.zeros((4 * k, k)), np.zeros(4 * k))
    assert np.allclose(h, 0.0)


def _scalar_lstm_oracle(h_prev, c_prev, x, Wx, Wh, b, k):
    """Hand-unrolled gate arithmetic, scalar by scalar."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = [sum(Wx[r][j] * x[j] for j in range(k)) +
         sum(Wh[r][j] * h_prev[j] for j in range(k)) + b[r]
         for r in range(4 * k)]
    h, c = [], []
    for j in range(k):
        i = sig(z[j])
        f = sig(z[k + j])
        g = math.tanh(z[2 * k + j])
        o = sig(z[3 * k + j])
        cj = f * c_prev[j] + i * g
        c.append(cj)
        h.append(o * math.tanh(cj))
    return h, c


def test_lstm_step_matches_scalar_oracle():
    k = 3
    rng = np.random.default_rng(7)
    Wx = rng.standard_normal((4 * k, k))
    Wh = rng.standard_normal((4 * k, k))
    b = rng.standard_normal(4 * k)
    h0 = rng.standard_normal(k)
    c0 = rng.standard_normal(k)
    x = rng.standard_normal(k)
    h, c = lstm_step((h0, c0), x, Wx, Wh, b)
    ho, co = _scalar_lstm_oracle(h0, c0, x, Wx, Wh, b, k)
    assert np.allclose(h, ho, atol=1e-9)
    assert np.allclose(c, co, atol=1e-9)


def test_bilstm_dim_mismatch():
    with pytest.raises(DimMismatchError):
        bilstm_encode(np.zeros((4, 2)), [4], _zero_params(3))


def test_bilstm_matches_step_oracle():
    k, N = 3, 5
    rng = np.random.default_rng(9)
    params = {name: rng.standard_normal(v.shape)
              for name, v in init_params(lstm_param_shapes(k), rng, np.float64).items()}
    X = rng.standard_normal((N, k))
    (H_fwd, H_bwd), _ = bilstm_encode(X, [N], params)
    for d, H, seq in (("fwd", H_fwd, X), ("bwd", H_bwd[::-1], X[::-1])):
        h, c = np.zeros(k), np.zeros(k)
        for n in range(N):
            h, c = lstm_step((h, c), seq[n], params[f"lstm_{d}.Wx"],
                             params[f"lstm_{d}.Wh"], params[f"lstm_{d}.b"])
            np.testing.assert_allclose(H[n], h, rtol=0, atol=1e-12)


def test_bilstm_shapes():
    k = 4
    rng = np.random.default_rng(1)
    params = init_params(lstm_param_shapes(k), rng)
    X = rng.standard_normal((6, k)).astype(np.float32)
    (H_fwd, H_bwd), _ = bilstm_encode(X, [6], params)
    assert H_fwd.shape == (6, k)
    assert H_bwd.shape == (6, k)


def test_bilstm_empty_input():
    with pytest.raises(EmptyInputError):
        bilstm_encode(np.zeros((0, 3)), [0], _zero_params(3))


def test_bilstm_empty_batch():
    with pytest.raises(EmptyInputError):
        bilstm_encode(np.zeros((0, 3)), [], _zero_params(3))


def test_backward_direction_is_reversed_forward():
    k = 3
    rng = np.random.default_rng(2)
    params = init_params(lstm_param_shapes(k), rng, np.float64)
    X = rng.standard_normal((5, k))
    (_, H_bwd), _ = bilstm_encode(X, [len(X)], params)
    # run the backward parameter set as a forward recurrence on reverse(X)
    swapped = dict(params)
    for n in ("Wx", "Wh", "b"):
        swapped[f"lstm_fwd.{n}"] = params[f"lstm_bwd.{n}"]
    (H_rev, _), _ = bilstm_encode(X[::-1], [len(X)], swapped)
    assert np.allclose(H_bwd, H_rev[::-1], atol=1e-12)


def test_single_token():
    k = 2
    rng = np.random.default_rng(3)
    params = init_params(lstm_param_shapes(k), rng, np.float64)
    X = rng.standard_normal((1, k))
    (H_fwd, H_bwd), _ = bilstm_encode(X, [1], params)
    assert H_fwd.shape == H_bwd.shape == (1, k)


def test_position_alignment():
    # H_fwd[n] depends only on tokens <= n, H_bwd[n] only on tokens >= n
    k = 3
    rng = np.random.default_rng(5)
    params = init_params(lstm_param_shapes(k), rng, np.float64)
    X = rng.standard_normal((6, k))
    (H_fwd, H_bwd), _ = bilstm_encode(X, [6], params)
    Y = X.copy()
    Y[4] += 10.0
    (G_fwd, G_bwd), _ = bilstm_encode(Y, [6], params)
    assert np.allclose(G_fwd[:4], H_fwd[:4])
    assert not np.allclose(G_fwd[4:], H_fwd[4:])
    assert np.allclose(G_bwd[5:], H_bwd[5:])
    assert not np.allclose(G_bwd[:5], H_bwd[:5])


def test_hidden_bounded():
    k = 4
    rng = np.random.default_rng(6)
    params = {key: (v * 10)
              for key, v in init_params(lstm_param_shapes(k), rng, np.float64).items()}
    X = 5 * rng.standard_normal((8, k))
    (H_fwd, H_bwd), _ = bilstm_encode(X, [8], params)
    assert np.abs(H_fwd).max() <= 1.0
    assert np.abs(H_bwd).max() <= 1.0


def test_bilstm_gradients():
    k = 3
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, k))
    Wf = rng.standard_normal((4, k))   # random linear readout of both H matrices
    Wb = rng.standard_normal((4, k))

    def f(params):
        (H_fwd, H_bwd), caches = bilstm_encode(X, [4], params)
        loss = float(np.sum(Wf * H_fwd) + np.sum(Wb * H_bwd))
        _, grads = bilstm_backward(Wf, Wb, caches, params)
        return loss, grads

    point = init_params(lstm_param_shapes(k), rng, np.float64)
    rep = grad_check(f, point, tolerance=1e-3)
    assert rep.passed, rep.max_rel_error


def _ragged(lengths, k, seed):
    rng = np.random.default_rng(seed)
    params = {name: rng.standard_normal(v.shape)
              for name, v in init_params(lstm_param_shapes(k), rng, np.float64).items()}
    return params, [rng.standard_normal((n, k)) for n in lengths]


def _split(M, lengths):
    """A batch matrix's rows, one matrix per document."""
    return np.split(M, np.cumsum(lengths)[:-1])


def test_packed_batch_matches_document_oracle():
    k, lengths = 3, [5, 1, 3, 5, 2]
    params, Xs = _ragged(lengths, k, 10)
    (H_fwds, H_bwds), _ = bilstm_encode(np.concatenate(Xs), lengths, params)
    assert H_fwds.shape == H_bwds.shape == (sum(lengths), k)
    for X, H_fwd, H_bwd in zip(Xs, _split(H_fwds, lengths), _split(H_bwds, lengths)):
        ref_fwd, ref_bwd, _ = bilstm_document(X, params)
        np.testing.assert_allclose(H_fwd, ref_fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H_bwd, ref_bwd, rtol=0, atol=1e-12)


def test_packed_backward_is_sum_of_document_oracles():
    k, lengths = 3, [5, 1, 3, 5, 2]
    params, Xs = _ragged(lengths, k, 11)
    rng = np.random.default_rng(12)
    dH_fwd = [rng.standard_normal((n, k)) for n in lengths]
    dH_bwd = [rng.standard_normal((n, k)) for n in lengths]
    _, cache = bilstm_encode(np.concatenate(Xs), lengths, params)
    dX, grads = bilstm_backward(np.concatenate(dH_fwd), np.concatenate(dH_bwd), cache, params)
    assert dX.shape == (sum(lengths), k)
    assert grads.keys() == params.keys()
    total = {name: 0 for name in params}
    for X, dX, df, db in zip(Xs, _split(dX, lengths), dH_fwd, dH_bwd):
        _, _, caches = bilstm_document(X, params)
        ref_dX, ref = bilstm_document_backward(df, db, caches, params)
        np.testing.assert_allclose(dX, ref_dX, rtol=1e-10, atol=1e-14)
        for name, g in ref.items():
            total[name] = total[name] + g
    for name, g in grads.items():
        np.testing.assert_allclose(g, total[name], rtol=1e-10, atol=1e-14, err_msg=name)


def test_packed_batch_gradients():
    k, lengths = 3, [4, 2, 3]
    _, Xs = _ragged(lengths, k, 13)
    rng = np.random.default_rng(14)
    Wf = [rng.standard_normal((n, k)) for n in lengths]   # random linear readouts
    Wb = [rng.standard_normal((n, k)) for n in lengths]

    def f(params):
        (H_fwd, H_bwd), cache = bilstm_encode(np.concatenate(Xs), lengths, params)
        loss = float(sum(np.sum(w * H) for w, H in zip(Wf + Wb, _split(H_fwd, lengths)
                                                        + _split(H_bwd, lengths))))
        _, grads = bilstm_backward(np.concatenate(Wf), np.concatenate(Wb), cache, params)
        return loss, grads

    point = init_params(lstm_param_shapes(k), rng, np.float64)
    rep = grad_check(f, point, tolerance=1e-3)
    assert rep.passed, rep.max_rel_error


def test_document_states_do_not_depend_on_batch():
    """At k = 32, in float32 and float64, each of 16 documents of 1 to 30
    tokens (two of 30) gets bitwise the same states alone as in every
    batch of 2, 3, 4, 8 and 16 consecutive documents that holds it."""
    k = 32
    lengths = [7, 30, 1, 12, 30, 5, 19, 2, 25, 9, 14, 3, 22, 11, 6, 17]
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(5)
        params = {name: (p + rng.uniform(-0.1, 0.1, p.shape)).astype(dtype)
                  for name, p in init_params(lstm_param_shapes(k), rng, dtype).items()}
        Xs = [rng.standard_normal((n, k)).astype(dtype) for n in lengths]
        alone = [bilstm_encode(X, [len(X)], params)[0] for X in Xs]
        for size in (2, 3, 4, 8, 16):
            for start in range(0, len(Xs), size):
                part = lengths[start:start + size]
                (H_fwds, H_bwds), _ = bilstm_encode(np.concatenate(Xs[start:start + size]),
                                                    part, params)
                for j, (H_fwd, H_bwd) in enumerate(zip(_split(H_fwds, part),
                                                       _split(H_bwds, part))):
                    alone_fwd, alone_bwd = alone[start + j]
                    assert H_fwd.dtype == dtype
                    assert H_fwd.tobytes() == alone_fwd.tobytes(), (dtype, size, start + j)
                    assert H_bwd.tobytes() == alone_bwd.tobytes(), (dtype, size, start + j)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def _assert_bitwise_direction_major(Xs, params, dH_fwd, dH_bwd):
    """States, cache and BPTT results of bilstm_encode/bilstm_backward
    equal the direction-major oracle's bit for bit, and params are left as
    they were.  The cache's G is compared after bilstm_backward, which
    activates it in place, and past the front block, whose rows hold no
    step's gates and which BPTT never reads."""
    before = {name: p.copy() for name, p in params.items()}
    X, lengths = np.concatenate(Xs), [len(x) for x in Xs]
    dH_fwd, dH_bwd = np.concatenate(dH_fwd), np.concatenate(dH_bwd)
    (H_fwd, H_bwd), cache = bilstm_encode(X, lengths, params)
    (ref_fwd, ref_bwd), ref_cache = packed_encode_direction_major(X, lengths, params)
    for got, want in ((H_fwd, ref_fwd), (H_bwd, ref_bwd)):
        assert got.dtype == X.dtype and got.shape == X.shape
        assert _same_bits(got, want)

    _, Xp, G, C, H = cache
    _, ref_Xp, ref_G, ref_C, ref_H = ref_cache
    B, (R, _, _, k) = len(Xs), G.shape
    assert _same_bits(Xp, ref_Xp)
    assert _same_bits(np.ascontiguousarray(C.transpose(1, 0, 2)), ref_C)
    assert _same_bits(np.ascontiguousarray(H.transpose(1, 0, 2)), ref_H)

    dX, grads = bilstm_backward(dH_fwd, dH_bwd, cache, params)
    G_dm = np.ascontiguousarray(G.transpose(2, 0, 1, 3)).reshape(2, R, 4 * k)
    assert _same_bits(np.ascontiguousarray(G_dm[:, B:]), np.ascontiguousarray(ref_G[:, B:]))
    ref_dX, ref_grads = packed_backward_direction_major(dH_fwd, dH_bwd, ref_cache, params)
    assert dX.shape == X.shape
    assert _same_bits(dX, ref_dX)
    assert grads.keys() == ref_grads.keys() == params.keys()
    for name, g in grads.items():
        assert _same_bits(g, ref_grads[name]), name
    for name, p in params.items():
        assert _same_bits(p, before[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths", [[9], [5, 1, 3, 5, 2]], ids=["B1", "ragged"])
def test_forward_only_encode_calls_no_sigmoid(monkeypatch, dtype, lengths):
    """A forward-only encode leaves its gates as pre-activations: only
    bilstm_backward, their one reader, activates them."""
    calls = []
    monkeypatch.setattr(encoder, "sigmoid",
                        lambda *a, **kw: calls.append(a) or sigmoid(*a, **kw))
    params, Xs = _ragged(lengths, 4, 17)
    params = {name: p.astype(dtype) for name, p in params.items()}
    bilstm_encode(np.concatenate(Xs).astype(dtype), lengths, params)
    assert calls == []


def test_backward_consumes_its_cache():
    """bilstm_backward activates the cache's gates in place, so a second
    call on the same cache raises instead of returning wrong gradients."""
    lengths = [5, 1, 3]
    params, Xs = _ragged(lengths, 3, 18)
    dH = np.ones((sum(lengths), 3))
    _, cache = bilstm_encode(np.concatenate(Xs), lengths, params)
    bilstm_backward(dH, dH, cache, params)
    with pytest.raises(ValueError, match="read-only"):
        bilstm_backward(dH, dH, cache, params)


def _inputs(lengths, k, rng, dtype):
    return [[rng.standard_normal((n, k)).astype(dtype) for n in lengths] for _ in range(3)]


_BATCHES = pytest.mark.parametrize(
    "lengths", [[1], [2], [3], [33], [256], [1, 2, 33, 256] * 4, [3, 1, 3, 2, 1, 3], [1, 1],
                [5, 1, 5, 1, 5]],
    ids=["B1-N1", "B1-N2", "B1-N3", "B1-N33", "B1-N256", "B16-ragged", "B6-ties", "B2-ones",
         "B5-ties-ones"])


def _check_batch(lengths, dtype):
    k = 32
    rng = np.random.default_rng(len(lengths) + sum(lengths))
    params = {name: p + rng.uniform(-0.1, 0.1, p.shape).astype(dtype)
              for name, p in init_params(lstm_param_shapes(k), rng, dtype).items()}
    lengths = rng.permutation(lengths).tolist()
    Xs, dH_fwd, dH_bwd = _inputs(lengths, k, rng, dtype)
    _assert_bitwise_direction_major(Xs, params, dH_fwd, dH_bwd)


@_BATCHES
def test_row_major_loop_is_bitwise_direction_major(lengths):
    """B=1 at N=1..3 runs every step at a=1, where the h Wh^T product keeps
    its second row; the ragged batches tie in length and end documents
    after one step."""
    _check_batch(lengths, np.float32)


@_BATCHES
def test_float64_loop_is_bitwise_direction_major(lengths):
    """float64 parameters and inputs, the grad_check path."""
    _check_batch(lengths, np.float64)


def test_read_only_served_params_are_bitwise_direction_major(small_synth):
    """The read-only parameter arrays a loaded checkpoint serves with."""
    tax, corpus, table = small_synth
    cfg = TrainConfig(k=table.dim, g=8, d_L=8, epochs=1, seed=0)
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    ckpt, _ = train(cfg, tr, va, tax, table)
    model, _ = load_checkpoint(save_checkpoint(ckpt)).build_model()
    params = {name: p for name, p in model.params.items() if name.startswith("lstm_")}
    assert not any(p.flags.writeable for p in params.values())
    rng = np.random.default_rng(16)
    for lengths in ([1], [2], [20], [20, 1, 7, 20]):
        Xs, dH_fwd, dH_bwd = _inputs(lengths, table.dim, rng, np.float32)
        _assert_bitwise_direction_major(Xs, params, dH_fwd, dH_bwd)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_halved_gate_rows_give_sigmoid_bitwise(dtype):
    """The encoder's gate scaling is exact: with the i, f and o rows of Wx,
    Wh and b halved, tanh of the pre-activation then (t + 1) * 0.5 equals
    numerics.sigmoid of the unhalved pre-activation bit for bit, g's tanh is
    untouched, and sigmoid of the doubled-back pre-activation (the cache's
    path) is the same again.  Over grids of weights from 1e-30 to 10 and
    inputs from -4 to 4 in both dtypes.

    Halving a binary float only lowers its exponent, so it commutes with
    every product and sum as long as none of them is subnormal (below
    2^-126 in float32, 2^-1022 in float64): there halving drops the last
    bit and can round.  The last assertion shows it on the smallest
    subnormal, which halves to zero."""
    k = 16
    mags = np.geomspace(1e-30, 10, 4 * k * k).reshape(4 * k, k)
    signs = np.where(np.arange(4 * k * k).reshape(4 * k, k) % 3 == 0, -1, 1)
    Wx = (signs * mags).astype(dtype)
    Wh = (-signs * mags[::-1]).astype(dtype)
    b = np.linspace(-3, 3, 4 * k).astype(dtype)
    X = np.linspace(-4, 4, 40 * k).reshape(40, k).astype(dtype)
    Hs = np.tanh(np.linspace(-5, 5, 40 * k)).reshape(40, k).astype(dtype)
    half = np.full(4 * k, 0.5, dtype=dtype)
    half[2 * k:3 * k] = 1
    z = X @ Wx.T + b + Hs @ Wh.T
    z_half = X @ (Wx * half[:, None]).T + b * half + Hs @ (Wh * half[:, None]).T
    t = np.tanh(z_half)
    gates = (t + 1) * 0.5
    ifo = np.r_[0:2 * k, 3 * k:4 * k]
    assert _same_bits(gates[:, ifo], sigmoid(z[:, ifo]))
    assert _same_bits(t[:, 2 * k:3 * k], np.tanh(z[:, 2 * k:3 * k]))
    assert _same_bits(sigmoid(z_half[:, ifo] * 2), sigmoid(z[:, ifo]))
    tiny = np.array([np.finfo(dtype).smallest_subnormal], dtype=dtype)
    assert tiny * 0.5 == 0
