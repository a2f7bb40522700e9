"""BiLSTM over the spliced token sequence.

Hidden size equals the embedding size k.  Both directions start from zero
states; the backward direction is the same recurrence run over the
reversed sequence with its own parameters, rows re-aligned to original
token positions.  Gate order inside stacked parameters is i, f, g, o.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, EmptyInputError
from .numerics import sigmoid


def lstm_param_shapes(k):
    """Name -> shape of both directions' parameters, in initialisation order."""
    return {f"lstm_{d}.{w}": (4 * k,) if w == "b" else (4 * k, k)
            for d in ("fwd", "bwd") for w in ("Wx", "Wh", "b")}


def init_lstm_params(k, rng, dtype=np.float32):
    """uniform(-1/sqrt(k), 1/sqrt(k)) weights, forget-gate bias 1.0."""
    s = 1.0 / np.sqrt(k)
    params = {}
    for name, shape in lstm_param_shapes(k).items():
        if len(shape) == 2:
            params[name] = rng.uniform(-s, s, shape).astype(dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
            params[name][k:2 * k] = 1.0
    return params


def lstm_step(state, x, Wx, Wh, b):
    """One LSTM cell update; returns ((h, c), cache)."""
    h_prev, c_prev = state
    k = h_prev.shape[0]
    if x.shape[0] != Wx.shape[1] or Wx.shape[0] != 4 * k:
        raise DimMismatchError(f"lstm_step shapes: x {x.shape}, Wx {Wx.shape}, k {k}")
    z = Wx @ x + Wh @ h_prev + b
    i = sigmoid(z[:k])
    f = sigmoid(z[k:2 * k])
    g = np.tanh(z[2 * k:3 * k])
    o = sigmoid(z[3 * k:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (x, h_prev, c_prev, i, f, g, o, tc)
    return (h, c), cache


def _run_direction(X, Wx, Wh, b, dtype):
    N, k = X.shape
    h = np.zeros(k, dtype=dtype)
    c = np.zeros(k, dtype=dtype)
    H = np.empty((N, k), dtype=dtype)
    caches = []
    for n in range(N):
        (h, c), cache = lstm_step((h, c), X[n], Wx, Wh, b)
        H[n] = h
        caches.append(cache)
    return H, caches


def bilstm_encode(X, params, with_cache=False):
    """Encode an N x k matrix; returns (H_fwd, H_bwd) aligned to token
    positions, plus per-step caches when with_cache is set."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("encoder input must be a non-empty N x k matrix")
    dtype = X.dtype
    H_fwd, cache_f = _run_direction(
        X, params["lstm_fwd.Wx"], params["lstm_fwd.Wh"], params["lstm_fwd.b"], dtype)
    H_bwd_rev, cache_b = _run_direction(
        X[::-1], params["lstm_bwd.Wx"], params["lstm_bwd.Wh"], params["lstm_bwd.b"], dtype)
    H_bwd = H_bwd_rev[::-1].copy()
    if with_cache:
        return (H_fwd, H_bwd), (cache_f, cache_b)
    return H_fwd, H_bwd


def _direction_backward(dH, caches, Wx, Wh):
    """BPTT through one direction; dH rows are in traversal order."""
    N = len(caches)
    k = dH.shape[1]
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    db = np.zeros(4 * k, dtype=Wx.dtype)
    dX = np.zeros((N, k), dtype=Wx.dtype)
    dh_carry = np.zeros(k, dtype=Wx.dtype)
    dc_carry = np.zeros(k, dtype=Wx.dtype)
    for n in range(N - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, tc = caches[n]
        dh = dH[n] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate([
            di * i * (1 - i),
            df * f * (1 - f),
            dg * (1 - g * g),
            do * o * (1 - o),
        ])
        dWx += np.outer(dz, x)
        dWh += np.outer(dz, h_prev)
        db += dz
        dX[n] = Wx.T @ dz
        dh_carry = Wh.T @ dz
        dc_carry = dc * f
    return dX, dWx, dWh, db


def bilstm_backward(dH_fwd, dH_bwd, caches, params):
    """Gradients of a scalar loss wrt inputs and LSTM parameters, given
    dL/dH for both directions (rows aligned to token positions)."""
    cache_f, cache_b = caches
    dX_f, dWx_f, dWh_f, db_f = _direction_backward(
        dH_fwd, cache_f, params["lstm_fwd.Wx"], params["lstm_fwd.Wh"])
    dX_b_rev, dWx_b, dWh_b, db_b = _direction_backward(
        dH_bwd[::-1], cache_b, params["lstm_bwd.Wx"], params["lstm_bwd.Wh"])
    dX = dX_f + dX_b_rev[::-1]
    grads = {
        "lstm_fwd.Wx": dWx_f, "lstm_fwd.Wh": dWh_f, "lstm_fwd.b": db_f,
        "lstm_bwd.Wx": dWx_b, "lstm_bwd.Wh": dWh_b, "lstm_bwd.b": db_b,
    }
    return dX, grads
