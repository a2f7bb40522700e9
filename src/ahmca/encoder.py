"""BiLSTM over the spliced token sequence.

Hidden size equals the embedding size k.  Both directions start from zero
states; the backward direction is the same recurrence run over the
reversed sequence with its own parameters, rows re-aligned to original
token positions.  Gate order inside stacked parameters is i, f, g, o.

Each direction works on whole-sequence matrices: one input projection
X Wx^T + b covers every step, so the time loop only adds Wh h.  Its cache
is the activated gate matrix G (N x 4k, i, f, g, o side by side) and the
cell and hidden matrices C and H, each with a zero initial row.  BPTT
writes each step's pre-activation gradient into one row of dZ and turns
that into the input and parameter gradients with four products after the
loop.
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


def _run_direction(X, Wx, Wh, b):
    """The recurrence over the rows of X; returns the cache (X, G, C, H)."""
    N = X.shape[0]
    k = Wh.shape[1]
    if X.shape[1] != Wx.shape[1] or Wx.shape[0] != 4 * k:
        raise DimMismatchError(f"encoder shapes: X {X.shape}, Wx {Wx.shape}, k {k}")
    G = X @ Wx.T + b            # pre-activations, overwritten by the gates
    C = np.zeros((N + 1, k), dtype=G.dtype)
    H = np.zeros((N + 1, k), dtype=G.dtype)
    for n in range(N):
        z = G[n] + Wh @ H[n]
        G[n] = sigmoid(z)
        G[n, 2 * k:3 * k] = np.tanh(z[2 * k:3 * k])
        i, f, g, o = G[n].reshape(4, k)
        C[n + 1] = f * C[n] + i * g
        H[n + 1] = o * np.tanh(C[n + 1])
    return X, G, C, H


def bilstm_encode(X, params):
    """Encode an N x k matrix; returns ((H_fwd, H_bwd), cache) with the
    hidden states aligned to token positions."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInputError("encoder input must be a non-empty N x k matrix")
    fwd = _run_direction(X, params["lstm_fwd.Wx"], params["lstm_fwd.Wh"], params["lstm_fwd.b"])
    bwd = _run_direction(X[::-1], params["lstm_bwd.Wx"], params["lstm_bwd.Wh"],
                         params["lstm_bwd.b"])
    H_fwd, H_bwd_rev = fwd[3][1:], bwd[3][1:]
    return (H_fwd, H_bwd_rev[::-1].copy()), (fwd, bwd)


def _direction_backward(dH, cache, Wx, Wh):
    """BPTT through one direction; dH rows are in traversal order."""
    X, G, C, H = cache
    N, k = dH.shape
    I, F, Gg, O = (G[:, j * k:(j + 1) * k] for j in range(4))
    TC = np.tanh(C[1:])
    # dz of gates i, f, g is dc (dz_o: dh) times A, the factor the gate
    # multiplies in the forward, times D, the slope of its nonlinearity
    A = np.stack([Gg, C[:-1], I, TC], axis=1)
    D = (G * (1 - G)).reshape(N, 4, k)
    D[:, 2] = 1 - Gg * Gg
    dc_of_dh = O * (1 - TC * TC)
    dZ = np.empty_like(G)
    dZ4 = dZ.reshape(N, 4, k)
    dh_next = np.zeros(k, dtype=G.dtype)
    dc_next = np.zeros(k, dtype=G.dtype)
    for n in range(N - 1, -1, -1):
        dh = dH[n] + dh_next
        dc = dc_next + dh * dc_of_dh[n]
        dZ4[n, :3] = dc * A[n, :3] * D[n, :3]
        dZ4[n, 3] = dh * A[n, 3] * D[n, 3]
        dh_next = dZ[n] @ Wh
        dc_next = dc * F[n]
    return dZ @ Wx, dZ.T @ X, dZ.T @ H[:-1], dZ.sum(axis=0)


def bilstm_backward(dH_fwd, dH_bwd, cache, params):
    """Gradients of a scalar loss wrt inputs and LSTM parameters, given
    dL/dH for both directions (rows aligned to token positions)."""
    fwd, bwd = cache
    dX_f, dWx_f, dWh_f, db_f = _direction_backward(
        dH_fwd, fwd, params["lstm_fwd.Wx"], params["lstm_fwd.Wh"])
    dX_b_rev, dWx_b, dWh_b, db_b = _direction_backward(
        dH_bwd[::-1], bwd, params["lstm_bwd.Wx"], params["lstm_bwd.Wh"])
    dX = dX_f + dX_b_rev[::-1]
    grads = {
        "lstm_fwd.Wx": dWx_f, "lstm_fwd.Wh": dWh_f, "lstm_fwd.b": db_f,
        "lstm_bwd.Wx": dWx_b, "lstm_bwd.Wh": dWh_b, "lstm_bwd.b": db_b,
    }
    return dX, grads
