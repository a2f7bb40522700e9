"""BiLSTM over the spliced token sequences of a mini-batch.

Hidden size equals the embedding size k.  Both directions start from zero
states; the backward direction is the same recurrence run over the
reversed sequence with its own parameters, rows re-aligned to original
token positions.  Gate order inside stacked parameters is i, f, g, o.

One call encodes a list of N_b x k documents in a single packed time loop
(pack_padded_sequence style, no padding): the documents are sorted by
length, longest first, and their rows laid out time-major, so the a_t
documents still running at step t are a prefix of that order and their
rows sit together.  The two directions' weights are stacked on a leading
axis: one input projection X Wx^T + b covers every step of both, and each
step adds h Wh^T for the (2, a_t, k) running states.  The cache is the
packed input Xp (2, R, k), the activated gates G and the cell and hidden
states C and H, all behind one block of B rows that holds the zero initial
states.  G (R, gate, direction, k), C and H (R, direction, k) are
row-major, so one step's rows are one contiguous slice, updated in place.
BPTT reads them through direction-major views, runs the same loop
backwards into one dZ buffer and turns it into the input and parameter
gradients with four products after the loop.

Bitwise contract: the layout changes no float.  Every product is the
stacked direction-major one (h Wh^T takes a transposed view of H, and
gemm sums the same way whatever the row stride), and every elementwise
step rounds the same operands in the same order; tests/oracles.py keeps
the direction-major loop, and the tests compare states and gradients with
it bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Packing(NamedTuple):
    """Time-major order of a batch of B documents.  Every packed matrix
    keeps B rows in front, which hold the zero initial states in C and H;
    buffer row B + r then holds packed row r, step t of the j-th longest
    document.

    steps: per step t, (s0, s1, p0): its buffer rows s0:s1 and the buffer
        row p0 where the previous step's rows start (the zero block at t=0);
    src: (2, B + sum N), per direction and buffer row, the row of the
        concatenated input read there (any row for the front block);
    prev: per packed row, the buffer row of its previous states;
    bounds: per document, its (start, end) rows in the concatenated input.
    """
    steps: list
    src: np.ndarray
    prev: np.ndarray
    bounds: list


def _packing(lengths):
    B = len(lengths)
    if B == 1:                  # one document: identity, then reversed
        N = lengths[0]
        fwd = np.arange(-1, N)
        fwd[0] = 0              # the front row may read any input row
        return Packing(list(zip(range(1, N + 1), range(2, N + 2), range(N))),
                       np.array([fwd, N - 1 - fwd]), fwd[1:], [(0, N)])
    lengths = np.asarray(lengths)
    T = lengths.max()
    order = np.argsort(-lengths, kind="stable")
    active = B - np.cumsum(np.bincount(lengths, minlength=T))[:T]   # a_t
    start = B + np.concatenate([[0], np.cumsum(active)])
    prev_start = np.concatenate([[0], start[:-2]])
    t = np.repeat(np.arange(T), active)
    j = np.arange(start[-1] - B) - (start[t] - B)
    doc = order[j]
    first = np.concatenate([[0], np.cumsum(lengths)])
    src = np.zeros((2, start[-1]), dtype=np.intp)
    src[0, B:] = first[doc] + t
    src[1, B:] = first[doc + 1] - 1 - t
    steps = list(zip(start[:-1].tolist(), start[1:].tolist(), prev_start.tolist()))
    bounds = list(zip(first[:-1].tolist(), first[1:].tolist()))
    return Packing(steps, src, prev_start[t] + j, bounds)


def _pair(params, name):
    return params[f"lstm_fwd.{name}"], params[f"lstm_bwd.{name}"]


def bilstm_encode(Xs, params):
    """Encode a list of N_b x k matrices; returns ((H_fwd, H_bwd), cache),
    per direction a list of the documents' hidden states aligned to token
    positions."""
    Xs = [np.asarray(X) for X in Xs]
    if not Xs or any(X.ndim != 2 or X.shape[0] == 0 for X in Xs):
        raise EmptyInputError("encoder input must be a non-empty list of "
                              "non-empty N x k matrices")
    # weights stacked transposed, and never fewer than two rows per product
    # (the front block gives the projection its second row): numpy hands a
    # one-row product to gemv, which sums in another order than gemm, and a
    # document's states would depend on its batch
    WxT = np.stack([W.T for W in _pair(params, "Wx")])
    k = WxT.shape[1]
    if any(X.shape[1] != k for X in Xs) or WxT.shape[2] != 4 * k:
        raise DimMismatchError(f"encoder shapes: X {[X.shape for X in Xs]}, "
                               f"Wx {params['lstm_fwd.Wx'].shape}")
    WhT = np.stack([W.T for W in _pair(params, "Wh")])
    pack = _packing([len(X) for X in Xs])
    B = len(Xs)
    X = np.concatenate(Xs)
    Xp = X[pack.src]
    bias = np.array(_pair(params, "b"))
    R = Xp.shape[1]
    # row-major: G[r, gate, direction], C[r, direction], H[r, direction];
    # HT is H as the (2, R, k) stack the products take
    G = np.empty((R, 4, 2, k), dtype=np.result_type(Xp, WxT, bias))
    np.add((Xp @ WxT).reshape(2, R, 4, k).transpose(1, 2, 0, 3),
           bias.reshape(2, 4, k).transpose(1, 0, 2), out=G)
    C = np.zeros((R, 2, k), dtype=G.dtype)
    H = np.zeros_like(C)
    HT = H.transpose(1, 0, 2)
    for s0, s1, p0 in pack.steps:
        a = s1 - s0
        z = G[s0:s1]
        np.add(z, (HT[:, p0:p0 + max(a, 2)] @ WhT)[:, :a].reshape(2, a, 4, k)
               .transpose(1, 2, 0, 3), z)
        g = np.tanh(z[:, 2])        # before sigmoid overwrites z
        sigmoid(z, out=z)
        z[:, 2] = g
        c = C[s0:s1]
        np.multiply(z[:, 1], C[p0:p0 + a], c)
        c += z[:, 0] * g
        h = H[s0:s1]
        np.tanh(c, h)
        h *= z[:, 3]
    out = np.empty((2,) + X.shape, dtype=H.dtype)
    out[0, pack.src[0, B:]] = H[B:, 0]
    out[1, pack.src[1, B:]] = H[B:, 1]
    return (tuple([out[d, a:b] for a, b in pack.bounds] for d in range(2)),
            (pack, Xp, G, C, H))


def bilstm_backward(dH_fwd, dH_bwd, cache, params):
    """Gradients of a scalar loss wrt the inputs and LSTM parameters, given
    per document dL/dH for both directions (rows aligned to token
    positions); the input gradients come back as a list like the inputs."""
    pack, Xp, G, C, H = cache
    B = len(pack.bounds)
    R, _, _, k = G.shape
    # direction-major views: G (2, R, 4, k), C and H (2, R, k); every
    # array built from them below is laid out direction-major
    G, C, H = G.transpose(2, 0, 1, 3), C.transpose(1, 0, 2), H.transpose(1, 0, 2)
    fwd, bwd = pack.src[:, B:]
    dHp = np.empty((2, R, k), dtype=G.dtype)
    dHp[0, B:] = np.concatenate(dH_fwd)[fwd]
    dHp[1, B:] = np.concatenate(dH_bwd)[bwd]
    I, F, Gg, O = (G[:, :, j] for j in range(4))
    TC = np.tanh(C, order="C")
    # dz of gates i, f, g is dc (dz_o: dh) times A, the factor the gate
    # multiplies in the forward, times D, the slope of its nonlinearity;
    # the front block's rows of A and D are never read
    C_prev = np.empty_like(TC)
    C_prev[:, B:] = C[:, pack.prev]
    A = np.stack([Gg, C_prev, I, TC], axis=2)
    D = np.multiply(G, 1 - G, order="C")
    D[:, :, 2] = 1 - Gg * Gg
    dc_of_dh = np.multiply(O, 1 - TC * TC, order="C")
    Wh = np.stack(_pair(params, "Wh"))
    dZ = np.empty((2, R, 4 * k), dtype=G.dtype)
    dZ4 = dZ.reshape(A.shape)
    # carried gradients, one row per document in length order; rows past
    # a_t stay zero until their document's last step
    dh_next = np.zeros((2, B, k), dtype=G.dtype)
    dc_next = np.zeros_like(dh_next)
    for s0, s1, _ in reversed(pack.steps):
        a = s1 - s0
        dh = dHp[:, s0:s1] + dh_next[:, :a]
        dc = dc_next[:, :a] + dh * dc_of_dh[:, s0:s1]
        dZ4[:, s0:s1, :3] = dc[:, :, None] * A[:, s0:s1, :3] * D[:, s0:s1, :3]
        dZ4[:, s0:s1, 3] = dh * A[:, s0:s1, 3] * D[:, s0:s1, 3]
        dh_next[:, :a] = dZ[:, s0:s1] @ Wh
        dc_next[:, :a] = dc * F[:, s0:s1]
    dZ = dZ[:, B:]
    dXp = dZ @ np.stack(_pair(params, "Wx"))
    dX = np.empty_like(dXp[0])
    dX[fwd] = dXp[0]
    dX[bwd] += dXp[1]
    dZT = dZ.transpose(0, 2, 1)
    grads = {"Wx": dZT @ Xp[:, B:], "Wh": dZT @ H[:, pack.prev], "b": dZ.sum(axis=1)}
    return [dX[a:b] for a, b in pack.bounds], {f"lstm_{direction}.{name}": g[d]
                                               for d, direction in enumerate(("fwd", "bwd"))
                                               for name, g in grads.items()}
