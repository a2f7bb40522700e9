"""BiLSTM over the spliced token sequences of a mini-batch.

Hidden size equals the embedding size k.  Both directions start from zero
states; the backward direction is the same recurrence run over the
reversed sequence with its own parameters, rows re-aligned to original
token positions.  Gate order inside stacked parameters is i, f, g, o.

One call encodes a batch in a single packed time loop: the documents'
token rows come as one sum N_b x k matrix X, document after document,
with their lengths N_b, and each direction's states come back as one
matrix aligned to X's rows (pack_padded_sequence style, no padding).  The
documents are sorted by length, longest first, and their rows laid out
time-major, so the a_t documents still running at step t are a prefix of
that order and their rows sit together.  The two directions' weights are
stacked on a leading axis, copied into one C-order (4, k, 4k) array: one
input projection X Wx^T + b covers every step of both, and each step adds
h Wh^T for the (2, a_t, k) running states.  The i, f and o rows of the
stacked Wx, Wh and b are halved, since sigmoid(z) = (tanh(z/2) + 1) / 2:
one tanh over a step's pre-activations then serves all four gates,
and the step writes (t + 1) / 2 for i, f and o into a step buffer.  The
step buffers (h Wh^T, the tanh, the gates, i * g) are allocated once per
call and read through views built once per active count a_t, so a step
is ten NumPy calls.  The cache is the packed input Xp (2, R, k), the
gate pre-activations G (i, f and o halved) and the cell and hidden states
C and H, all behind one block of B rows that holds the zero initial
states.  G (R, gate, direction, k), C and H (R, direction, k) are
row-major, so one step's rows are one contiguous slice, updated in place.
The forward is the loop and nothing else: BPTT, the only reader of the
activated gates, activates G in place (sigmoid for i, f, o, tanh for g)
and so consumes the cache.  It builds its elementwise factors (A, D and
dc_of_dh) row-major from G, C and H, as the forward left them (about
60% of the time it takes to build them direction-major from strided
views); runs the same loop backwards through direction-major views of
them into one dZ buffer; and turns dZ into the input and parameter
gradients with four products after the loop.

Bitwise contract: neither the layout nor the gate scaling changes a
float.  Every product is the stacked direction-major one (h Wh^T takes a
transposed view of H and writes into a step buffer, and gemm sums the
same way whatever the row stride).  An elementwise ufunc rounds each
element on its own, so the layout of the arrays it reads and writes,
row-major or direction-major, strided or not, moves no bit.  Halving is
exact in binary floating point, so the halved products and sums are the
halves of the unhalved ones, tanh sees the same z/2 that sigmoid
computes, and (t + 1) / 2 is sigmoid's own last two operations; doubling
back before BPTT's sigmoid is exact too.  This holds while no weight,
product or partial sum falls below the smallest normal number (2^-126 in
float32), where halving can round.  Every other elementwise step rounds
the same operands in the same order.  tests/oracles.py keeps the
direction-major loop with unscaled weights, and the tests compare
states, cache and gradients with it bit for bit.

Batch contract: a document's states are bitwise the same alone as in any
batch.  No product has fewer than two rows (numpy hands a one-row product
to gemv, which sums in another order than gemm), and the weight stack is
C-order: with the F-order stack of W^T views, OpenBLAS rounds a row
differently at another row count.  BPTT has no such contract.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, EmptyInputError
from .numerics import sigmoid


def lstm_param_shapes(k):
    """Name -> shape of both directions' parameters, in the order init_params fills them."""
    return {f"lstm_{d}.{w}": (4 * k,) if w == "b" else (4 * k, k)
            for d in ("fwd", "bwd") for w in ("Wx", "Wh", "b")}


class Packing(NamedTuple):
    """Time-major order of a batch of B documents.  Every packed matrix
    keeps B rows in front, which hold the zero initial states in C and H;
    buffer row B + r then holds packed row r, step t of the j-th longest
    document.

    steps: per step t, (s0, s1, p0): its buffer rows s0:s1 and the buffer
        row p0 where the previous step's rows start (the zero block at t=0);
    src: (2, B + sum N), per direction and buffer row, the row of the
        input X read there (any row for the front block);
    prev: per packed row, the buffer row of its previous states.
    """
    steps: list
    src: np.ndarray
    prev: np.ndarray


def _packing(lengths):
    B = len(lengths)
    if B == 1:                  # one document: identity, then reversed
        N = lengths[0]
        fwd = np.arange(-1, N)
        fwd[0] = 0              # the front row may read any input row
        return Packing(list(zip(range(1, N + 1), range(2, N + 2), range(N))),
                       np.array([fwd, N - 1 - fwd]), fwd[1:])
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
    return Packing(steps, src, prev_start[t] + j)


def _pair(params, name):
    return params[f"lstm_fwd.{name}"], params[f"lstm_bwd.{name}"]


def bilstm_encode(X, lengths, params):
    """Encode the sum N_b x k token rows X of documents of the given lengths,
    in order; returns ((H_fwd, H_bwd), cache), per direction the hidden
    states as one matrix aligned to X's rows."""
    X = np.asarray(X)
    if X.ndim != 2 or len(lengths) == 0 or min(lengths) < 1:
        raise EmptyInputError("encoder input must be one or more non-empty documents")
    Wx = params["lstm_fwd.Wx"]
    k = Wx.shape[1]
    if X.shape != (sum(lengths), k) or Wx.shape[0] != 4 * k:
        raise DimMismatchError(f"encoder shapes: X {X.shape}, rows {sum(lengths)}, Wx {Wx.shape}")
    # Wx^T and Wh^T of both directions copied into one C-order stack, the
    # i, f and o rows halved, and never fewer than two rows per product
    # (the front block gives the projection its second row; see the batch
    # contract).  Both dtypes need two rows: a one-row (2, 1, k) @ (2, k, 4k)
    # product differed from row 0 of the 2- to 40-row products in every
    # trial at float64 (k = 8, 32, 64) and float32 k = 64, at 1 and 2 BLAS
    # threads; only float32 with k <= 32 matched
    Ws = [W for name in ("Wx", "Wh") for W in _pair(params, name)]
    WT = np.empty((4, k, 4 * k), dtype=np.result_type(*Ws))
    for j, W in enumerate(Ws):
        WT[j] = W.T
    bias = np.array(_pair(params, "b"))
    half = np.full(4 * k, 0.5, dtype=WT.dtype)
    half[2 * k:3 * k] = 1
    WT *= half
    bias *= half
    WxT, WhT = WT[:2], WT[2:]
    pack = _packing(lengths)
    B = len(lengths)
    Xp = X[pack.src]
    R = Xp.shape[1]
    # row-major: G[r, gate, direction], C[r, direction], H[r, direction];
    # HT is H as the (2, R, k) stack the products take
    G = np.empty((R, 4, 2, k), dtype=np.result_type(Xp, WxT, bias))
    np.add((Xp @ WxT).reshape(2, R, 4, k).transpose(1, 2, 0, 3),
           bias.reshape(2, 4, k).transpose(1, 0, 2), out=G)
    C = np.zeros((R, 2, k), dtype=G.dtype)
    H = np.zeros_like(C)
    HT = H.transpose(1, 0, 2)
    # step buffers, reused by every step: the product h Wh^T, the tanh of
    # the pre-activations, the i, f, o gates (t + 1) / 2 (gate g's slot
    # unused) and i * g; views of their first a rows are built once per a,
    # and the ufuncs are bound to locals, looked up once instead of per step
    P = np.empty((2, max(B, 2), 4 * k), dtype=G.dtype)
    T = np.empty((B, 4, 2, k), dtype=G.dtype)
    S = np.empty_like(T)
    U = np.empty((B, 2, k), dtype=G.dtype)
    views = {}
    add, multiply, tanh, matmul = np.add, np.multiply, np.tanh, np.matmul
    for s0, s1, p0 in pack.steps:
        a = s1 - s0
        if a not in views:
            m = max(a, 2)
            t, s = T[:a], S[:a]
            views[a] = (m, P[:, :m], P[:, :a].reshape(2, a, 4, k).transpose(1, 2, 0, 3),
                        t, s, U[:a], s[:, 0], s[:, 1], t[:, 2], s[:, 3])
        m, p, pz, t, s, u, i, f, g, o = views[a]
        matmul(HT[:, p0:p0 + m], WhT, out=p)
        z = G[s0:s1]
        add(z, pz, z)
        tanh(z, t)
        add(t, 1, s)
        multiply(s, 0.5, s)
        c = C[s0:s1]
        multiply(f, C[p0:p0 + a], c)
        add(c, multiply(i, g, u), c)
        h = H[s0:s1]
        tanh(c, h)
        multiply(h, o, h)
    out = np.empty((2,) + X.shape, dtype=H.dtype)
    out[0, pack.src[0, B:]] = H[B:, 0]
    out[1, pack.src[1, B:]] = H[B:, 1]
    return (out[0], out[1]), (pack, Xp, G, C, H)


def bilstm_backward(dH_fwd, dH_bwd, cache, params):
    """Gradients of a scalar loss wrt the inputs and LSTM parameters, given
    dL/dH for both directions as matrices aligned to the input rows; the
    input gradient dX comes back as one matrix of that shape.  Consumes
    the cache: its gates are activated in place and then frozen, so a
    second call on it raises.  Unlike the forward states, the input
    gradients depend on the batch, mostly because the step product dZ Wh
    has a_t rows and no two-row rule: numpy hands it to gemv wherever one
    document is left running, so a document's dX can differ in the last
    bits between batches."""
    pack, Xp, G, C, H = cache
    # activate the loop's pre-activations in place: tanh for g, sigmoid for
    # i, f and o doubled back (exact)
    Gg = np.tanh(G[:, 2])
    sigmoid(np.multiply(G, 2, G), out=G)
    G[:, 2] = Gg
    G.flags.writeable = False
    B = pack.steps[0][0]        # the first step's rows follow the front block
    R, _, _, k = G.shape
    fwd, bwd = pack.src[:, B:]
    dHp = np.empty((2, R, k), dtype=G.dtype)
    dHp[0, B:] = dH_fwd[fwd]
    dHp[1, B:] = dH_bwd[bwd]
    # dz of gates i, f, g is dc (dz_o: dh) times A, the factor the gate
    # multiplies in the forward, times D, the slope of its nonlinearity;
    # the front block's rows of A and D are never read.  A, D and dc_of_dh
    # are built row-major, as the forward left G, C and H: (R, gate,
    # direction, k) and (R, direction, k)
    TC = np.tanh(C)
    C_prev = np.empty_like(TC)
    C_prev[B:] = C[pack.prev]
    A = np.stack([G[:, 2], C_prev, G[:, 0], TC], axis=1)
    D = 1 - G
    D *= G                      # G (1 - G): a product rounds the same either way
    D[:, 2] = 1 - Gg * Gg
    dc_of_dh = G[:, 3] * (1 - TC * TC)
    # direction-major views, the layout of the products and of dZ: A, D
    # (2, R, 4, k), F, H and dc_of_dh (2, R, k)
    A, D = (X.transpose(2, 0, 1, 3) for X in (A, D))
    F = G[:, 1].transpose(1, 0, 2)
    H, dc_of_dh = (X.transpose(1, 0, 2) for X in (H, dc_of_dh))
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
    return dX, {f"lstm_{direction}.{name}": g[d]
                for d, direction in enumerate(("fwd", "bwd")) for name, g in grads.items()}
