"""Label-splicing attention: per-level token weights from the max dot
product of each hidden state with the rows of the spliced label+keyword
matrix, and the level-specific document embeddings built from them.

Both BiLSTM directions are one (2, N, k) stack, and G documents of equal
token and keyword counts add a leading axis, (G, 2, N, k), unpadded, so
each step runs once for all.  Each slice rounds as a pass over it alone: a
stacked matmul makes the same BLAS call per item, reductions run row by row
over the last axis, and each context row takes its gradient in the same
order, bit for bit the per-direction oracle in tests/oracles.py.

The global embedding (index 0) uses all-ones raw weights, so under
sum normalization it is the per-direction mean of the hidden states.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigRangeError, DimMismatchError, EmptyContextError
from .numerics import scatter_rows

MODES = ("sum_normalized", "none", "softmax")

_EPS = 1e-8


def splice_level(Ti, Ke):
    """Row-stack [labels; keywords] for m x k keywords, or a (G, L + m, k)
    stack for a (G, m, k) one."""
    Ti = np.asarray(Ti)
    Ke = np.asarray(Ke)
    if Ti.shape[1] != Ke.shape[-1]:
        raise DimMismatchError(f"label dim {Ti.shape[1]} != keyword dim {Ke.shape[-1]}")
    out = np.empty(Ke.shape[:-2] + (len(Ti) + Ke.shape[-2], Ti.shape[1]), np.result_type(Ti, Ke))
    out[..., :len(Ti), :] = Ti
    out[..., len(Ti):, :] = Ke
    return out


def token_weights(H, ctx, with_argmax=False):
    """Raw weight per token of H, N x k or a (..., N, k) stack: max over the
    rows of ctx (M x k, or a (..., M, k) stack broadcast against H) of the
    dot product with the token's hidden state.  Ties go to the lowest row."""
    H = np.asarray(H)
    ctx = np.asarray(ctx)
    if ctx.ndim < 2 or ctx.shape[-2] == 0:
        raise EmptyContextError("context matrix has no rows")
    if H.shape[-1] != ctx.shape[-1]:
        raise DimMismatchError(f"hidden dim {H.shape[-1]} != context dim {ctx.shape[-1]}")
    S = H @ ctx.swapaxes(-1, -2)
    arg = S.argmax(axis=-1)
    w = S.reshape(-1, S.shape[-1])[np.arange(arg.size), arg.reshape(-1)].reshape(arg.shape)
    return (w, arg) if with_argmax else w


def normalize_weights(raw, mode):
    """(weights, cache) for the chosen mode, each row normalised over the last
    axis; cache is what the backward pass needs.  A sum-normalised row whose raw
    weights sum to about 0 falls back to uniform, warns, and passes no gradient."""
    raw = np.asarray(raw)
    if mode == "none":
        return raw.copy(), ("none",)
    if mode == "sum_normalized":
        s = raw.sum(axis=-1, keepdims=True)
        flat = np.abs(s) <= _EPS
        if not flat.any():
            return raw / s, ("sum", s)
        for _ in range(np.count_nonzero(flat)):
            warnings.warn("degenerate attention weights; falling back to uniform")
        # 1 / n as np.full(n, 1.0 / n, dtype) holds it; a divisor of inf passes no gradient
        w = np.where(flat, 1, raw) / np.where(flat, raw.shape[-1], s)
        return w, ("sum", np.where(flat, np.inf, s))
    if mode == "softmax":
        e = np.exp(raw - raw.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True), ("softmax",)
    raise ConfigRangeError(f"attention mode must be one of {MODES}, got {mode!r}")


def _normalize_backward(dw, weights, cache):
    if cache[0] == "none":
        return dw
    # each row's dot product as np.dot takes it
    dot = (dw[..., None, :] @ weights[..., :, None])[..., 0]
    if cache[0] == "sum":
        return (dw - dot) / cache[1]
    return weights * (dw - dot)


def attention_forward(H_fwd, H_bwd, contexts, mode="sum_normalized"):
    """x^0..x^H and a cache for the backward pass from N x k states and one
    spliced M x k context per level 1..H, or from (G, N, k) and (G, M, k)
    stacks of G documents (x^i G x 2k); x^0 has all-ones raw weights."""
    H = np.concatenate([np.asarray(h)[..., None, :, :] for h in (H_fwd, H_bwd)], axis=-3)
    xs = []
    cache = {"H": H, "levels": []}
    for ctx in [None] + [np.asarray(c) for c in contexts]:
        if ctx is None:
            raw, arg = np.ones(H.shape[:-1], dtype=H.dtype), None
        else:
            raw, arg = token_weights(H, ctx[..., None, :, :], with_argmax=True)
        w, c = normalize_weights(raw, mode)
        xs.append((w[..., None, :] @ H).reshape(H.shape[:-3] + (-1,)))
        cache["levels"].append({"ctx": ctx, "arg": arg, "w": w, "c": c})
    return xs, cache


def _similarity_backward(da, H_dir, ctx, arg, dH, dctx):
    """Scatter gradient of raw max-dot-product weights into hidden states
    and context rows (winner row takes all)."""
    nz = np.nonzero(da)[0]
    l = arg[nz]
    d = da[nz, None]
    dH[nz] += d * ctx[l]
    scatter_rows(dctx, l, d * H_dir[nz])


def attention_backward(dxs, cache):
    """Given dL/dx^i for i = 0..H (None entries allowed), shaped like x^i,
    return (dH_fwd, dH_bwd, dcontexts) shaped like the forward's inputs.
    dcontexts has one entry per level 1..H; level 0 has constant raw
    weights, so nothing flows into a context."""
    H = cache["H"]
    k = H.shape[-1]
    dH = np.zeros_like(H)
    dcontexts = []
    for dx, lv in zip(dxs, cache["levels"]):
        ctx, w = lv["ctx"], lv["w"]
        if ctx is not None:
            dcontexts.append(np.zeros(ctx.shape, ctx.dtype))
        if dx is None:
            continue
        half = dx.reshape(dx.shape[:-1] + (2, k, 1))   # the forward, then the backward half
        dH += w[..., None] * half.swapaxes(-1, -2)
        if ctx is not None:
            da = _normalize_backward((H @ half)[..., 0], w, lv["c"])
            # one scatter: per document, forward rows before backward rows
            arg = lv["arg"].reshape(-1, w.shape[-2] * w.shape[-1])
            rows = arg + ctx.shape[-2] * np.arange(len(arg))[:, None]
            _similarity_backward(da.reshape(-1), H.reshape(-1, k), ctx.reshape(-1, k),
                                 rows.reshape(-1), dH.reshape(-1, k),
                                 dcontexts[-1].reshape(-1, k))
    return dH[..., 0, :, :], dH[..., 1, :, :], dcontexts
