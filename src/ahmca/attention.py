"""Label-splicing attention: per-level token weights from max similarity
against the spliced label+keyword matrix, and the level-specific document
embeddings built from them.

Both BiLSTM directions are one (2, N, k) stack, so each step runs once for
both; each direction's slice rounds the same operands in the same order as a
pass over it alone, bit for bit the per-direction oracle in tests/oracles.py.

The global embedding (index 0) uses all-ones raw weights, so under
sum normalization it is the per-direction mean of the hidden states.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigRangeError, DimMismatchError, EmptyContextError

MODES = ("sum_normalized", "none", "softmax")
SIMILARITIES = ("dot", "cosine")

_EPS = 1e-8
_NORM_EPS = 1e-12


def splice_level(Ti, Ke):
    """Row-stack [labels; keywords]; with no keywords the context is just
    the level's label matrix."""
    Ti = np.asarray(Ti)
    if Ke is None or len(Ke) == 0:
        return Ti.copy()
    Ke = np.asarray(Ke)
    if Ti.shape[1] != Ke.shape[1]:
        raise DimMismatchError(f"label dim {Ti.shape[1]} != keyword dim {Ke.shape[1]}")
    return np.vstack([Ti, Ke])


def token_weights(H, ctx, similarity="dot", with_argmax=False):
    """Raw weight per token of H, N x k or a (..., N, k) stack: max over
    context rows of the similarity with the token's hidden state.  Ties go
    to the lowest row index."""
    H = np.asarray(H)
    ctx = np.asarray(ctx)
    if ctx.ndim != 2 or ctx.shape[0] == 0:
        raise EmptyContextError("context matrix has no rows")
    if H.shape[-1] != ctx.shape[1]:
        raise DimMismatchError(f"hidden dim {H.shape[-1]} != context dim {ctx.shape[1]}")
    if similarity == "dot":
        S = H @ ctx.T
    elif similarity == "cosine":
        hn = np.maximum(np.linalg.norm(H, axis=-1, keepdims=True), _NORM_EPS)
        tn = np.maximum(np.linalg.norm(ctx, axis=1, keepdims=True), _NORM_EPS)
        S = (H / hn) @ (ctx / tn).T
    else:
        raise ConfigRangeError(f"similarity must be one of {SIMILARITIES}, "
                               f"got {similarity!r}")
    arg = S.argmax(axis=-1)
    w = S[(*np.indices(arg.shape, sparse=True), arg)]
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


def attention_forward(H_fwd, H_bwd, contexts, mode="sum_normalized", similarity="dot"):
    """Compute x^0..x^H and a cache for the backward pass.  contexts is one
    spliced matrix per level 1..H; x^0 uses all-ones raw weights over both
    directions."""
    H = np.array([H_fwd, H_bwd])
    xs = []
    cache = {"H": H, "similarity": similarity, "levels": []}
    for ctx in [None] + list(contexts):
        if ctx is None:
            raw, arg = np.ones(H.shape[:2], dtype=H.dtype), None
        else:
            raw, arg = token_weights(H, ctx, similarity, with_argmax=True)
        w, c = normalize_weights(raw, mode)
        xs.append((w[:, None] @ H).reshape(-1))
        cache["levels"].append({"ctx": ctx, "arg": arg, "w": w, "c": c})
    return xs, cache


def _similarity_backward(da, H_dir, ctx, arg, similarity, dH, dctx):
    """Scatter gradient of raw max-similarity weights into hidden states
    and context rows (winner row takes all)."""
    nz = np.nonzero(da)[0]
    l = arg[nz]
    d, h, t = da[nz, None], H_dir[nz], ctx[l]
    if similarity == "dot":
        dH[nz] += d * t
        np.add.at(dctx, l, d * h)
        return
    hn = np.maximum(np.linalg.norm(h, axis=1, keepdims=True), _NORM_EPS)
    tn = np.maximum(np.linalg.norm(t, axis=1, keepdims=True), _NORM_EPS)
    s = np.sum(h * t, axis=1, keepdims=True) / (hn * tn)
    dH[nz] += d * (t / (hn * tn) - s * h / hn ** 2)
    np.add.at(dctx, l, d * (h / (hn * tn) - s * t / tn ** 2))


def attention_backward(dxs, cache):
    """Given dL/dx^i for i = 0..H (None entries allowed), return
    (dH_fwd, dH_bwd, dcontexts).  dcontexts has one entry per level 1..H;
    level 0 has constant raw weights, so nothing flows into a context."""
    H = cache["H"]
    k = H.shape[-1]
    dH = np.zeros_like(H)
    dcontexts = []
    for dx, lv in zip(dxs, cache["levels"]):
        ctx, w = lv["ctx"], lv["w"]
        if ctx is not None:
            dcontexts.append(np.zeros_like(ctx))
        if dx is None:
            continue
        half = dx.reshape(2, k, 1)          # the forward, then the backward half
        dH += w[:, :, None] * half.transpose(0, 2, 1)
        if ctx is not None:
            da = _normalize_backward((H @ half)[..., 0], w, lv["c"])
            # one scatter: forward rows before backward rows
            _similarity_backward(da.reshape(-1), H.reshape(-1, k), ctx, lv["arg"].reshape(-1),
                                 cache["similarity"], dH.reshape(-1, k), dcontexts[-1])
    return dH[0], dH[1], dcontexts
