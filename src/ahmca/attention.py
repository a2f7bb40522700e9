"""Label-splicing attention: per-level token weights from max similarity
against the spliced label+keyword matrix, and the level-specific document
embeddings built from them.

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


def token_weights(H_dir, ctx, similarity="dot", with_argmax=False):
    """Raw weight per token: max over context rows of the similarity with
    the token's hidden state.  Ties go to the lowest row index."""
    H_dir = np.asarray(H_dir)
    ctx = np.asarray(ctx)
    if ctx.ndim != 2 or ctx.shape[0] == 0:
        raise EmptyContextError("context matrix has no rows")
    if H_dir.shape[1] != ctx.shape[1]:
        raise DimMismatchError(f"hidden dim {H_dir.shape[1]} != context dim {ctx.shape[1]}")
    if similarity == "dot":
        S = H_dir @ ctx.T
    elif similarity == "cosine":
        hn = np.maximum(np.linalg.norm(H_dir, axis=1, keepdims=True), _NORM_EPS)
        tn = np.maximum(np.linalg.norm(ctx, axis=1, keepdims=True), _NORM_EPS)
        S = (H_dir / hn) @ (ctx / tn).T
    else:
        raise ConfigRangeError(f"similarity must be one of {SIMILARITIES}, "
                               f"got {similarity!r}")
    arg = S.argmax(axis=1)
    w = S[np.arange(S.shape[0]), arg]
    return (w, arg) if with_argmax else w


def normalize_weights(raw, mode):
    """Returns (weights, cache) for the chosen mode.  cache is what the
    backward pass needs; degenerate==True means the uniform fallback fired
    and no gradient flows through the raw weights."""
    raw = np.asarray(raw)
    n = raw.shape[0]
    if mode == "none":
        return raw.copy(), ("none",)
    if mode == "sum_normalized":
        s = raw.sum()
        if abs(s) <= _EPS:
            warnings.warn("degenerate attention weights; falling back to uniform")
            return np.full(n, 1.0 / n, dtype=raw.dtype), ("degenerate",)
        return raw / s, ("sum", s)
    if mode == "softmax":
        z = raw - raw.max()
        e = np.exp(z)
        w = e / e.sum()
        return w, ("softmax", w)
    raise ConfigRangeError(f"attention mode must be one of {MODES}, got {mode!r}")


def _normalize_backward(dw, raw, weights, cache):
    kind = cache[0]
    if kind == "none":
        return dw.copy()
    if kind == "degenerate":
        return np.zeros_like(raw)
    if kind == "sum":
        s = cache[1]
        return (dw - np.dot(dw, weights)) / s
    # softmax
    w = cache[1]
    return w * (dw - np.dot(dw, w))


def attention_forward(H_fwd, H_bwd, contexts, mode="sum_normalized", similarity="dot"):
    """Compute x^0..x^H and a cache for the backward pass.

    contexts is one spliced matrix per level 1..H; x^0 uses all-ones raw
    weights over both directions.
    """
    N = H_fwd.shape[0]
    dtype = H_fwd.dtype
    ones = np.ones(N, dtype=dtype)
    xs = []
    cache = {"H_fwd": H_fwd, "H_bwd": H_bwd, "mode": mode,
             "similarity": similarity, "levels": []}

    for li, ctx in enumerate([None] + list(contexts)):
        if li == 0:
            raw_f, raw_b = ones, ones
            arg_f = arg_b = None
        else:
            raw_f, arg_f = token_weights(H_fwd, ctx, similarity, with_argmax=True)
            raw_b, arg_b = token_weights(H_bwd, ctx, similarity, with_argmax=True)
        wf, cf = normalize_weights(raw_f, mode)
        wb, cb = normalize_weights(raw_b, mode)
        xs.append(np.concatenate([wf @ H_fwd, wb @ H_bwd]))
        cache["levels"].append({
            "ctx": ctx, "raw_f": raw_f, "raw_b": raw_b,
            "arg_f": arg_f, "arg_b": arg_b,
            "wf": wf, "wb": wb, "cf": cf, "cb": cb,
        })
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
    H_fwd, H_bwd = cache["H_fwd"], cache["H_bwd"]
    similarity = cache["similarity"]
    k = H_fwd.shape[1]
    dH_fwd = np.zeros_like(H_fwd)
    dH_bwd = np.zeros_like(H_bwd)
    dcontexts = []
    for li, (dx, lv) in enumerate(zip(dxs, cache["levels"])):
        dctx = None if li == 0 else np.zeros_like(lv["ctx"])
        if dx is not None:
            dxf, dxb = dx[:k], dx[k:]
            for H_dir, dH, half, w, c, raw, arg in (
                (H_fwd, dH_fwd, dxf, lv["wf"], lv["cf"], lv["raw_f"], lv["arg_f"]),
                (H_bwd, dH_bwd, dxb, lv["wb"], lv["cb"], lv["raw_b"], lv["arg_b"]),
            ):
                dH += np.outer(w, half)
                if li > 0:
                    dw = H_dir @ half
                    da = _normalize_backward(dw, raw, w, c)
                    _similarity_backward(da, H_dir, lv["ctx"], arg, similarity, dH, dctx)
        if li > 0:
            dcontexts.append(dctx)
    return dH_fwd, dH_bwd, dcontexts
