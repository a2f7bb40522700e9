"""Global/local prediction head and the training loss.

The global flow chains relu layers across levels (each consuming the
previous layer spliced with that level's document embedding) and ends in a
sigmoid classifier over all classes, fed the last layer spliced with x^0,
the global document embedding; each level also has a local relu +
sigmoid classifier.  The final score is the beta-weighted convex
combination of the two.  The loss is binary cross-entropy on both flows
plus a squared-hinge penalty whenever a child's global score exceeds its
parent's.  The head works on mini-batches: every input, activation and
score is a matrix with one row per document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError
from .numerics import relu, sigmoid
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class Prediction:
    """Per-level local scores, global scores and the fused scores, all in
    taxonomy order (levels 1..H concatenated): vectors for one document, or
    matrices with one row per document for a batch."""
    global_scores: np.ndarray
    local_scores: list
    fused_scores: np.ndarray


def head_param_shapes(k, g, d_local, level_sizes):
    """Name -> shape of every head parameter, in the order init_params fills them."""
    total = sum(level_sizes)
    shapes = {}
    for h in range(1, len(level_sizes) + 1):
        shapes[f"global.W{h}"] = (g, 2 * k if h == 1 else g + 2 * k)
        shapes[f"global.b{h}"] = (g,)
    shapes["global.Wout"] = (total, g + 2 * k)
    shapes["global.bout"] = (total,)
    for h, n in enumerate(level_sizes, start=1):
        shapes[f"local.Wt{h}"] = (d_local, g)
        shapes[f"local.bt{h}"] = (d_local,)
        shapes[f"local.Wc{h}"] = (n, d_local)
        shapes[f"local.bc{h}"] = (n,)
    return shapes


def _affine(W, b, X):
    """X W^T + b, issued weight-major as (W X^T)^T, about 1.6x as fast at
    the head's 16-row batches.  In float32 it is X @ W.T + b bit for bit:
    OpenBLAS's sgemm sums each output over the shared axis in the same
    order either way round.  That is measured, not promised, so
    tests/test_hmcn.py pins it for every head shape of the acceptance
    config and the bench specs.  In float64 (the gradient checks) the last
    bits may differ.  The sum is written C-order, as X @ W.T + b is: the
    F-order (W @ X.T).T + b makes the products that read it round
    differently."""
    if W.shape[1] != X.shape[-1]:
        raise DimMismatchError(f"affine: W {W.shape} vs X {X.shape}")
    return np.add((W @ X.T).T, b, order="C")


def fuse(local_scores, global_scores, beta):
    """Convex combination beta * concat(locals) + (1 - beta) * globals, the
    levels concatenated along the last axis: one score vector, or a matrix
    with one row per document."""
    pl = np.concatenate([np.asarray(p) for p in local_scores], axis=-1)
    pg = np.asarray(global_scores)
    if pl.shape != pg.shape:
        raise DimMismatchError(f"local concat {pl.shape} != global {pg.shape}")
    return beta * pl + (1 - beta) * pg


def child_parent_index_pairs(tax: Taxonomy):
    """(m, 2) array of (child, parent) positions in the concatenated
    level-1..H ordering, one row per non-root label."""
    return np.array([(tax.position[lab.id], tax.position[lab.parent])
                     for lab in tax.labels if lab.parent is not None],
                    dtype=np.intp).reshape(-1, 2)


def _violations(global_scores, pairs):
    """How far each child's score exceeds its parent's (0 where it does not)."""
    return np.maximum(global_scores[..., pairs[:, 0]] - global_scores[..., pairs[:, 1]], 0)


def violation_penalty(global_scores, pairs, lam):
    """lam times the summed squared violations, per row of global scores."""
    d = _violations(np.asarray(global_scores), pairs)
    return lam * np.sum(d * d, axis=-1)


def head_forward(xs, params, level_sizes):
    """Forward through both flows from document embeddings xs = [x0..xH],
    each a B x 2k matrix with one row per document.

    Returns the cache: scores together with their pre-sigmoid logits, so
    the loss can be computed stably.
    """
    H = len(level_sizes)
    A = [None]
    zs = []
    inputs = []
    for h in range(1, H + 1):
        inp = xs[h] if h == 1 else np.concatenate([A[h - 1], xs[h]], axis=1)
        z = _affine(params[f"global.W{h}"], params[f"global.b{h}"], inp)
        inputs.append(inp)
        zs.append(z)
        A.append(relu(z))
    out_in = np.concatenate([A[H], xs[0]], axis=1)
    z_out = _affine(params["global.Wout"], params["global.bout"], out_in)
    p_g = sigmoid(z_out)

    local = []
    for h in range(1, H + 1):
        zt = _affine(params[f"local.Wt{h}"], params[f"local.bt{h}"], A[h])
        a_l = relu(zt)
        zc = _affine(params[f"local.Wc{h}"], params[f"local.bc{h}"], a_l)
        local.append({"zt": zt, "a_l": a_l, "zc": zc, "p": sigmoid(zc)})

    cache = {"A": A, "zs": zs, "inputs": inputs, "out_in": out_in, "z_out": z_out,
             "p_g": p_g, "local": local, "level_sizes": level_sizes}
    return cache


def _level_targets(cache, Y):
    """The column slice of the B x C target matrix Y that each level reads."""
    if Y.shape != cache["z_out"].shape:
        raise DimMismatchError(f"targets {Y.shape} != scores {cache['z_out'].shape}")
    return np.split(Y, np.cumsum(cache["level_sizes"])[:-1], axis=1)


def _bce_from_logits(z, y):
    return np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))), axis=1)


def head_loss(cache, Y, pairs, lam):
    """(B,) losses: BCE on the global flow + per-level BCE on the local
    flows + the hierarchy violation penalty on the global scores, from a
    head_forward cache via logits for stability.  Y is the B x C 0/1 target
    matrix in taxonomy order."""
    Ys = _level_targets(cache, Y)
    total = _bce_from_logits(cache["z_out"], Y)
    for lv, y in zip(cache["local"], Ys):
        total += _bce_from_logits(lv["zc"], y)
    return total + violation_penalty(cache["p_g"], pairs, lam)


def head_backward(cache, Y, pairs, lam, params, out=None):
    """Gradients of the summed head_loss rows wrt head params and the
    embeddings xs; a parameter's goes into out[name] where out has it (same floats)."""
    at = (out or {}).get
    H = len(cache["level_sizes"])
    Ys = _level_targets(cache, Y)

    p_g = cache["p_g"]
    dp_g = np.zeros(p_g.shape, p_g.dtype)
    d2 = 2 * lam * _violations(p_g, pairs)
    # one flat scatter (numpy's fast 1-D add.at), per row the children's
    # terms, then the parents': each element sums in the order of the two
    # 2-D column scatters it replaces
    B, C = p_g.shape
    cols = np.concatenate([pairs[:, 0], pairs[:, 1]]) + C * np.arange(B)[:, None]
    np.add.at(dp_g.reshape(-1), cols.reshape(-1), np.concatenate([d2, -d2], axis=1).reshape(-1))
    dz_out = (p_g - Y) / Y.shape[1] + dp_g * p_g * (1 - p_g)

    grads = {}
    grads["global.Wout"] = np.matmul(dz_out.T, cache["out_in"], out=at("global.Wout"))
    grads["global.bout"] = dz_out.sum(0, out=at("global.bout"))
    d_out_in = dz_out @ params["global.Wout"]

    g = cache["A"][1].shape[1]
    dA = [np.zeros_like(a) if a is not None else None for a in cache["A"]]
    dxs = [d_out_in[:, g:]] + [None] * H
    dA[H] += d_out_in[:, :g]

    for h in range(1, H + 1):
        lv = cache["local"][h - 1]
        y = Ys[h - 1]
        dzc = (lv["p"] - y) / y.shape[1]
        grads[f"local.Wc{h}"] = np.matmul(dzc.T, lv["a_l"], out=at(f"local.Wc{h}"))
        grads[f"local.bc{h}"] = dzc.sum(0, out=at(f"local.bc{h}"))
        da_l = dzc @ params[f"local.Wc{h}"]
        dzt = da_l * (lv["zt"] > 0)
        grads[f"local.Wt{h}"] = np.matmul(dzt.T, cache["A"][h], out=at(f"local.Wt{h}"))
        grads[f"local.bt{h}"] = dzt.sum(0, out=at(f"local.bt{h}"))
        dA[h] += dzt @ params[f"local.Wt{h}"]

    for h in range(H, 0, -1):
        dz = dA[h] * (cache["zs"][h - 1] > 0)
        grads[f"global.W{h}"] = np.matmul(dz.T, cache["inputs"][h - 1], out=at(f"global.W{h}"))
        grads[f"global.b{h}"] = dz.sum(0, out=at(f"global.b{h}"))
        dinp = dz @ params[f"global.W{h}"]
        if h == 1:
            dxs[1] = dinp
        else:
            dA[h - 1] += dinp[:, :g]
            dxs[h] = dinp[:, g:]
    return grads, dxs
