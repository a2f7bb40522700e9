"""Independent reference implementations the tests compare against.

The head oracle recomputes the global/local flows one layer at a time and
the loss through clipped-probability BCE, where the package's head works
from cached logits; its hierarchy penalty loops over the (child, parent)
pairs, where the package indexes them all at once.  The attention scatter
oracle walks the tokens one by one, where the package scatters all winners
at once.  The LSTM oracle is one cell update, where the package's encoder
projects every step's input in one product.
"""

import numpy as np

from ahmca.hmcn import Prediction, child_parent_index_pairs
from ahmca.numerics import relu, sigmoid
from ahmca.taxonomy import Taxonomy


def lstm_step(state, x, Wx, Wh, b):
    """One LSTM cell update (gates i, f, g, o); returns (h, c)."""
    h_prev, c_prev = state
    k = h_prev.shape[0]
    z = Wx @ x + Wh @ h_prev + b
    i = sigmoid(z[:k])
    f = sigmoid(z[k:2 * k])
    g = np.tanh(z[2 * k:3 * k])
    o = sigmoid(z[3 * k:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def global_step(A_prev, x_h, W, b):
    """One global-flow layer: relu(W [A_prev; x_h] + b); A_prev is None at
    level 1, where the input is x_1 alone."""
    inp = x_h if A_prev is None else np.concatenate([A_prev, x_h])
    return relu(W @ inp + b)


def global_predict(A_last, x0, W, b):
    """Final global classifier; x0 is spliced in when given (None disables)."""
    inp = A_last if x0 is None else np.concatenate([A_last, x0])
    return sigmoid(W @ inp + b)


def local_predict(A_g, Wt, bt, Wc, bc):
    """Per-level local flow: relu transition then sigmoid classifier."""
    return sigmoid(Wc @ relu(Wt @ A_g + bt) + bc)


def _bce(p, y):
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1 - 1e-12)
    y = np.asarray(y)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def violation_penalty(global_scores, pairs, lam):
    """lam times the summed squared excess of each child over its parent."""
    v = 0.0
    for ci, pi in pairs:
        d = global_scores[ci] - global_scores[pi]
        if d > 0:
            v += d * d
    return lam * v


def violation_grad(global_scores, pairs, lam):
    """Gradient of violation_penalty wrt the global scores, pair by pair."""
    dp = np.zeros(len(global_scores))
    for ci, pi in pairs:
        d = global_scores[ci] - global_scores[pi]
        if d > 0:
            dp[ci] += 2 * lam * d
            dp[pi] -= 2 * lam * d
    return dp


def loss(pred: Prediction, targets, tax: Taxonomy, lam=0.1):
    """BCE on the global flow + per-level BCE on the local flows + the
    hierarchy violation penalty on the global scores."""
    y_global = np.concatenate([np.asarray(t, dtype=np.float64) for t in targets])
    total = _bce(pred.global_scores, y_global)
    for p_l, t in zip(pred.local_scores, targets):
        total += _bce(p_l, np.asarray(t, dtype=np.float64))
    total += violation_penalty(pred.global_scores, child_parent_index_pairs(tax), lam)
    return total


def similarity_backward(da, H_dir, ctx, arg, similarity):
    """(dH, dctx) from the gradient da of each token's max similarity: the
    winning context row arg[j] takes all of token j's gradient."""
    dH, dctx = np.zeros_like(H_dir), np.zeros_like(ctx)
    hn = np.maximum(np.linalg.norm(H_dir, axis=1), 1e-12)
    tn = np.maximum(np.linalg.norm(ctx, axis=1), 1e-12)
    for j in np.nonzero(da)[0]:
        l = arg[j]
        h, t = H_dir[j], ctx[l]
        if similarity == "dot":
            dH[j] += da[j] * t
            dctx[l] += da[j] * h
        else:
            s = np.dot(h, t) / (hn[j] * tn[l])
            dH[j] += da[j] * (t / (hn[j] * tn[l]) - s * h / (hn[j] ** 2))
            dctx[l] += da[j] * (h / (hn[j] * tn[l]) - s * t / (tn[l] ** 2))
    return dH, dctx
