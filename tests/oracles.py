"""Independent reference implementations the tests compare against.

The head oracle recomputes the global/local flows one layer at a time and
the loss through clipped-probability BCE, where the package's head works
from cached logits; its hierarchy penalty loops over the (child, parent)
pairs, where the package indexes them all at once.  The attention scatter
oracle walks the tokens one by one, where the package scatters all winners
at once, and the attention oracle runs every step once per BiLSTM
direction, where the package stacks both directions on one array axis.
The LSTM oracles are one cell update and a per-document BiLSTM with its
BPTT, one direction and one document at a time, where the
package's encoder runs a whole mini-batch and both directions in one
packed time loop.  The direction-major packed loop is that same batched
encoder with its buffers laid out direction by direction and unscaled
weights activated per step by sigmoid and tanh, the bitwise reference for
the package's row-major loop, which halves the i, f and o weight rows to
take one tanh per step.  The model oracle runs
attention once per document and scatters the embedding gradient row by
row, where the package's Model runs it once per group of equal-shape
documents and scatters through one flat index.  The evaluation oracle
decodes one document at a time through predict, where evaluate_model
scores a chunk of documents per forward call and decodes the rows directly.  The Adam
oracle is the update as one expression per array, where the package's
optimizer overwrites its arrays in place, and the sigmoid oracle is the
logistic function as one expression, where the package's writes into one
buffer.  The synthetic-corpus oracle draws every token with one
``rng.random()`` and one ``rng.integers(n)`` call and reads its documents
back through JSON lines and load_corpus, where the package reads the raw
PCG64 stream in array passes and builds its documents directly.
"""

import json
import warnings

import numpy as np

from ahmca import metrics as M
from ahmca.attention import (
    _similarity_backward,
    attention_backward,
    attention_forward,
    splice_level,
)
from ahmca.corpus import load_corpus
from ahmca.embedding import EmbeddingTable
from ahmca.encoder import _packing, _pair, bilstm_backward, bilstm_encode
from ahmca.hmcn import (
    Prediction,
    child_parent_index_pairs,
    fuse,
    head_backward,
    head_forward,
    head_loss,
)
from ahmca.metrics import MetricsReport
from ahmca.numerics import relu
from ahmca.taxonomy import Taxonomy, load_taxonomy
from ahmca.training import predict


def sigmoid(x):
    """The logistic function as one expression, the bitwise reference for
    numerics.sigmoid, which evaluates it in place."""
    return 0.5 * (1 + np.tanh(0.5 * np.asarray(x)))


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


def run_direction(X, Wx, Wh, b):
    """One direction over the rows of one document's X; returns the cache
    (X, G, C, H): activated gates and the cell and hidden matrices, each
    with a zero initial row."""
    N = X.shape[0]
    k = Wh.shape[1]
    G = X @ Wx.T + b
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


def direction_backward(dH, cache, Wx, Wh):
    """BPTT through one direction of one document, dH rows in traversal
    order; returns (dX, dWx, dWh, db)."""
    X, G, C, H = cache
    N, k = dH.shape
    dZ = np.zeros_like(G)
    dh_next = np.zeros(k)
    dc_next = np.zeros(k)
    for n in range(N - 1, -1, -1):
        i, f, g, o = G[n].reshape(4, k)
        tc = np.tanh(C[n + 1])
        dh = dH[n] + dh_next
        dc = dc_next + dh * o * (1 - tc * tc)
        dZ[n] = np.concatenate([dc * g * i * (1 - i), dc * C[n] * f * (1 - f),
                                dc * i * (1 - g * g), dh * tc * o * (1 - o)])
        dh_next = Wh.T @ dZ[n]
        dc_next = dc * f
    return dZ @ Wx, dZ.T @ X, dZ.T @ H[:-1], dZ.sum(axis=0)


def bilstm_document(X, params):
    """One document through both directions: (H_fwd, H_bwd, caches), the
    hidden states aligned to token positions."""
    caches = [run_direction(seq, params[f"lstm_{d}.Wx"], params[f"lstm_{d}.Wh"],
                            params[f"lstm_{d}.b"])
              for d, seq in (("fwd", X), ("bwd", X[::-1]))]
    return caches[0][3][1:], caches[1][3][1:][::-1], caches


def bilstm_document_backward(dH_fwd, dH_bwd, caches, params):
    """(dX, grads) of one document from bilstm_document's caches."""
    grads, dX = {}, 0
    for d, dH, cache in (("fwd", dH_fwd, caches[0]), ("bwd", dH_bwd[::-1], caches[1])):
        dX_d, grads[f"lstm_{d}.Wx"], grads[f"lstm_{d}.Wh"], grads[f"lstm_{d}.b"] = \
            direction_backward(dH, cache, params[f"lstm_{d}.Wx"], params[f"lstm_{d}.Wh"])
        dX = dX + (dX_d if d == "fwd" else dX_d[::-1])
    return dX, grads


def packed_encode_direction_major(X, lengths, params):
    """bilstm_encode with G (2, R, 4k) and C, H (2, R, k): each direction's
    rows contiguous, one step's rows strided, and the unscaled weights
    activated per step by sigmoid and tanh.  Returns the same
    ((H_fwd, H_bwd), cache) in this layout, its gates activated as
    bilstm_backward leaves bilstm_encode's.  The products take C-order
    stacks of W^T, the operand layout bilstm_encode multiplies with."""
    WxT = np.ascontiguousarray(np.stack([W.T for W in _pair(params, "Wx")]))
    WhT = np.ascontiguousarray(np.stack([W.T for W in _pair(params, "Wh")]))
    k = WxT.shape[1]
    pack = _packing(lengths)
    B = len(lengths)
    Xp = X[pack.src]
    G = Xp @ WxT + np.array(_pair(params, "b"))[:, None]
    C = np.zeros((2, G.shape[1], k), dtype=G.dtype)
    H = np.zeros_like(C)
    for s0, s1, p0 in pack.steps:
        a = s1 - s0
        z = G[:, s0:s1] + (H[:, p0:p0 + max(a, 2)] @ WhT)[:, :a]
        g = sigmoid(z)
        g[..., 2 * k:3 * k] = np.tanh(z[..., 2 * k:3 * k])
        G[:, s0:s1] = g
        C[:, s0:s1] = g[..., k:2 * k] * C[:, p0:p0 + a] + g[..., :k] * g[..., 2 * k:3 * k]
        H[:, s0:s1] = g[..., 3 * k:] * np.tanh(C[:, s0:s1])
    out = np.empty((2,) + X.shape, dtype=H.dtype)
    out[0, pack.src[0, B:]] = H[0, B:]
    out[1, pack.src[1, B:]] = H[1, B:]
    return (out[0], out[1]), (pack, Xp, G, C, H)


def packed_backward_direction_major(dH_fwd, dH_bwd, cache, params):
    """bilstm_backward on packed_encode_direction_major's cache."""
    pack, Xp, G, C, H = cache
    B = pack.steps[0][0]
    k = H.shape[2]
    fwd, bwd = pack.src[:, B:]
    dHp = np.empty_like(H)
    dHp[0, B:] = dH_fwd[fwd]
    dHp[1, B:] = dH_bwd[bwd]
    I, F, Gg, O = (G[..., j * k:(j + 1) * k] for j in range(4))
    TC = np.tanh(C)
    C_prev = np.empty_like(C)
    C_prev[:, B:] = C[:, pack.prev]
    A = np.stack([Gg, C_prev, I, TC], axis=2)
    D = (G * (1 - G)).reshape(A.shape)
    D[:, :, 2] = 1 - Gg * Gg
    dc_of_dh = O * (1 - TC * TC)
    Wh = np.stack(_pair(params, "Wh"))
    dZ = np.empty_like(G)
    dZ4 = dZ.reshape(A.shape)
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


def adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Step t of Adam as fresh arrays; returns the new (params, m, v) dicts."""
    params, m, v = dict(params), dict(m), dict(v)
    b1t = 1 - b1 ** t
    b2t = 1 - b2 ** t
    for name in grads:
        g = grads[name].astype(params[name].dtype, copy=False)
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        mhat = m[name] / b1t
        vhat = v[name] / b2t
        params[name] = params[name] - lr * mhat / (np.sqrt(vhat) + eps)
    return params, m, v


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


def similarity_backward(da, H_dir, ctx, arg):
    """(dH, dctx) from the gradient da of each token's max dot product: the
    winning context row arg[j] takes all of token j's gradient."""
    dH, dctx = np.zeros_like(H_dir), np.zeros_like(ctx)
    for j in np.nonzero(da)[0]:
        l = arg[j]
        dH[j] += da[j] * ctx[l]
        dctx[l] += da[j] * H_dir[j]
    return dH, dctx


def _direction_weights(H_dir, ctx):
    """Raw weights and winning rows of one direction's N x k states."""
    S = H_dir @ ctx.T
    arg = S.argmax(axis=1)
    return S[np.arange(S.shape[0]), arg], arg


def _direction_normalize(raw, mode):
    """(weights, backward closure) of one direction's raw weights."""
    n = raw.shape[0]
    if mode == "none":
        return raw.copy(), lambda dw: dw.copy()
    if mode == "sum_normalized":
        s = raw.sum()
        if abs(s) <= 1e-8:
            warnings.warn("degenerate attention weights; falling back to uniform")
            return np.full(n, 1.0 / n, dtype=raw.dtype), np.zeros_like
        w = raw / s
        return w, lambda dw: (dw - np.dot(dw, w)) / s
    e = np.exp(raw - raw.max())
    w = e / e.sum()
    return w, lambda dw: w * (dw - np.dot(dw, w))


def attention_per_direction(H_fwd, H_bwd, contexts, mode):
    """(xs, backward) of level attention, one direction at a time: each
    step is called once for H_fwd and once for H_bwd, the bitwise
    reference for the package's (2, N, k) pass.  backward(dxs) returns
    (dH_fwd, dH_bwd, dcontexts) and scatters the forward direction's
    context gradient before the backward direction's."""
    ones = np.ones(H_fwd.shape[0], dtype=H_fwd.dtype)
    levels, xs = [], []
    for ctx in [None] + list(contexts):
        dirs = []
        for H in (H_fwd, H_bwd):
            raw, arg = (ones, None) if ctx is None else _direction_weights(H, ctx)
            dirs.append((H, arg) + _direction_normalize(raw, mode))
        xs.append(np.concatenate([w @ H for H, _, w, _ in dirs]))
        levels.append((ctx, dirs))

    def backward(dxs):
        k = H_fwd.shape[1]
        dHs = np.zeros_like(H_fwd), np.zeros_like(H_bwd)
        dcontexts = []
        for dx, (ctx, dirs) in zip(dxs, levels):
            dctx = None if ctx is None else np.zeros_like(ctx)
            halves = () if dx is None else (dx[:k], dx[k:])
            for half, dH, (H, arg, w, norm_back) in zip(halves, dHs, dirs):
                dH += np.outer(w, half)
                if ctx is not None:
                    _similarity_backward(norm_back(H @ half), H, ctx, arg, dH, dctx)
            if ctx is not None:
                dcontexts.append(dctx)
        return dHs + (dcontexts,)

    return xs, backward


def evaluate_per_document(model, data, ks=(1, 3, 5), threshold=0.5):
    """evaluate_model's report from one predict call per document."""
    tax = model.tax
    leaf_classes = tax.labels_at_level(tax.depth)

    leaf_scores, leaf_truth, top1_sets, thresh_sets = [], [], [], []
    for doc in data:
        out = predict(model, doc, top_n=1, threshold=threshold)
        leaf_scores.append(out["fused_scores"][-len(leaf_classes):])
        leaf_truth.append(set(doc.leaf_labels))
        top1_sets.append({out["top_leaves"][0][0]})
        # the unpruned set: every class at or above threshold
        thresh_sets.append({tax.order[j]
                            for j in np.nonzero(out["fused_scores"] >= threshold)[0]})

    p_at_k = {}
    n_leaves = len(leaf_classes)
    for k in ks:
        kk = k
        if k > n_leaves:
            warnings.warn(f"k={k} exceeds leaf count {n_leaves}; clamping")
            kk = n_leaves
        p_at_k[k] = M.precision_at_k(leaf_scores, leaf_truth, kk, leaf_classes)

    mp, mr = M.macro_precision_recall(top1_sets, leaf_truth, leaf_classes)
    return MetricsReport(
        macro_p=mp, macro_r=mr, macro_f1=M.macro_f1(mp, mr),
        p_at_k=p_at_k,
        violation_rate=M.hierarchy_violation_rate(thresh_sets, tax),
        n_documents=len(data), n_classes=tax.total_classes,
    )


def _split_rows(M, docs):
    """The rows of a batch matrix, one matrix per document."""
    return np.split(M, np.cumsum([len(doc.tokens) for doc in docs])[:-1])


def model_forward_per_document(model, docs):
    """Model.forward with one attention call per document: the head cache,
    the encoder cache and per document its attention cache, token rows and
    keyword rows."""
    rows = [model._rows(doc.tokens) for doc in docs]
    Xs = [model.params["embedding.table"][r] for r in rows]
    (H_fwds, H_bwds), enc_cache = bilstm_encode(np.concatenate(Xs), [len(r) for r in rows],
                                                model.params)
    label_mats = model.label_matrices()
    doc_xs, caches = [], []
    for doc, doc_rows, X, H_fwd, H_bwd in zip(docs, rows, Xs, _split_rows(H_fwds, docs),
                                              _split_rows(H_bwds, docs)):
        first_kw = len(doc_rows) - len(doc.keywords)
        contexts = [splice_level(T, X[first_kw:]) for T in label_mats]
        xs, att_cache = attention_forward(H_fwd, H_bwd, contexts, mode=model.cfg.attention_mode)
        doc_xs.append(xs)
        caches.append({"att": att_cache, "rows": doc_rows, "kw_rows": doc_rows[first_kw:]})
    head_cache = head_forward([np.stack(x) for x in zip(*doc_xs)], model.params,
                              model.level_sizes)
    return head_cache, enc_cache, caches


def predict_scores_per_document(model, docs):
    """Model.predict_scores_batch on model_forward_per_document."""
    cache, _, _ = model_forward_per_document(model, docs)
    locals_ = [lv["p"] for lv in cache["local"]]
    return Prediction(global_scores=cache["p_g"], local_scores=locals_,
                      fused_scores=fuse(locals_, cache["p_g"], model.cfg.beta))


def loss_and_grads_per_document(model, docs):
    """Model.loss_and_grads with one attention backward call per document and
    the embedding gradient scattered with a 2-D np.add.at over rows."""
    Y = model.targets(docs)
    head_cache, enc_cache, caches = model_forward_per_document(model, docs)
    lam = model.cfg.lambda_
    losses = head_loss(head_cache, Y, model.pairs, lam)
    grads, dxs = head_backward(head_cache, Y, model.pairs, lam, model.params)
    att_grads = [attention_backward([dx[r] for dx in dxs], extra["att"])
                 for r, extra in enumerate(caches)]
    dX, lstm_grads = bilstm_backward(np.concatenate([g[0] for g in att_grads]),
                                     np.concatenate([g[1] for g in att_grads]),
                                     enc_cache, model.params)
    grads.update(lstm_grads)
    idx, vals = [], []
    for extra, dX, (_, _, dcontexts) in zip(caches, _split_rows(dX, docs), att_grads):
        idx.append(extra["rows"])
        vals.append(dX)
        for (flat, _, lab, div), dctx, n in zip(model._label_text, dcontexts,
                                                model.level_sizes):
            idx.append(flat)
            vals.append((dctx[:n] / div)[lab])
            idx.append(extra["kw_rows"])
            vals.append(dctx[n:])
    dtable = np.zeros_like(model.params["embedding.table"])
    np.add.at(dtable, np.concatenate(idx), np.concatenate(vals))
    grads["embedding.table"] = dtable
    scale = 1.0 / len(docs)
    for g in grads.values():
        g *= scale
    return losses.tolist(), grads


def draw_tokens(rng, count, noise_rate, noisy_bound, own_bound):
    """Per token, rng.random() against noise_rate, then rng.integers of
    noisy_bound for a noisy token and of own_bound otherwise: the reference
    for corpus._draw_tokens."""
    noisy = np.empty(count, dtype=bool)
    picks = np.empty(count, dtype=np.int64)
    for i in range(count):
        noisy[i] = rng.random() < noise_rate
        picks[i] = rng.integers(noisy_bound if noisy[i] else own_bound)
    return noisy, picks


def generate_synthetic(spec):
    """corpus.generate_synthetic one document at a time through draw_tokens,
    its records read back through JSON lines and load_corpus."""
    rng = np.random.default_rng(spec.seed)
    records = []
    prev_ids = []
    for li, n in enumerate(spec.level_sizes, start=1):
        ids = [f"L{li}_{j}" for j in range(n)]
        for j, lid in enumerate(ids):
            parent = prev_ids[j % len(prev_ids)] if prev_ids else None
            records.append({"id": lid, "text": f"lab_{lid}", "level": li, "parent": parent})
        prev_ids = ids
    tax = load_taxonomy({"labels": records})

    lexicon = {lab.id: [f"w_{lab.id}_{j}".lower() for j in range(spec.leaf_vocab_size)]
               for lab in tax.labels}
    vocab = [tok for lab in tax.labels for tok in lexicon[lab.id]]
    label_tokens = [f"lab_{lab.id}".lower() for lab in tax.labels]

    docs = []
    for leaf in tax.labels_at_level(tax.depth):
        parent = tax.label(leaf).parent
        own = lexicon[leaf] + (lexicon[parent] if parent else [])
        kws = lexicon[leaf][:spec.keywords_per_doc]
        for d in range(spec.docs_per_leaf):
            noisy, picks = draw_tokens(rng, spec.doc_length, spec.noise_rate,
                                       len(vocab), len(own))
            toks = [vocab[p] if z else own[p] for z, p in zip(noisy, picks)]
            n_title = min(5, len(toks))
            docs.append({
                "id": f"{leaf}_doc{d}",
                "title": toks[:n_title],
                "abstract": toks[n_title:],
                "keywords": kws,
                "labels": [leaf],
            })
    corpus = load_corpus("\n".join(json.dumps(r) for r in docs), tax)

    all_tokens = vocab + label_tokens
    vecs = rng.standard_normal((len(all_tokens), spec.embedding_dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    table = EmbeddingTable(spec.embedding_dim, all_tokens, vecs.astype(np.float32))
    return tax, corpus, table
