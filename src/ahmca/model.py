"""Full pipeline: embeddings -> BiLSTM -> level attention (max dot product
with label and keyword rows) -> global/local head (x^0 in the global
output), with reverse-mode gradients for every trainable parameter group.

One Model instance owns the taxonomy binding, the embedding vocabulary and
the parameter dict (embedding table included): unless given one, an Arena of
shapes that init_params, the one initialiser, draws from cfg.seed, with the
table's vectors and unk copied into its last entry, embedding.table
([vectors; unk]).  Its hyperparameters (k, g, d_L, beta, lambda_, attention
mode and the init seed) are read from the TrainConfig it was built with,
model.cfg, which has checked their ranges.  One loss_and_grads call serves
a mini-batch: the encoder runs once on the batch's token matrix in one
packed time loop, without padding, attention runs once per shape group
(documents of equal token and keyword counts, stacked through one row
index), and the head runs once on a B-row matrix per level, one row per
document in batch order.  Its gradients fill a
new Arena, laid out as shapes; the embedding gradient, the last entry, is
one flat np.add.at over each document's rows in batch order, so no float
moves with the grouping (tests/oracles.py keeps the per-document pass).  It
skips label-word and keyword rows whose gradient is zero (most labels, on a
wide taxonomy): every element starts at +0.0, so adding +-0.0 would change
nothing.  Scoring takes the same forward path: predict_scores_batch scores a
batch of documents in one call, and predict_scores is a batch of one, or
inside a scoring() block a document's row of the chunk that block scored it
in: chunks of up to _SCORE_DOCS documents and _SCORE_ROWS token rows,
longest first.

forward takes its label matrices and the encoder's weight stack (the
transposed, gate-scaled LSTM weights, encoder.weight_stack) from
_served_label_matrices(): built once for a served model's read-only
parameters, and on every call for writable ones (training, grad_check),
so an in-place change is always seen.  A batch of one shape group (every
predict, a batch of one) takes that group's document embeddings as they
are; only several groups are put back in batch order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .attention import attention_backward, attention_forward, splice_level
from .corpus import Document
from .embedding import EmbeddingTable
from .encoder import bilstm_backward, bilstm_encode, lstm_param_shapes, weight_stack
from .errors import ConfigRangeError, EmptyInputError, EmptyTextError
from .hmcn import (
    Prediction,
    fuse,
    child_parent_index_pairs,
    head_backward,
    head_forward,
    head_loss,
    head_param_shapes,
)
from .numerics import scatter_rows
from .taxonomy import Taxonomy, tokenize

if TYPE_CHECKING:           # training imports model; annotation only
    from .training import TrainConfig

# A scoring() chunk takes at most this many documents and token rows: the
# time loop costs about the same per step whatever its row count, and the
# head and attention arrays grow with the documents, the encoder's with the rows.
_SCORE_DOCS = 64
_SCORE_ROWS = 4096
# the parameters _served_label_matrices reads: the label matrices' and the
# encoder weight stack's
_SERVED_READS = ("embedding.table", "lstm_fwd.Wx", "lstm_bwd.Wx", "lstm_fwd.Wh",
                 "lstm_bwd.Wh", "lstm_fwd.b", "lstm_bwd.b")


def param_shapes(level_sizes, vocab_size, cfg: TrainConfig):
    """Name -> shape of every entry of Model.params, embedding.table last."""
    return {**lstm_param_shapes(cfg.k),
            **head_param_shapes(cfg.k, cfg.g, cfg.d_L, level_sizes),
            "embedding.table": (vocab_size + 1, cfg.k)}


class Arena(dict):
    """Name -> C-order view of flat, a 1-D buffer, cut to each entry of
    shapes in order: the views fill flat from its start."""

    def __init__(self, shapes, flat):
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        super().__init__((name, flat[end - math.prod(shape):end].reshape(shape))
                         for (name, shape), end in zip(shapes.items(), ends))
        self.flat = flat


def init_params(shapes, rng, dtype=np.float32):
    """An Arena of shapes on a new zeroed buffer, filled in shapes order:
    each 2-D entry but embedding.table is drawn from uniform(-s, s),
    s = 1/sqrt(its column count, the fan-in), in float64 and rounded to
    dtype; each LSTM bias has its forget-gate quarter at 1.0.  A buffer NumPy
    cannot allocate is a ConfigRangeError."""
    size = sum(math.prod(shape) for shape in shapes.values())
    try:
        flat = np.zeros(size, dtype)
    except (ValueError, MemoryError) as e:
        raise ConfigRangeError(f"cannot allocate {size} parameter floats: {e}") from None
    params = Arena(shapes, flat)
    for name, arr in params.items():
        if arr.ndim == 2 and name != "embedding.table":
            s = 1.0 / np.sqrt(arr.shape[1])
            arr[...] = rng.uniform(-s, s, arr.shape)
        elif name.startswith("lstm_") and name.endswith(".b"):
            k = len(arr) // 4
            arr[k:2 * k] = 1.0
    return params


class Model:
    def __init__(self, tax: Taxonomy, table: EmbeddingTable, cfg: TrainConfig, *,
                 dtype=np.float32, params=None):
        if table.dim != cfg.k:
            raise ConfigRangeError(f"embedding dim {table.dim} != config k {cfg.k}")
        self.tax = tax
        self.table = table
        self.cfg = cfg
        self.dtype = dtype
        self.level_sizes = tax.level_sizes()
        self.pairs = child_parent_index_pairs(tax)
        # an Arena's layout (embeddings last), its length, and what train() steps
        self.shapes = param_shapes(self.level_sizes, len(table), cfg)
        self.arena_size = sum(math.prod(shape) for shape in self.shapes.values())
        frozen = math.prod(self.shapes["embedding.table"]) if cfg.freeze_embeddings else 0
        self.trainable = self.arena_size - frozen

        if params is None:
            params = init_params(self.shapes, np.random.default_rng(cfg.seed), dtype)
            params["embedding.table"][:-1] = table.vectors
            params["embedding.table"][-1] = table.unk_vector
        self.params = params
        self._scored = None         # document id -> (its chunk's Prediction, row) in scoring()
        # (arrays read, (label matrices, encoder weight stack)) of read-only params
        self._served = None

        # label text in row-index form, per level: the label words' rows of
        # embedding.table, where each label's run starts, each word's label,
        # and the word counts, the column the word-vector sums are divided by
        self._label_text = []
        for i in range(1, tax.depth + 1):
            words = [tokenize(tax.label(lid).text) for lid in tax.labels_at_level(i)]
            counts = np.array([len(w) for w in words])
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            flat = self._rows([w for ws in words for w in ws])
            self._label_text.append((flat, starts, np.repeat(np.arange(len(words)), counts),
                                     counts.astype(dtype)[:, None]))

    # --- embedding access -------------------------------------------------

    def _rows(self, tokens):
        """Rows of params["embedding.table"], [vectors; unk]: out-of-vocabulary
        words map to the unk vector, row V = len(table)."""
        V = len(self.table)
        return np.array([self.table.index.get(t, V) for t in tokens], dtype=np.intp)

    def label_matrices(self):
        """Per level, the mean word vector of each label's text."""
        table = self.params["embedding.table"]
        return [np.add.reduceat(table[flat], starts, axis=0) / div
                for flat, starts, _, div in self._label_text]

    def _served_label_matrices(self):
        """(label_matrices(), encoder weight_stack()), both read-only, built
        once while every array they read (embedding.table and the LSTM
        parameters) is read-only, as in a model from Checkpoint.build_model,
        and kept while params holds those same arrays.  Writable params,
        which training and grad_check change in place, rebuild both on every
        call: the label matrices here, the stack (None) in bilstm_encode."""
        arrays = [self.params[name] for name in _SERVED_READS]
        if any(arr.flags.writeable for arr in arrays):
            return self.label_matrices(), None
        memo = self._served
        if memo is None or any(a is not b for a, b in zip(memo[0], arrays)):
            mats, stack = self.label_matrices(), weight_stack(self.params)
            for arr in (*mats, *stack):
                arr.setflags(write=False)
            memo = self._served = (arrays, (mats, stack))
        return memo[1]

    def embed(self, tokens):
        """N x k matrix of word vectors, the unk vector for out-of-vocabulary
        words."""
        if not tokens:
            raise EmptyInputError("cannot embed an empty token sequence")
        return self.params["embedding.table"][self._rows(tokens)]

    # --- forward ----------------------------------------------------------

    def forward(self, docs):
        """Head cache of a mini-batch, the encoder cache, and (rows, groups):
        the batch's rows of embedding.table and, per shape group in order of
        first appearance, its batch positions, (G, n) row index, keyword
        part of that index, x^i and attention cache.  The encoder runs
        once, attention once per group, the head once."""
        if not docs:
            raise EmptyInputError("a mini-batch needs at least one document")
        tokens = [doc.tokens for doc in docs]       # a property: a new list per read
        shapes = {}
        for b, (doc, toks) in enumerate(zip(docs, tokens)):
            if not toks:
                raise EmptyTextError(f"document {doc.id!r} has no tokens")
            shapes.setdefault((len(toks), len(doc.keywords)), []).append(b)
        lengths = [len(toks) for toks in tokens]
        first = np.cumsum([0] + lengths[:-1])       # each document's first row
        rows = self._rows([t for toks in tokens for t in toks])
        X = self.params["embedding.table"][rows]
        label_mats, stack = self._served_label_matrices()
        (H_fwd, H_bwd), enc_cache = bilstm_encode(X, lengths, self.params, stack)
        groups = []
        for (n, m), pos in shapes.items():
            idx = first[pos][:, None] + np.arange(n)
            kw = idx[:, n - m:]                     # the tokens end with the keywords
            xs, att_cache = attention_forward(H_fwd[idx], H_bwd[idx],
                                              [splice_level(T, X[kw]) for T in label_mats],
                                              self.cfg.attention_mode)
            groups.append((np.array(pos), idx, kw, xs, att_cache))
        if len(groups) == 1:        # one group holds the batch in order
            xs = groups[0][3]
        else:                       # each level's group rows, put back in batch order
            back = np.argsort(np.concatenate([g[0] for g in groups]))
            xs = [np.concatenate(x)[back] for x in zip(*[g[3] for g in groups])]
        head_cache = head_forward(xs, self.params, self.level_sizes)
        return head_cache, enc_cache, (rows, groups)

    def predict_scores_batch(self, docs) -> Prediction:
        """Scores of a batch of documents, one row per document in every
        array: forward runs once."""
        cache, _, _ = self.forward(docs)
        p_g = cache["p_g"]
        locals_ = [lv["p"] for lv in cache["local"]]
        return Prediction(global_scores=p_g, local_scores=locals_,
                          fused_scores=fuse(locals_, p_g, self.cfg.beta))

    @contextmanager
    def scoring(self, docs):
        """Score docs in chunks taken in a stable longest-first order of
        token counts, one predict_scores_batch call per chunk: a chunk's
        time loop runs as many steps as its longest document.  A chunk takes
        documents until the next would bring it past _SCORE_DOCS documents
        or _SCORE_ROWS token rows, so a longer document is scored alone and
        documents of one short length keep the chunks docs[i:i + _SCORE_DOCS].
        Inside the block, predict_scores(doc) of one of them returns its row
        of its chunk instead of running forward again, so per-document
        callers, in any order, share the batched forwards.  The parameters
        must not change inside it."""
        chunks, rows = [], 0
        for doc in sorted(docs, key=lambda doc: -len(doc.tokens)):     # stable
            n = len(doc.tokens)
            if not chunks or len(chunks[-1]) == _SCORE_DOCS or rows + n > _SCORE_ROWS:
                chunks.append([])
                rows = 0
            chunks[-1].append(doc)
            rows += n
        scored = {}
        for chunk in chunks:
            pred = self.predict_scores_batch(chunk)
            scored.update((id(doc), (pred, r)) for r, doc in enumerate(chunk))
        self._scored = scored
        try:
            yield
        finally:
            self._scored = None

    def predict_scores(self, doc: Document) -> Prediction:
        """Scores of one document: its row of the chunk scored by the
        enclosing scoring() block, else row 0 of a batch of one."""
        pred, r = (self._scored or {}).get(id(doc), (None, 0))
        if pred is None:
            pred = self.predict_scores_batch([doc])
        return Prediction(global_scores=pred.global_scores[r],
                          local_scores=[p[r] for p in pred.local_scores],
                          fused_scores=pred.fused_scores[r])

    def targets(self, docs):
        """B x C 0/1 matrix of the documents' labels in taxonomy order."""
        Y = np.zeros((len(docs), self.tax.total_classes), dtype=self.dtype)
        for r, doc in enumerate(docs):
            Y[r, [self.tax.position[lid] for level in doc.level_labels for lid in level]] = 1.0
        return Y

    # --- backward ---------------------------------------------------------

    def loss_and_grads(self, docs):
        """Per-document losses of a mini-batch and the gradient of their mean
        for every group in params, as an Arena of self.shapes on a new buffer,
        which the head's products and one scatter write into."""
        Y = self.targets(docs)
        head_cache, enc_cache, (rows, groups) = self.forward(docs)
        losses = head_loss(head_cache, Y, self.pairs, self.cfg.lambda_)
        grads = Arena(self.shapes,
                      np.empty(self.arena_size, self.params["embedding.table"].dtype))
        _, dxs = head_backward(head_cache, Y, self.pairs, self.cfg.lambda_, self.params, grads)
        k = self.cfg.k
        # attention's state gradients, written through each group's row index
        # (the groups cover every row), in the dtype of the cached states H
        dH_fwd, dH_bwd = np.empty((2, len(rows), k), dtype=enc_cache[-1].dtype)
        # scatter rows, values and batch positions: the token rows, then per group
        # and level, by document, the nonzero label-word and keyword rows
        idx, vals = [rows], [None]
        keys = [np.repeat(np.arange(len(docs)), [len(doc.tokens) for doc in docs])]
        for pos, group_idx, kw, _, att_cache in groups:
            dH_fwd[group_idx], dH_bwd[group_idx], dctxs = attention_backward(
                [dx[pos] for dx in dxs], att_cache)
            for (flat, _, lab, div), dctx, n in zip(self._label_text, dctxs, self.level_sizes):
                g, w = np.nonzero(dctx[:, :n].any(axis=-1)[:, lab])     # picked labels' words
                gk, i = np.nonzero(dctx[:, n:].any(axis=-1))
                idx += [flat[w], rows[kw[gk, i]]]
                vals += [dctx[g, lab[w]] / div[lab[w]], dctx[gk, n + i]]
                keys += [pos[g], pos[gk]]
        vals[0], lstm_grads = bilstm_backward(dH_fwd, dH_bwd, enc_cache, self.params)
        for name, g in lstm_grads.items():
            grads[name][...] = g
        # one row scatter in batch order (a stable sort on the positions), so
        # each element takes its additions in the per-document 2-D order
        order = np.argsort(np.concatenate(keys), kind="stable")
        idx = np.concatenate(idx)[order]
        grads["embedding.table"][...] = 0
        scatter_rows(grads["embedding.table"], idx, np.concatenate(vals)[order])
        grads.flat *= 1.0 / len(docs)
        return losses.tolist(), grads
