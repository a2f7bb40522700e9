"""Training loop (mini-batch Adam), evaluation, prediction decoding, and
the binary checkpoint container.

Evaluation scores its corpus in length-ordered chunks of up to 64
documents and 4096 token rows (Model.scoring) through the forward path
training uses, reading each document's row through predict_scores;
predict decodes one document, a batch of one.  train() steps a fresh
Model's parameters in place: like the gradients of Model.loss_and_grads,
they are views of one float32 Arena of Model.shapes (model.init_params).
One finite check covers a step's gradients before any parameter moves,
then Adam steps the prefix Model.trainable of the buffer.
A checkpoint is magic, version, the metadata JSON's length and text, that
buffer as little-endian float32 (Model.shapes follows from the metadata),
and a CRC-32 of all of it.  Checkpoint.build_model cuts a read-only Arena
from it, so a served model builds its label matrices once for all queries.

Runs are fully deterministic given the config seed: shuffling uses one
seeded generator, gradients are reduced in example order, and history /
checkpoint files are byte-stable.
"""

from __future__ import annotations

import json
import math
import struct
import time
import warnings
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics as M
from .attention import MODES, SIMILARITIES
from .corpus import Corpus, Document, check_field_types, fields_from_json
from .embedding import EmbeddingTable
from .errors import (
    BadMagicError,
    ConfigRangeError,
    ConfigTypeError,
    CorruptPayloadError,
    NonFiniteLossError,
    TaxonomyError,
    TaxonomyMismatchError,
    TooFewDocumentsError,
    UnknownConfigKeyError,
    VersionMismatchError,
    check_utf8,
    parse_json,
)
from .metrics import MetricsReport
from .model import Arena, Model, param_shapes
from .numerics import check_finite
from .taxonomy import Taxonomy, load_taxonomy

CHECKPOINT_MAGIC = b"AHMCAMDL"
CHECKPOINT_VERSION = 2
# the metadata object's keys and the JSON type of each value
_META_TYPES = {"config": dict, "taxonomy": str, "taxonomy_hash": str,
               "label_order": list, "embedding_tokens": list}
_CHUNK = 1 << 16     # elements per pass of Adam.step, so that a pass stays in cache
_FLUSH_EVERY, _FLUSH_BELOW = 64, 2.0**-100     # Adam's flush of vanishing first moments
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8     # Adam's b1, b2 and eps (Kingma & Ba 2015)


@dataclass(frozen=True)
class TrainConfig:
    k: int = 32
    g: int = 384
    d_L: int = 384
    beta: float = 0.5
    lambda_: float = 0.1
    learning_rate: float = 5e-3
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0
    attention_mode: str = "sum_normalized"
    similarity: str = "dot"
    freeze_embeddings: bool = False
    use_x0_in_global: bool = True
    early_stop_patience: int = 5

    def __post_init__(self):
        """Type and range checks: every way of building a config runs them."""
        check_field_types(self, ConfigTypeError)
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigRangeError(f"beta must be in [0, 1], got {self.beta}")
        if not 0 <= self.lambda_ < math.inf:         # NaN fails too
            raise ConfigRangeError(f"lambda must be finite and >= 0, got {self.lambda_}")
        for name in ("k", "g", "d_L", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigRangeError(f"{name} must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigRangeError(f"learning_rate must be positive and finite, "
                                   f"got {self.learning_rate}")
        if self.early_stop_patience < 1:
            raise ConfigRangeError("early_stop_patience must be >= 1")
        if self.seed < 0:
            raise ConfigRangeError(f"seed must be >= 0, got {self.seed}")
        if self.attention_mode not in MODES:
            raise ConfigRangeError(f"attention_mode must be one of {MODES}")
        if self.similarity not in SIMILARITIES:
            raise ConfigRangeError(f"similarity must be one of {SIMILARITIES}")

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lambda_")
        return d


def load_config(source) -> TrainConfig:
    """Build a TrainConfig from a JSON object, as text or a dict (left
    unchanged); unknown keys are rejected, missing keys take their defaults.
    lambda_ may be spelled "lambda"."""
    obj = parse_json(source, ConfigTypeError, "config is not a JSON object")
    if isinstance(obj, dict) and "lambda" in obj:
        if "lambda_" in obj:
            raise UnknownConfigKeyError("give one of the TrainConfig keys "
                                        "'lambda' and 'lambda_', not both")
        obj = {("lambda_" if key == "lambda" else key): v for key, v in obj.items()}
    return TrainConfig(**fields_from_json(TrainConfig, obj, ConfigTypeError,
                                          UnknownConfigKeyError))


@dataclass(frozen=True)
class Checkpoint:
    config: TrainConfig
    taxonomy_json: str
    taxonomy_hash: str
    label_order: tuple
    embedding_tokens: tuple
    flat: np.ndarray             # float32 parameters, one Arena of Model.shapes

    def build_model(self) -> tuple[Model, Taxonomy]:
        """The model and taxonomy this checkpoint holds, after checking them.
        The model's parameters are an Arena of flat, read-only, so it builds
        its label matrices once: it shares a read-only flat (load_checkpoint's)
        and copies a writable one (a train() checkpoint's).  Its table's
        vectors and unk vector are views of the model's embedding.table,
        rows [:-1] and row -1, so the vocabulary is held once.  To train it
        further, give a Model copies of them."""
        try:
            tax = load_taxonomy(self.taxonomy_json)
        except TaxonomyError as e:
            raise CorruptPayloadError(f"bad embedded taxonomy: {e}") from None
        if tax.content_hash() != self.taxonomy_hash:
            raise CorruptPayloadError("embedded taxonomy does not match its hash")
        if tuple(self.label_order) != tax.order:
            raise CorruptPayloadError("label_order does not match the embedded taxonomy")
        tokens = self.embedding_tokens
        if not all(isinstance(t, str) for t in tokens) or len(set(tokens)) != len(tokens):
            raise CorruptPayloadError("embedding_tokens must be distinct strings")
        check_utf8("".join(tokens), CorruptPayloadError, "embedding_tokens")
        cfg = self.config
        shapes = param_shapes(tax.level_sizes(), len(tokens), cfg)
        size = sum(math.prod(shape) for shape in shapes.values())
        if len(self.flat) != size:
            raise CorruptPayloadError(f"payload holds {len(self.flat)} floats; this config "
                                      f"and taxonomy need {size}")
        if not np.isfinite(self.flat).all():    # name the first group, in layout order
            for name, arr in Arena(shapes, self.flat).items():
                if not np.isfinite(arr).all():
                    raise CorruptPayloadError(f"array {name} contains NaN/Inf")
        flat = self.flat.copy() if self.flat.flags.writeable else self.flat
        flat.setflags(write=False)
        params = Arena(shapes, flat)
        emb = params["embedding.table"]
        table = EmbeddingTable(cfg.k, tokens, emb[:-1], emb[-1])
        return Model(tax, table, cfg, params=params), tax


def save_checkpoint(ckpt: Checkpoint) -> bytes:
    meta = {
        "config": ckpt.config.to_dict(),
        "taxonomy": ckpt.taxonomy_json,
        "taxonomy_hash": ckpt.taxonomy_hash,
        "label_order": list(ckpt.label_order),
        "embedding_tokens": list(ckpt.embedding_tokens),
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(meta_bytes)),
             meta_bytes, np.ascontiguousarray(ckpt.flat, dtype="<f4")]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def load_checkpoint(data: bytes) -> Checkpoint:
    if len(data) < 24 or data[:8] != CHECKPOINT_MAGIC:
        raise BadMagicError("not a checkpoint file")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version} is not supported: retrain "
                                   f"the model to write version {CHECKPOINT_VERSION}")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise CorruptPayloadError("checksum mismatch: the file is damaged or truncated")
    (meta_len,) = struct.unpack_from("<Q", data, 12)
    meta_end = 20 + meta_len
    payload_len = len(data) - 4 - meta_end
    if payload_len < 0 or payload_len % 4:
        raise CorruptPayloadError(f"metadata length {meta_len} leaves no payload of whole "
                                  f"float32s in a {len(data)}-byte file")
    meta = parse_json(data[20:meta_end], CorruptPayloadError, "bad metadata")
    if not isinstance(meta, dict) \
            or any(not isinstance(meta.get(k), t) for k, t in _META_TYPES.items()):
        raise CorruptPayloadError("metadata must be an object with " + ", ".join(
            f"{k} ({t.__name__})" for k, t in _META_TYPES.items()))
    # a copy, as the offset may be unaligned; read-only, so build_model shares it
    flat = np.frombuffer(data, "<f4", count=payload_len // 4, offset=meta_end).copy()
    flat.setflags(write=False)
    return Checkpoint(
        config=load_config(meta["config"]), taxonomy_json=meta["taxonomy"],
        taxonomy_hash=meta["taxonomy_hash"], label_order=tuple(meta["label_order"]),
        embedding_tokens=tuple(meta["embedding_tokens"]), flat=flat)


# --- history ------------------------------------------------------------

@dataclass
class History:
    records: list = field(default_factory=list)  # dicts with the CSV columns

    def append(self, epoch, train_loss, val_macro_f1_at_1, val_p_at_1):
        if self.records and epoch != self.records[-1]["epoch"] + 1:
            raise ValueError("history epochs must be contiguous")
        self.records.append({
            "epoch": epoch, "train_loss": train_loss,
            "val_macro_f1_at_1": val_macro_f1_at_1, "val_p_at_1": val_p_at_1,
        })

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_macro_f1_at_1,val_p_at_1"]
        for r in self.records:
            lines.append("%d,%r,%r,%r" % (
                r["epoch"], r["train_loss"],
                r["val_macro_f1_at_1"], r["val_p_at_1"]))
        return "\n".join(lines) + "\n"


# --- optimizer ----------------------------------------------------------

class Adam:
    """Adam on the flat buffer params with a flat m and v, _CHUNK elements at
    a time through two scratch chunks, rounding as m = b1 m + (1 - b1) g, v =
    b2 v + (1 - b2) g g, p = p - lr (m / b1t) / (sqrt(v / b2t) + eps) in order.

    Every _FLUSH_EVERY steps, an m element below _FLUSH_BELOW in magnitude is
    set to 0.  A parameter whose gradient stays exactly 0 (a dead relu unit)
    has an m that decays by b1 per step into subnormals, on which x86
    arithmetic is many times slower; NumPy cannot set flush-to-zero.  Such
    an m moves a parameter by at most lr 2**-100 / _EPS once t >= 64 (4e-25
    at lr 5e-3), less than half an ulp of a float32 above 7e-18 in
    magnitude; and it takes about 171 steps to decay from 2**-100 to the
    float32 subnormals, so decay alone makes no m subnormal between flushes."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m, self.v = np.zeros((2, len(params)), params.dtype)
        self._scratch = np.empty((2, min(_CHUNK, len(params))), params.dtype)

    def step(self, grads):
        """Step params, m and v in place by grads, cast to params' dtype."""
        self.t += 1
        b1t, b2t = 1 - _BETA1 ** self.t, 1 - _BETA2 ** self.t
        for a in range(0, len(self.params), _CHUNK):
            p, m, v = self.params[a:a + _CHUNK], self.m[a:a + _CHUNK], self.v[a:a + _CHUNK]
            g = grads[a:a + _CHUNK].astype(p.dtype, copy=False)
            s, u = self._scratch[:, :len(p)]
            np.multiply(m, _BETA1, out=m)
            m += np.multiply(g, 1 - _BETA1, out=s)
            np.multiply(v, _BETA2, out=v)
            np.multiply(g, 1 - _BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, b2t, out=s)
            np.sqrt(s, out=s)
            s += _EPS
            np.divide(m, b1t, out=u)
            u *= self.lr
            u /= s
            p -= u
            if self.t % _FLUSH_EVERY == 0:
                np.abs(m, out=s)
                m[s < _FLUSH_BELOW] = 0


# --- evaluation / prediction -------------------------------------------

def evaluate_model(model: Model, data: Corpus, ks=(1, 3, 5),
                   threshold=0.5) -> MetricsReport:
    """Macro P/R/F1 of the top-1 leaf, P@k over the leaf scores and the
    hierarchy violation rate of the thresholded label sets.  The documents
    are scored in chunks of up to 64 documents and 4096 token rows taken
    in a stable longest-first length order, one batched forward per chunk
    (Model.scoring), so the chunks do not depend on cfg.batch_size and
    each chunk's time loop runs no longer than its longest document needs.
    Each document's scores are then read through Model.predict_scores in
    corpus order, as predict reads them, so whatever wraps or overrides
    it sees evaluation as it sees predict; they decode as
    predict does before its consistency pruning: top-1 is the first maximum
    among the leaf columns, and the thresholded set is every class scoring
    at least threshold, which must be finite."""
    _check_threshold(threshold)
    tax = model.tax
    if data.taxonomy_hash != tax.content_hash():
        raise TaxonomyMismatchError("corpus bound to a different taxonomy")
    leaf_classes = tax.labels_at_level(tax.depth)
    n_leaves = len(leaf_classes)

    docs = data.documents
    leaf_scores, top1_sets, thresh_sets = [], [], []
    with model.scoring(docs):
        for doc in docs:
            fused = model.predict_scores(doc).fused_scores
            leaves = fused[-n_leaves:]            # leaves come last
            leaf_scores.append(leaves)
            top1_sets.append({leaf_classes[int(np.argmax(leaves))]})
            thresh_sets.append({tax.order[j] for j in np.nonzero(fused >= threshold)[0]})
    leaf_truth = [set(doc.leaf_labels) for doc in docs]

    p_at_k = {}
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


def _check_threshold(threshold):
    if not math.isfinite(threshold):
        raise ConfigRangeError(f"threshold must be finite, got {threshold}")


def predict(model: Model, doc: Document, top_n=5, threshold=0.5):
    """Decode a document: fused scores, top-n leaf labels, and per-level
    label sets: every class scoring at least threshold (finite), less each
    child whose parent is not kept."""
    _check_threshold(threshold)
    tax = model.tax
    pred = model.predict_scores(doc)
    leaf_classes = tax.labels_at_level(tax.depth)
    scores = pred.fused_scores[-len(leaf_classes):]   # leaves come last
    top = [(leaf_classes[int(i)], float(scores[int(i)]))
           for i in M.top_k_indices(scores, top_n)]

    kept = set()
    for j in np.nonzero(pred.fused_scores >= threshold)[0]:
        lid = tax.order[j]      # class order puts every parent before its children
        parent = tax.label(lid).parent
        if parent is None or parent in kept:
            kept.add(lid)
    per_level = [sorted(l for l in kept if tax.label(l).level == i)
                 for i in range(1, tax.depth + 1)]
    return {
        "fused_scores": pred.fused_scores,
        "top_leaves": top,
        "level_sets": per_level,
    }


# --- training loop ------------------------------------------------------

def train(cfg: TrainConfig, train_c: Corpus, val_c: Corpus, tax: Taxonomy,
          table: EmbeddingTable, log=None):
    """Mini-batch Adam over the whole pipeline, on one parameter Arena (see
    the module docstring); returns the best-validation checkpoint and the
    per-epoch history.  With cfg.freeze_embeddings the table stays as given."""
    for name, c in (("train", train_c), ("validation", val_c)):
        if c.taxonomy_hash != tax.content_hash():
            raise TaxonomyMismatchError("corpus bound to a different taxonomy")
        if not len(c):
            raise TooFewDocumentsError(f"the {name} corpus has no documents")

    model = Model(tax, table, cfg)
    flat = model.params.flat
    opt = Adam(flat[:model.trainable], cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    docs = list(train_c.documents)
    history = History()
    best_f1 = -1.0
    best = None
    stale = 0

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.time()
        perm = rng.permutation(len(docs))
        losses = []
        for start in range(0, len(perm), cfg.batch_size):
            batch = [docs[i] for i in perm[start:start + cfg.batch_size]]
            batch_losses, grads = model.loss_and_grads(batch)
            if not np.all(np.isfinite(batch_losses)):
                raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
            losses.extend(batch_losses)
            g = grads.flat[:model.trainable]
            if not np.isfinite(g).all():    # name the first group, in layout order
                for name in model.shapes:
                    check_finite(grads[name], f"gradient {name} at epoch {epoch}")
            opt.step(g)

        report = evaluate_model(model, val_c, ks=(1,))
        train_loss = float(np.mean(losses))
        history.append(epoch, train_loss, report.macro_f1, report.p_at_k[1])
        if log:
            log(f"epoch {epoch}: train_loss={train_loss:.4f} "
                f"val_macro_f1@1={report.macro_f1:.4f} "
                f"val_p@1={report.p_at_k[1]:.4f} ({time.time() - t0:.1f}s)")

        if report.macro_f1 > best_f1:
            best_f1 = report.macro_f1
            best = flat.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    flat[...] = best    # return the arena: a late copy held past train() pins the heap
    return Checkpoint(config=cfg, taxonomy_json=tax.serialize(),
                      taxonomy_hash=tax.content_hash(), label_order=tax.order,
                      embedding_tokens=table.tokens, flat=flat), history
