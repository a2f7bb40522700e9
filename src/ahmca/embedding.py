"""Word-vector table and word2vec-text loading and saving.

The table carries one shared unk vector (by default the mean of the
vocabulary); Model.embed maps out-of-vocabulary tokens to it, so
downstream code never deals with missing words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CountMismatchError,
    DuplicateTokenError,
    EmbeddingError,
    MalformedHeaderError,
    NonFiniteVectorError,
    RowArityError,
    check_utf8,
)


@dataclass
class EmbeddingTable:
    """A (V, dim) vector table, its arrays held as given (not copied).  index
    maps each token to its row; unk_vector defaults to the vocabulary mean
    (zeros for an empty vocabulary)."""
    dim: int
    tokens: tuple[str, ...]           # stable row order
    vectors: np.ndarray               # (V, dim)
    unk_vector: np.ndarray | None = None    # (dim,)
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if self.unk_vector is None:
            self.unk_vector = (self.vectors.mean(axis=0) if self.tokens
                               else np.zeros(self.dim, dtype=np.float32))

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index


def load_embeddings(source: str) -> EmbeddingTable:
    """Parse word2vec text format: header "vocab_size dim", then one
    "token v1 ... v_dim" line per word.  A token must encode as UTF-8, as
    save_embeddings' text is written."""
    lines = [ln for ln in source.splitlines() if ln.strip()]
    if not lines:
        raise MalformedHeaderError("empty embedding file")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedHeaderError(f"bad header: {lines[0]!r}")
    try:
        vocab_size, dim = int(head[0]), int(head[1])
    except ValueError:
        raise MalformedHeaderError(f"bad header: {lines[0]!r}") from None
    if vocab_size < 1 or dim < 1:
        raise MalformedHeaderError(f"non-positive header values: {lines[0]!r}")

    rows = {}                           # token -> vector, in file order
    with np.errstate(over="ignore"):    # beyond float32 range is caught below
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != dim + 1:
                raise RowArityError(f"expected {dim} components: {ln!r}")
            tok = parts[0]
            if tok in rows:
                raise DuplicateTokenError(f"duplicate token {tok!r}")
            check_utf8(tok, EmbeddingError, f"row {tok!r}")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float32)
            except ValueError:
                raise RowArityError(f"non-numeric component in row {tok!r}") from None
            if not np.isfinite(vec).all():
                raise NonFiniteVectorError(f"row {tok!r} has a component that is NaN, "
                                           "infinite or beyond float32 range")
            rows[tok] = vec
    if len(rows) != vocab_size:
        raise CountMismatchError(f"header says {vocab_size} rows, found {len(rows)}")
    return EmbeddingTable(dim, tuple(rows), np.stack(list(rows.values())))


def save_embeddings(table: EmbeddingTable) -> str:
    lines = [f"{len(table)} {table.dim}"]
    for tok, vec in zip(table.tokens, table.vectors):
        lines.append(tok + " " + " ".join(repr(float(x)) for x in vec))
    return "\n".join(lines) + "\n"


def random_table(tokens, dim, seed) -> EmbeddingTable:
    """Seeded random unit-vector table (synthetic / no-pretrained-file mode)."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((len(tokens), dim))
    vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
    return EmbeddingTable(dim, tokens, vecs.astype(np.float32))

