import warnings

import numpy as np
import pytest

from ahmca.embedding import (
    load_embeddings,
    random_table,
    save_embeddings,
    EmbeddingTable,
)
from ahmca.errors import (
    ConfigRangeError,
    CountMismatchError,
    DuplicateTokenError,
    EmbeddingError,
    EmptyInputError,
    MalformedHeaderError,
    NonFiniteVectorError,
    RowArityError,
)
from ahmca.model import Model
from ahmca.taxonomy import load_taxonomy
from ahmca.training import TrainConfig

W2V = """3 4
cat 1 0 0 0
dog 0 1 0 0
fish 0 0 1 0
"""


def test_load_basic():
    t = load_embeddings(W2V)
    assert len(t) == 3
    assert t.dim == 4
    assert np.array_equal(t.vectors[t.index["dog"]], [0, 1, 0, 0])


def test_unk_is_mean():
    t = load_embeddings(W2V)
    assert np.allclose(t.unk_vector, [1 / 3, 1 / 3, 1 / 3, 0])


def test_table_from_arrays():
    vectors = np.array([[1.0, 0.0], [0.0, 3.0]], dtype=np.float32)
    t = EmbeddingTable(2, ["a", "b"], vectors)
    assert t.tokens == ("a", "b") and t.index == {"a": 0, "b": 1}
    assert t.vectors is vectors
    assert np.array_equal(t.unk_vector, [0.5, 1.5])
    unk = np.ones(2, dtype=np.float32)
    assert EmbeddingTable(2, ["a", "b"], vectors, unk).unk_vector is unk
    empty = random_table([], 3, seed=0)
    assert len(empty) == 0 and empty.vectors.shape == (0, 3)
    assert np.array_equal(empty.unk_vector, np.zeros(3))


def test_row_arity():
    with pytest.raises(RowArityError):
        load_embeddings("1 4\ncat 1 0 0\n")


def test_duplicate_token():
    with pytest.raises(DuplicateTokenError):
        load_embeddings("2 2\ncat 1 0\ncat 0 1\n")


def test_count_mismatch():
    with pytest.raises(CountMismatchError):
        load_embeddings("5 4\ncat 1 0 0 0\n")


@pytest.mark.parametrize("component", ["nan", "inf", "1e39"])
def test_non_finite_component(component):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # 1e39 must not overflow with a warning
        with pytest.raises(NonFiniteVectorError, match="'dog'"):
            load_embeddings(f"2 2\ncat 1 0\ndog {component} 1.0\n")


def test_lone_surrogate_token():
    # a token no UTF-8 file can hold, so save_embeddings' text could not be written
    with pytest.raises(EmbeddingError, match=r"row 'bad\\ud800'"):
        load_embeddings("2 2\nbad\ud800 1 2\nok 3 4\n")


def test_malformed_header():
    with pytest.raises(MalformedHeaderError):
        load_embeddings("not a header\ncat 1 0\n")


def test_row_permutation_irrelevant():
    lines = W2V.strip().splitlines()
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]])
    a, b = load_embeddings(W2V), load_embeddings(shuffled)
    for tok in ("cat", "dog", "fish"):
        assert np.allclose(a.vectors[a.index[tok]], b.vectors[b.index[tok]])
    assert np.allclose(a.unk_vector, b.unk_vector)


def _model(tax, table):
    return Model(tax, table, TrainConfig(k=table.dim, g=2, d_L=2))


def test_embed_sequence(two_level_tax):
    t = load_embeddings(W2V)
    m = _model(two_level_tax, t).embed(["cat", "dog"])
    assert m.shape == (2, 4)
    assert np.array_equal(m[0], [1, 0, 0, 0])


def test_embed_sequence_oov_total(two_level_tax):
    t = load_embeddings(W2V)
    m = _model(two_level_tax, t).embed(["qqq", "cat", "zzz"])
    assert np.array_equal(m[0], t.unk_vector)
    assert np.array_equal(m[2], t.unk_vector)


def test_embed_sequence_empty(two_level_tax):
    with pytest.raises(EmptyInputError):
        _model(two_level_tax, load_embeddings(W2V)).embed([])


def test_model_embedding_dim_mismatch(two_level_tax):
    with pytest.raises(ConfigRangeError):
        Model(two_level_tax, load_embeddings(W2V), TrainConfig(k=3, g=2, d_L=2))


def test_save_roundtrip():
    t = random_table(["a", "b", "c"], 5, seed=1)
    t2 = load_embeddings(save_embeddings(t))
    assert np.allclose(t.vectors, t2.vectors)


def test_label_matrices_mean():
    tax = load_taxonomy({"labels": [
        {"id": "M", "text": "machine learning", "level": 1, "parent": None},
        {"id": "L", "text": "learning", "level": 1, "parent": None},
    ]})
    table = EmbeddingTable(2, ("machine", "learning"),
                           np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
    (T1,) = _model(tax, table).label_matrices()
    assert np.allclose(T1[0], [0.5, 0.5])     # multi-word mean
    assert np.allclose(T1[1], [0.0, 1.0])     # single word used directly


def test_label_matrices_level_order(two_level_tax):
    table = random_table(["alpha", "beta", "topic", "one", "two"], 3, seed=0)
    mats = _model(two_level_tax, table).label_matrices()
    assert mats[0].shape == (2, 3)
    assert mats[1].shape == (3, 3)
    expect = np.mean([table.vectors[table.index[t]] for t in ("alpha", "one")], axis=0)
    assert np.allclose(mats[1][0], expect, atol=1e-12)
