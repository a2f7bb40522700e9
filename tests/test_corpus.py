import json
from dataclasses import replace

import numpy as np
import pytest

from ahmca.corpus import (
    SynthSpec,
    generate_synthetic,
    load_corpus,
    save_corpus,
    split,
    tokenize,
)
from ahmca.errors import (
    EmptyTextError,
    MalformedRecordError,
    SpecInvalidError,
    TooFewDocumentsError,
    UnknownLabelError,
)


def test_tokenize_punctuation():
    assert tokenize("Deep Learning, for text") == ["deep", "learning", "for", "text"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_internal_hyphen():
    assert tokenize("α-β  test") == ["α-β", "test"]


def _rec(i="d1", labels=("A1",), **kw):
    base = {"id": i, "title": "a title", "abstract": "some abstract text",
            "keywords": ["kw"], "labels": list(labels)}
    base.update(kw)
    return json.dumps(base)


def test_load_corpus_closure(two_level_tax):
    c = load_corpus(_rec(), two_level_tax)
    d = c.documents[0]
    assert d.level_labels[0] == {"A"}
    assert d.level_labels[1] == {"A1"}


def test_load_corpus_unknown_label(two_level_tax):
    with pytest.raises(UnknownLabelError):
        load_corpus(_rec(labels=("ZZZ",)), two_level_tax)


def test_non_leaf_label_rejected(two_level_tax):
    with pytest.raises(UnknownLabelError):
        load_corpus(_rec(labels=("A",)), two_level_tax)


def test_malformed_record(two_level_tax):
    for line in ('{"id": "x"}', '{"id": "x", "title": "t", "labels": [["A1"]]}',
                 _rec(i=None), _rec(i=1), _rec(i=["q"]), _rec(i=True)):
        with pytest.raises(MalformedRecordError):
            load_corpus(line, two_level_tax)


@pytest.mark.parametrize("second, message", [
    ("not json", r"line 3: invalid JSON \(Expecting value"),
    (_rec(), "line 3: duplicate document id 'd1'")])
def test_load_corpus_names_the_bad_line(two_level_tax, second, message):
    with pytest.raises(MalformedRecordError, match=message):
        load_corpus("\n".join([_rec(), "", second]), two_level_tax)


@pytest.mark.parametrize("second, error, message", [
    (_rec(i="d2", labels=("NOPE",)), UnknownLabelError, "line 2: unknown label 'NOPE'"),
    (_rec(i="d2", title="", abstract="", keywords=[]), EmptyTextError,
     "line 2: record 'd2' has no text"),
    (json.dumps({"title": "t"}), MalformedRecordError, "line 2: record missing id/labels")])
def test_record_errors_name_their_line(two_level_tax, second, error, message):
    with pytest.raises(error, match=f"^{message}"):
        load_corpus("\n".join([_rec(), second]), two_level_tax)


def test_empty_text(two_level_tax):
    rec = json.dumps({"id": "x", "title": "", "abstract": "", "keywords": [],
                      "labels": ["A1"]})
    with pytest.raises(EmptyTextError):
        load_corpus(rec, two_level_tax)


def test_pretokenized_records(two_level_tax):
    rec = json.dumps({"id": "x", "title": ["Pre", "Tok"], "abstract": ["body"],
                      "keywords": [], "labels": ["A1"]})
    d = load_corpus(rec, two_level_tax).documents[0]
    # pre-tokenized arrays bypass tokenize entirely
    assert d.title_tokens == ("Pre", "Tok")


def test_closure_idempotent(two_level_tax):
    c = load_corpus(_rec(labels=("A1", "B1")), two_level_tax)
    d = c.documents[0]
    assert d.level_labels[0] == {"A", "B"}
    c2 = load_corpus(save_corpus(c), two_level_tax)
    assert c2.documents[0].level_labels == d.level_labels


def _n_docs(tax, n, leaf="A1"):
    lines = [_rec(i=f"d{j}", labels=(leaf,)) for j in range(n)]
    return load_corpus("\n".join(lines), tax)


def test_split_sizes(two_level_tax):
    c = _n_docs(two_level_tax, 10)
    tr, va, te = split(c, (3, 1, 1), seed=0)
    assert (len(tr), len(va), len(te)) == (6, 2, 2)


def test_split_deterministic(two_level_tax):
    c = _n_docs(two_level_tax, 17)
    a = split(c, (3, 1, 1), seed=5)
    b = split(c, (3, 1, 1), seed=5)
    for x, y in zip(a, b):
        assert [d.id for d in x] == [d.id for d in y]


def test_split_partition(two_level_tax):
    c = _n_docs(two_level_tax, 23)
    tr, va, te = split(c, (3, 1, 1), seed=2)
    ids = [d.id for part in (tr, va, te) for d in part]
    assert len(ids) == len(set(ids)) == len(c)


def test_split_stratified(two_level_tax):
    lines = [_rec(i=f"a{j}", labels=("A1",)) for j in range(5)]
    lines += [_rec(i=f"b{j}", labels=("B1",)) for j in range(10)]
    c = load_corpus("\n".join(lines), two_level_tax)
    for seed in range(5):
        tr, _, _ = split(c, (3, 1, 1), seed=seed)
        assert sum(1 for d in tr if d.leaf_labels == ("A1",)) >= 3


def test_split_too_few(two_level_tax):
    with pytest.raises(TooFewDocumentsError):
        split(_n_docs(two_level_tax, 3), (3, 1, 1), seed=0)


def test_synth_shapes():
    spec = SynthSpec(level_sizes=(2, 4), docs_per_leaf=10, doc_length=12,
                     keywords_per_doc=2, leaf_vocab_size=8, noise_rate=0.2,
                     seed=1, embedding_dim=6)
    tax, corpus, table = generate_synthetic(spec)
    assert tax.depth == 2
    assert len(tax.labels_at_level(2)) == 4
    assert len(corpus) == 40
    assert table.dim == 6


def test_synth_zero_noise_lexicon():
    spec = SynthSpec(level_sizes=(2, 4), docs_per_leaf=5, doc_length=10,
                     keywords_per_doc=1, leaf_vocab_size=10, noise_rate=0.0,
                     seed=2, embedding_dim=4)
    tax, corpus, _ = generate_synthetic(spec)
    for doc in corpus:
        leaf = doc.leaf_labels[0]
        parent = tax.label(leaf).parent
        allowed = {f"w_{leaf}_{j}".lower() for j in range(10)}
        allowed |= {f"w_{parent}_{j}".lower() for j in range(10)}
        assert set(doc.title_tokens) | set(doc.abstract_tokens) <= allowed


def test_synth_leaf_identifiability():
    spec = SynthSpec(level_sizes=(2, 4), docs_per_leaf=5, doc_length=8,
                     keywords_per_doc=1, leaf_vocab_size=10, noise_rate=0.0,
                     seed=2, embedding_dim=4)
    tax, corpus, _ = generate_synthetic(spec)
    leaves = set(tax.labels_at_level(2))
    leaf_lex = {t.lower() for l in leaves for t in (f"w_{l}_{j}" for j in range(10))}
    for a in corpus:
        for b in corpus:
            if a.leaf_labels != b.leaf_labels:
                shared = set(a.tokens) & set(b.tokens) & leaf_lex
                assert not shared


def test_synth_deterministic():
    spec = SynthSpec(level_sizes=(2, 2), docs_per_leaf=3, doc_length=6,
                     keywords_per_doc=1, leaf_vocab_size=5, noise_rate=0.3,
                     seed=9, embedding_dim=4)
    t1, c1, e1 = generate_synthetic(spec)
    t2, c2, e2 = generate_synthetic(spec)
    assert t1.serialize() == t2.serialize()
    assert save_corpus(c1) == save_corpus(c2)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_synth_tokens_resolve_in_vocab():
    # keywords and label texts pass through tokenize(); the embedding
    # vocabulary must contain the normalized forms, not fall back to unk
    spec = SynthSpec(level_sizes=(2, 2), docs_per_leaf=2, doc_length=5,
                     keywords_per_doc=2, leaf_vocab_size=5, noise_rate=0.0,
                     seed=4, embedding_dim=4)
    tax, corpus, table = generate_synthetic(spec)
    for doc in corpus:
        for tok in doc.tokens:
            assert tok in table, tok
    for lab in tax.labels:
        for tok in tokenize(lab.text):
            assert tok in table, tok


def test_synthspec_invalid():
    with pytest.raises(SpecInvalidError):
        SynthSpec(level_sizes=(2, 4), docs_per_leaf=0, doc_length=5,
                  keywords_per_doc=1, leaf_vocab_size=5, noise_rate=0.0,
                  seed=0)
    with pytest.raises(SpecInvalidError):
        SynthSpec(level_sizes=(2, 4), docs_per_leaf=1, doc_length=5,
                  keywords_per_doc=1, leaf_vocab_size=5, noise_rate=1.5,
                  seed=0)
    with pytest.raises(SpecInvalidError):
        SynthSpec(level_sizes=(2.5,), docs_per_leaf=1, doc_length=5,
                  keywords_per_doc=1, leaf_vocab_size=5, noise_rate=0.0, seed=0)
    good = {"level_sizes": [2, 2], "docs_per_leaf": 1, "doc_length": 5,
            "keywords_per_doc": 1, "leaf_vocab_size": 5, "noise_rate": 0, "seed": 0}
    assert SynthSpec.from_json(json.dumps(good)).level_sizes == (2, 2)
    bad = [{"bogus": 1}, {"level_sizes": 5}, {"level_sizes": [2.5]},
           {"level_sizes": [True, 2]}, {"docs_per_leaf": "3"}, {"seed": "x"},
           {"noise_rate": True}, {"seed": -1}]
    for change in bad:
        with pytest.raises(SpecInvalidError):
            SynthSpec.from_json(json.dumps({**good, **change}))
    for missing in ("level_sizes", "seed"):
        with pytest.raises(SpecInvalidError):
            SynthSpec.from_json(json.dumps({k: v for k, v in good.items() if k != missing}))
    with pytest.raises(SpecInvalidError):
        SynthSpec.from_json("5")
    with pytest.raises(SpecInvalidError, match="not valid JSON"):
        SynthSpec.from_json("[")
    with pytest.raises(SpecInvalidError):       # gen-synth --seed goes through replace
        replace(SynthSpec.from_json(json.dumps(good)), seed=-1)
