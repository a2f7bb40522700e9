import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import BENCH_SPEC

from ahmca.corpus import (
    SynthSpec,
    _draw_tokens,
    generate_synthetic,
    load_corpus,
    make_unlabeled_document,
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
from ahmca.model import Model
from ahmca.training import TrainConfig


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


@pytest.mark.parametrize("field", [
    {"title": ["ok", "bad\ud800"]},               # a token list keeps the token as given
    {"abstract": "fine a\ud800b text"},           # tokenize keeps an inner surrogate
    {"keywords": ["k\udc00w"]},
    {"title": ["\ud83d", "\ude00"]},             # two halves of a pair, in two tokens
    {"id": "q\ud800"}])                          # the id, which predict prints
def test_lone_surrogate_token_rejected(two_level_tax, field):
    """json.loads turns a \\ud800-style escape into a lone surrogate, which
    UTF-8 cannot encode: the record is refused, naming its line."""
    with pytest.raises(MalformedRecordError, match="^line 2: field .* not valid UTF-8"):
        load_corpus("\n".join([_rec(), _rec(i="d2", **field)]), two_level_tax)
    with pytest.raises(MalformedRecordError, match="not valid UTF-8"):
        make_unlabeled_document(json.loads(_rec(**field)), two_level_tax)


def test_empty_text(two_level_tax):
    rec = json.dumps({"id": "x", "title": "", "abstract": "", "keywords": [],
                      "labels": ["A1"]})
    with pytest.raises(EmptyTextError):
        load_corpus(rec, two_level_tax)


def test_blank_pretokenized_tokens_are_dropped(two_level_tax):
    """A token list loses its blank entries, as a string does in tokenize,
    so blank tokens alone are no text."""
    rec = {"id": "x", "title": [""], "abstract": ["  "], "labels": ["A1"]}
    with pytest.raises(EmptyTextError, match="record 'x' has no text"):
        load_corpus(json.dumps(rec), two_level_tax)
    rec["title"] = ["\t", "Kept,", "", "\u3000"]
    d = load_corpus(json.dumps(rec), two_level_tax).documents[0]
    assert (d.title_tokens, d.abstract_tokens) == (("Kept,",), ())


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
    assert SynthSpec.from_json(good) == SynthSpec.from_json(json.dumps(good).encode())
    assert good["level_sizes"] == [2, 2]        # the dict is not changed
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
    for source in ([good], None):       # parsed values, but not objects
        with pytest.raises(SpecInvalidError, match="must be a JSON object"):
            SynthSpec.from_json(source)
    with pytest.raises(SpecInvalidError, match="not valid JSON"):
        SynthSpec.from_json("[")
    with pytest.raises(SpecInvalidError):       # gen-synth --seed goes through replace
        replace(SynthSpec.from_json(json.dumps(good)), seed=-1)


def _raw_outputs_used(seed, state):
    """How many raw outputs a PCG64 seeded with seed gave before state."""
    bitgen = np.random.PCG64(seed)
    used = 0
    while bitgen.state["state"] != state["state"]:
        bitgen.random_raw()
        used += 1
    return used


def _same_draw(seed, count, noise_rate, noisy_bound, own_bound, prefill=0):
    """_draw_tokens against the scalar oracle from the same generator state,
    prefill 32-bit draws in (an odd count leaves the word buffer full);
    returns the state both leave."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (ours, theirs):
        rng.integers(7, size=prefill, dtype=np.uint32)
    noisy, picks = _draw_tokens(ours.bit_generator, count, noise_rate, noisy_bound, own_bound)
    want_noisy, want_picks = oracles.draw_tokens(theirs, count, noise_rate,
                                                 noisy_bound, own_bound)
    np.testing.assert_array_equal(noisy, want_noisy)
    np.testing.assert_array_equal(picks, want_picks)
    assert ours.bit_generator.state == theirs.bit_generator.state
    return ours.bit_generator.state


# non-decreasing widths of 1 to 3 levels
_LEVEL_SIZES = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda steps: tuple(itertools.accumulate(steps)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@example(level_sizes=(3,), docs_per_leaf=3, doc_length=7, leaf_vocab_size=1,
         noise_rate=0.5, seed=1)     # 63 tokens, the own-lexicon bound is 1
@example(level_sizes=(1, 2), docs_per_leaf=4, doc_length=9, leaf_vocab_size=3,
         noise_rate=0.2, seed=2)     # 72 tokens
@example(level_sizes=(1,), docs_per_leaf=2, doc_length=5, leaf_vocab_size=1,
         noise_rate=1, seed=3)       # both bounds are 1: no word is drawn
@given(level_sizes=_LEVEL_SIZES, docs_per_leaf=st.integers(1, 6),
       doc_length=st.integers(1, 40), leaf_vocab_size=st.integers(1, 5),
       noise_rate=st.one_of(st.sampled_from([0, 1, 0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**64))
def test_synthetic_matches_scalar_oracle(level_sizes, docs_per_leaf, doc_length,
                                         leaf_vocab_size, noise_rate, seed):
    spec = SynthSpec(level_sizes=level_sizes, docs_per_leaf=docs_per_leaf,
                     doc_length=doc_length, keywords_per_doc=2,
                     leaf_vocab_size=leaf_vocab_size, noise_rate=noise_rate,
                     seed=seed, embedding_dim=3)
    tax, corpus, table = generate_synthetic(spec)
    want_tax, want_corpus, want_table = oracles.generate_synthetic(spec)
    assert tax.serialize() == want_tax.serialize()
    assert corpus == want_corpus
    assert table.tokens == want_table.tokens
    assert table.vectors.tobytes() == want_table.vectors.tobytes()
    count = level_sizes[-1] * docs_per_leaf * doc_length
    _same_draw(seed, count, noise_rate, len(tax.labels) * leaf_vocab_size,
               leaf_vocab_size * min(tax.depth, 2))


@pytest.mark.parametrize("noisy_bound, own_bound", [
    (2**31 + 1, 2**31 + 1),        # half of all words are rejected
    (3 * 2**30 + 1, 2**32 - 1),
    (2**31 + 1, 1),
])
@pytest.mark.parametrize("prefill", [0, 1])
def test_draw_tokens_rejects_like_lemire(noisy_bound, own_bound, prefill):
    for seed, count in enumerate((0, 1, 2, 63, 64, 65, 300, 301)):
        for noise_rate in (0.0, 0.5, 1.0):
            state = _same_draw(seed, count, noise_rate, noisy_bound, own_bound, prefill)
    if noisy_bound == own_bound and not prefill:
        # 301 tokens that each kept their first word would read 301 + 151
        assert _raw_outputs_used(7, state) > 301 + 151 + 50


def _data_digests(spec):
    tax, corpus, table = generate_synthetic(spec)
    return tuple(hashlib.sha256(data).hexdigest() for data in (
        tax.serialize().encode(), save_corpus(corpus).encode(), table.vectors.tobytes()))


# SHA-256 of the taxonomy (serialize), the corpus (save_corpus) and the
# embedding vectors (float32 bytes) that the acceptance gate and the
# benchmark train on.  They move only if the generator's draws do: a change
# to the code, or to NumPy's PCG64 stream or standard_normal.
PINNED_DATA = {
    "acceptance": (
        "38ac056205128ec31ca24bb8b817f0c3cf815bb194015106e7a4b8590d67c16d",
        "d7147e55ebf4d99666a6a42d75c5b4987da3f4967e608d07598d06379d4e6c3c",
        "56f1f16f244c81833364e38a4d118e202efb3da277b1e634275d95d61186654c"),
    "ACCEPT_SPEC": (
        "38ac056205128ec31ca24bb8b817f0c3cf815bb194015106e7a4b8590d67c16d",
        "4513cb6412c2c598453bee163b8b758ea3978af461248ab37e1adf292610e084",
        "29dcb3ffd1355ff70a28c15a24d4f34ba92ec81874c8ee4e6c50c876336b9dc4"),
    "WIDE_SPEC": (
        "e57a3053b7fc604506280252517b279dfdaea13f326571a5c681b37c32f92fe5",
        "e00d317fb0e41449d4237469ff1d88b772ca0b8fbe353a331f4e0e6b2d117e7f",
        "881f941818b1a53bad7e92e3c006b7e4e3558823eb85aae9b5d8ea4b68572cc5"),
    "TINY_SPEC": (
        "a70b52dfc5ca6d9ecba82d3118f074e9b8b499b5fb78e0edc0ab8074b067dbb7",
        "07f16828a3fbd06563577c604e96860c640fa47d7111d0066d485ddeab2cb30a",
        "f8243d0f4e542d1fe3f9db4a396cd78dc61a674080b259cbbee84cdcd7b4621c"),
    "TINY_WIDE_SPEC": (
        "412a33b820c6e1eac211f6220a37852b67bb6372cb0889a4d9cb4b23a259635d",
        "1bfddc6395306eae4b5dac1d57b2063475b33978c0363edf5444330afcff5cb1",
        "2836437211320b47d85eb64ec889d1df4260202202a4f88a20a560ae7fc86f1b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATA))
def test_generated_data_is_pinned(name, monkeypatch):
    if name == "acceptance":
        spec = BENCH_SPEC
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads
        spec = getattr(workloads, name)
    for artifact, got, want in zip(("taxonomy", "corpus", "embeddings"),
                                   _data_digests(spec), PINNED_DATA[name]):
        assert got == want, f"{name}: the generated {artifact} changed"


# SHA-256 of a fresh Model's parameters, its arrays' bytes concatenated in
# Model.shapes order, for the acceptance gate's config and for the wide
# benchmark's: they move only if the initial draws, their order or their
# rounding do (or the data above).
PINNED_INIT = {
    "acceptance": "e0ef78528862e64a901e7de4e266cb2f65b39664b98d99a4763eba23e72e35e9",
    "WIDE_SPEC": "418c2c38001e1d98a6f6ebf673046349f69d05b9925375c701ed21162695739f",
}


@pytest.mark.parametrize("name", sorted(PINNED_INIT))
def test_initial_weights_are_pinned(name, monkeypatch):
    if name == "acceptance":
        spec, cfg = BENCH_SPEC, TrainConfig(seed=7)
    else:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import workloads
        spec, cfg = workloads.WIDE_SPEC, TrainConfig()
    tax, _, table = generate_synthetic(spec)
    model = Model(tax, table, cfg)
    digest = hashlib.sha256(b"".join(model.params[n].tobytes() for n in model.shapes))
    assert digest.hexdigest() == PINNED_INIT[name], f"{name}: the initial weights changed"
