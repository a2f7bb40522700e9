"""The text loaders are the input boundary: on any text, each one returns or
raises an AhmcaError subclass, never another exception.  The inputs are
drawn text (lone surrogates included), JSON nested up to 3000 deep, corpus
records built from the taxonomy's leaf ids with drawn text fields, and
word2vec rows with drawn tokens."""

import json

import pytest
from conftest import TWO_LEVEL
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahmca.corpus import SynthSpec, load_corpus, save_corpus
from ahmca.embedding import load_embeddings
from ahmca.errors import AhmcaError
from ahmca.taxonomy import load_taxonomy
from ahmca.training import load_config

_TAX = load_taxonomy(TWO_LEVEL)

# letters, digits, punctuation, symbols, spaces, control characters and
# lone surrogates, which json.loads makes of a \ud800-style escape
_TEXT = st.text(st.characters(categories=("L", "N", "P", "S", "Z", "Cc", "Cs")), max_size=12)
_FIELD = _TEXT | st.lists(_TEXT, max_size=3)
_RECORD = st.fixed_dictionaries(
    {"id": _TEXT, "labels": st.lists(st.sampled_from(_TAX.labels_at_level(2)), min_size=1,
                                     max_size=2)},
    optional={"title": _FIELD, "abstract": _FIELD, "keywords": st.lists(_TEXT, max_size=3)})
# with ensure_ascii a surrogate is written as its escape, as a UTF-8 file holds it
_RECORDS = st.builds(
    lambda recs, escape: "\n".join(json.dumps(r, ensure_ascii=escape) for r in recs),
    st.lists(_RECORD, min_size=1, max_size=2, unique_by=lambda r: r["id"]), st.booleans())


@st.composite
def _nested(draw):
    """JSON nested up to 3000 deep, alone or as a record's field."""
    depth = draw(st.integers(1, 3000))
    opening, closing = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    value = opening * depth + "0" + closing * depth
    field = draw(st.sampled_from([None, "id", "title", "keywords", "labels"]))
    if field is None:
        return value
    rec = {"id": "d", "title": "t", "labels": [_TAX.order[-1]]}
    return json.dumps(rec)[:-1] + f', "{field}": {value}}}'


_ROWS = st.builds(
    lambda header, rows: "\n".join([header] + [f"{tok} {vec}" for tok, vec in rows]),
    st.sampled_from(["1 2", "2 2", "0 2", "2"]),
    st.lists(st.tuples(_TEXT, st.sampled_from(["1 2", "0.5 -1", "nan 1", "1e39 0", "x 1"])),
             max_size=3))

_INPUTS = st.one_of(_TEXT, _TEXT.map(json.dumps), _nested(), _RECORDS, _ROWS)


def _corpus(text):
    saved = save_corpus(load_corpus(text, _TAX))
    saved.encode("utf-8")           # a loaded corpus can always be written back


_LOADERS = {
    "config": load_config,
    "taxonomy": load_taxonomy,
    "spec": SynthSpec.from_json,
    "corpus": _corpus,
    "embeddings": load_embeddings,
}


@pytest.mark.parametrize("loader", sorted(_LOADERS))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(text=_INPUTS, as_bytes=st.booleans())
@example(text=json.dumps({"id": "q\ud800", "title": "x", "labels": ["A1"]}), as_bytes=False)
def test_text_loader_fails_only_with_its_own_errors(loader, text, as_bytes):
    """The JSON loaders also take the text as bytes, which must decode as
    strict UTF-8 (a surrogate written as UTF-8 bytes does not).  The
    explicit example is a record whose only bad string is its id."""
    if as_bytes and loader in ("config", "taxonomy", "spec"):
        text = text.encode("utf-8", "surrogatepass")
    try:
        _LOADERS[loader](text)
    except AhmcaError:
        pass
