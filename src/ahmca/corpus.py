"""Documents, JSONL corpus loading, deterministic splits and the synthetic
corpus generator used by the desk-scale benchmark.

Input records carry leaf labels only; labels at intermediate levels are
always derived by ancestor closure against the bound taxonomy.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .embedding import EmbeddingTable
from .errors import (
    EmptyTextError,
    MalformedRecordError,
    SpecInvalidError,
    TooFewDocumentsError,
    UnknownLabelError,
    check_utf8,
    parse_json,
)
from .taxonomy import Taxonomy, load_taxonomy, tokenize


@dataclass(frozen=True)
class Document:
    id: str
    title_tokens: tuple[str, ...]
    abstract_tokens: tuple[str, ...]
    keywords: tuple[str, ...]
    leaf_labels: tuple[str, ...]
    level_labels: tuple[frozenset, ...]  # index 0 = level 1

    @property
    def tokens(self) -> list[str]:
        """Spliced title + abstract + keywords sequence fed to the encoder."""
        return list(self.title_tokens) + list(self.abstract_tokens) + list(self.keywords)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    taxonomy_hash: str

    def __len__(self):
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def _level_closure(leaves, tax: Taxonomy):
    sets = [set() for _ in range(tax.depth)]
    for leaf in leaves:
        sets[tax.depth - 1].add(leaf)
        for anc in tax.ancestors_of(leaf):
            sets[tax.label(anc).level - 1].add(anc)
    return tuple(frozenset(s) for s in sets)


def _token_list(val):
    """A pre-tokenized field without its empty and whitespace-only entries,
    as tokenize drops them from a string; None unless val is a list of str.
    str.strip refuses any other entry, so one pass over a list with no
    blank entry checks the types too."""
    if not isinstance(val, list):
        return None
    try:
        if all(map(str.strip, val)):
            return list(val)
        return [t for t in val if str.strip(t)]
    except TypeError:
        return None


def _field_tokens(rec, key):
    val = rec.get(key, "")
    tokens = tokenize(val) if isinstance(val, str) else _token_list(val)
    if tokens is None:
        raise MalformedRecordError(f"field {key!r} must be a string or token list: {val!r}")
    check_utf8("".join(tokens), MalformedRecordError, f"field {key!r}")
    return tokens


def _document(rec, leaves, level_labels) -> Document:
    """Document from a record's text fields, the one parser for labelled and
    unlabelled records."""
    title = _field_tokens(rec, "title")
    abstract = _field_tokens(rec, "abstract")
    kw_field = rec.get("keywords", [])
    if not isinstance(kw_field, list):
        raise MalformedRecordError(f"keywords must be a list: {kw_field!r}")
    keywords = []
    for kw in kw_field:
        if not isinstance(kw, str):
            raise MalformedRecordError(f"keyword must be a string: {kw!r}")
        keywords.extend(tokenize(kw))
    check_utf8("".join(keywords), MalformedRecordError, "field 'keywords'")
    doc_id = rec.get("id", "")
    if not isinstance(doc_id, str):
        raise MalformedRecordError(f"document id must be a string: {doc_id!r}")
    check_utf8(doc_id, MalformedRecordError, "field 'id'")
    if not (title or abstract or keywords):
        raise EmptyTextError(f"record {doc_id!r} has no text")
    return Document(
        id=doc_id,
        title_tokens=tuple(title),
        abstract_tokens=tuple(abstract),
        keywords=tuple(keywords),
        leaf_labels=tuple(leaves),
        level_labels=level_labels,
    )


def make_document(rec: dict, tax: Taxonomy) -> Document:
    if not isinstance(rec, dict) or "id" not in rec or "labels" not in rec:
        raise MalformedRecordError(f"record missing id/labels: {rec!r}")
    labels = rec["labels"]
    if not isinstance(labels, list) or not labels \
            or not all(isinstance(lab, str) for lab in labels):
        raise MalformedRecordError(f"record {rec.get('id')!r} needs a non-empty list of "
                                   f"label ids: {labels!r}")
    leaves = []
    for lab in labels:
        info = tax.label(lab)  # raises UnknownLabelError
        if info.level != tax.depth:
            raise UnknownLabelError(f"label {lab!r} is not a leaf (level {info.level})")
        if lab not in leaves:
            leaves.append(lab)
    return _document(rec, leaves, _level_closure(leaves, tax))


def make_unlabeled_document(rec: dict, tax: Taxonomy) -> Document:
    """Document for prediction: labels are ignored and may be absent."""
    if not isinstance(rec, dict):
        raise MalformedRecordError(f"record must be a JSON object: {rec!r}")
    return _document(rec, (), tuple(frozenset() for _ in range(tax.depth)))


def read_documents(source: str, tax: Taxonomy, make):
    """(line number, make(record, tax)) per non-blank line; every error names the line."""
    for ln, line in enumerate(source.splitlines(), 1):
        if line.strip():
            try:
                doc = make(parse_json(line, MalformedRecordError, "invalid JSON"), tax)
            except (UnknownLabelError, EmptyTextError, MalformedRecordError) as e:
                raise type(e)(f"line {ln}: {e}") from None
            yield ln, doc


def load_corpus(source: str, tax: Taxonomy) -> Corpus:
    """Parse a JSON Lines corpus and validate every record against tax."""
    docs, seen = [], set()
    for ln, doc in read_documents(source, tax, make_document):
        if doc.id in seen:
            raise MalformedRecordError(f"line {ln}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    return Corpus(documents=tuple(docs), taxonomy_hash=tax.content_hash())


def save_corpus(c: Corpus) -> str:
    lines = []
    for d in c.documents:
        lines.append(json.dumps({
            "id": d.id,
            "title": list(d.title_tokens),
            "abstract": list(d.abstract_tokens),
            "keywords": list(d.keywords),
            "labels": list(d.leaf_labels),
        }, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def split(c: Corpus, ratios, seed: int):
    """Deterministic stratified split into (train, val, test).

    Stratification groups documents by their first leaf label; groups with
    fewer documents than the ratio total are pooled and split together.
    Within each group the val/test shares are floored and the remainder
    goes to train.
    """
    r_train, r_val, r_test = ratios
    if min(r_train, r_val, r_test) <= 0:
        raise SpecInvalidError("split ratios must be positive")
    parts = r_train + r_val + r_test
    if len(c) < parts:
        raise TooFewDocumentsError(f"need at least {parts} documents, have {len(c)}")

    groups: dict[str, list[Document]] = {}
    for doc in c.documents:
        groups.setdefault(doc.leaf_labels[0], []).append(doc)

    rng = np.random.default_rng(seed)
    pooled: list[Document] = []
    train, val, test = [], [], []

    def allocate(docs):
        order = rng.permutation(len(docs))
        n_val = len(docs) * r_val // parts
        n_test = len(docs) * r_test // parts
        for pos, idx in enumerate(order):
            if pos < n_val:
                val.append(docs[idx])
            elif pos < n_val + n_test:
                test.append(docs[idx])
            else:
                train.append(docs[idx])

    for leaf in sorted(groups):
        docs = groups[leaf]
        if len(docs) >= parts:
            allocate(docs)
        else:
            pooled.extend(docs)
    if pooled:
        allocate(pooled)

    key = {d.id: i for i, d in enumerate(c.documents)}
    mk = lambda docs: Corpus(
        documents=tuple(sorted(docs, key=lambda d: key[d.id])),
        taxonomy_hash=c.taxonomy_hash,
    )
    return mk(train), mk(val), mk(test)


# types each annotation accepts (an int is a float, a bool is not a number)
_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _fits(val, want):
    if get_origin(want) is tuple:       # tuple[T, ...]
        return isinstance(val, tuple) and all(_fits(v, get_args(want)[0]) for v in val)
    return isinstance(val, _TYPES[want]) and (want is bool or not isinstance(val, bool))


def check_field_types(record, error):
    """Raise error unless every field of dataclass instance record holds a
    value of the type its annotation names."""
    hints = get_type_hints(type(record))
    for f in fields(record):
        want = hints[f.name]
        if not _fits(getattr(record, f.name), want):
            raise error(f"{f.name} must be of type "
                        f"{want.__name__ if get_origin(want) is None else want}")


def fields_from_json(cls, obj, type_error, unknown_error):
    """Keyword arguments for dataclass cls from a decoded JSON object; JSON
    arrays become tuples.  The value types are checked by cls itself, when
    it is built.

    Unknown keys raise unknown_error; a non-object or a missing required
    key raises type_error."""
    if not isinstance(obj, dict):
        raise type_error(f"{cls.__name__} must be a JSON object")
    extra = set(obj) - {f.name for f in fields(cls)}
    if extra:
        raise unknown_error(f"unknown {cls.__name__} keys: {sorted(extra)}")
    missing = [f.name for f in fields(cls) if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise type_error(f"missing {cls.__name__} keys: {missing}")
    return {name: tuple(v) if isinstance(v, list) else v for name, v in obj.items()}


@dataclass(frozen=True)
class SynthSpec:
    level_sizes: tuple[int, ...]
    docs_per_leaf: int
    doc_length: int
    keywords_per_doc: int
    leaf_vocab_size: int
    noise_rate: float
    seed: int
    embedding_dim: int = 32

    def __post_init__(self):
        check_field_types(self, SpecInvalidError)
        if not self.level_sizes or any(n < 1 for n in self.level_sizes):
            raise SpecInvalidError("level_sizes must be non-empty positive counts")
        for i in range(1, len(self.level_sizes)):
            if self.level_sizes[i] < self.level_sizes[i - 1]:
                raise SpecInvalidError("each level must be at least as wide as its parent level")
        for name in ("docs_per_leaf", "doc_length", "keywords_per_doc",
                     "leaf_vocab_size", "embedding_dim"):
            if getattr(self, name) < 1:
                raise SpecInvalidError(f"{name} must be >= 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise SpecInvalidError("noise_rate must be in [0, 1]")
        if self.seed < 0:
            raise SpecInvalidError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, source) -> "SynthSpec":
        """The spec a JSON object describes, given as text (see
        errors.parse_json) or as a dict, which it does not change."""
        obj = parse_json(source, SpecInvalidError, "spec is not valid JSON")
        return cls(**fields_from_json(cls, obj, SpecInvalidError, SpecInvalidError))


_WORD = 0xFFFFFFFF       # the low 32 bits of a raw output


def _draw_tokens(bitgen, count, noise_rate, noisy_bound, own_bound):
    """Noise flags and picks of count tokens, bitwise as count rounds of
    ``noisy = rng.random() < noise_rate`` and ``rng.integers(n)`` draw them,
    n being noisy_bound for a noisy token and own_bound otherwise (both in
    [1, 2**32)), where rng is the Generator over bitgen, a PCG64.  bitgen is
    left where those calls leave it, its 32-bit buffer included.

    A token's double is one raw 64-bit output r, (r >> 11) * 2**-53.  Its
    pick is Lemire's bounded draw on 32-bit words: the high half of word * n,
    unless the low half is below (2**32 - n) % n, which rejects the word and
    takes the next; a bound of 1 takes no word.  A word request with the
    buffer empty takes a fresh raw output, returns its low half and keeps the
    high half for the next request.

    A token is regular when it takes one word and keeps it.  From an empty
    buffer, regular tokens read three raw outputs per two tokens (double,
    word, double), so a run of them is read in one array pass, up to the
    first irregular token.  That token, and then the tokens up to 64 regular
    ones in a row, are read one word at a time; each pass that reads all its
    tokens doubles the next.  The work stays linear in count however often
    tokens are irregular (a bound of 1 on one side, or bounds near 2**31).
    """
    start = bitgen.state
    full, word = bool(start["has_uint32"]), int(start["uinteger"])     # the buffer
    bounds = np.array([own_bound, noisy_bound], dtype=np.uint64)
    cuts = (2**32 - bounds) % bounds                        # rejection thresholds
    raw = bitgen.random_raw(2 * count + 2)   # enough unless a word is rejected

    def upto(n):
        nonlocal raw
        if len(raw) < n:
            raw = np.concatenate((raw, bitgen.random_raw(n + count)))
        return raw

    noisy = np.empty(count, dtype=bool)
    picks = np.zeros(count, dtype=np.int64)
    pos = t = 0             # next raw output, next token
    run = 64                # regular tokens in a row; the first array pass reads 64
    while t < count:
        if full or run < 64:
            r = int(upto(pos + 1)[pos])
            pos += 1
            flag = (r >> 11) * 2.0**-53 < noise_rate
            n = noisy_bound if flag else own_bound
            words = 0
            while n > 1:
                if full:
                    full, u = False, word
                else:
                    r = int(upto(pos + 1)[pos])
                    pos += 1
                    full, u, word = True, r & _WORD, r >> 32
                words += 1
                if (u * n) & _WORD >= (2**32 - n) % n:
                    picks[t] = (u * n) >> 32
                    break
            noisy[t] = flag
            t += 1
            run = run + 1 if words == 1 else 0
        else:
            span = min(count - t, run)
            r = upto(pos + 2 * span + 2)
            m = np.arange(span)
            at = pos + 3 * (m >> 1)         # token pair m // 2: double, word, double
            flag = (r[at + 2 * (m & 1)] >> 11) * 2.0**-53 < noise_rate
            u = np.where(m & 1, r[at + 1] >> 32, r[at + 1] & _WORD)
            side = flag.view(np.int8)
            prod = u * bounds[side]
            ok = (bounds[side] > 1) & (prod & _WORD >= cuts[side])
            f = span if ok.all() else int(ok.argmin())      # the first irregular token
            noisy[t:t + f] = flag[:f]
            picks[t:t + f] = prod[:f] >> 32
            if f:
                full, word = bool(f & 1), int(r[at[f - 1] + 1] >> 32)
            pos += 3 * (f >> 1) + 2 * (f & 1)
            t += f
            run = run + f if f == span else 0

    bitgen.state = start
    bitgen.advance(pos)
    end = bitgen.state
    end["has_uint32"], end["uinteger"] = int(full), word
    bitgen.state = end
    return noisy, picks


def generate_synthetic(spec: SynthSpec):
    """Build a (Taxonomy, Corpus, EmbeddingTable) triple, fully seeded.

    Every leaf (and every internal label) owns a disjoint sub-vocabulary;
    document tokens come from the leaf's plus its parent's lexicon except
    for a noise_rate fraction drawn from the global vocabulary.  Keywords
    are the first few tokens of the leaf lexicon, label text is one
    reserved token per label, and embeddings are seeded random unit
    vectors.

    The draws come from ``default_rng(spec.seed)``, token by token in corpus
    order (leaf, document, position): a noise flag, then an index into the
    vocabulary or the leaf's lexicon, both read from the raw PCG64 stream by
    _draw_tokens; then the embedding table's ``standard_normal``.  Every
    document passes make_document's checks.  A spec whose token draws or
    float64 table NumPy cannot allocate is a SpecInvalidError, raised before
    any list is built.
    """
    count = spec.level_sizes[-1] * spec.docs_per_leaf * spec.doc_length    # leaves: the last level
    rows = sum(spec.level_sizes) * (spec.leaf_vocab_size + 1)
    for n, dtype, what in ((2 * count + 2, np.uint64, f"raw draws for {count} corpus tokens"),
                           (rows * spec.embedding_dim, np.float64,
                            f"floats for a {rows} x {spec.embedding_dim} embedding table")):
        try:
            np.empty(n, dtype)      # never touched, so it costs nothing
        except (ValueError, MemoryError) as e:
            raise SpecInvalidError(f"cannot allocate {n} {what}: {e}") from None
    rng = np.random.default_rng(spec.seed)

    # taxonomy: children spread round-robin over the previous level
    records = []
    prev_ids: list[str] = []
    for li, n in enumerate(spec.level_sizes, start=1):
        ids = [f"L{li}_{j}" for j in range(n)]
        for j, lid in enumerate(ids):
            parent = prev_ids[j % len(prev_ids)] if prev_ids else None
            records.append({"id": lid, "text": f"lab_{lid}", "level": li, "parent": parent})
        prev_ids = ids
    tax = load_taxonomy({"labels": records})

    # tokens are generated pre-normalized (lowercase) so they match the
    # embedding vocabulary after tokenize() runs over keywords and label text;
    # a label's lexicon is vocab[first[id] : first[id] + lvs]
    lvs = spec.leaf_vocab_size
    vocab = [f"w_{lab.id}_{j}".lower() for lab in tax.labels for j in range(lvs)]
    first = {lab.id: i * lvs for i, lab in enumerate(tax.labels)}
    label_tokens = [f"lab_{lab.id}".lower() for lab in tax.labels]

    leaves = tax.labels_at_level(tax.depth)
    per_leaf = spec.docs_per_leaf * spec.doc_length
    noisy, picks = _draw_tokens(rng.bit_generator, len(leaves) * per_leaf, spec.noise_rate,
                                len(vocab), lvs * min(tax.depth, 2))
    # a leaf's own lexicon is its words, then its parent's
    leaf_at = np.repeat([first[leaf] for leaf in leaves], per_leaf)
    parent_at = np.repeat([first[tax.label(leaf).parent or leaf] for leaf in leaves], per_leaf)
    own = np.where(picks < lvs, leaf_at + picks, parent_at + picks - lvs)
    tokens = [vocab[i] for i in np.where(noisy, picks, own).tolist()]

    docs = []
    n_title = min(5, spec.doc_length)
    for li, leaf in enumerate(leaves):
        kws = vocab[first[leaf]:first[leaf] + lvs][:spec.keywords_per_doc]
        for d in range(spec.docs_per_leaf):
            at = (li * spec.docs_per_leaf + d) * spec.doc_length
            toks = tokens[at:at + spec.doc_length]
            docs.append(make_document({
                "id": f"{leaf}_doc{d}",
                "title": toks[:n_title],
                "abstract": toks[n_title:],
                "keywords": kws,
                "labels": [leaf],
            }, tax))
    corpus = Corpus(documents=tuple(docs), taxonomy_hash=tax.content_hash())

    all_tokens = vocab + label_tokens
    vecs = rng.standard_normal((len(all_tokens), spec.embedding_dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    table = EmbeddingTable(spec.embedding_dim, all_tokens, vecs.astype(np.float32))
    return tax, corpus, table
