import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmca.errors import (
    CycleError,
    DuplicateIdError,
    LevelGapError,
    LevelOutOfRangeError,
    OrphanParentError,
    TaxonomyError,
    UnknownLabelError,
)
from ahmca.taxonomy import Taxonomy, load_taxonomy

from conftest import TWO_LEVEL


def test_basic_construction(two_level_tax):
    t = two_level_tax
    assert t.depth == 2
    assert t.level_sizes() == [2, 3]
    assert t.total_classes == 5


def test_labels_at_level_order(two_level_tax):
    assert two_level_tax.labels_at_level(1) == ["A", "B"]
    assert two_level_tax.labels_at_level(2) == ["A1", "A2", "B1"]


def test_level_out_of_range(two_level_tax):
    with pytest.raises(LevelOutOfRangeError):
        two_level_tax.labels_at_level(3)
    with pytest.raises(LevelOutOfRangeError):
        two_level_tax.labels_at_level(0)


def test_ancestors(two_level_tax):
    assert two_level_tax.ancestors_of("A1") == ["A"]
    assert two_level_tax.ancestors_of("A") == []
    with pytest.raises(UnknownLabelError):
        two_level_tax.ancestors_of("Z9")


def test_cycle_rejected():
    src = {"labels": [
        {"id": "X", "level": 2, "parent": "Y"},
        {"id": "Y", "level": 2, "parent": "X"},
    ]}
    with pytest.raises(CycleError):
        load_taxonomy(src)


def test_orphan_parent():
    src = {"labels": [
        {"id": "A", "level": 1, "parent": None},
        {"id": "A1", "level": 2, "parent": "NOPE"},
    ]}
    with pytest.raises(OrphanParentError):
        load_taxonomy(src)


def test_level_gap():
    for second in ({"id": "A1", "level": 3, "parent": "A"},
                   {"id": "B", "level": True, "parent": None}):    # a bool is no level
        src = {"labels": [{"id": "A", "level": 1, "parent": None}, second]}
        with pytest.raises(LevelGapError):
            load_taxonomy(src)
    for src in ('{"labels": []}', {"labels": []}):       # no level 1 at all
        with pytest.raises(LevelGapError, match="non-empty 'labels' list"):
            load_taxonomy(src)


def test_invalid_json_is_a_taxonomy_error():
    for src in ("x", "{", b"\xff"):
        with pytest.raises(TaxonomyError, match="not valid JSON"):
            load_taxonomy(src)


def test_duplicate_id():
    src = {"labels": [
        {"id": "A", "level": 1, "parent": None},
        {"id": "A", "level": 1, "parent": None},
    ]}
    with pytest.raises(DuplicateIdError):
        load_taxonomy(src)


def test_248_leaves():
    labels = [{"id": f"T{i}", "level": 1, "parent": None} for i in range(8)]
    labels += [{"id": f"T{i % 8}.{i}", "level": 2, "parent": f"T{i % 8}"}
               for i in range(248)]
    t = load_taxonomy({"labels": labels})
    assert t.depth == 2
    assert len(t.labels_at_level(2)) == 248


def test_serialize_roundtrip(two_level_tax):
    t2 = load_taxonomy(two_level_tax.serialize())
    assert t2.labels == two_level_tax.labels
    assert t2.levels == two_level_tax.levels
    assert t2.content_hash() == two_level_tax.content_hash()


def test_parent_level_invariant(two_level_tax):
    t = two_level_tax
    for lab in t.labels:
        if lab.level >= 2:
            assert t.label(lab.parent).level == lab.level - 1


def test_label_position_ordering(two_level_tax):
    t = two_level_tax
    order = [lid for i in (1, 2) for lid in t.labels_at_level(i)]
    assert t.order == tuple(order) and t.position == {lid: i for i, lid in enumerate(order)}


def _valid_labels():
    return [dict(r) for r in TWO_LEVEL["labels"]]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dup", "orphan", "gap", "cycle", "self",
                             "punct_text", "int_text"]),
       pos=st.integers(min_value=0, max_value=4))
def test_random_corruptions_rejected(kind, pos):
    labels = _valid_labels()
    victim = labels[pos]
    if kind == "dup":
        labels.append(dict(victim))
    elif kind == "orphan":
        if victim["level"] == 1:
            victim["level"] = 2
        victim["parent"] = "missing-" + victim["id"]
    elif kind == "gap":
        victim["level"] = victim["level"] + 1 if victim["level"] >= 2 else 3
    elif kind == "cycle":
        a, b = labels[0], labels[2]
        a["parent"], b["parent"] = b["id"], a["id"]
    elif kind == "self":
        victim["parent"] = victim["id"]
        victim["level"] = max(victim["level"], 2)
    elif kind == "punct_text":
        victim["text"] = "!!!"
    elif kind == "int_text":
        victim["text"] = 123
    with pytest.raises(TaxonomyError):
        load_taxonomy({"labels": labels})


@pytest.mark.parametrize("field", ["id", "text", "parent"])
def test_lone_surrogate_rejected(field):
    labels = _valid_labels()
    labels[2][field] += "\ud800"       # json.dumps writes it as the escape \ud800
    with pytest.raises(TaxonomyError, match="not valid UTF-8"):
        load_taxonomy(json.dumps({"labels": labels}))


def test_content_hash_computed_once(monkeypatch):
    tax = load_taxonomy(TWO_LEVEL)
    calls = []
    serialize = Taxonomy.serialize
    monkeypatch.setattr(Taxonomy, "serialize", lambda self: calls.append(1) or serialize(self))
    want = hashlib.sha256(serialize(tax).encode("utf-8")).hexdigest()
    assert [tax.content_hash() for _ in range(3)] == [want] * 3
    assert len(calls) == 1
