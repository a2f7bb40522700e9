"""Leveled label tree with a strict PARENT-OF order.

The hierarchy is a tree: every label at level i >= 2 has exactly one parent
at level i - 1, level-1 labels have no parent.  Label order within a level
is declaration order and is stable across save/load, so prediction-vector
dimensions never move.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .errors import (
    CycleError,
    DuplicateIdError,
    EmptyLabelTextError,
    LevelGapError,
    LevelOutOfRangeError,
    OrphanParentError,
    TaxonomyError,
    UnknownLabelError,
    check_utf8,
    parse_json,
)

_EDGE_PUNCT = re.compile(r"^\W+|\W+$", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation stripped at token edges."""
    out = []
    for raw in text.lower().split():
        tok = _EDGE_PUNCT.sub("", raw)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class Label:
    id: str
    text: str
    level: int
    parent: str | None


@dataclass(frozen=True)
class Taxonomy:
    labels: tuple[Label, ...]
    # derived, filled in by load_taxonomy
    by_id: dict = field(repr=False)
    levels: tuple = field(repr=False)   # tuple of tuples of label ids, levels[0] = level 1
    order: tuple = field(repr=False)    # label ids, levels 1..H concatenated
    position: dict = field(repr=False)  # label id -> index in order

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def total_classes(self) -> int:
        return len(self.labels)

    def level_sizes(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def labels_at_level(self, i: int) -> list[str]:
        if not 1 <= i <= self.depth:
            raise LevelOutOfRangeError(f"level {i} outside 1..{self.depth}")
        return list(self.levels[i - 1])

    def label(self, label_id: str) -> Label:
        try:
            return self.by_id[label_id]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label_id!r}") from None

    def ancestors_of(self, label_id: str) -> list[str]:
        """Strict ancestor chain, nearest first, excluding the label itself."""
        lab = self.label(label_id)
        chain = []
        while lab.parent is not None:
            chain.append(lab.parent)
            lab = self.by_id[lab.parent]
        return chain

    def serialize(self) -> str:
        recs = [
            {"id": l.id, "text": l.text, "level": l.level, "parent": l.parent}
            for l in self.labels
        ]
        return json.dumps({"labels": recs}, ensure_ascii=False)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def load_taxonomy(source) -> Taxonomy:
    """Parse and validate a taxonomy from JSON text or bytes, or a parsed dict.

    Raises TaxonomyError on text that is not JSON, DuplicateIdError,
    OrphanParentError, CycleError or LevelGapError on any structural
    violation, an empty label list included, and EmptyLabelTextError when a
    label's text is not a string with at least one word, and TaxonomyError
    on an id, text or parent that UTF-8 cannot encode; never repairs the
    input silently.
    """
    obj = parse_json(source, TaxonomyError, "taxonomy is not valid JSON")
    if not (isinstance(obj, dict) and isinstance(obj.get("labels"), list) and obj["labels"]):
        raise LevelGapError("taxonomy file must be an object with a non-empty 'labels' list")

    labels = []
    for rec in obj["labels"]:
        if not isinstance(rec, dict) or "id" not in rec or "level" not in rec:
            raise LevelGapError(f"malformed label record: {rec!r}")
        lid = rec["id"]
        level = rec["level"]
        parent = rec.get("parent")
        text = rec.get("text", lid)
        if (not isinstance(lid, str) or not isinstance(level, int)
                or isinstance(level, bool) or level < 1):
            raise LevelGapError(f"malformed label record: {rec!r}")
        if parent is not None and not isinstance(parent, str):
            raise LevelGapError(f"malformed parent in record: {rec!r}")
        if not isinstance(text, str) or not tokenize(text):
            raise EmptyLabelTextError(f"label {lid!r} has no words in its text {text!r}")
        check_utf8(" ".join((lid, text, parent or "")), TaxonomyError, f"label {lid!r}")
        labels.append(Label(id=lid, text=text, level=level, parent=parent))

    by_id = {}
    for lab in labels:
        if lab.id in by_id:
            raise DuplicateIdError(f"duplicate label id {lab.id!r}")
        by_id[lab.id] = lab

    for lab in labels:
        if lab.parent is not None and lab.parent not in by_id:
            raise OrphanParentError(f"{lab.id!r} names unknown parent {lab.parent!r}")

    # cycle check before level checks so {X<->Y} reports as a cycle
    for lab in labels:
        seen = {lab.id}
        cur = lab
        while cur.parent is not None:
            if cur.parent in seen:
                raise CycleError(f"parent chain through {lab.id!r} loops at {cur.parent!r}")
            seen.add(cur.parent)
            cur = by_id[cur.parent]

    depth = max(l.level for l in labels)
    for lab in labels:
        if lab.level == 1:
            if lab.parent is not None:
                raise LevelGapError(f"level-1 label {lab.id!r} has a parent")
        else:
            if lab.parent is None:
                raise LevelGapError(f"label {lab.id!r} at level {lab.level} has no parent")
            plevel = by_id[lab.parent].level
            if plevel != lab.level - 1:
                raise LevelGapError(
                    f"{lab.id!r} at level {lab.level} has parent at level {plevel}"
                )

    levels = []
    for i in range(1, depth + 1):
        ids = [l.id for l in labels if l.level == i]
        if not ids:
            raise LevelGapError(f"no labels at level {i} but deeper levels exist")
        levels.append(tuple(ids))

    order = tuple(lid for ids in levels for lid in ids)
    return Taxonomy(
        labels=tuple(labels),
        by_id=by_id,
        levels=tuple(levels),
        order=order,
        position={lid: i for i, lid in enumerate(order)},
    )
