"""Macro precision / recall / F1 and precision@k for multi-label output.

Macro F1 is computed from the macro-averaged precision and recall (not the
mean of per-class F1 scores).  Classes that are never predicted and never
true contribute zero precision and recall.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigRangeError, EmptyTruthError, UnknownLabelError


@dataclass(frozen=True)
class MetricsReport:
    macro_p: float
    macro_r: float
    macro_f1: float
    p_at_k: dict            # k -> fraction
    violation_rate: float
    n_documents: int
    n_classes: int

    def to_json(self) -> str:
        d = {**vars(self), "p_at_k": {str(k): v for k, v in self.p_at_k.items()}}
        return json.dumps(d, indent=2, sort_keys=True)


def macro_precision_recall(predicted, truth, classes):
    """Per-class precision/recall averaged over the class list.

    predicted and truth are parallel lists of label sets.  Empty
    denominators contribute zero.
    """
    cset = set(classes)
    for sets in (predicted, truth):
        for s in sets:
            bad = set(s) - cset
            if bad:
                raise UnknownLabelError(f"labels outside class list: {sorted(bad)}")
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for pred, true in zip(predicted, truth):
        pred, true = set(pred), set(true)
        for c in pred & true:
            tp[c] += 1
        for c in pred - true:
            fp[c] += 1
        for c in true - pred:
            fn[c] += 1
    n = len(classes)
    p = sum(tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0 for c in classes) / n
    r = sum(tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0 for c in classes) / n
    return p, r


def macro_f1(p, r):
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def top_k_indices(scores, k):
    """Indices of the k highest scores, ties broken by lower index."""
    if k < 1:
        raise ConfigRangeError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores)
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def precision_at_k(score_vectors, truth_sets, k, classes):
    """Mean over documents of |top-k predicted| intersected with truth| / k."""
    total = 0.0
    n = 0
    for scores, true in zip(score_vectors, truth_sets):
        if not true:
            raise EmptyTruthError("document with no true labels")
        top = {classes[i] for i in top_k_indices(scores, k)}
        total += len(top & set(true)) / k
        n += 1
    return total / n if n else 0.0


def hierarchy_violation_rate(predicted_sets, tax):
    """Fraction of predicted non-root labels whose parent was not predicted."""
    viol = 0
    total = 0
    for labels in predicted_sets:
        labels = set(labels)
        for lid in labels:
            parent = tax.label(lid).parent
            if parent is None:
                continue
            total += 1
            if parent not in labels:
                viol += 1
    return viol / total if total else 0.0
