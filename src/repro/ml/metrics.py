"""Classification metrics used by the indicator ablations."""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ..errors import ModelError


def _check_lengths(y_true: Sequence, y_pred: Sequence) -> None:
    if len(y_true) != len(y_pred):
        raise ModelError("y_true and y_pred must have the same length")
    if len(y_true) == 0:
        raise ModelError("metrics require at least one sample")


def roc_auc_score(y_true: Sequence, scores: Sequence[float], positive: Hashable = 1) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney U) formulation.

    Ties in scores receive mid-ranks.  Requires both classes to be present.
    """
    _check_lengths(y_true, scores)
    scores = np.asarray(list(scores), dtype=np.float64)
    positives = np.array([t == positive for t in y_true])
    n_pos = int(positives.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ModelError("roc_auc_score requires both classes to be present")

    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1

    sum_pos_ranks = float(ranks[positives].sum())
    u_statistic = sum_pos_ranks - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)
