"""Classification objectives: program outputs to minimization vectors.

A program classifies a case as positive when its output is at or above
the fixed CLASSIFICATION_THRESHOLD, 0.0 (the zero-threshold rule of
Bhowan et al., IEEE TEC 2013). Accuracy on each class is scored
separately and both objectives are expressed in minimization form,
(1 - TPR, 1 - TNR), so a perfect classifier sits at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .gp_core import Individual, Node, SemanticsMemo, evaluate_semantics

CLASSIFICATION_THRESHOLD = 0.0


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion-matrix cell counts for one predictor."""

    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.tn, self.fp) < 0:
            raise ValueError("confusion counts must be non-negative")
        if self.tp + self.fn == 0 or self.tn + self.fp == 0:
            raise ValueError("both classes must be present")


def classify(semantics: np.ndarray, threshold: float = CLASSIFICATION_THRESHOLD) -> np.ndarray:
    """Predicted labels: positive wherever the program output >= threshold."""
    return np.asarray(semantics, dtype=np.float64) >= threshold


def confusion(predictions: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    """Count confusion-matrix cells for boolean predictions against labels."""
    preds = np.asarray(predictions, dtype=bool)
    labs = np.asarray(labels, dtype=bool)
    if preds.shape != labs.shape:
        raise ValueError("predictions and labels must have the same length")
    tp = int(np.count_nonzero(preds & labs))
    positives = int(np.count_nonzero(labs))
    predicted = int(np.count_nonzero(preds))
    return ConfusionCounts(
        tp=tp,
        fn=positives - tp,
        tn=labs.size - positives - predicted + tp,
        fp=predicted - tp,
    )


def objective_vector(counts: ConfusionCounts) -> np.ndarray:
    """Minimization objectives (1 - TPR, 1 - TNR), each in [0, 1]."""
    tpr = counts.tp / (counts.tp + counts.fn)
    tnr = counts.tn / (counts.tn + counts.fp)
    return np.array([1.0 - tpr, 1.0 - tnr])


class ClassificationEvaluator:
    """Maps trees to cached semantics and objectives on one dataset.

    What depends on the dataset alone is built once, here: the positive
    rows, the class sizes and one SemanticsMemo of the features, which every
    evaluate_tree call passes to evaluate_semantics (so a function node
    shared with an earlier tree is looked up, on matrices small enough for
    the memo to keep entries, or held within a planned batch). evaluate_tree then counts true and false
    positives directly and gives the same objectives, bit for bit, as
    objective_vector(confusion(classify(semantics), labels)): a case is
    positive where its output is at or above CLASSIFICATION_THRESHOLD.
    The semantics it caches may be read-only arrays shared with the memo.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.memo = SemanticsMemo(dataset.features)
        self._positive_rows = np.flatnonzero(dataset.labels)
        self._n_pos = self._positive_rows.size
        self._n_neg = dataset.n_cases - self._n_pos

    def evaluate_tree(self, tree: Node) -> Individual:
        semantics = evaluate_semantics(tree, self.dataset.features, self.memo)
        predicted = semantics >= CLASSIFICATION_THRESHOLD
        tp = np.count_nonzero(predicted[self._positive_rows])
        tn = self._n_neg - (np.count_nonzero(predicted) - tp)
        # objective_vector's expressions: tp + fn and tn + fp are the class sizes.
        objectives = np.array([1.0 - tp / self._n_pos, 1.0 - tn / self._n_neg])
        return Individual(tree, semantics, objectives)

    def evaluate_all(self, trees) -> list[Individual]:
        return [self.evaluate_tree(tree) for tree in trees]
