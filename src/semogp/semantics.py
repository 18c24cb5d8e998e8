"""Semantic distances between program behaviours, and pivot selection.

A program's semantics is its output vector over the fitness cases. Two
case-count distances compare a program against a reference program: the
number of cases whose outputs differ by more than the upper similarity
bound, and the number whose difference falls inside the [lower, upper]
similarity band. Both count over the full case vector, so together with the
below-lower-bound cases they partition it exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

RULE_ABOVE = "above"
RULE_BAND = "band"
DISTANCE_RULES = (RULE_ABOVE, RULE_BAND)


@dataclass(frozen=True)
class SimilarityBounds:
    """Lower and upper bounds on per-case semantic similarity.

    lbss is the lower bound and ubss the upper bound on the absolute
    difference between two programs' outputs on one case; ubss may be
    math.inf to make every difference fall at or below it.
    """

    lbss: float = 0.01
    ubss: float = 0.5

    def __post_init__(self):
        if math.isnan(self.lbss) or math.isnan(self.ubss):
            raise ValueError("similarity bounds must not be NaN")
        if self.lbss < 0.0:
            raise ValueError("lbss must be non-negative")
        if self.ubss < self.lbss:
            raise ValueError("need lbss <= ubss")


@dataclass(frozen=True)
class Pivot:
    """Reference individual for semantic distances.

    source_index points back into the front the pivot was chosen from.
    """

    semantics: np.ndarray
    source_index: int


def ssc_distance(s1: np.ndarray, s2: np.ndarray, subset=None) -> float:
    """Mean absolute difference between two semantics vectors.

    When subset is given, only those case indices contribute.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("semantics vectors must have the same length")
    if a.size == 0:
        raise ValueError("semantics vectors must be non-empty")
    diff = np.abs(a - b)
    if subset is not None:
        idx = list(subset)
        if not idx:
            raise ValueError("subset must be non-empty")
        diff = diff[idx]
    return float(diff.mean())


def count_distances(
    semantics_matrix: np.ndarray, pivot_semantics: np.ndarray, bounds: SimilarityBounds, rule: str
) -> np.ndarray:
    """Vectorized case-count distances of each matrix row to the pivot."""
    if rule not in DISTANCE_RULES:
        raise ValueError(f"unknown distance rule {rule!r}")
    matrix = np.asarray(semantics_matrix, dtype=np.float64)
    diff = np.abs(matrix - np.asarray(pivot_semantics, dtype=np.float64))
    if rule == RULE_ABOVE:
        return (diff > bounds.ubss).sum(axis=1).astype(np.float64)
    return ((diff >= bounds.lbss) & (diff <= bounds.ubss)).sum(axis=1).astype(np.float64)


def select_pivot(semantics_list, crowding, rng: random.Random) -> Pivot:
    """Choose the front member sitting in the sparsest region.

    Picks the member with the largest finite crowding distance, breaking
    ties toward the lowest index. Fronts of at most two members carry only
    infinite crowding, so one member is chosen uniformly at random; the same
    fallback applies if no finite crowding value exists at all.
    """
    semantics_list = list(semantics_list)
    crowding = list(crowding)
    if not semantics_list:
        raise ValueError("front must be non-empty")
    if len(crowding) != len(semantics_list):
        raise ValueError("crowding values must match the front size")
    finite = [i for i, c in enumerate(crowding) if math.isfinite(c)]
    if len(semantics_list) <= 2 or not finite:
        idx = rng.randrange(len(semantics_list))
    else:
        idx = max(finite, key=lambda i: (crowding[i], -i))
    return Pivot(np.asarray(semantics_list[idx], dtype=np.float64), idx)
