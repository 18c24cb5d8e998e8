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


def ssc_distance(s1: np.ndarray, s2: np.ndarray) -> float:
    """Mean absolute difference between two semantics vectors."""
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("semantics vectors must have the same length")
    if a.size == 0:
        raise ValueError("semantics vectors must be non-empty")
    return float(np.abs(a - b).mean())


# Rows of differences processed at once by count_distances: about 256 KB of
# float64, so a block's buffers stay in cache between its passes.
BLOCK_BYTES = 1 << 18


def block_rows(n_cases: int) -> int:
    """Rows per count_distances block for semantics of n_cases entries."""
    return max(1, BLOCK_BYTES // (8 * max(n_cases, 1)))


def count_distances(
    semantics_rows, pivot_semantics: np.ndarray, bounds: SimilarityBounds, rule: str
) -> np.ndarray:
    """Case-count distance of each row to the pivot, as a float64 vector.

    semantics_rows is a 2-D array or a sequence of equal-length rows. The
    rows are concatenated block_rows at a time into one reused difference
    buffer, then subtracted, made absolute and compared in place into one
    reused mask and counted per row, so no temporary of the whole input is
    built. The band count is the cases at or above lbss less those above
    ubss, which lbss <= ubss makes exact.
    """
    if rule not in DISTANCE_RULES:
        raise ValueError(f"unknown distance rule {rule!r}")
    pivot = np.asarray(pivot_semantics, dtype=np.float64)
    n_rows = len(semantics_rows)
    if n_rows == 1:
        # A lone row (SdoObjectives.vector): flat counts, no buffers to set up.
        row = semantics_rows[0]
        # subtract would broadcast a row of another length, so check it here.
        if len(row) != pivot.size:
            raise ValueError("every semantics row must have the pivot's length")
        diff = np.abs(np.subtract(row, pivot))
        count = np.count_nonzero(diff > bounds.ubss)
        if rule == RULE_BAND:
            count = np.count_nonzero(diff >= bounds.lbss) - count
        return np.array([count], dtype=np.float64)
    block = block_rows(pivot.size)
    counts = np.empty(n_rows, dtype=np.float64)
    diff = np.empty((min(block, n_rows), pivot.size))
    mask = np.empty(diff.shape, dtype=bool)
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        d, m = diff[: stop - start], mask[: stop - start]
        rows = semantics_rows[start:stop]
        # concatenate checks only the total length, so check each row here.
        if any(len(row) != pivot.size for row in rows):
            raise ValueError("every semantics row must have the pivot's length")
        np.concatenate(rows, out=d.reshape(-1))
        np.subtract(d, pivot, out=d)
        np.abs(d, out=d)
        np.greater(d, bounds.ubss, out=m)
        above = np.add.reduce(m, axis=1, dtype=np.intp)
        if rule == RULE_ABOVE:
            counts[start:stop] = above
        else:
            np.greater_equal(d, bounds.lbss, out=m)
            counts[start:stop] = np.add.reduce(m, axis=1, dtype=np.intp) - above
    return counts


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
