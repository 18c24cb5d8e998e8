"""Semantic settings, distances between program behaviours, and pivot selection.

SemanticConfig names the approach and holds the similarity band and the
distance rule that every semantic mechanism reads.

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
APPROACHES = ("canonical", "ssc", "scd", "sdo")


@dataclass(frozen=True)
class SemanticConfig:
    """Which semantic approach runs and how distances are measured.

    The similarity band [lbss, ubss] bounds an absolute output difference:
    per case for the case-count distances, averaged over the cases for the
    ssc crossover gate. ubss may be math.inf to make every difference fall
    at or below it. distance_rule selects the case-count distance: "above"
    counts cases whose output difference exceeds ubss, "band" counts cases
    whose difference lies inside [lbss, ubss].
    """

    approach: str = "canonical"
    lbss: float = 0.01
    ubss: float = 0.5
    distance_rule: str = RULE_BAND

    def __post_init__(self):
        if math.isnan(self.lbss) or math.isnan(self.ubss):
            raise ValueError("similarity bounds must not be NaN")
        if self.lbss < 0.0:
            raise ValueError("lbss must be non-negative")
        if self.ubss < self.lbss:
            raise ValueError("need lbss <= ubss")
        if self.approach not in APPROACHES:
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.distance_rule not in DISTANCE_RULES:
            raise ValueError(f"unknown distance rule {self.distance_rule!r}")


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
    # np.mean's float64 path: the same pairwise sum, then one division.
    diff = np.subtract(a, b)
    np.abs(diff, out=diff)
    return float(np.add.reduce(diff, axis=None)) / diff.size


# Rows of differences processed at once by count_distances: about 256 KB of
# float64, so a block's buffers stay in cache between its passes.
BLOCK_BYTES = 1 << 18


def block_rows(n_cases: int) -> int:
    """Rows per count_distances block for semantics of n_cases entries."""
    return max(1, BLOCK_BYTES // (8 * max(n_cases, 1)))


def count_distances(semantics_rows, pivot_semantics: np.ndarray, cfg: SemanticConfig) -> np.ndarray:
    """Case-count distance of each row to the pivot, as a float64 vector.

    The count follows cfg.distance_rule over the band [cfg.lbss, cfg.ubss].
    semantics_rows is a 2-D array or a sequence of equal-length rows. Its
    rows are counted once per distinct array object and the counts
    scattered back: a clone shares its parent's read-only array, so a pool
    repeats many. The distinct rows are concatenated block_rows at a time
    into one reused difference buffer, then subtracted, made absolute and
    compared in place into one reused mask, whose bytes are summed per row
    into the narrowest unsigned integer that holds the case count, so no
    temporary of the whole input is built. The band count is the cases at
    or above lbss less those above ubss, which SemanticConfig's
    lbss <= ubss check makes exact.
    """
    lbss, ubss, band = cfg.lbss, cfg.ubss, cfg.distance_rule == RULE_BAND
    pivot = np.asarray(pivot_semantics, dtype=np.float64)
    if len(semantics_rows) == 1:
        # A lone row (SdoObjectives.vector): flat counts, no buffers to set up.
        row = semantics_rows[0]
        # subtract would broadcast a row of another length, so check it here.
        if len(row) != pivot.size:
            raise ValueError("every semantics row must have the pivot's length")
        diff = np.abs(np.subtract(row, pivot))
        count = np.count_nonzero(diff > ubss)
        if band:
            count = np.count_nonzero(diff >= lbss) - count
        return np.array([count], dtype=np.float64)
    # The list holds every row alive, so no two of them share an id, not
    # even the row views of a matrix, which are temporaries.
    rows = list(semantics_rows)
    distinct = {id(row): row for row in rows}
    slot = {key: index for index, key in enumerate(distinct)}
    return _count_blocks(list(distinct.values()), pivot, lbss, ubss, band)[[slot[id(row)] for row in rows]]


def _count_blocks(rows, pivot: np.ndarray, lbss: float, ubss: float, band: bool) -> np.ndarray:
    """count_distances of every row of a list of rows, block by block."""
    n_rows = len(rows)
    block = block_rows(pivot.size)
    tally = np.min_scalar_type(pivot.size)
    counts = np.empty(n_rows, dtype=np.float64)
    diff = np.empty((min(block, n_rows), pivot.size))
    mask = np.empty(diff.shape, dtype=bool)
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        d, m = diff[: stop - start], mask[: stop - start]
        part = rows[start:stop]
        # concatenate checks only the total length, so check each row here.
        if any(len(row) != pivot.size for row in part):
            raise ValueError("every semantics row must have the pivot's length")
        np.concatenate(part, out=d.reshape(-1))
        np.subtract(d, pivot, out=d)
        np.abs(d, out=d)
        np.greater(d, ubss, out=m)
        above = np.add.reduce(m.view(np.uint8), axis=1, dtype=tally)
        if band:
            np.greater_equal(d, lbss, out=m)
            # Every case above ubss is also at or above lbss, so this never wraps.
            counts[start:stop] = np.add.reduce(m.view(np.uint8), axis=1, dtype=tally) - above
        else:
            counts[start:stop] = above
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
