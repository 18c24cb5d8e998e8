"""Front quality metrics: exact 2-D hypervolume, uniqueness, program size."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gp_core import Individual, node_count

# Reference point for hypervolume reporting; objectives live in [0, 1]^2 and
# a small margin keeps boundary solutions contributing.
HV_REFERENCE = (1.01, 1.01)


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation summary of the current first front."""

    generation: int
    hypervolume: float
    unique_count: int
    mean_nodes: float
    front_size: int

    def validate(self):
        if self.unique_count > self.front_size:
            raise ValueError("unique_count cannot exceed front_size")


class SizeStats(NamedTuple):
    mean: float
    median: float
    max: int


def hypervolume_2d(points, ref) -> float:
    """Exact dominated hypervolume of 2-D minimization points.

    Points not dominating the reference point are discarded, as are
    duplicates and dominated points; the survivors form a staircase swept
    left to right. Returns 0.0 when nothing dominates the reference point.
    """
    ref = tuple(float(r) for r in ref)
    if len(ref) != 2:
        raise ValueError("reference point must have two entries")
    cleaned = []
    for point in points:
        a, b = (float(x) for x in point)
        if a <= ref[0] and b <= ref[1]:
            cleaned.append((a, b))
    if not cleaned:
        return 0.0
    stair = []
    best = math.inf
    for a, b in sorted(set(cleaned)):
        if b < best:
            stair.append((a, b))
            best = b
    total = 0.0
    for idx, (a, b) in enumerate(stair):
        next_a = stair[idx + 1][0] if idx + 1 < len(stair) else ref[0]
        total += (next_a - a) * (ref[1] - b)
    return total


def _objective_tuple(member) -> tuple:
    objs = member.objectives if isinstance(member, Individual) else member
    vec = tuple(float(x) for x in np.asarray(objs, dtype=np.float64))
    if len(vec) != 2:
        raise ValueError("expected 2-entry objective vectors")
    return vec


def unique_solutions(members) -> int:
    """Distinct 2-entry objective vectors on a front, by exact equality."""
    return len({_objective_tuple(m) for m in members})


def size_stats(members) -> SizeStats:
    """Mean, median, and max node counts over programs."""
    members = list(members)
    if not members:
        raise ValueError("need at least one program")
    counts = [node_count(m.tree if isinstance(m, Individual) else m) for m in members]
    return SizeStats(statistics.fmean(counts), statistics.median(counts), max(counts))
