"""Multi-objective evolutionary engines: NSGA-II, SPEA2, and MOEA/D.

All selection machinery works on minimization objective vectors of any
shared length, so the same engines run unchanged on two or three
objectives. Engines breed genetic-programming individuals through an
injected variation policy and evaluator; the objective space, crowding
policy, and density policy are pluggable so semantic variants can replace
single mechanisms without touching the loops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .gp_core import Individual, Population, Variation, ramped_half_and_half
from .objectives import ClassificationEvaluator


@dataclass(frozen=True)
class EngineParams:
    """Engine-specific knobs; defaults are the canonical settings."""

    archive_size: int | None = None
    moead_neighbors: int = 20
    moead_delta: float = 0.9
    moead_max_replacements: int = 2

    def __post_init__(self):
        if self.archive_size is not None and self.archive_size < 1:
            raise ValueError("archive_size must be at least 1")
        if self.moead_neighbors < 1:
            raise ValueError("moead_neighbors must be at least 1")
        if not 0.0 <= self.moead_delta <= 1.0:
            raise ValueError("moead_delta must lie in [0, 1]")
        if self.moead_max_replacements < 1:
            raise ValueError("moead_max_replacements must be at least 1")


def dominates(a, b) -> bool:
    """True when vector a Pareto-dominates b under minimization."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("objective vectors must be 1-D and of equal length")
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean matrix D with D[i, j] true when row i dominates row j."""
    F = np.asarray(objectives, dtype=np.float64)
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return le & lt


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Partition objective vectors into successive non-dominated fronts.

    Returns fronts as ascending index lists; every index appears in exactly
    one front, and front k+1 members are each dominated by someone in the
    union of fronts 0..k.
    """
    F = np.asarray(objectives, dtype=np.float64)
    if F.size == 0:
        return []
    if F.ndim != 2:
        raise ValueError("objective vectors must all share one length")
    n = F.shape[0]
    D = dominance_matrix(F)
    counts = D.sum(axis=0).astype(np.int64)
    fronts: list[list[int]] = []
    current = np.flatnonzero(counts == 0)
    while current.size:
        fronts.append([int(i) for i in current])
        # Mark processed rows well below zero so later decrements never
        # resurface them.
        counts[current] = -(n + 1)
        counts -= D[current].sum(axis=0)
        current = np.flatnonzero(counts == 0)
    return fronts


def crowding_distance(front_objectives) -> np.ndarray:
    """Crowding distances for one front; boundary members get +inf.

    Per objective, the two extremes of the stable sort order are marked
    infinite and interior members accumulate the normalized gap between
    their neighbours. Zero-range objectives contribute nothing.
    """
    F = np.asarray(front_objectives, dtype=np.float64)
    if F.size == 0:
        raise ValueError("front must be non-empty")
    if F.ndim != 2:
        raise ValueError("objective vectors must all share one length")
    n = F.shape[0]
    dist = np.zeros(n)
    for col in range(F.shape[1]):
        vals = F[:, col]
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = vals[order[-1]] - vals[order[0]]
        if span > 0.0 and n > 2:
            gaps = (vals[order[2:]] - vals[order[:-2]]) / span
            dist[order[1:-1]] += gaps
    return dist


def nsga2_survivors(fronts: list[list[int]], crowding: np.ndarray, target: int) -> list[int]:
    """Front-by-front fill; the last partial front is truncated by crowding.

    Within the truncated front, higher crowding wins and ties go to the
    lower index.
    """
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= target:
            chosen.extend(front)
            if len(chosen) == target:
                break
        else:
            remaining = target - len(chosen)
            order = sorted(front, key=lambda i: (-crowding[i], i))
            chosen.extend(order[:remaining])
            break
    return chosen


class Spea2Fitness(NamedTuple):
    strength: np.ndarray
    raw: np.ndarray
    density: np.ndarray
    fitness: np.ndarray


def spea2_fitness(objectives, k: int | None = None) -> Spea2Fitness:
    """Strength, raw fitness, density, and total fitness for a combined pool.

    Strength counts dominated members; raw fitness sums the strengths of a
    member's dominators (0 for non-dominated members); density is
    1 / (sigma_k + 2) where sigma_k is the Euclidean distance to the k-th
    nearest other member and k defaults to floor(sqrt(pool size)).
    """
    F = np.asarray(objectives, dtype=np.float64)
    if F.size == 0:
        raise ValueError("pool must be non-empty")
    n = F.shape[0]
    D = dominance_matrix(F)
    strength = D.sum(axis=1).astype(np.float64)
    raw = (D * strength[:, None]).sum(axis=0)
    if n == 1:
        sigma = np.zeros(1)
    else:
        diff = F[:, None, :] - F[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        if k is None:
            k = math.isqrt(n)
        k = min(max(k, 1), n - 1)
        # Column 0 of the sorted rows is the zero self-distance, so column k
        # is the k-th nearest other member.
        sigma = np.sort(dist, axis=1)[:, k]
    density = 1.0 / (sigma + 2.0)
    return Spea2Fitness(strength, raw, density, raw + density)


def spea2_truncate(objectives, target_size: int) -> list[int]:
    """Iteratively drop the member with the smallest neighbour distances.

    Each round removes the member whose ascending distance list to the
    remaining members is lexicographically smallest (ties to the lowest
    index), until target_size remain. Returns kept indices in order.

    A round sorts the rows of the alive distance submatrix with +inf on
    its diagonal. The self-distance then sorts last in every row, so the
    sorted rows compare as the lists of distances to the others do; the
    smallest is found by narrowing the candidates column by column.
    """
    F = np.asarray(objectives, dtype=np.float64)
    n = F.shape[0]
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    if n <= target_size:
        raise ValueError("pool must exceed target_size")
    diff = F[:, None, :] - F[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    alive = np.arange(n)
    while alive.size > target_size:
        rows = dist[np.ix_(alive, alive)]
        np.fill_diagonal(rows, math.inf)
        rows.sort(axis=1)
        candidates = np.arange(alive.size)
        for col in range(alive.size - 1):
            column = rows[candidates, col]
            candidates = candidates[column == column.min()]
            if candidates.size == 1:
                break
        alive = np.delete(alive, candidates[0])
    return alive.tolist()


def simplex_lattice_weights(n_objectives: int, min_count: int) -> np.ndarray:
    """Evenly spaced weight vectors on the simplex, at least min_count of them."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    if n_objectives == 2:
        h = max(min_count - 1, 1)
        return np.array([[i / h, (h - i) / h] for i in range(h + 1)])
    if n_objectives == 3:
        h = 1
        while (h + 1) * (h + 2) // 2 < min_count:
            h += 1
        rows = [
            [i / h, j / h, (h - i - j) / h]
            for i in range(h + 1)
            for j in range(h + 1 - i)
        ]
        return np.array(rows)
    raise ValueError("only 2 or 3 objectives are supported")


def neighborhoods(weights: np.ndarray, t: int) -> np.ndarray:
    """Indices of the t nearest weight vectors per row, self included first."""
    W = np.asarray(weights, dtype=np.float64)
    n = W.shape[0]
    t = min(t, n)
    diff = W[:, None, :] - W[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    order = np.argsort(dist, axis=1, kind="stable")
    return order[:, :t]


def tchebycheff(f, w, z) -> float:
    """Weighted Chebyshev scalarization max_i w_i * |f_i - z_i|."""
    f = np.asarray(f, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if not f.shape == w.shape == z.shape:
        raise ValueError("f, w, z must share one length")
    return float(np.max(w * np.abs(f - z)))


def moead_replacements(
    selection_objs: np.ndarray,
    weights: np.ndarray,
    ideal: np.ndarray,
    scan_order,
    child_vector: np.ndarray,
    max_replacements: int,
) -> list[int]:
    """Subproblems, scanned in order, whose incumbent the child improves.

    A subproblem is replaced when the child's Chebyshev value under its
    weight vector is strictly better than the incumbent's; the scan stops
    after max_replacements replacements.

    All values are computed in one array pass, elementwise as tchebycheff
    does. That is exact because nothing the scan reads changes during it:
    the caller writes the replaced incumbents only after this returns, and
    the ideal point is fixed for the call.
    """
    order = np.asarray(scan_order, dtype=np.intp)
    W = weights[order]
    own = (W * np.abs(selection_objs[order] - ideal)).max(axis=1)
    new = (W * np.abs(child_vector - ideal)).max(axis=1)
    return order[new < own][:max_replacements].tolist()


class BaseObjectives:
    """Selection space that is simply the cached objective vectors."""

    n_objectives = 2

    def refresh(self, members: Population, rng: random.Random) -> np.ndarray:
        return np.stack([ind.objectives for ind in members])

    def vector(self, ind: Individual) -> np.ndarray:
        return ind.objectives


def canonical_crowding(members: Population, fronts, objs: np.ndarray, rng: random.Random) -> np.ndarray:
    """Per-front crowding distances scattered back to pool positions."""
    crowds = np.zeros(len(members))
    for front in fronts:
        crowds[front] = crowding_distance(objs[front])
    return crowds


# Policy signatures used by the engines; semantic variants supply their own.
CrowdingPolicy = Callable[[Population, list, np.ndarray, random.Random], np.ndarray]
DensityPolicy = Callable[[Population, np.ndarray, np.ndarray, random.Random], np.ndarray]
ArchiveRank = Callable[[Population, np.ndarray, random.Random], np.ndarray]


def _base_front(members: Population) -> Population:
    objs = np.stack([ind.objectives for ind in members])
    fronts = fast_nondominated_sort(objs)
    return [members[i] for i in fronts[0]]


class _Engine:
    """State and loops shared by the engines.

    Holds the evaluator, variation policy, run parameters, generator and
    selection space, builds and scores the initial population, and breeds
    pop_size offspring from pairs picked by the subclass's _tournament.
    """

    def __init__(
        self,
        evaluator: ClassificationEvaluator,
        variation: Variation,
        rng: random.Random,
        objective_space=None,
    ):
        self.evaluator = evaluator
        self.variation = variation
        self.params = variation.params
        self.rng = rng
        self.space = objective_space if objective_space is not None else BaseObjectives()

    def _initial_population(self, size: int) -> Population:
        trees = ramped_half_and_half(
            size,
            self.variation.primitives,
            self.rng,
            self.params.init_min_depth,
            self.params.init_max_depth,
        )
        return self.evaluator.evaluate_all(trees)

    def _breed(self, mates: Population) -> Population:
        n = self.params.pop_size
        trees = []
        while len(trees) < n:
            a = mates[self._tournament()]
            b = mates[self._tournament()]
            trees.extend(self.variation.breed_pair(a, b, self.rng))
        del trees[n:]
        return self.evaluator.evaluate_all(trees)


class Nsga2Engine(_Engine):
    """Generational NSGA-II: merge parents and offspring, fill by fronts.

    The crowding policy supplies the diversity values used in both the
    truncation of the last partial front and the binary tournament.
    """

    def __init__(
        self,
        evaluator: ClassificationEvaluator,
        variation: Variation,
        rng: random.Random,
        objective_space=None,
        crowding_policy: CrowdingPolicy | None = None,
    ):
        super().__init__(evaluator, variation, rng, objective_space)
        self.crowding_policy = crowding_policy if crowding_policy is not None else canonical_crowding
        self.parents: Population = []
        self._ranks = np.zeros(0, dtype=np.int64)
        self._crowds = np.zeros(0)

    def _sort(self, members: Population) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        """Fronts, per-member front ranks and crowding values of a pool."""
        objs = self.space.refresh(members, self.rng)
        fronts = fast_nondominated_sort(objs)
        crowds = self.crowding_policy(members, fronts, objs, self.rng)
        ranks = np.zeros(len(members), dtype=np.int64)
        for rank, front in enumerate(fronts):
            ranks[front] = rank
        return fronts, ranks, crowds

    def initialize(self):
        self.parents = self._initial_population(self.params.pop_size)
        _, self._ranks, self._crowds = self._sort(self.parents)

    def _tournament(self) -> int:
        n = len(self.parents)
        i = self.rng.randrange(n)
        j = self.rng.randrange(n)
        if self._ranks[j] < self._ranks[i]:
            return j
        if self._ranks[i] == self._ranks[j] and self._crowds[j] > self._crowds[i]:
            return j
        return i

    def step(self):
        merged = self.parents + self._breed(self.parents)
        fronts, ranks, crowds = self._sort(merged)
        keep = nsga2_survivors(fronts, crowds, self.params.pop_size)
        self.parents = [merged[i] for i in keep]
        self._ranks = ranks[keep]
        self._crowds = crowds[keep]

    def front(self) -> Population:
        """Current first front in the plain two-objective space."""
        return _base_front(self.parents)


class Spea2Engine(_Engine):
    """SPEA2 with a fixed-capacity archive and tournament mating from it.

    The density policy, when given, replaces the density component of the
    fitness (raw dominance fitness is kept); archive truncation keeps its
    canonical nearest-neighbour rule.
    """

    def __init__(
        self,
        evaluator: ClassificationEvaluator,
        variation: Variation,
        rng: random.Random,
        engine_params: EngineParams = EngineParams(),
        objective_space=None,
        density_policy: DensityPolicy | None = None,
    ):
        super().__init__(evaluator, variation, rng, objective_space)
        archive_size = engine_params.archive_size
        self.archive_size = archive_size if archive_size is not None else self.params.pop_size
        self.density_policy = density_policy
        self.population: Population = []
        self.archive: Population = []
        self._archive_fitness = np.zeros(0)

    def initialize(self):
        self.population = self._initial_population(self.params.pop_size)
        self._environmental_selection()

    def _environmental_selection(self):
        union = self.population + self.archive
        objs = self.space.refresh(union, self.rng)
        parts = spea2_fitness(objs)
        if self.density_policy is not None:
            fitness = parts.raw + self.density_policy(union, objs, parts.raw, self.rng)
        else:
            fitness = parts.fitness
        nondominated = [i for i in range(len(union)) if parts.raw[i] == 0]
        if len(nondominated) > self.archive_size:
            kept = spea2_truncate(objs[nondominated], self.archive_size)
            keep = [nondominated[i] for i in kept]
        else:
            dominated = sorted(
                (i for i in range(len(union)) if parts.raw[i] > 0),
                key=lambda i: (fitness[i], i),
            )
            keep = nondominated + dominated[: self.archive_size - len(nondominated)]
        self.archive = [union[i] for i in keep]
        self._archive_fitness = fitness[keep]

    def _tournament(self) -> int:
        n = len(self.archive)
        i = self.rng.randrange(n)
        j = self.rng.randrange(n)
        return j if self._archive_fitness[j] < self._archive_fitness[i] else i

    def step(self):
        self.population = self._breed(self.archive)
        self._environmental_selection()

    def front(self) -> Population:
        """Current first front of the archive in the two-objective space."""
        return _base_front(self.archive)


def canonical_archive_rank(members: Population, objs: np.ndarray, rng: random.Random) -> np.ndarray:
    return crowding_distance(objs)


class MoeadEngine(_Engine):
    """Decomposition engine: one Chebyshev subproblem per weight vector.

    The internal population holds one individual per weight vector (the
    lattice may slightly exceed the requested population size). Mating stays
    within a subproblem's neighbourhood with high probability, improvements
    replace at most max_replacements neighbours, and an external archive of
    distinct non-dominated solutions (capped at the subproblem count) feeds
    reporting.
    """

    def __init__(
        self,
        evaluator: ClassificationEvaluator,
        variation: Variation,
        rng: random.Random,
        engine_params: EngineParams = EngineParams(),
        objective_space=None,
        archive_rank: ArchiveRank | None = None,
    ):
        super().__init__(evaluator, variation, rng, objective_space)
        self.weights = simplex_lattice_weights(self.space.n_objectives, self.params.pop_size)
        self.n_subproblems = len(self.weights)
        self.neighbor_idx = neighborhoods(self.weights, engine_params.moead_neighbors)
        self._neighbor_lists = self.neighbor_idx.tolist()
        self.delta = engine_params.moead_delta
        self.max_replacements = engine_params.moead_max_replacements
        self.archive_rank = archive_rank if archive_rank is not None else canonical_archive_rank
        self.archive_cap = self.n_subproblems
        self.population: Population = []
        self.archive: Population = []
        self._selection_objs = np.zeros((0, self.space.n_objectives))
        self.ideal = np.zeros(self.space.n_objectives)
        self.ideal_history: list[np.ndarray] = []

    def initialize(self):
        self.population = self._initial_population(self.n_subproblems)
        self._selection_objs = self.space.refresh(self.population, self.rng)
        self.ideal = self._selection_objs.min(axis=0).copy()
        for ind in self.population:
            self._archive_add(ind)
        self.ideal_history.append(self.ideal.copy())

    def step(self):
        # Pivot-dependent spaces shift per generation, so re-derive the
        # selection objectives; the ideal point only ever min-updates.
        self._selection_objs = self.space.refresh(self.population, self.rng)
        self.ideal = np.minimum(self.ideal, self._selection_objs.min(axis=0))
        for i in range(self.n_subproblems):
            neigh = self._neighbor_lists[i]
            if self.rng.random() < self.delta or self.n_subproblems < 2:
                pool = neigh
            else:
                pool = list(range(self.n_subproblems))
            if len(pool) >= 2:
                a, b = self.rng.sample(pool, 2)
            else:
                a = b = pool[0]
            tree = self.variation.breed_one(self.population[a], self.population[b], self.rng)
            child = self.evaluator.evaluate_tree(tree)
            child_sel = np.asarray(self.space.vector(child), dtype=np.float64)
            self.ideal = np.minimum(self.ideal, child_sel)
            order = neigh[:]
            self.rng.shuffle(order)
            for j in moead_replacements(
                self._selection_objs,
                self.weights,
                self.ideal,
                order,
                child_sel,
                self.max_replacements,
            ):
                self.population[j] = child
                self._selection_objs[j] = child_sel
            self._archive_add(child)
        self.ideal_history.append(self.ideal.copy())

    def _archive_add(self, ind: Individual):
        """Insert a child unless a member equals or dominates it.

        Members the child dominates are dropped, the rest keep their order.
        A member equals or dominates the child exactly when it is <= the
        child in every objective. Past that check no member equals the
        child, so the child dominates exactly the members it is <= in
        every objective.
        """
        if self.archive:
            objs = np.stack([member.objectives for member in self.archive])
            f = ind.objectives
            if (objs <= f).all(axis=1).any():
                return
            beaten = (f <= objs).all(axis=1)
            self.archive = [m for m, out in zip(self.archive, beaten.tolist()) if not out]
        self.archive.append(ind)
        if len(self.archive) > self.archive_cap:
            objs = np.stack([member.objectives for member in self.archive])
            rank = self.archive_rank(self.archive, objs, self.rng)
            order = sorted(range(len(self.archive)), key=lambda idx: (-rank[idx], idx))
            keep = sorted(order[: self.archive_cap])
            self.archive = [self.archive[idx] for idx in keep]

    def front(self) -> Population:
        """External archive members (already mutually non-dominated)."""
        return list(self.archive)
