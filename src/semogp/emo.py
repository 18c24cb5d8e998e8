"""Multi-objective evolutionary engines: NSGA-II, SPEA2, and MOEA/D.

All selection machinery works on minimization objective vectors of any
shared length, so the same engines run unchanged on two or three
objectives. Engines breed genetic-programming individuals through an
injected variation policy and evaluator. Every engine takes an objective
space hook, and NSGA-II and SPEA2 a diversity estimate hook too, so
semantic variants can replace single mechanisms without touching the loops.
The diversity hook defaults to the engine's canonical estimate:
canonical_crowding for NSGA-II, canonical_density for SPEA2.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .gp_core import Individual, Node, Population, Variation, ramped_half_and_half
from .objectives import ClassificationEvaluator


# MOEA/D's neighbourhood size T, probability δ of mating within the
# neighbourhood, and cap n_r on the incumbents one child replaces: the
# values of Li & Zhang, "Multiobjective Optimization Problems With
# Complicated Pareto Sets, MOEA/D and NSGA-II" (IEEE TEC 2009).
MOEAD_NEIGHBORS = 20
MOEAD_DELTA = 0.9
MOEAD_MAX_REPLACEMENTS = 2


def dominates(a, b) -> bool:
    """True when vector a Pareto-dominates b under minimization."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("objective vectors must be 1-D and of equal length")
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean matrix D with D[i, j] true when row i dominates row j.

    Built one (n, n) comparison per objective column: row i is <= row j
    in every column and < in at least one.
    """
    F = np.asarray(objectives, dtype=np.float64)
    n = F.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for c in F.T:
        le &= c[:, None] <= c[None, :]
        lt |= c[:, None] < c[None, :]
    return le & lt


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between all rows, built one column at a time.

    Adding the squared differences in column order onto a zero start gives
    the same bits as summing them over a trailing axis of length 2 or 3.
    """
    total = np.zeros((points.shape[0],) * 2)
    for c in points.T:
        d = c[:, None] - c[None, :]
        total += d * d
    return np.sqrt(total)


def objective_matrix(objectives) -> np.ndarray:
    """Objective vectors as one float64 row each; an empty input has no rows.

    Every reader of a pool's objective vectors reads them through here. A
    flat list raises the ValueError below, a ragged list numpy's own.
    """
    F = np.asarray(objectives, dtype=np.float64)
    if F.size == 0:
        return np.zeros((0, 0))
    if F.ndim != 2:
        raise ValueError("objective vectors must all share one length")
    return F


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Partition objective vectors into successive non-dominated fronts.

    Returns fronts as ascending index lists; every index appears in exactly
    one front, and front k+1 members are each dominated by someone in the
    union of fronts 0..k.
    """
    F = objective_matrix(objectives)
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


def first_front(objectives) -> list[int]:
    """Ascending indices of the rows no row dominates: fast_nondominated_sort's front 0.

    One dominance matrix and no peeling, for callers that read only the
    first front.
    """
    return np.flatnonzero(~dominance_matrix(objective_matrix(objectives)).any(axis=0)).tolist()


def crowding_distance(front_objectives) -> np.ndarray:
    """Crowding distances for one front; boundary members get +inf.

    Per objective, the two extremes of the stable sort order are marked
    infinite and interior members accumulate the normalized gap between
    their neighbours. Zero-range objectives contribute nothing.
    """
    F = objective_matrix(front_objectives)
    if F.size == 0:
        raise ValueError("front must be non-empty")
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


def spea2_fitness(objectives) -> np.ndarray:
    """SPEA2 raw fitness of each member of a combined pool.

    A member's strength counts the members it dominates; its raw fitness
    sums the strengths of its dominators, so non-dominated members score 0.
    """
    F = objective_matrix(objectives)
    if F.size == 0:
        raise ValueError("pool must be non-empty")
    D = dominance_matrix(F)
    strength = D.sum(axis=1).astype(np.float64)
    return (D * strength[:, None]).sum(axis=0)


def spea2_truncate(objectives, target_size: int) -> list[int]:
    """Iteratively drop the member with the smallest neighbour distances.

    Each round removes the member whose ascending distance list to the
    remaining members is lexicographically smallest (ties to the lowest
    index), until target_size remain. Returns kept indices in order.

    A round sorts the rows of the alive distance submatrix with +inf on
    its diagonal. The self-distance then sorts last in every row, so the
    sorted rows compare as the lists of distances to the others do. The
    distances of finite objectives are +0.0, positive or +inf, never -0.0
    or NaN, and for such doubles the big-endian bytes order as the numbers
    do; so the smallest row is the first minimum of the rows' bytes.
    Objectives with a NaN or an infinity raise ValueError.
    """
    F = objective_matrix(objectives)
    n = F.shape[0]
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    if n <= target_size:
        raise ValueError("pool must exceed target_size")
    if not np.isfinite(F).all():
        raise ValueError("objectives must be finite (no NaN or infinity)")
    dist = _pairwise_distances(F)
    alive = np.arange(n)
    while alive.size > target_size:
        rows = dist[np.ix_(alive, alive)]
        np.fill_diagonal(rows, math.inf)
        rows.sort(axis=1)
        # One bytes object per row: its doubles, big-endian.
        keys = rows.astype(">f8").view(f"V{8 * alive.size}").ravel().tolist()
        alive = np.delete(alive, keys.index(min(keys)))
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
    order = np.argsort(_pairwise_distances(W), axis=1, kind="stable")
    return order[:, :t]


def tchebycheff(f, w, z) -> float:
    """Weighted Chebyshev scalarization max_i w_i * |f_i - z_i|."""
    f = np.asarray(f, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if not f.shape == w.shape == z.shape:
        raise ValueError("f, w, z must share one length")
    return float(np.max(w * np.abs(f - z)))


def chebyshev_values(objs: np.ndarray, weights: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """tchebycheff of each row of objs under the matching row of weights.

    objs may also be one vector, scored under every weight. The values are
    elementwise the expression tchebycheff evaluates, so the bits agree.
    """
    return (weights * np.abs(objs - ideal)).max(axis=1)


def moead_replacements(own: np.ndarray, new: np.ndarray, scan_order, max_replacements: int) -> list[int]:
    """Subproblems, scanned in order, whose incumbent the child improves.

    own and new hold, per subproblem, the incumbent's and the child's
    Chebyshev values under one ideal point. A subproblem is replaced when
    the child's value is strictly lower; the scan stops after
    max_replacements replacements. Neither array changes during the scan:
    the caller writes the replaced incumbents only after this returns.
    """
    better = (new < own).tolist()
    replaced = []
    for j in scan_order:
        if better[j]:
            replaced.append(j)
            if len(replaced) == max_replacements:
                break
    return replaced


class BaseObjectives:
    """Selection space that is simply the cached objective vectors."""

    n_objectives = 2

    def refresh(self, members: Population, rng: random.Random) -> np.ndarray:
        return objective_matrix([ind.objectives for ind in members])

    def vector(self, ind: Individual) -> np.ndarray:
        return ind.objectives


def canonical_crowding(members: Population, fronts, objs: np.ndarray, rng: random.Random) -> np.ndarray:
    """Per-front crowding distances scattered back to pool positions."""
    crowds = np.zeros(len(members))
    for front in fronts:
        crowds[front] = crowding_distance(objs[front])
    return crowds


def canonical_density(members: Population, nondominated, objs: np.ndarray, rng: random.Random) -> np.ndarray:
    """SPEA2 density 1 / (sigma_k + 2) of every pool member.

    sigma_k is the Euclidean distance to the k-th nearest other member,
    k = floor(sqrt(pool size)); a lone member has sigma_k 0.
    """
    F = objective_matrix(objs)
    if F.size == 0:
        raise ValueError("pool must be non-empty")
    n = F.shape[0]
    # Column 0 of the sorted rows is the zero self-distance, so column k is
    # the k-th nearest other member, and column 0 itself for a lone member.
    sigma = np.sort(_pairwise_distances(F), axis=1)[:, min(math.isqrt(n), n - 1)]
    return 1.0 / (sigma + 2.0)


@functools.lru_cache(maxsize=1)
def _scored_population(state, size, primitives, init_min_depth, init_max_depth, dataset):
    """Initial members grown from a random.Random set to state and scored on
    dataset, with read-only arrays, and the generator state after them.

    Tree building depends only on the generator state and the init
    settings, and scoring only on the tree and the dataset, so the last
    population is kept: engines on the same training Dataset (which hashes
    by identity) and seed share its trees and arrays.
    harness._seed_split hands every run on one seed that same Dataset.
    """
    rng = random.Random()
    rng.setstate(state)
    trees = ramped_half_and_half(size, primitives, rng, init_min_depth, init_max_depth)
    members = ClassificationEvaluator(dataset).evaluate_all(trees)
    for ind in members:
        ind.semantics.flags.writeable = False
        ind.objectives.flags.writeable = False
    return tuple(members), rng.getstate()


class _Engine:
    """State and loops shared by the engines.

    Holds the evaluator, variation policy, run parameters, generator and
    the two hooks, and builds and scores the initial population. NSGA-II's
    and SPEA2's selection leaves the members kept for the next generation
    in kept and their tournament keys (smaller wins) in _keys; from these
    the base breeds pop_size offspring and reports the front. Every engine
    scores its offspring with _score: an offspring whose tree is one of
    its parents' trees takes that parent's semantics and objectives. The
    base scores a generation's other offspring inside one
    SemanticsMemo.planned batch, so each function node they share is
    computed once.
    Engines on the same training Dataset and seed start from the same
    initial members, whose read-only arrays they may share.

    objective_space is the selection space (None: the plain objective
    vectors). diversity replaces the engine's own diversity estimate and is
    called with that estimate's arguments (None: the canonical estimate).
    """

    def __init__(
        self,
        evaluator: ClassificationEvaluator,
        variation: Variation,
        rng: random.Random,
        objective_space=None,
        diversity=None,
    ):
        self.evaluator = evaluator
        self.variation = variation
        self.params = variation.params
        self.rng = rng
        self.space = objective_space if objective_space is not None else BaseObjectives()
        self.diversity = diversity

    def _initial_population(self, size: int) -> Population:
        """Ramped half-and-half members, scored; built once per data and generator state.

        A plain random.Random and ClassificationEvaluator take the members
        from _scored_population, skip to the generator state after them, and
        return new Individuals over its trees and read-only arrays. A
        subclass may draw or score otherwise, so it builds its own.
        """
        evaluator, params, rng = self.evaluator, self.params, self.rng
        primitives, depths = self.variation.primitives, (params.init_min_depth, params.init_max_depth)
        if type(rng) is not random.Random or type(evaluator) is not ClassificationEvaluator:
            return evaluator.evaluate_all(ramped_half_and_half(size, primitives, rng, *depths))
        members, state = _scored_population(rng.getstate(), size, primitives, *depths, evaluator.dataset)
        rng.setstate(state)
        return [Individual(ind.tree, ind.semantics, ind.objectives) for ind in members]

    def _tournament(self) -> int:
        """Binary tournament on _keys: the second draw wins only with a smaller key."""
        n = len(self.kept)
        i = self.rng.randrange(n)
        j = self.rng.randrange(n)
        return j if self._keys[j] < self._keys[i] else i

    def _score(self, tree: Node, a: Individual, b: Individual) -> Individual:
        """Score a tree bred from a and b; a tree that is a parent's takes that parent's scores.

        Evaluation is a pure function of the tree, so the reused scores are
        exactly what evaluate_tree would give. The offspring is a new
        Individual, never the parent itself.
        """
        for parent in (a, b):
            if tree is parent.tree:
                return Individual(tree, parent.semantics, parent.objectives)
        return self.evaluator.evaluate_tree(tree)

    def _breed(self) -> Population:
        n = self.params.pop_size
        bred = []
        while len(bred) < n:
            a = self.kept[self._tournament()]
            b = self.kept[self._tournament()]
            bred.extend((tree, a, b) for tree in self.variation.breed_pair(a, b, self.rng))
        del bred[n:]
        fresh = [tree for tree, a, b in bred if tree is not a.tree and tree is not b.tree]
        with self.evaluator.memo.planned(fresh):
            return [self._score(*entry) for entry in bred]

    def front(self) -> Population:
        """First front of the kept members in the plain two-objective space.

        Read through first_front, so no later front is peeled.
        """
        return [self.kept[i] for i in first_front([ind.objectives for ind in self.kept])]


class Nsga2Engine(_Engine):
    """Generational NSGA-II: merge kept members and offspring, fill by fronts.

    The tournament key is (front rank, -crowding): a lower rank wins, and
    within a rank the larger crowding value. The diversity hook, called as
    canonical_crowding is, supplies the crowding values, used both there
    and in the truncation of the last partial front.
    """

    def _sort(self, members: Population) -> tuple[list[list[int]], np.ndarray, list]:
        """Fronts, crowding values and tournament keys of a pool."""
        objs = self.space.refresh(members, self.rng)
        fronts = fast_nondominated_sort(objs)
        crowds = (self.diversity or canonical_crowding)(members, fronts, objs, self.rng)
        ranks = np.zeros(len(members), dtype=np.int64)
        for rank, front in enumerate(fronts):
            ranks[front] = rank
        return fronts, crowds, list(zip(ranks.tolist(), (-crowds).tolist()))

    def initialize(self):
        self.kept = self._initial_population(self.params.pop_size)
        _, _, self._keys = self._sort(self.kept)

    def step(self):
        merged = self.kept + self._breed()
        fronts, crowds, keys = self._sort(merged)
        keep = nsga2_survivors(fronts, crowds, self.params.pop_size)
        self.kept = [merged[i] for i in keep]
        self._keys = [keys[i] for i in keep]


class Spea2Engine(_Engine):
    """SPEA2: kept is the archive of pop_size members, and mates are drawn from it.

    The tournament key is the SPEA2 fitness: raw dominance fitness plus a
    density. The diversity hook, called as canonical_density is, with
    (union, nondominated, objs, rng), nondominated being the ascending
    union indices of raw fitness 0, supplies the density; archive
    truncation keeps its canonical nearest-neighbour rule.
    """

    def initialize(self):
        self.kept = []
        self._environmental_selection(self._initial_population(self.params.pop_size))

    def step(self):
        self._environmental_selection(self._breed())

    def _environmental_selection(self, offspring: Population):
        """Fill the archive from the offspring and the current archive."""
        union = offspring + self.kept
        objs = self.space.refresh(union, self.rng)
        raw = spea2_fitness(objs)
        nondominated = [i for i in range(len(union)) if raw[i] == 0]
        fitness = raw + (self.diversity or canonical_density)(union, nondominated, objs, self.rng)
        size = self.params.pop_size
        if len(nondominated) > size:
            truncated = spea2_truncate(objs[nondominated], size)
            keep = [nondominated[i] for i in truncated]
        else:
            dominated = sorted(
                (i for i in range(len(union)) if raw[i] > 0),
                key=lambda i: (fitness[i], i),
            )
            keep = nondominated + dominated[: size - len(nondominated)]
        self.kept = [union[i] for i in keep]
        self._keys = fitness[keep].tolist()


def canonical_archive_rank(members: Population, objs: np.ndarray, rng: random.Random) -> np.ndarray:
    return crowding_distance(objs)


class MoeadEngine(_Engine):
    """Decomposition engine: one Chebyshev subproblem per weight vector.

    The internal population holds one individual per weight vector (the
    lattice may slightly exceed the requested population size). Mating stays
    within a subproblem's MOEAD_NEIGHBORS nearest with probability
    MOEAD_DELTA, a child replaces at most MOEAD_MAX_REPLACEMENTS of them,
    and an external archive of distinct non-dominated solutions (capped at
    the subproblem count) feeds reporting. An overfull archive keeps the
    members with the largest canonical_archive_rank, their crowding
    distances. MOEA/D has no diversity estimate for a hook to replace, so
    it takes none.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.diversity is not None:
            raise ValueError("MOEA/D takes no diversity hook")
        self.weights = simplex_lattice_weights(self.space.n_objectives, self.params.pop_size)
        self.n_subproblems = len(self.weights)
        self._neighbor_lists = neighborhoods(self.weights, MOEAD_NEIGHBORS).tolist()
        self._all_subproblems = list(range(self.n_subproblems))
        self.archive_cap = self.n_subproblems

    def initialize(self):
        self.population = self._initial_population(self.n_subproblems)
        self.ideal = self.space.refresh(self.population, self.rng).min(axis=0)
        self.archive = []
        self._archive_objs = np.empty((0, self.population[0].objectives.size))
        for ind in self.population:
            self._archive_add(ind)
        self.ideal_history = [self.ideal.copy()]

    def step(self):
        """Breed one child per subproblem in turn and let it replace neighbours.

        own holds every incumbent's Chebyshev value. It is computed in full
        after the refresh and again whenever a child lowers the ideal point;
        in between neither an incumbent nor the ideal changes, except where
        a child replaces an incumbent and own takes the child's value. A
        child that only equals the ideal leaves it as it is: the sign of a
        zero in the ideal changes no |f - z|.
        """
        # Pivot-dependent spaces shift per generation, so re-derive the
        # selection objectives; the ideal point only ever min-updates.
        sel = self.space.refresh(self.population, self.rng)
        self.ideal = np.minimum(self.ideal, sel.min(axis=0))
        own = chebyshev_values(sel, self.weights, self.ideal)
        for i in range(self.n_subproblems):
            neigh = self._neighbor_lists[i]
            if self.rng.random() < MOEAD_DELTA:
                pool = neigh
            else:
                pool = self._all_subproblems
            a, b = (self.population[k] for k in self.rng.sample(pool, 2))
            child = self._score(self.variation.breed_one(a, b, self.rng), a, b)
            child_sel = np.asarray(self.space.vector(child), dtype=np.float64)
            if (child_sel < self.ideal).any():
                self.ideal = np.minimum(self.ideal, child_sel)
                own = chebyshev_values(sel, self.weights, self.ideal)
            new = chebyshev_values(child_sel, self.weights, self.ideal)
            order = neigh[:]
            self.rng.shuffle(order)
            for j in moead_replacements(own, new, order, MOEAD_MAX_REPLACEMENTS):
                self.population[j] = child
                sel[j] = child_sel
                own[j] = new[j]
            self._archive_add(child)
        self.ideal_history.append(self.ideal.copy())

    def _archive_add(self, ind: Individual):
        """Insert a child unless a member equals or dominates it.

        Members the child dominates are dropped, the rest keep their order.
        A member equals or dominates the child exactly when it is <= the
        child in every objective. Past that check no member equals the
        child, so the child dominates exactly the members it is <= in
        every objective. _archive_objs holds the members' objectives, row
        for row, and follows every change to the archive.
        """
        objs = self._archive_objs
        f = ind.objectives
        if (objs <= f).all(axis=1).any():
            return
        beaten = (f <= objs).all(axis=1)
        self.archive = [m for m, out in zip(self.archive, beaten.tolist()) if not out]
        self.archive.append(ind)
        objs = np.concatenate((objs[~beaten], f[None]))
        if len(self.archive) > self.archive_cap:
            rank = canonical_archive_rank(self.archive, objs, self.rng)
            order = sorted(range(len(self.archive)), key=lambda idx: (-rank[idx], idx))
            keep = sorted(order[: self.archive_cap])
            self.archive = [self.archive[idx] for idx in keep]
            objs = objs[keep]
        self._archive_objs = objs

    def front(self) -> Population:
        """External archive members (already mutually non-dominated)."""
        return list(self.archive)
