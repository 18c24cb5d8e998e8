"""Dominance, sorting, crowding, SPEA2 fitness, decomposition, engines."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semogp import emo
from semogp.emo import (
    BaseObjectives,
    EngineParams,
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    canonical_archive_rank,
    canonical_crowding,
    crowding_distance,
    dominance_matrix,
    dominates,
    fast_nondominated_sort,
    moead_replacements,
    neighborhoods,
    nsga2_survivors,
    simplex_lattice_weights,
    spea2_fitness,
    spea2_truncate,
    tchebycheff,
)
from semogp.gp_core import GPParams, PrimitiveSet, Variation, to_prefix
from semogp.objectives import ClassificationEvaluator
from semogp.semantic_emo import SdoObjectives, SemanticConfig

from conftest import blob_dataset, make_individual

INF = float("inf")


def peel_front_oracle(objs):
    """Reference sort: repeatedly peel the non-dominated members."""
    F = np.asarray(objs, dtype=np.float64)
    remaining = list(range(len(F)))
    fronts = []
    while remaining:
        sub = F[remaining]
        keep = []
        for local, i in enumerate(remaining):
            beats = np.all(sub <= sub[local], axis=1) & np.any(sub < sub[local], axis=1)
            if not beats.any():
                keep.append(i)
        fronts.append(keep)
        kept = set(keep)
        remaining = [i for i in remaining if i not in kept]
    return fronts


def reference_spea2_truncate(objectives, target_size):
    """The per-round Python re-sort of every distance row."""
    F = np.asarray(objectives, dtype=np.float64)
    n = F.shape[0]
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    if n <= target_size:
        raise ValueError("pool must exceed target_size")
    diff = F[:, None, :] - F[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    alive = list(range(n))
    while len(alive) > target_size:
        victim = None
        victim_key = None
        for i in alive:
            key = sorted(float(dist[i, j]) for j in alive if j != i)
            if victim_key is None or key < victim_key:
                victim, victim_key = i, key
        alive.remove(victim)
    return alive


def reference_moead_replacements(
    selection_objs, weights, ideal, scan_order, child_vector, max_replacements
):
    """The scan over tchebycheff, one subproblem at a time."""
    replaced = []
    for j in scan_order:
        own = tchebycheff(selection_objs[j], weights[j], ideal)
        new = tchebycheff(child_vector, weights[j], ideal)
        if new < own:
            replaced.append(int(j))
            if len(replaced) >= max_replacements:
                break
    return replaced


def reference_archive_add(self, ind):
    """MoeadEngine._archive_add as a loop over members calling dominates."""
    for member in self.archive:
        if np.array_equal(member.objectives, ind.objectives) or dominates(
            member.objectives, ind.objectives
        ):
            return
    self.archive = [
        member
        for member in self.archive
        if not dominates(ind.objectives, member.objectives)
    ]
    self.archive.append(ind)
    if len(self.archive) > self.archive_cap:
        objs = np.stack([member.objectives for member in self.archive])
        rank = self.archive_rank(self.archive, objs, self.rng)
        order = sorted(range(len(self.archive)), key=lambda idx: (-rank[idx], idx))
        keep = sorted(order[: self.archive_cap])
        self.archive = [self.archive[idx] for idx in keep]


@st.composite
def grid_matrices(draw, min_rows, max_rows, cols=None):
    """Objective matrices on a coarse grid (k/4 or k/10): ties and duplicate rows."""
    cols = draw(st.sampled_from([2, 3])) if cols is None else cols
    denom = draw(st.sampled_from([4, 10]))
    n = draw(st.integers(min_rows, max_rows))
    cells = draw(st.lists(st.integers(0, denom), min_size=n * cols, max_size=n * cols))
    return np.array(cells, dtype=np.float64).reshape(n, cols) / denom


class TestKernelOracles:
    """The array kernels return exactly what the reference loops return."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_moead_replacements_matches_scan(self, data):
        F = data.draw(grid_matrices(1, 30))
        n, cols = F.shape
        W = data.draw(grid_matrices(n, n, cols))
        ideal, child = data.draw(grid_matrices(2, 2, cols))
        order = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        cap = data.draw(st.integers(1, 4))
        got = moead_replacements(F, W, ideal, order, child, cap)
        assert got == reference_moead_replacements(F, W, ideal, order, child, cap)
        assert all(type(j) is int for j in got)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_spea2_truncate_matches_resort(self, data):
        F = data.draw(grid_matrices(2, 80))
        target = data.draw(st.integers(1, len(F) - 1))
        got = spea2_truncate(F, target)
        assert got == reference_spea2_truncate(F, target)
        assert all(type(i) is int for i in got)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_archive_add_matches_member_loop(self, data):
        F = data.draw(grid_matrices(1, 30))
        child = make_individual(objectives=F[0])
        members = [make_individual(objectives=row) for row in F[1:]]
        cap = data.draw(st.integers(1, len(F) + 1))
        engines = []
        for add in (MoeadEngine._archive_add, reference_archive_add):
            engine = MoeadEngine.__new__(MoeadEngine)
            engine.archive = list(members)
            engine.archive_cap = cap
            engine.archive_rank = canonical_archive_rank
            engine.rng = random.Random(0)
            add(engine, child)
            engines.append(engine)
        plain, reference = engines
        assert [id(m) for m in plain.archive] == [id(m) for m in reference.archive]


class TestDominates:
    def test_hand_cases(self):
        assert dominates((0.3, 0.4), (0.5, 0.4))
        assert dominates((0.3, 0.4), (0.5, 0.5))
        assert not dominates((0.5, 0.4), (0.3, 0.4))
        assert not dominates((0.3, 0.4), (0.3, 0.4))
        assert not dominates((0.1, 0.9), (0.9, 0.1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((0.1, 0.2), (0.1, 0.2, 0.3))

    def test_asymmetry_and_irreflexivity(self):
        rng = random.Random(0)
        for _ in range(300):
            a = tuple(rng.uniform(0, 1) for _ in range(3))
            b = tuple(rng.uniform(0, 1) for _ in range(3))
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))

    def test_matrix_orientation(self):
        objs = np.array([[0.1, 0.1], [0.5, 0.5]])
        D = dominance_matrix(objs)
        assert D[0, 1]
        assert not D[1, 0]
        assert not D[0, 0]


class TestFastNondominatedSort:
    def test_hand_case(self):
        objs = [(0.5, 0.5), (0.3, 0.7), (0.6, 0.6)]
        assert fast_nondominated_sort(objs) == [[0, 1], [2]]

    def test_total_chain(self):
        objs = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert fast_nondominated_sort(objs) == [[0], [1], [2]]

    def test_duplicates_share_a_front(self):
        objs = [(0.2, 0.2), (0.2, 0.2), (0.9, 0.9)]
        assert fast_nondominated_sort(objs) == [[0, 1], [2]]

    def test_empty_pool(self):
        assert fast_nondominated_sort(np.zeros((0, 2))) == []

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort([(0.1, 0.2), (0.3,)])

    def test_matches_peeling_oracle(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(1, 60)
            m = rng.choice([2, 3])
            quantize = rng.random() < 0.5
            objs = np.array(
                [[rng.uniform(0, 1) for _ in range(m)] for _ in range(n)]
            )
            if quantize:
                objs = objs.round(1)
            assert fast_nondominated_sort(objs) == peel_front_oracle(objs)

    def test_partition_property(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 40)
            objs = np.array([[rng.uniform(0, 1) for _ in range(2)] for _ in range(n)])
            fronts = fast_nondominated_sort(objs)
            flat = sorted(i for front in fronts for i in front)
            assert flat == list(range(n))
            assert all(front for front in fronts)


class TestCrowdingDistance:
    def test_three_point_hand_case(self):
        crowd = crowding_distance([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        assert crowd[0] == INF
        assert crowd[2] == INF
        assert crowd[1] == pytest.approx(2.0)

    def test_unequal_spacing_hand_case(self):
        objs = [(0.0, 1.0), (0.1, 0.9), (0.3, 0.7), (0.6, 0.4), (0.8, 0.2), (1.0, 0.0)]
        crowd = crowding_distance(objs)
        assert crowd[0] == crowd[5] == INF
        assert crowd[1] == pytest.approx(0.6)
        assert crowd[2] == pytest.approx(1.0)
        assert crowd[3] == pytest.approx(1.0)
        assert crowd[4] == pytest.approx(0.8)

    def test_small_fronts_are_all_infinite(self):
        assert crowding_distance([(0.5, 0.5)]).tolist() == [INF]
        assert crowding_distance([(0.0, 1.0), (1.0, 0.0)]).tolist() == [INF, INF]

    def test_identical_points(self):
        crowd = crowding_distance([(0.5, 0.5)] * 4)
        assert crowd[0] == INF
        assert crowd[3] == INF
        assert crowd[1] == crowd[2] == 0.0

    def test_boundary_members_always_infinite(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(3, 20)
            objs = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(n)])
            crowd = crowding_distance(objs)
            for col in range(2):
                order = np.argsort(objs[:, col], kind="stable")
                assert crowd[order[0]] == INF
                assert crowd[order[-1]] == INF


class TestNsga2Survivors:
    def test_whole_fronts_kept_when_they_fit(self):
        objs = [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)]
        fronts = fast_nondominated_sort(objs)
        crowd = canonical_crowding([None] * len(objs), fronts, np.asarray(objs, dtype=np.float64), None)
        assert nsga2_survivors(fronts, crowd, 3) == [0, 1, 2]

    def test_last_front_truncated_by_crowding(self):
        objs = np.array(
            [(0.0, 1.0), (0.1, 0.9), (0.3, 0.7), (0.6, 0.4), (0.8, 0.2), (1.0, 0.0)]
        )
        fronts = fast_nondominated_sort(objs)
        assert fronts == [[0, 1, 2, 3, 4, 5]]
        crowd = canonical_crowding([None] * len(objs), fronts, objs, None)
        keep = nsga2_survivors(fronts, crowd, 4)
        assert sorted(keep) == [0, 2, 3, 5]

    def test_fill_then_truncate_second_front(self):
        objs = np.array(
            [(0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (1.5, 1.5), (2.5, 0.5)]
        )
        fronts = fast_nondominated_sort(objs)
        assert fronts == [[0, 1], [2, 3, 4]]
        crowd = canonical_crowding([None] * len(objs), fronts, objs, None)
        keep = nsga2_survivors(fronts, crowd, 4)
        assert sorted(keep) == [0, 1, 2, 4]

    def test_crowding_tie_breaks_to_lower_index(self):
        fronts = [[0, 1, 2, 3]]
        crowd = np.array([1.0, 1.0, 1.0, 1.0])
        assert sorted(nsga2_survivors(fronts, crowd, 2)) == [0, 1]

    def test_target_of_zero(self):
        assert nsga2_survivors([[0]], np.array([INF]), 0) == []


class TestSpea2Fitness:
    def test_chain_hand_case(self):
        objs = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        parts = spea2_fitness(objs)
        assert parts.strength.tolist() == [2.0, 1.0, 0.0]
        assert parts.raw.tolist() == [0.0, 2.0, 3.0]

    def test_nondominated_pool_has_zero_raw(self):
        objs = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        parts = spea2_fitness(objs)
        assert parts.raw.tolist() == [0.0, 0.0, 0.0]
        assert np.all(parts.fitness < 1.0)

    def test_density_hand_case(self):
        # Collinear unit-spaced points, k = isqrt(5) = 2.
        objs = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]
        parts = spea2_fitness(objs)
        third = 1.0 / 3.0
        assert parts.density.tolist() == pytest.approx([0.25, third, third, third, 0.25])

    def test_density_k_override(self):
        objs = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]
        parts = spea2_fitness(objs, k=1)
        assert parts.density.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])

    def test_two_member_pool(self):
        parts = spea2_fitness([(0.0, 0.0), (1.0, 1.0)])
        assert parts.raw.tolist() == [0.0, 1.0]
        assert parts.density.tolist() == pytest.approx([1 / (math.sqrt(2) + 2)] * 2)

    def test_single_member_pool(self):
        parts = spea2_fitness([(0.3, 0.7)])
        assert parts.raw.tolist() == [0.0]
        assert parts.density.tolist() == [0.5]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            spea2_fitness(np.zeros((0, 2)))

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 30)
            objs = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(n)])
            parts = spea2_fitness(objs)
            strength = [
                sum(1 for j in range(n) if dominates(objs[i], objs[j])) for i in range(n)
            ]
            raw = [
                sum(strength[j] for j in range(n) if dominates(objs[j], objs[i]))
                for i in range(n)
            ]
            k = math.isqrt(n)
            k = min(max(k, 1), n - 1)
            density = []
            for i in range(n):
                dists = sorted(
                    math.dist(objs[i], objs[j]) for j in range(n) if j != i
                )
                density.append(1.0 / (dists[k - 1] + 2.0))
            assert parts.strength.tolist() == pytest.approx(strength)
            assert parts.raw.tolist() == pytest.approx(raw)
            assert parts.density.tolist() == pytest.approx(density)
            assert parts.fitness.tolist() == pytest.approx(
                [raw[i] + density[i] for i in range(n)]
            )


class TestSpea2Truncate:
    COLLINEAR = [(0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0)]

    def test_drops_most_crowded_interior_point(self):
        assert spea2_truncate(self.COLLINEAR, 3) == [0, 2, 3]

    def test_keeps_extremes_when_halving(self):
        assert spea2_truncate(self.COLLINEAR, 2) == [0, 3]

    def test_duplicate_points_removed_first(self):
        objs = [(0.0, 1.0), (0.5, 0.5), (0.5, 0.5), (1.0, 0.0)]
        kept = spea2_truncate(objs, 3)
        assert kept == [0, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            spea2_truncate(self.COLLINEAR, 0)
        with pytest.raises(ValueError):
            spea2_truncate(self.COLLINEAR, 4)
        with pytest.raises(ValueError):
            spea2_truncate(self.COLLINEAR, 5)

    def test_keeps_requested_count(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 25)
            target = rng.randint(1, n - 1)
            objs = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(n)])
            kept = spea2_truncate(objs, target)
            assert len(kept) == target
            assert kept == sorted(kept)


class TestWeightsAndScalarization:
    def test_two_objective_lattice(self):
        W = simplex_lattice_weights(2, 5)
        assert W.shape == (5, 2)
        assert W[0].tolist() == [0.0, 1.0]
        assert W[-1].tolist() == [1.0, 0.0]
        assert np.allclose(W.sum(axis=1), 1.0)
        assert np.all(W >= 0)

    def test_lattice_meets_minimum_count(self):
        for want in (1, 2, 7, 100):
            assert len(simplex_lattice_weights(2, want)) >= want

    def test_three_objective_lattice(self):
        W = simplex_lattice_weights(3, 10)
        assert W.shape == (10, 3)
        assert np.allclose(W.sum(axis=1), 1.0)
        rows = set(map(tuple, W.tolist()))
        assert (1.0, 0.0, 0.0) in rows
        assert (0.0, 1.0, 0.0) in rows
        assert (0.0, 0.0, 1.0) in rows

    def test_three_objective_overshoot_is_minimal(self):
        # Triangular counts: 10 fits exactly, 11 forces the next lattice (15).
        assert len(simplex_lattice_weights(3, 11)) == 15

    def test_unsupported_dimensions(self):
        with pytest.raises(ValueError):
            simplex_lattice_weights(4, 10)
        with pytest.raises(ValueError):
            simplex_lattice_weights(2, 0)

    def test_neighborhoods_start_with_self(self):
        W = simplex_lattice_weights(2, 9)
        neigh = neighborhoods(W, 3)
        assert neigh.shape == (9, 3)
        for i in range(9):
            assert neigh[i, 0] == i

    def test_neighborhoods_are_nearest_rows(self):
        W = simplex_lattice_weights(2, 5)
        neigh = neighborhoods(W, 2)
        assert neigh[0].tolist() == [0, 1]
        assert neigh[4].tolist() == [4, 3]

    def test_neighborhood_size_clamped(self):
        W = simplex_lattice_weights(2, 4)
        assert neighborhoods(W, 100).shape == (4, 4)

    def test_tchebycheff_hand_cases(self):
        assert tchebycheff((0.4, 0.6), (0.5, 0.5), (0.0, 0.0)) == pytest.approx(0.3)
        assert tchebycheff((0.4, 0.6), (1.0, 0.0), (0.0, 0.0)) == pytest.approx(0.4)
        assert tchebycheff((0.7, 0.7), (0.5, 0.5), (0.7, 0.7)) == 0.0

    def test_tchebycheff_shape_mismatch(self):
        with pytest.raises(ValueError):
            tchebycheff((0.4, 0.6, 0.1), (0.5, 0.5), (0.0, 0.0))


class TestMoeadReplacements:
    WEIGHTS = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    INCUMBENTS = np.array([[0.5, 0.5], [0.6, 0.6], [0.7, 0.7]])
    IDEAL = np.zeros(2)

    def test_cap_stops_the_scan(self):
        child = np.zeros(2)
        replaced = moead_replacements(
            self.INCUMBENTS, self.WEIGHTS, self.IDEAL, [2, 0, 1], child, 2
        )
        assert replaced == [2, 0]

    def test_no_improvement_no_replacement(self):
        child = np.array([0.9, 0.9])
        replaced = moead_replacements(
            self.INCUMBENTS, self.WEIGHTS, self.IDEAL, [0, 1, 2], child, 2
        )
        assert replaced == []

    def test_partial_improvement(self):
        # Better than subproblem 0's incumbent only under weight (1, 0).
        child = np.array([0.4, 2.0])
        replaced = moead_replacements(
            self.INCUMBENTS, self.WEIGHTS, self.IDEAL, [0, 1, 2], child, 2
        )
        assert replaced == [0]

    def test_equal_scalarization_does_not_replace(self):
        child = np.array([0.5, 0.5])
        replaced = moead_replacements(
            self.INCUMBENTS[:1], self.WEIGHTS[:1], self.IDEAL, [0], child, 2
        )
        assert replaced == []


def make_engine(cls, seed=0, pop_size=12, **kwargs):
    ds = blob_dataset(n_cases=40, imbalance=3, seed=0)
    params = GPParams(pop_size=pop_size, generations=5, init_min_depth=2, init_max_depth=4)
    variation = Variation(PrimitiveSet(n_features=ds.n_features), params)
    evaluator = ClassificationEvaluator(ds)
    return cls(evaluator, variation, random.Random(seed), **kwargs)


def front_signature(front):
    return sorted((tuple(ind.objectives.tolist())) for ind in front)


class TestEngines:
    @pytest.mark.parametrize("cls", [Nsga2Engine, Spea2Engine, MoeadEngine])
    def test_front_is_mutually_nondominated(self, cls):
        engine = make_engine(cls)
        engine.initialize()
        for _ in range(3):
            engine.step()
        front = engine.front()
        assert front
        for a in front:
            for b in front:
                assert not dominates(a.objectives, b.objectives)

    @pytest.mark.parametrize("cls", [Nsga2Engine, Spea2Engine, MoeadEngine])
    def test_deterministic_per_seed(self, cls):
        runs = []
        for _ in range(2):
            engine = make_engine(cls, seed=9)
            engine.initialize()
            for _ in range(3):
                engine.step()
            runs.append(front_signature(engine.front()))
        assert runs[0] == runs[1]

    def test_nsga2_population_size_is_stable(self):
        engine = make_engine(Nsga2Engine)
        engine.initialize()
        assert len(engine.parents) == 12
        engine.step()
        assert len(engine.parents) == 12

    def test_spea2_archive_defaults_to_pop_size(self):
        engine = make_engine(Spea2Engine)
        engine.initialize()
        assert engine.archive_size == 12
        for _ in range(3):
            engine.step()
        assert len(engine.archive) <= 12
        assert len(engine.population) == 12

    def test_spea2_archive_size_honored(self):
        engine = make_engine(Spea2Engine, engine_params=EngineParams(archive_size=5))
        engine.initialize()
        for _ in range(3):
            engine.step()
        assert len(engine.archive) <= 5

    def test_spea2_rejects_empty_archive(self):
        with pytest.raises(ValueError, match="archive_size"):
            EngineParams(archive_size=0)

    def test_moead_subproblem_count_covers_pop_size(self):
        engine = make_engine(MoeadEngine)
        engine.initialize()
        assert engine.n_subproblems >= 12
        assert len(engine.population) == engine.n_subproblems
        assert len(engine.weights) == engine.n_subproblems

    def test_moead_ideal_never_rises(self):
        engine = make_engine(MoeadEngine, seed=3)
        engine.initialize()
        for _ in range(4):
            engine.step()
        history = engine.ideal_history
        assert len(history) == 5
        for earlier, later in zip(history, history[1:]):
            assert np.all(later <= earlier)

    def test_moead_archive_is_distinct_and_nondominated(self):
        engine = make_engine(MoeadEngine, seed=4)
        engine.initialize()
        for _ in range(3):
            engine.step()
        assert 1 <= len(engine.archive) <= engine.archive_cap
        vectors = [tuple(ind.objectives.tolist()) for ind in engine.archive]
        assert len(set(vectors)) == len(vectors)
        for a in engine.archive:
            for b in engine.archive:
                assert not dominates(a.objectives, b.objectives)

    def test_moead_validation(self):
        with pytest.raises(ValueError, match="moead_delta"):
            EngineParams(moead_delta=1.5)
        with pytest.raises(ValueError, match="moead_delta"):
            EngineParams(moead_delta=-0.1)
        with pytest.raises(ValueError, match="moead_max_replacements"):
            EngineParams(moead_max_replacements=0)
        with pytest.raises(ValueError, match="moead_neighbors"):
            EngineParams(moead_neighbors=0)

    def test_moead_neighbors_honored(self):
        engine = make_engine(MoeadEngine, engine_params=EngineParams(moead_neighbors=3))
        assert engine.neighbor_idx.shape == (engine.n_subproblems, 3)

    def test_engine_params_defaults(self):
        params = EngineParams()
        assert params.archive_size is None
        assert params.moead_neighbors == 20
        assert params.moead_delta == 0.9
        assert params.moead_max_replacements == 2

    def test_base_objective_space(self):
        space = BaseObjectives()
        assert space.n_objectives == 2

    @pytest.mark.parametrize("sdo", [False, True])
    @pytest.mark.parametrize("cls", [Spea2Engine, MoeadEngine])
    def test_reference_kernels_step_identically(self, cls, sdo, monkeypatch):
        calls = []

        def counted(reference):
            def wrapper(*args):
                calls.append(reference.__name__)
                return reference(*args)

            return wrapper

        def run():
            kwargs = {}
            if sdo:
                kwargs["objective_space"] = SdoObjectives(SemanticConfig(approach="sdo"))
            if cls is Spea2Engine:
                kwargs["engine_params"] = EngineParams(archive_size=4)
            engine = make_engine(cls, seed=11, **kwargs)
            engine.initialize()
            for _ in range(5):
                engine.step()
            members = engine.population + engine.archive
            return (
                [to_prefix(ind.tree) for ind in members],
                [ind.objectives.tobytes() for ind in members],
                engine.rng.getstate(),
            )

        plain = run()
        monkeypatch.setattr(emo, "moead_replacements", counted(reference_moead_replacements))
        monkeypatch.setattr(emo, "spea2_truncate", counted(reference_spea2_truncate))
        monkeypatch.setattr(MoeadEngine, "_archive_add", counted(reference_archive_add))
        assert run() == plain
        if cls is Spea2Engine:
            assert "reference_spea2_truncate" in calls
        else:
            assert {"reference_moead_replacements", "reference_archive_add"} <= set(calls)
