"""Dominance, sorting, crowding, SPEA2 fitness, decomposition, engines."""

import contextlib
import csv
import itertools
import math
import random
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semogp import emo, gp_core, objectives, semantic_emo
from semogp.dataset import load_csv, stratified_split, synthetic_blobs
from semogp.emo import (
    BaseObjectives,
    MoeadEngine,
    Nsga2Engine,
    Spea2Engine,
    canonical_crowding,
    chebyshev_values,
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
from semogp.harness import ExperimentConfig, expand_grid, run_experiment
from semogp.objectives import ClassificationEvaluator
from semogp.semantic_emo import SdoObjectives, SemanticConfig, run_variant

from conftest import PAIRS, ScriptedRandom, blob_dataset, clear_reuse_caches, file_bytes, make_individual, same_bits
from test_gp_core import count_applies, distinct_calls, reference_semantics

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


def reference_dominance_matrix(objectives):
    """The broadcast over a trailing objective axis."""
    F = np.asarray(objectives, dtype=np.float64)
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return le & lt


def reference_pairwise_distances(points):
    """The broadcast difference, squared and summed over a trailing axis."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def reference_spea2_truncate(objectives, target_size):
    """The per-round Python re-sort of every distance row."""
    F = np.asarray(objectives, dtype=np.float64)
    n = F.shape[0]
    if target_size < 1:
        raise ValueError("target_size must be at least 1")
    if n <= target_size:
        raise ValueError("pool must exceed target_size")
    dist = reference_pairwise_distances(F)
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


def reference_chebyshev_values(objs, weights, ideal):
    """tchebycheff per weight row; a single vector is scored under every row."""
    rows = np.broadcast_to(objs, np.shape(weights))
    return np.array([tchebycheff(f, w, ideal) for f, w in zip(rows, weights)])


def reference_moead_scan(own, new, scan_order, max_replacements):
    """The replacement scan as a plain loop over the two value arrays."""
    replaced = []
    for j in scan_order:
        if new[j] < own[j]:
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
        rank = emo.canonical_archive_rank(self.archive, objs, self.rng)
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


@st.composite
def duplicate_heavy_matrices(draw, min_rows, max_rows):
    """Rows drawn from at most 6 distinct grid vectors, as SPEA2's pools are."""
    palette = draw(grid_matrices(1, 6))
    n = draw(st.integers(min_rows, max_rows))
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=n, max_size=n))
    return palette[picks]


@st.composite
def kernel_inputs(draw):
    """0..200 rows by 1..3 columns: k/4 or k/10 grids, or finite floats in +-1e6."""
    shape = (draw(st.integers(0, 200)), draw(st.integers(1, 3)))
    denom = draw(st.sampled_from([4, 10, None]))
    if denom is None:
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        return draw(hnp.arrays(np.float64, shape, elements=finite))
    return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, denom))) / denom


class TestKernelOracles:
    """The array kernels return exactly what the reference loops return."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs())
    def test_per_column_matrices_match_broadcasts(self, F):
        got = dominance_matrix(F)
        want = reference_dominance_matrix(F)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        got = emo._pairwise_distances(F)
        want = reference_pairwise_distances(F)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_moead_replacements_matches_scan(self, data):
        F = data.draw(grid_matrices(1, 30))
        n, cols = F.shape
        W = data.draw(grid_matrices(n, n, cols))
        ideal, child = data.draw(grid_matrices(2, 2, cols))
        order = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        cap = data.draw(st.integers(1, 4))
        own, new = chebyshev_values(F, W, ideal), chebyshev_values(child, W, ideal)
        assert same_bits(own, reference_chebyshev_values(F, W, ideal))
        assert same_bits(new, reference_chebyshev_values(child, W, ideal))
        got = moead_replacements(own, new, order, cap)
        assert got == reference_moead_replacements(F, W, ideal, order, child, cap)
        assert all(type(j) is int for j in got)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_spea2_truncate_matches_resort(self, data):
        F = data.draw(st.one_of(grid_matrices(2, 110), duplicate_heavy_matrices(2, 110)))
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
            engine._archive_objs = F[1:]
            engine.archive_cap = cap
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

    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_matches_peeling_oracle(self, objs):
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

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_objectives_rejected(self, bad):
        objs = [list(row) for row in self.COLLINEAR]
        objs[2][1] = bad
        with pytest.raises(ValueError, match="finite"):
            spea2_truncate(objs, 2)

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

    def replacements(self, order, child, n=3):
        W, F = self.WEIGHTS[:n], self.INCUMBENTS[:n]
        own = chebyshev_values(F, W, self.IDEAL)
        new = chebyshev_values(np.asarray(child, dtype=np.float64), W, self.IDEAL)
        return moead_replacements(own, new, order, 2)

    def test_cap_stops_the_scan(self):
        assert self.replacements([2, 0, 1], [0.0, 0.0]) == [2, 0]

    def test_no_improvement_no_replacement(self):
        assert self.replacements([0, 1, 2], [0.9, 0.9]) == []

    def test_partial_improvement(self):
        # Better than subproblem 0's incumbent only under weight (1, 0).
        assert self.replacements([0, 1, 2], [0.4, 2.0]) == [0]

    def test_equal_scalarization_does_not_replace(self):
        assert self.replacements([0], [0.5, 0.5], n=1) == []


def make_engine(cls, seed=0, pop_size=12, rates=None, **kwargs):
    ds = blob_dataset(n_cases=40, imbalance=3, seed=0)
    params = GPParams(pop_size=pop_size, generations=5, init_min_depth=2, init_max_depth=4, **(rates or {}))
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
        assert len(engine.kept) == len(engine._keys) == 12
        engine.step()
        assert len(engine.kept) == len(engine._keys) == 12

    def test_spea2_archive_defaults_to_pop_size(self):
        engine = make_engine(Spea2Engine)
        engine.initialize()
        assert len(engine.kept) == len(engine._keys) == 12
        for _ in range(3):
            assert len(engine._breed()) == 12
            engine.step()
            assert len(engine.kept) == len(engine._keys) == 12

    def test_moead_subproblem_count_covers_pop_size(self):
        engine = make_engine(MoeadEngine)
        engine.initialize()
        assert engine.n_subproblems >= 12
        assert len(engine.population) == engine.n_subproblems
        assert len(engine.weights) == engine.n_subproblems

    def test_moead_rejects_a_diversity_hook(self):
        with pytest.raises(ValueError, match="MOEA/D takes no diversity hook"):
            make_engine(MoeadEngine, diversity=canonical_crowding)

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

    @pytest.mark.parametrize("sdo", [False, True])
    def test_moead_mates_two_subproblems_at_the_smallest_population(self, sdo):
        # step always samples two distinct mates: at pop_size 2 the lattice has
        # 2 weights (3 for sdo's three objectives) and each neighbour list all of them.
        kwargs = {"objective_space": SdoObjectives(SemanticConfig(approach="sdo"))} if sdo else {}
        engine = make_engine(MoeadEngine, pop_size=2, **kwargs)
        assert engine.n_subproblems == (3 if sdo else 2)
        assert all(len(neigh) >= 2 for neigh in engine._neighbor_lists)
        engine.initialize()
        engine.step()
        assert engine.front()

    def test_base_objective_space(self):
        space = BaseObjectives()
        assert space.n_objectives == 2

    @pytest.mark.parametrize("sdo", [False, True])
    @pytest.mark.parametrize("cls", [Nsga2Engine, MoeadEngine])
    def test_reference_kernels_step_identically(self, cls, sdo, monkeypatch):
        check_reference_kernels(cls, sdo, monkeypatch, seed=11, pop_size=12)

    @pytest.mark.parametrize("sdo", [False, True])
    @pytest.mark.parametrize("cls", [Spea2Engine, MoeadEngine])
    def test_reference_kernels_step_identically_at_default_archive(self, cls, sdo, monkeypatch):
        # As the benchmark runs them. SPEA2's archive is the population
        # size, so SPEA2 runs here only: its truncated pools hold 58-69
        # members with 8-23 distinct objective vectors.
        check_reference_kernels(cls, sdo, monkeypatch, seed=2, pop_size=50, steps=8)

    @pytest.mark.parametrize("pop_size", [4, 12])
    @pytest.mark.parametrize("sdo", [False, True])
    def test_moead_held_archive_matrix_follows_archive(self, sdo, pop_size, monkeypatch):
        # At pop_size 4 the archive outgrows its cap of 4 (6 with sdo's
        # three-objective lattice) and is ranked and cut.
        add = MoeadEngine._archive_add
        adds = []

        def checked(engine, ind):
            add(engine, ind)
            adds.append(1)
            held = engine._archive_objs
            want = np.stack([m.objectives for m in engine.archive])
            assert held.dtype == want.dtype and held.shape == want.shape
            assert np.array_equal(held.view(np.int64), want.view(np.int64))

        monkeypatch.setattr(MoeadEngine, "_archive_add", checked)
        kwargs = {}
        if sdo:
            kwargs["objective_space"] = SdoObjectives(SemanticConfig(approach="sdo"))
        rank = emo.canonical_archive_rank
        ranked = []

        def counted_rank(*args):
            ranked.append(1)
            return rank(*args)

        monkeypatch.setattr(emo, "canonical_archive_rank", counted_rank)
        engine = make_engine(MoeadEngine, seed=3, pop_size=pop_size, **kwargs)
        engine.initialize()
        for _ in range(5):
            engine.step()
        assert len(adds) == engine.n_subproblems * 6
        assert bool(ranked) == (pop_size == 4)

    @pytest.mark.parametrize("pop_size", [4, 12])
    @pytest.mark.parametrize("sdo", [False, True])
    def test_moead_held_chebyshev_values_follow_incumbents(self, sdo, pop_size, monkeypatch):
        # Each child's replacements are followed by its _archive_add, so the
        # values are checked as the scan reads them and after its writes.
        # step's selection matrix is the one its full computations score;
        # step writes replacements into it in place.
        held = []
        selection = []

        def expected(engine):
            sel, W, z = selection[0], engine.weights, engine.ideal
            return np.array([tchebycheff(sel[j], W[j], z) for j in range(len(W))])

        def scan(own, new, order, cap):
            held[:] = [own]
            assert same_bits(own, expected(engine))
            return moead_replacements(own, new, order, cap)

        full = []

        def values(objs, weights, ideal):
            full.append(np.ndim(objs) == 2)
            if full[-1]:
                selection[:] = [objs]
            return chebyshev_values(objs, weights, ideal)

        add = MoeadEngine._archive_add
        checked = []

        def add_checked(engine, ind):
            if held:
                assert same_bits(held[0], expected(engine))
                checked.append(1)
            add(engine, ind)

        monkeypatch.setattr(emo, "moead_replacements", scan)
        monkeypatch.setattr(emo, "chebyshev_values", values)
        monkeypatch.setattr(MoeadEngine, "_archive_add", add_checked)
        kwargs = {}
        if sdo:
            kwargs["objective_space"] = SdoObjectives(SemanticConfig(approach="sdo"))
        # At seed 0 children lower the ideal in every one of the four runs.
        engine = make_engine(MoeadEngine, seed=0, pop_size=pop_size, **kwargs)
        engine.initialize()
        steps = 5
        for _ in range(steps):
            engine.step()
        assert len(checked) == engine.n_subproblems * steps
        # One full computation per step after the refresh; the rest came
        # from children that lowered the ideal point.
        assert sum(full) > steps


class TestOffspringReuse:
    """An offspring whose tree is a parent's takes that parent's scores."""

    @staticmethod
    def record_scoring(monkeypatch):
        """Note each bred offspring as (tree, parents, result) and each evaluate_tree call."""
        bred, evaluated = [], []
        score, evaluate = emo._Engine._score, ClassificationEvaluator.evaluate_tree

        def recorded_score(engine, tree, a, b):
            bred.append((tree, (a, b), score(engine, tree, a, b)))
            return bred[-1][2]

        def counted_evaluate(evaluator, tree):
            evaluated.append(tree)
            return evaluate(evaluator, tree)

        monkeypatch.setattr(emo._Engine, "_score", recorded_score)
        monkeypatch.setattr(ClassificationEvaluator, "evaluate_tree", counted_evaluate)
        return bred, evaluated

    @pytest.mark.parametrize("cls", [Nsga2Engine, Spea2Engine, MoeadEngine])
    def test_without_variation_no_offspring_is_evaluated(self, cls, monkeypatch):
        engine = make_engine(cls, rates={"crossover_rate": 0.0, "mutation_rate": 0.0})
        engine.initialize()
        bred, evaluated = self.record_scoring(monkeypatch)
        engine.step()
        assert len(bred) == (engine.n_subproblems if cls is MoeadEngine else engine.params.pop_size)
        assert evaluated == []
        for tree, parents, child in bred:
            assert any(tree is p.tree for p in parents)
            assert child.tree is tree and all(child is not p for p in parents)

    @pytest.mark.parametrize("cls", [Nsga2Engine, Spea2Engine, MoeadEngine])
    def test_reused_scores_equal_a_fresh_evaluation(self, cls, monkeypatch):
        engine = make_engine(cls, seed=5)
        engine.initialize()
        bred, evaluated = self.record_scoring(monkeypatch)
        for _ in range(4):
            engine.step()
        reused = [child for tree, parents, child in bred if any(tree is p.tree for p in parents)]
        assert reused
        # Every other offspring, and only those, went through evaluate_tree.
        assert len(evaluated) == len(bred) - len(reused)
        fresh = ClassificationEvaluator(engine.evaluator.dataset)
        for child in reused:
            want = fresh.evaluate_tree(child.tree)
            assert same_bits(child.semantics, want.semantics)
            assert same_bits(child.objectives, want.objectives)


class TestPlannedBreeding:
    """NSGA-II and SPEA2 score each generation's offspring as one planned batch."""

    @pytest.mark.parametrize("cls", [Nsga2Engine, Spea2Engine])
    def test_steps_match_unplanned_scoring(self, cls, monkeypatch):
        # More cases than SemanticsMemo keeps entries for: only the plan reuses nodes.
        ds = blob_dataset(n_cases=300, imbalance=3, seed=1)
        params = GPParams(pop_size=16, generations=5, init_min_depth=2, init_max_depth=5)
        engines = [
            cls(ClassificationEvaluator(ds), Variation(PrimitiveSet(ds.n_features), params), random.Random(3))
            for _ in range(2)
        ]
        planned, unplanned = engines
        memo = planned.evaluator.memo
        assert memo.capacity == 0
        unplanned.evaluator.memo.planned = lambda trees: contextlib.nullcontext()
        batches = []
        plan = memo.planned

        def recorded(trees):
            batches.append(list(trees))
            return plan(trees)

        memo.planned = recorded
        for engine in engines:
            engine.initialize()
        applied = count_applies(monkeypatch)
        for _ in range(4):
            applied.clear()
            planned.step()
            assert len(applied) == len(distinct_calls(batches[-1]))
            assert memo.held == {} and memo.requests == {}
            unplanned.step()
            assert len(applied) > len(distinct_calls(batches[-1]))
            assert planned.rng.getstate() == unplanned.rng.getstate()
            for got, want in zip(planned.kept, unplanned.kept, strict=True):
                assert got.tree == want.tree
                assert same_bits(got.semantics, want.semantics)
                assert same_bits(got.objectives, want.objectives)

    def test_the_batch_is_every_offspring_not_a_parents_tree(self, monkeypatch):
        ds = blob_dataset(n_cases=300, imbalance=3, seed=1)
        params = GPParams(pop_size=16, generations=5, crossover_rate=0.5, mutation_rate=0.0)
        engine = Nsga2Engine(ClassificationEvaluator(ds), Variation(PrimitiveSet(ds.n_features), params), random.Random(4))
        engine.initialize()
        memo = engine.evaluator.memo
        batches, plan = [], memo.planned
        memo.planned = lambda trees: batches.append(trees) or plan(trees)
        scored, score = [], emo._Engine._score

        def recorded(engine, tree, a, b):
            scored.append((tree, a, b))
            return score(engine, tree, a, b)

        monkeypatch.setattr(emo._Engine, "_score", recorded)
        engine.step()
        (batch,) = batches
        fresh = [tree for tree, a, b in scored if tree is not a.tree and tree is not b.tree]
        assert len(scored) == params.pop_size
        assert 0 < len(batch) < params.pop_size
        assert len(batch) == len(fresh) and all(x is y for x, y in zip(batch, fresh))


# Full sizes whose 0.7 stratified split trains on 60, 256, 257 and 400
# cases: SemanticsMemo keeps entries up to 256 cases and plans each
# generation's batch from 257 on.
FULL_CASES = {60: 85, 256: 365, 257: 367, 400: 571}
# At the blobs' own magnitude runs seldom reach the clamp or the division
# guard, so a wrong division bound or guard goes unseen there; with the
# features scaled by 1e8, runs reach both.
MAGNITUDES = (1.0, 1e8)
ENGAGED = {"lbss": 0.01, "ubss": 2.0}


@pytest.fixture(scope="module")
def sized_csvs(tmp_path_factory):
    """Synthetic blob CSVs keyed by (training size, feature magnitude)."""
    paths = {}
    for (n_train, n_cases), magnitude in itertools.product(FULL_CASES.items(), MAGNITUDES):
        path = paths[n_train, magnitude] = tmp_path_factory.mktemp("sized") / "blobs.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x0", "x1", "label"])
            for x0, x1, label in synthetic_blobs(n_cases, 3, seed=0):
                writer.writerow([repr(x0 * magnitude), repr(x1 * magnitude), label])
        train, _ = stratified_split(load_csv(path), 0.7, 0)
        assert len(train.labels) == n_train
        assert (ClassificationEvaluator(train).memo.capacity > 0) == (n_train <= 256)
    return paths


@contextlib.contextmanager
def plain_evaluation():
    """Every tree walked by reference_semantics and every offspring scored afresh."""
    plain = lambda tree, features, memo=None: reference_semantics(tree, features)
    with pytest.MonkeyPatch.context() as patch:
        for module in (gp_core, objectives, semantic_emo):
            patch.setattr(module, "evaluate_semantics", plain)
        patch.setattr(emo._Engine, "_score", lambda engine, tree, a, b: engine.evaluator.evaluate_tree(tree))
        yield


def plain_runs(configs, output_dir):
    """run_experiment's results for each config without any reuse: one run per call, caches cleared."""
    results = []
    with plain_evaluation():
        for cfg in configs:
            for point in expand_grid(cfg):
                for seed in cfg.seeds:
                    clear_reuse_caches()
                    results += run_experiment(replace(point, seeds=[seed], n_workers=1, output_dir=output_dir))
    return results


# The reference walks every tree without any reuse, while the runs under
# test share one parse, split and initial population per draw, and reuse
# SemanticsMemo entries (<= 256 cases) or planned batches and scored ssc
# parents (> 256). At the default bounds almost every ssc trial falls above
# the band; at [0.01, 2] most ssc calls accept one, so the parents'
# semantics that SemanticsMemo.scored serves decide many acceptances.
@settings(max_examples=20, deadline=None)
@given(
    order=st.permutations(PAIRS),
    n_train=st.sampled_from(sorted(FULL_CASES)),
    magnitude=st.sampled_from(MAGNITUDES),
    scale_features=st.booleans(),
    distance_rule=st.sampled_from(["above", "band"]),
    bounds=st.sampled_from([{}, ENGAGED]),
    pop_size=st.integers(8, 15),
    generations=st.integers(2, 4),
    seed=st.integers(0, 3),
)
@example(PAIRS, 400, 1.0, False, "band", {}, 10, 3, 0)
@example(PAIRS, 257, 1.0, True, "band", ENGAGED, 10, 4, 0)
@example(PAIRS[::-1], 256, 1.0, False, "above", ENGAGED, 15, 4, 1)
@example(PAIRS, 60, 1e8, False, "band", ENGAGED, 10, 3, 0)
@example(PAIRS, 400, 1e8, False, "band", {}, 10, 3, 0)
def test_whole_runs_match_plain_evaluation(
    sized_csvs, order, n_train, magnitude, scale_features, distance_rule, bounds, pop_size, generations, seed
):
    cfg = ExperimentConfig(
        dataset=str(sized_csvs[n_train, magnitude]),
        scale_features=scale_features,
        distance_rule=distance_rule,
        pop_size=pop_size,
        generations=generations,
        seeds=[seed],
        **bounds,
    )
    configs = [replace(cfg, engine=engine, approach=approach) for engine, approach in order]
    with tempfile.TemporaryDirectory() as out:
        clear_reuse_caches()
        got = [result for each in configs for result in run_experiment(replace(each, output_dir=f"{out}/got"))]
        want = plain_runs(configs, f"{out}/want")
        assert got == want
        assert len(file_bytes(f"{out}/got")) == 2 * len(PAIRS)
        assert file_bytes(f"{out}/got") == file_bytes(f"{out}/want")


# run_experiment over a grid in one call: in-process, where one seed's grid
# points share its split and initial population, and on two spawned
# workers, which the reference path's patches do not reach.
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize(
    "pair,n_train,magnitude,scale_features",
    [(("nsga2", "ssc"), 257, 1.0, True), (("spea2", "sdo"), 60, 1e8, False)],
    ids=["nsga2-ssc-257", "spea2-sdo-60-1e8"],
)
def test_grid_runs_match_plain_evaluation(sized_csvs, tmp_path, pair, n_train, magnitude, scale_features, n_workers):
    cfg = ExperimentConfig(
        dataset=str(sized_csvs[n_train, magnitude]),
        engine=pair[0],
        approach=pair[1],
        scale_features=scale_features,
        lbss=[0.01, 0.1],
        ubss=2.0,
        pop_size=10,
        generations=3,
        seeds=[0, 1],
        n_workers=n_workers,
        output_dir=str(tmp_path / "got"),
    )
    got = run_experiment(cfg)
    assert got == plain_runs([cfg], str(tmp_path / "want"))
    assert len(file_bytes(tmp_path / "got")) == 2 * 4
    assert file_bytes(tmp_path / "got") == file_bytes(tmp_path / "want")


# _apply calls per pair over PAIRS in order, from the empty caches each test
# starts with, at pop 10, 3 generations, seed 0: the first pair builds the
# initial population that later pairs of the same size share.
# On 60 cases SemanticsMemo's entries reuse nodes; on 300 the planned
# batches and scored ssc parents do. A reuse layer that stops reusing
# moves these numbers; a change that moves one states old -> new.
NODE_COMPUTATIONS = {
    60: {
        "nsga2/canonical": 299,
        "nsga2/ssc": 115,
        "nsga2/scd": 74,
        "nsga2/sdo": 135,
        "spea2/canonical": 134,
        "spea2/ssc": 162,
        "spea2/scd": 144,
        "spea2/sdo": 162,
        "moead/canonical": 37,
        "moead/ssc": 48,
        "moead/sdo": 98,
    },
    300: {
        "nsga2/canonical": 215,
        "nsga2/ssc": 168,
        "nsga2/scd": 32,
        "nsga2/sdo": 63,
        "spea2/canonical": 77,
        "spea2/ssc": 119,
        "spea2/scd": 81,
        "spea2/sdo": 194,
        "moead/canonical": 44,
        "moead/ssc": 351,
        "moead/sdo": 191,
    },
}


@pytest.mark.parametrize("n_cases", sorted(NODE_COMPUTATIONS))
def test_node_computations_per_pair_are_pinned(n_cases, monkeypatch):
    ds = blob_dataset(n_cases=n_cases)
    gp = GPParams(pop_size=10, generations=3)
    applied = count_applies(monkeypatch)
    counts = {}
    for engine, approach in PAIRS:
        applied.clear()
        run_variant(engine, SemanticConfig(approach=approach), ds, gp, seed=0)
        counts[f"{engine}/{approach}"] = len(applied)
    assert counts == NODE_COMPUTATIONS[n_cases]


def engine_on(ds, cls=Nsga2Engine, seed=0, size=12, depths=(2, 4), threshold=0.0, rng=None, scorer=None):
    """An engine on ds whose initial population has the given settings."""
    params = GPParams(pop_size=size, generations=5, init_min_depth=depths[0], init_max_depth=depths[1])
    evaluator = (scorer or ClassificationEvaluator)(ds, threshold)
    return cls(evaluator, Variation(PrimitiveSet(ds.n_features), params), rng or random.Random(seed))


class SubclassedEvaluator(ClassificationEvaluator):
    pass


class TestInitialPopulationReuse:
    """Engines on the same training Dataset and seed share one scored initial population."""

    @staticmethod
    def count_scoring(monkeypatch):
        evaluated = []
        evaluate = ClassificationEvaluator.evaluate_tree

        def counted_evaluate(evaluator, tree):
            evaluated.append(tree)
            return evaluate(evaluator, tree)

        monkeypatch.setattr(ClassificationEvaluator, "evaluate_tree", counted_evaluate)
        return evaluated

    @staticmethod
    def kept_members(ds, seed=0, size=12, depths=(2, 4), threshold=0.0):
        """The cached members for engine_on's settings, read as a cache hit."""
        hits = emo._scored_population.cache_info().hits
        state = random.Random(seed).getstate()
        members, _ = emo._scored_population(state, size, PrimitiveSet(ds.n_features), *depths, ds, threshold)
        assert emo._scored_population.cache_info().hits == hits + 1
        return members

    def test_same_seed_and_dataset_give_the_same_members_and_generator(self, monkeypatch):
        ds = blob_dataset()
        fresh = engine_on(ds, Spea2Engine, seed=7)
        built = fresh._initial_population(12)
        evaluated = self.count_scoring(monkeypatch)
        again = engine_on(ds, MoeadEngine, seed=7)
        reused = again._initial_population(12)
        assert evaluated == []
        emo._scored_population.cache_clear()
        cold = engine_on(ds, Nsga2Engine, seed=7)
        rebuilt = cold._initial_population(12)
        assert len(evaluated) == 12
        for a, b, c in zip(built, reused, rebuilt):
            assert a.tree == b.tree == c.tree and b.tree is a.tree
            for name in ("semantics", "objectives"):
                assert same_bits(getattr(a, name), getattr(b, name))
                assert same_bits(getattr(a, name), getattr(c, name))
        draws = [[engine.rng.random() for _ in range(10)] for engine in (fresh, again, cold)]
        assert draws[0] == draws[1] == draws[2]

    @pytest.mark.parametrize(
        "change",
        [
            lambda: {"seed": 1},
            lambda: {"size": 10},
            lambda: {"depths": (2, 5)},
            lambda: {"depths": (1, 4)},
            lambda: {"threshold": 0.5},
            lambda: {"ds": blob_dataset()},
            lambda: {"rng": ScriptedRandom(seed=0)},
            lambda: {"scorer": SubclassedEvaluator},
        ],
        ids=["seed", "size", "max-depth", "min-depth", "threshold", "equal-dataset", "scripted-rng", "subclass"],
    )
    def test_any_other_setting_builds_and_scores_again(self, change, monkeypatch):
        ds = blob_dataset()
        # An equal-content Dataset and a ScriptedRandom would match on value.
        assert np.array_equal(blob_dataset().features, ds.features)
        assert ScriptedRandom(seed=0).getstate() == random.Random(0).getstate()
        engine_on(ds)._initial_population(12)
        evaluated = self.count_scoring(monkeypatch)
        guarded = change().keys() & {"rng", "scorer"}
        for _ in range(2 if guarded else 1):
            settings = {"ds": ds, "size": 12, **change()}
            evaluated.clear()
            engine_on(**settings)._initial_population(settings["size"])
            assert len(evaluated) == settings["size"]
        evaluated.clear()
        engine_on(ds)._initial_population(12)
        # A generator or evaluator of another class neither reads nor replaces the kept entry.
        assert len(evaluated) == (0 if guarded else 12)

    def test_every_call_returns_new_members_over_the_kept_arrays(self):
        ds = blob_dataset()
        first = engine_on(ds)._initial_population(12)
        second = engine_on(ds)._initial_population(12)
        kept = self.kept_members(ds)
        assert second is not first and first is not kept
        for a, b, k in zip(first, second, kept):
            assert len({id(a), id(b), id(k)}) == 3
            assert a.tree is b.tree is k.tree
            assert a.semantics is b.semantics is k.semantics
            assert a.objectives is b.objectives is k.objectives

    def test_kept_arrays_are_read_only(self):
        # Above 256 cases no SemanticsMemo entry makes an output read-only first.
        for ind in engine_on(blob_dataset(n_cases=300))._initial_population(12):
            for array in (ind.semantics, ind.objectives):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_moead_replacements_leave_the_kept_members_alone(self):
        ds = blob_dataset()
        engine = engine_on(ds, MoeadEngine, seed=3)
        engine.initialize()
        kept = self.kept_members(ds, seed=3, size=engine.n_subproblems)
        members = list(kept)
        signature = lambda: [(to_prefix(m.tree), m.semantics.tobytes(), m.objectives.tobytes()) for m in kept]
        before = signature()
        start = list(engine.population)
        for _ in range(3):
            engine.step()
        assert any(now is not then for now, then in zip(engine.population, start))
        kept_after = self.kept_members(ds, seed=3, size=engine.n_subproblems)
        assert kept_after is kept and len(kept) == len(members)
        assert all(a is b for a, b in zip(kept, members))
        assert signature() == before

    @pytest.mark.parametrize("engine,approach", PAIRS, ids=[f"{e}/{a}" for e, a in PAIRS])
    def test_runs_are_equal_with_the_memo_cold_and_warm(self, engine, approach, monkeypatch):
        # At pop 15 MOEA/D's three-objective lattice has 15 weights too, so
        # every pair builds the same initial population.
        ds = blob_dataset(n_cases=60, imbalance=3, seed=4)
        gp = GPParams(pop_size=15, generations=3, init_min_depth=2, init_max_depth=4)
        run = lambda e, a: run_variant(e, SemanticConfig(approach=a), ds, gp, seed=11)
        cold = run(engine, approach)
        emo._scored_population.cache_clear()
        other = PAIRS[(PAIRS.index((engine, approach)) + 1) % len(PAIRS)]
        run(*other)
        # The warm run builds no tree: it can only take the kept population.
        monkeypatch.setattr(emo, "ramped_half_and_half", None)
        assert run(engine, approach) == cold


NSGA2_SORT = Nsga2Engine._sort


def sort_noting_ranks_and_crowding(self, members):
    """Nsga2Engine._sort that also notes each member's front rank and crowding value."""
    fronts, crowds, keys = NSGA2_SORT(self, members)
    ranks = {}
    for rank, front in enumerate(fronts):
        for k in front:
            ranks[id(members[k])] = rank
    self.noted = {id(m): (ranks[id(m)], crowds[k]) for k, m in enumerate(members)}
    return fronts, crowds, keys


def reference_tournament(self):
    """The per-engine binary tournaments the shared one replaced.

    NSGA-II: the second draw wins on a lower front rank, or on the same
    rank with a larger crowding value, both read from what
    sort_noting_ranks_and_crowding noted. SPEA2: it wins on a lower fitness.
    """
    n = len(self.kept)
    i = self.rng.randrange(n)
    j = self.rng.randrange(n)
    if isinstance(self, Nsga2Engine):
        (rank_i, crowd_i), (rank_j, crowd_j) = (self.noted[id(self.kept[k])] for k in (i, j))
        if rank_j < rank_i:
            return j
        if rank_i == rank_j and crowd_j > crowd_i:
            return j
        return i
    fitness = np.array(self._keys)
    return j if fitness[j] < fitness[i] else i


def check_reference_kernels(cls, sdo, monkeypatch, seed, pop_size, steps=5):
    """A run with the reference kernels swapped in steps as the plain run does.

    Both runs record every tournament winner and the last offspring bred,
    and end with the same members, offspring, winners and generator state.
    """
    calls = []

    def counted(reference):
        def wrapper(*args):
            calls.append(reference.__name__)
            return reference(*args)

        return wrapper

    def run():
        winners, offspring = [], []
        tournament, breed = emo._Engine._tournament, emo._Engine._breed

        def recorded_tournament(engine):
            winners.append(tournament(engine))
            return winners[-1]

        def recorded_breed(engine):
            offspring[:] = bred = breed(engine)
            return bred

        kwargs = {}
        if sdo:
            kwargs["objective_space"] = SdoObjectives(SemanticConfig(approach="sdo"))
        engine = make_engine(cls, seed=seed, pop_size=pop_size, **kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(emo._Engine, "_tournament", recorded_tournament)
            patched.setattr(emo._Engine, "_breed", recorded_breed)
            engine.initialize()
            for _ in range(steps):
                engine.step()
        if cls is MoeadEngine:
            members = engine.population + engine.archive
        else:
            assert len(offspring) == pop_size
            members = offspring + engine.kept
        return (
            [to_prefix(ind.tree) for ind in members],
            [ind.objectives.tobytes() for ind in members],
            winners,
            engine.rng.getstate(),
        )

    plain = run()
    monkeypatch.setattr(emo, "dominance_matrix", counted(reference_dominance_matrix))
    monkeypatch.setattr(emo, "_pairwise_distances", counted(reference_pairwise_distances))
    monkeypatch.setattr(emo, "chebyshev_values", counted(reference_chebyshev_values))
    monkeypatch.setattr(emo, "moead_replacements", counted(reference_moead_scan))
    monkeypatch.setattr(emo, "spea2_truncate", counted(reference_spea2_truncate))
    monkeypatch.setattr(MoeadEngine, "_archive_add", counted(reference_archive_add))
    monkeypatch.setattr(emo._Engine, "_tournament", counted(reference_tournament))
    monkeypatch.setattr(Nsga2Engine, "_sort", sort_noting_ranks_and_crowding)
    assert run() == plain
    expected = {
        Nsga2Engine: {"reference_dominance_matrix", "reference_tournament"},
        Spea2Engine: {
            "reference_dominance_matrix",
            "reference_pairwise_distances",
            "reference_spea2_truncate",
            "reference_tournament",
        },
        MoeadEngine: {
            "reference_pairwise_distances",
            "reference_chebyshev_values",
            "reference_moead_scan",
            "reference_archive_add",
        },
    }[cls]
    assert expected <= set(calls)
