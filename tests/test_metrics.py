"""Hypervolume, uniqueness, and program-size statistics."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semogp.gp_core import Call, Constant, Feature, full_tree, PrimitiveSet
from semogp.metrics import (
    HV_REFERENCE,
    GenerationStats,
    SizeStats,
    hypervolume_2d,
    size_stats,
    unique_solutions,
)

from conftest import grid_cell_hypervolume, make_individual


# Coordinates on a k/10 grid up to 1.2 put points inside, on and outside
# the reference points of the oracle test; free floats add points off the grid.
_COORD = st.one_of(
    st.integers(0, 12).map(lambda k: k / 10),
    st.floats(0.0, 1.2, allow_nan=False),
)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([(0.5, 0.5)], (1.0, 1.0)) == pytest.approx(0.25)

    def test_two_point_staircase(self):
        assert hypervolume_2d([(0.2, 0.8), (0.6, 0.4)], (1.0, 1.0)) == pytest.approx(0.32)

    def test_dominated_points_add_nothing(self):
        base = hypervolume_2d([(0.2, 0.8), (0.6, 0.4)], (1.0, 1.0))
        noisy = hypervolume_2d([(0.2, 0.8), (0.6, 0.4), (0.7, 0.9)], (1.0, 1.0))
        assert noisy == pytest.approx(base)

    def test_duplicates_add_nothing(self):
        base = hypervolume_2d([(0.5, 0.5)], (1.0, 1.0))
        noisy = hypervolume_2d([(0.5, 0.5)] * 5, (1.0, 1.0))
        assert noisy == pytest.approx(base)

    def test_points_beyond_reference_are_ignored(self):
        assert hypervolume_2d([(1.2, 0.1), (0.1, 1.2)], (1.0, 1.0)) == 0.0
        mixed = hypervolume_2d([(0.5, 0.5), (2.0, 0.0)], (1.0, 1.0))
        assert mixed == pytest.approx(0.25)

    def test_point_on_reference_contributes_zero(self):
        assert hypervolume_2d([(1.0, 1.0)], (1.0, 1.0)) == 0.0

    def test_empty_front(self):
        assert hypervolume_2d([], (1.0, 1.0)) == 0.0

    def test_perfect_point_under_default_reference(self):
        assert hypervolume_2d([(0.0, 0.0)], HV_REFERENCE) == pytest.approx(1.01 * 1.01)

    def test_reference_must_be_two_entries(self):
        with pytest.raises(ValueError):
            hypervolume_2d([(0.5, 0.5)], (1.0, 1.0, 1.0))

    def test_order_invariance(self):
        points = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.3, 0.6)]
        shuffled = points[::-1]
        assert hypervolume_2d(points, (1.0, 1.0)) == hypervolume_2d(shuffled, (1.0, 1.0))

    def test_monte_carlo_cross_check(self):
        rng = random.Random(0)
        points = sorted((rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(12))
        exact = hypervolume_2d(points, (1.0, 1.0))
        samples = np.random.default_rng(1).uniform(0.0, 1.0, size=(200_000, 2))
        P = np.array(points)
        covered = np.zeros(len(samples), dtype=bool)
        for a, b in points:
            covered |= (samples[:, 0] >= a) & (samples[:, 1] >= b)
        estimate = covered.mean()
        assert exact == pytest.approx(estimate, abs=0.01)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_COORD, _COORD), max_size=30),
        st.sampled_from([(1.0, 1.0), HV_REFERENCE, (0.6, 0.9)]),
    )
    def test_matches_grid_cell_oracle(self, points, ref):
        assert hypervolume_2d(points, ref) == pytest.approx(grid_cell_hypervolume(points, ref))


class TestUniqueSolutions:
    def test_exact_duplicates_collapse(self):
        # A front's objective arrays, as run_variant passes them.
        vectors = [np.array(v) for v in [(0.5, 0.25), (0.5, 0.25), (0.5, 0.2500000001)]]
        assert unique_solutions(vectors) == 2

    def test_all_distinct(self):
        assert unique_solutions([(i / 10, 1 - i / 10) for i in range(5)]) == 5

    def test_requires_two_entry_objectives(self):
        with pytest.raises(ValueError):
            unique_solutions([(0.5, 0.25, 0.1)])

    def test_individuals_rejected(self):
        with pytest.raises(TypeError):
            unique_solutions([make_individual(objectives=(0.1, 0.2))])


@pytest.mark.parametrize("vectors", [[()], [(), ()], [(0.1,)], [(0.1, 0.2), (0.3, 0.4, 0.5)], [0.1, 0.2, 0.3]])
def test_every_vector_that_is_not_2_entries_is_rejected(vectors):
    with pytest.raises(ValueError):
        hypervolume_2d(vectors, (1.0, 1.0))
    with pytest.raises(ValueError):
        unique_solutions(vectors)


class TestSizeStats:
    def test_hand_case(self):
        ps = PrimitiveSet(n_features=1)
        trees = [
            full_tree(ps, 1, random.Random(0)),
            Call("+", Feature(0), Call("*", Feature(0), Constant(1.0))),
            full_tree(ps, 3, random.Random(1)),
        ]
        stats = size_stats(trees)
        assert stats == SizeStats(23 / 3, 5, 15)

    def test_accepts_individuals(self):
        members = [make_individual(tree=Feature(0)), make_individual(tree=Feature(1))]
        assert size_stats(members) == SizeStats(1.0, 1.0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            size_stats([])


class TestGenerationStats:
    def test_fields_and_immutability(self):
        row = GenerationStats(
            generation=0, hypervolume=0.5, unique_count=3, mean_nodes=7.5, front_size=4
        )
        assert row.generation == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.hypervolume = 0.9

    def test_reference_constant(self):
        assert HV_REFERENCE == (1.01, 1.01)
