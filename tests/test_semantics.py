"""Semantic distances, similarity bounds, case-count rules, pivot choice."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semogp.semantics import (
    DISTANCE_RULES,
    RULE_ABOVE,
    RULE_BAND,
    Pivot,
    SimilarityBounds,
    block_rows,
    count_distances,
    select_pivot,
    ssc_distance,
)


# Scalar reference forms of the two case-count rules; count_distances is
# checked against them row by row.
def distance_above_ubss(p, v, bounds):
    return int(np.sum(np.abs(p - v) > bounds.ubss))


def distance_in_band(p, v, bounds):
    diff = np.abs(p - v)
    return int(np.sum((diff >= bounds.lbss) & (diff <= bounds.ubss)))


P = np.array([0.9, 0.2, 0.5])
V = np.array([0.1, 0.25, 0.5])
BOUNDS = SimilarityBounds(lbss=0.01, ubss=0.5)


class TestBounds:
    def test_defaults(self):
        bounds = SimilarityBounds()
        assert (bounds.lbss, bounds.ubss) == (0.01, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimilarityBounds(lbss=-0.1, ubss=0.5)
        with pytest.raises(ValueError):
            SimilarityBounds(lbss=0.6, ubss=0.5)
        with pytest.raises(ValueError):
            SimilarityBounds(lbss=float("nan"), ubss=0.5)

    def test_infinite_upper_bound_allowed(self):
        bounds = SimilarityBounds(lbss=0.0, ubss=float("inf"))
        assert math.isinf(bounds.ubss)


class TestSscDistance:
    def test_hand_case(self):
        assert ssc_distance(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 2.0

    def test_zero_for_identical(self):
        sem = np.array([0.4, -1.2, 9.0])
        assert ssc_distance(sem, sem) == 0.0

    def test_symmetric(self):
        rng = random.Random(0)
        for _ in range(50):
            a = np.array([rng.uniform(-5, 5) for _ in range(8)])
            b = np.array([rng.uniform(-5, 5) for _ in range(8)])
            assert ssc_distance(a, b) == ssc_distance(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ssc_distance(np.zeros(3), np.zeros(4))


def count_one(p, v, bounds, rule):
    return count_distances(p[None, :], v, bounds, rule)[0]


class TestCaseCountRules:
    def test_above_hand_case(self):
        # |diffs| = (0.8, 0.05, 0.0); only 0.8 exceeds ubss.
        assert count_one(P, V, BOUNDS, RULE_ABOVE) == 1

    def test_band_hand_case(self):
        # Only 0.05 falls inside [0.01, 0.5].
        assert count_one(P, V, BOUNDS, RULE_BAND) == 1

    def test_identical_vectors_count_zero_above(self):
        assert count_one(V, V, BOUNDS, RULE_ABOVE) == 0

    def test_band_endpoints_are_inclusive(self):
        bounds = SimilarityBounds(lbss=0.1, ubss=0.5)
        p = np.array([0.1, 0.5, 0.0999999, 0.5000001])
        v = np.zeros(4)
        assert count_one(p, v, bounds, RULE_BAND) == 2

    def test_above_is_strict(self):
        bounds = SimilarityBounds(lbss=0.0, ubss=0.5)
        p = np.array([0.5, 0.5000001])
        v = np.zeros(2)
        assert count_one(p, v, bounds, RULE_ABOVE) == 1

    def test_partition_identity(self):
        # above-count + band-count + below-lbss-count covers every case once.
        rng = random.Random(1)
        for _ in range(300):
            length = rng.randint(1, 30)
            p = np.array([rng.uniform(-2, 2) for _ in range(length)])
            v = np.array([rng.uniform(-2, 2) for _ in range(length)])
            lbss = rng.uniform(0, 1)
            bounds = SimilarityBounds(lbss=lbss, ubss=lbss + rng.uniform(0, 1))
            above = count_one(p, v, bounds, RULE_ABOVE)
            band = count_one(p, v, bounds, RULE_BAND)
            below = int((np.abs(p - v) < bounds.lbss).sum())
            assert above + band + below == length

    def test_infinite_ubss_means_nothing_above(self):
        bounds = SimilarityBounds(lbss=0.0, ubss=float("inf"))
        p = np.array([1e9, -1e9])
        assert count_one(p, np.zeros(2), bounds, RULE_ABOVE) == 0
        assert count_one(p, np.zeros(2), bounds, RULE_BAND) == 2

    def test_count_distances_matches_per_row(self):
        rng = random.Random(2)
        matrix = np.array([[rng.uniform(-1, 1) for _ in range(6)] for _ in range(10)])
        pivot = np.array([rng.uniform(-1, 1) for _ in range(6)])
        for rule, scalar in ((RULE_ABOVE, distance_above_ubss), (RULE_BAND, distance_in_band)):
            counts = count_distances(matrix, pivot, BOUNDS, rule)
            assert counts.tolist() == [scalar(row, pivot, BOUNDS) for row in matrix]

    def test_count_distances_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown distance rule"):
            count_distances(np.zeros((2, 2)), np.zeros(2), BOUNDS, "nearest")

    def test_rule_names(self):
        assert DISTANCE_RULES == ("above", "band")


def reference_count_distances(rows, pivot, bounds, rule):
    """count_distances as it was: one broadcast over the stacked rows."""
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(pivot))
    diff = np.abs(matrix - np.asarray(pivot, dtype=np.float64))
    if rule == RULE_ABOVE:
        return (diff > bounds.ubss).sum(axis=1).astype(np.float64)
    return ((diff >= bounds.lbss) & (diff <= bounds.ubss)).sum(axis=1).astype(np.float64)


# Bounds and values on a quarter grid, so that differences land exactly on
# lbss and ubss; 1e10 is the evaluator's clamp.
GRID_BOUNDS = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, math.inf])
).filter(lambda b: b[0] <= b[1]).map(lambda b: SimilarityBounds(*b))
ROW_COUNTS = ("0", "1", "block-1", "block", "block+1")


def row_count(kind, block):
    return {"0": 0, "1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[kind]


class TestCountDistancesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.sampled_from([1, 2, 140, 3500, 5000]), st.integers(1, 5000)),
        st.sampled_from(ROW_COUNTS),
        st.integers(0, 2**32 - 1),
        GRID_BOUNDS,
        st.sampled_from(DISTANCE_RULES),
        st.booleans(),
    )
    def test_matches_the_broadcast_expression(self, n_cases, rows, seed, bounds, rule, as_list):
        n_rows = row_count(rows, block_rows(n_cases))
        rng = np.random.default_rng(seed)
        grid = np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 1e10, -1e10])
        matrix = rng.choice(grid, size=(n_rows, n_cases)) + rng.choice([0.0, 0.5], size=(n_rows, 1))
        pivot = rng.choice(grid, size=n_cases)
        out = count_distances(list(matrix) if as_list else matrix, pivot, bounds, rule)
        expected = reference_count_distances(matrix, pivot, bounds, rule)
        assert out.dtype == np.float64 and out.shape == (n_rows,)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n_cases", [1, 3, 140, 3500, 5000, 40000])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, n_cases, offset):
        block = block_rows(n_cases)
        assert block * n_cases * 8 <= 1 << 18 or block == 1
        n_rows = block + offset
        rng = np.random.default_rng(n_cases + offset)
        matrix = rng.normal(size=(n_rows, n_cases))
        pivot = rng.normal(size=n_cases)
        for rule in DISTANCE_RULES:
            expected = reference_count_distances(matrix, pivot, BOUNDS, rule)
            assert np.array_equal(count_distances(matrix, pivot, BOUNDS, rule), expected)
            assert np.array_equal(count_distances(list(matrix), pivot, BOUNDS, rule), expected)

    def test_rows_of_another_length_rejected(self):
        # Lengths 3 and 5 fill two 4-case rows exactly; they must not be counted.
        rows = [np.zeros(3), np.zeros(5)]
        with pytest.raises(ValueError, match="pivot's length"):
            count_distances(rows, np.zeros(4), BOUNDS, RULE_BAND)
        # A lone row takes the flat path, where subtract would broadcast a
        # 1-case row against the pivot or a 1-case pivot against the row.
        for row, pivot in ((np.array([0.3]), np.zeros(5)), (np.zeros(5), np.array([0.3]))):
            for rule in DISTANCE_RULES:
                for rows in ([row], row[None]):
                    with pytest.raises(ValueError, match="pivot's length"):
                        count_distances(rows, pivot, BOUNDS, rule)

    def test_rows_need_not_be_contiguous(self):
        matrix = np.asfortranarray(np.random.default_rng(0).normal(size=(9, 7)))
        pivot = np.zeros(7)
        for rule in DISTANCE_RULES:
            expected = reference_count_distances(matrix, pivot, BOUNDS, rule)
            assert np.array_equal(count_distances(matrix, pivot, BOUNDS, rule), expected)
            assert np.array_equal(count_distances(list(matrix), pivot, BOUNDS, rule), expected)


class TestSelectPivot:
    SEMS = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]

    def test_max_finite_crowding_wins(self):
        crowding = [float("inf"), 2.0, float("inf")]
        pivot = select_pivot(self.SEMS, crowding, random.Random(0))
        assert pivot.source_index == 1
        assert np.array_equal(pivot.semantics, self.SEMS[1])

    def test_tie_breaks_to_lowest_index(self):
        sems = [np.zeros(2)] * 4
        crowding = [float("inf"), 3.0, 3.0, float("inf")]
        pivot = select_pivot(sems, crowding, random.Random(0))
        assert pivot.source_index == 1

    def test_two_members_choose_uniformly(self):
        sems = self.SEMS[:2]
        crowding = [float("inf"), float("inf")]
        picks = {
            select_pivot(sems, crowding, random.Random(seed)).source_index
            for seed in range(30)
        }
        assert picks == {0, 1}

    def test_two_member_choice_is_deterministic_per_seed(self):
        sems = self.SEMS[:2]
        crowding = [float("inf"), float("inf")]
        a = select_pivot(sems, crowding, random.Random(7)).source_index
        b = select_pivot(sems, crowding, random.Random(7)).source_index
        assert a == b

    def test_all_infinite_crowding_falls_back_to_uniform(self):
        crowding = [float("inf")] * 3
        picks = {
            select_pivot(self.SEMS, crowding, random.Random(seed)).source_index
            for seed in range(40)
        }
        assert picks == {0, 1, 2}

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            select_pivot([], [], random.Random(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            select_pivot(self.SEMS, [1.0], random.Random(0))

    def test_pivot_is_immutable(self):
        pivot = Pivot(np.zeros(2), 0)
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            pivot.source_index = 3
