"""Semantic distances, similarity bounds, case-count rules, pivot choice."""

import math
import random
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semogp.semantics import (
    DISTANCE_RULES,
    RULE_ABOVE,
    RULE_BAND,
    Pivot,
    SemanticConfig,
    block_rows,
    count_distances,
    select_pivot,
    ssc_distance,
)

from conftest import same_bits


# Scalar reference forms of the two case-count rules; count_distances is
# checked against them row by row.
def distance_above_ubss(p, v, bounds):
    return int(np.sum(np.abs(p - v) > bounds.ubss))


def distance_in_band(p, v, bounds):
    diff = np.abs(p - v)
    return int(np.sum((diff >= bounds.lbss) & (diff <= bounds.ubss)))


P = np.array([0.9, 0.2, 0.5])
V = np.array([0.1, 0.25, 0.5])
# The default bounds under each rule; BOUNDS is the default (band) config.
CFGS = {rule: SemanticConfig(lbss=0.01, ubss=0.5, distance_rule=rule) for rule in DISTANCE_RULES}
BOUNDS = CFGS[RULE_BAND]


class TestBounds:
    def test_defaults(self):
        cfg = SemanticConfig()
        assert (cfg.lbss, cfg.ubss) == (0.01, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="lbss must be non-negative"):
            SemanticConfig(lbss=-0.1, ubss=0.5)
        with pytest.raises(ValueError, match="need lbss <= ubss"):
            SemanticConfig(lbss=0.6, ubss=0.5)
        with pytest.raises(ValueError, match="similarity bounds must not be NaN"):
            SemanticConfig(lbss=float("nan"), ubss=0.5)
        with pytest.raises(ValueError, match="similarity bounds must not be NaN"):
            SemanticConfig(lbss=0.0, ubss=float("nan"))

    def test_infinite_upper_bound_allowed(self):
        cfg = SemanticConfig(lbss=0.0, ubss=float("inf"))
        assert math.isinf(cfg.ubss)


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

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 3500])
    def test_bit_equal_to_the_mean(self, n):
        # Lengths on both sides of numpy's 8-wide unrolled and 128-block
        # pairwise summation, and the benchmark's training size.
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e8):
            a, b = rng.normal(size=n) * scale, rng.normal(size=n)
            assert same_bits(ssc_distance(a, b), float(np.abs(a - b).mean()))


def count_one(p, v, bounds, rule):
    return count_distances(p[None, :], v, replace(bounds, distance_rule=rule))[0]


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
        bounds = SemanticConfig(lbss=0.1, ubss=0.5)
        p = np.array([0.1, 0.5, 0.0999999, 0.5000001])
        v = np.zeros(4)
        assert count_one(p, v, bounds, RULE_BAND) == 2

    def test_above_is_strict(self):
        bounds = SemanticConfig(lbss=0.0, ubss=0.5)
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
            bounds = SemanticConfig(lbss=lbss, ubss=lbss + rng.uniform(0, 1))
            above = count_one(p, v, bounds, RULE_ABOVE)
            band = count_one(p, v, bounds, RULE_BAND)
            below = int((np.abs(p - v) < bounds.lbss).sum())
            assert above + band + below == length

    def test_infinite_ubss_means_nothing_above(self):
        bounds = SemanticConfig(lbss=0.0, ubss=float("inf"))
        p = np.array([1e9, -1e9])
        assert count_one(p, np.zeros(2), bounds, RULE_ABOVE) == 0
        assert count_one(p, np.zeros(2), bounds, RULE_BAND) == 2

    def test_count_distances_matches_per_row(self):
        rng = random.Random(2)
        matrix = np.array([[rng.uniform(-1, 1) for _ in range(6)] for _ in range(10)])
        pivot = np.array([rng.uniform(-1, 1) for _ in range(6)])
        for rule, scalar in ((RULE_ABOVE, distance_above_ubss), (RULE_BAND, distance_in_band)):
            counts = count_distances(matrix, pivot, CFGS[rule])
            assert counts.tolist() == [scalar(row, pivot, BOUNDS) for row in matrix]

    def test_count_distances_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown distance rule"):
            count_distances(np.zeros((2, 2)), np.zeros(2), replace(BOUNDS, distance_rule="nearest"))

    def test_rule_names(self):
        assert DISTANCE_RULES == ("above", "band")


def reference_count_distances(rows, pivot, cfg):
    """count_distances as it was: one broadcast over the stacked rows."""
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(pivot))
    diff = np.abs(matrix - np.asarray(pivot, dtype=np.float64))
    if cfg.distance_rule == RULE_ABOVE:
        return (diff > cfg.ubss).sum(axis=1).astype(np.float64)
    return ((diff >= cfg.lbss) & (diff <= cfg.ubss)).sum(axis=1).astype(np.float64)


# Bounds and values on a quarter grid, so that differences land exactly on
# lbss and ubss; 1e10 is the evaluator's clamp.
GRID_BOUNDS = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, math.inf]),
    st.sampled_from(DISTANCE_RULES),
).filter(lambda b: b[0] <= b[1]).map(lambda b: SemanticConfig(lbss=b[0], ubss=b[1], distance_rule=b[2]))
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
        st.booleans(),
    )
    def test_matches_the_broadcast_expression(self, n_cases, rows, seed, cfg, as_list):
        n_rows = row_count(rows, block_rows(n_cases))
        rng = np.random.default_rng(seed)
        grid = np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 1e10, -1e10])
        matrix = rng.choice(grid, size=(n_rows, n_cases)) + rng.choice([0.0, 0.5], size=(n_rows, 1))
        pivot = rng.choice(grid, size=n_cases)
        out = count_distances(list(matrix) if as_list else matrix, pivot, cfg)
        expected = reference_count_distances(matrix, pivot, cfg)
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
        for cfg in CFGS.values():
            expected = reference_count_distances(matrix, pivot, cfg)
            assert np.array_equal(count_distances(matrix, pivot, cfg), expected)
            assert np.array_equal(count_distances(list(matrix), pivot, cfg), expected)

    def test_rows_of_another_length_rejected(self):
        # Lengths 3 and 5 fill two 4-case rows exactly; they must not be counted.
        rows = [np.zeros(3), np.zeros(5)]
        with pytest.raises(ValueError, match="pivot's length"):
            count_distances(rows, np.zeros(4), BOUNDS)
        # A lone row takes the flat path, where subtract would broadcast a
        # 1-case row against the pivot or a 1-case pivot against the row.
        for row, pivot in ((np.array([0.3]), np.zeros(5)), (np.zeros(5), np.array([0.3]))):
            for cfg in CFGS.values():
                for rows in ([row], row[None]):
                    with pytest.raises(ValueError, match="pivot's length"):
                        count_distances(rows, pivot, cfg)

    def test_repeated_array_objects_match_the_oracle(self):
        # Clones share their parent's array: each object is counted once and
        # its count scattered to every position that holds it.
        rng = np.random.default_rng(3)
        a, b, c = rng.normal(size=(3, 40))
        rows = [a, b, a, a, c, b]
        pivot = rng.normal(size=40)
        for cfg in (*CFGS.values(), SemanticConfig(lbss=0.5, ubss=1.5)):
            assert np.array_equal(count_distances(rows, pivot, cfg), reference_count_distances(rows, pivot, cfg))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(64, 300), st.integers(1, 12), st.integers(0, 2**32 - 1), GRID_BOUNDS)
    def test_repeats_across_blocks_match_the_oracle(self, n_cases, n_distinct, seed, cfg):
        rng = np.random.default_rng(seed)
        grid = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 3.0])
        pool = list(rng.choice(grid, size=(n_distinct, n_cases)))
        n_rows = block_rows(n_cases) + int(rng.integers(-1, 2)) + 1
        rows = [pool[i] for i in rng.integers(0, n_distinct, size=n_rows)]
        pivot = rng.choice(grid, size=n_cases)
        assert np.array_equal(count_distances(rows, pivot, cfg), reference_count_distances(rows, pivot, cfg))

    def test_row_views_of_a_matrix_are_never_merged(self):
        # Row views are temporaries whose ids recur once freed, so the rows
        # of a matrix, or of a sequence handing out fresh rows, are keyed by
        # id only while every one of them is held alive.
        class FreshRows(Sequence):
            def __init__(self, matrix):
                self.matrix = matrix

            def __len__(self):
                return len(self.matrix)

            def __getitem__(self, index):
                return self.matrix[index] * 1.0

        n_cases = 300
        # Row i has exactly i cases above ubss, so every count differs.
        matrix = np.zeros((n_cases, n_cases))
        matrix[np.tril_indices(n_cases, -1)] = 2.0
        pivot = np.zeros(n_cases)
        cfg = SemanticConfig(lbss=0.0, ubss=1.0, distance_rule=RULE_ABOVE)
        expected = np.arange(n_cases, dtype=np.float64)
        assert np.array_equal(count_distances(matrix, pivot, cfg), expected)
        assert np.array_equal(count_distances(FreshRows(matrix), pivot, cfg), expected)
        assert np.array_equal(count_distances(list(matrix), pivot, cfg), expected)

    @pytest.mark.parametrize("position", [0, 1, 3, 5])
    def test_every_row_of_another_length_is_rejected_among_repeats(self, position):
        good, bad = np.zeros(4), np.zeros(5)
        rows = [good, good, good, good, good, good]
        rows[position] = bad
        for cfg in CFGS.values():
            with pytest.raises(ValueError, match="pivot's length"):
                count_distances(rows, np.zeros(4), cfg)
            with pytest.raises(ValueError, match="pivot's length"):
                count_distances(rows + [bad], np.zeros(4), cfg)

    @pytest.mark.parametrize("n_cases", [255, 256, 65535, 65536, 65537])
    def test_the_tally_is_exact_at_its_width_edges(self, n_cases):
        # Every case of row 0 lies above ubss, every case of row 1 in the
        # band, and row 2 has one case of each kind short of the rest.
        pivot = np.zeros(n_cases)
        rows = [np.full(n_cases, 2.0), np.full(n_cases, 0.5), np.full(n_cases, 0.5)]
        rows[2][0] = 2.0
        above = count_distances(rows, pivot, replace(BOUNDS, distance_rule=RULE_ABOVE))
        band = count_distances(rows, pivot, BOUNDS)
        assert above.tolist() == [n_cases, 0, 1]
        assert band.tolist() == [0, n_cases, n_cases - 1]

    def test_rows_need_not_be_contiguous(self):
        matrix = np.asfortranarray(np.random.default_rng(0).normal(size=(9, 7)))
        pivot = np.zeros(7)
        for cfg in CFGS.values():
            expected = reference_count_distances(matrix, pivot, cfg)
            assert np.array_equal(count_distances(matrix, pivot, cfg), expected)
            assert np.array_equal(count_distances(list(matrix), pivot, cfg), expected)


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
