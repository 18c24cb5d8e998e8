"""Confusion counts, per-class error objectives, and program evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semogp.dataset import Dataset
from semogp.gp_core import Call, Constant, Feature, PrimitiveSet, evaluate_semantics, grow_tree
from semogp.objectives import (
    CLASSIFICATION_THRESHOLD,
    ClassificationEvaluator,
    ConfusionCounts,
    classify,
    confusion,
    objective_vector,
)

import random

from conftest import blob_dataset


class TestClassify:
    def test_threshold_is_inclusive(self):
        sem = np.array([-0.1, 0.0, 0.1])
        assert classify(sem, 0.0).tolist() == [False, True, True]

    def test_default_threshold_is_zero(self):
        assert CLASSIFICATION_THRESHOLD == 0.0

    def test_custom_threshold(self):
        sem = np.array([0.4, 0.5, 0.6])
        assert classify(sem, 0.5).tolist() == [False, True, True]


class TestConfusion:
    def test_counts(self):
        predictions = np.array([True, False, False, False, False, True])
        labels = np.array([True, True, False, False, False, False])
        counts = confusion(predictions, labels)
        assert (counts.tp, counts.fn, counts.tn, counts.fp) == (1, 1, 3, 1)

    def test_matches_cell_by_cell_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.random(n) < rng.random()
            labels[:2] = [True, False]
            predictions = rng.random(n) < rng.random()
            counts = confusion(predictions, labels)
            expected = (
                np.sum(predictions & labels),
                np.sum(~predictions & labels),
                np.sum(~predictions & ~labels),
                np.sum(predictions & ~labels),
            )
            assert (counts.tp, counts.fn, counts.tn, counts.fp) == expected
            assert all(type(c) is int for c in (counts.tp, counts.fn, counts.tn, counts.fp))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([True]), np.array([True, False]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=1, fn=1, tn=0, fp=0)
        with pytest.raises(ValueError):
            ConfusionCounts(tp=0, fn=0, tn=2, fp=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fn=1, tn=1, fp=0)


class TestObjectiveVector:
    def test_hand_case(self):
        counts = ConfusionCounts(tp=1, fn=1, tn=3, fp=1)
        assert objective_vector(counts).tolist() == [0.5, 0.25]

    def test_perfect_classifier(self):
        counts = ConfusionCounts(tp=2, fn=0, tn=8, fp=0)
        assert objective_vector(counts).tolist() == [0.0, 0.0]

    def test_always_positive(self):
        counts = ConfusionCounts(tp=2, fn=0, tn=0, fp=8)
        assert objective_vector(counts).tolist() == [0.0, 1.0]

    def test_always_negative(self):
        counts = ConfusionCounts(tp=0, fn=2, tn=8, fp=0)
        assert objective_vector(counts).tolist() == [1.0, 0.0]

    def test_range(self):
        rng = random.Random(0)
        for _ in range(200):
            tp, fn = rng.randint(0, 50), rng.randint(0, 50)
            tn, fp = rng.randint(0, 50), rng.randint(0, 50)
            if tp + fn == 0 or tn + fp == 0:
                continue
            vec = objective_vector(ConfusionCounts(tp, fn, tn, fp))
            assert 0.0 <= vec[0] <= 1.0
            assert 0.0 <= vec[1] <= 1.0

    def test_threshold_monotonicity(self):
        rng = random.Random(1)
        labels = np.array([True] * 5 + [False] * 15)
        for _ in range(50):
            sem = np.array([rng.uniform(-2, 2) for _ in range(20)])
            rows = []
            for threshold in (-1.0, 0.0, 1.0):
                counts = confusion(classify(sem, threshold), labels)
                rows.append(objective_vector(counts))
            # Raising the threshold can only lose positives and gain negatives.
            assert rows[0][0] <= rows[1][0] <= rows[2][0]
            assert rows[0][1] >= rows[1][1] >= rows[2][1]


class TestEvaluator:
    def test_caches_semantics_and_objectives(self, small_dataset):
        evaluator = ClassificationEvaluator(small_dataset)
        ind = evaluator.evaluate_tree(Feature(0))
        assert ind.semantics is not None
        assert ind.semantics.shape == (small_dataset.n_cases,)
        assert ind.objectives.shape == (2,)
        assert np.array_equal(ind.semantics, small_dataset.features[:, 0])

    def test_objectives_match_manual_pipeline(self, small_dataset):
        evaluator = ClassificationEvaluator(small_dataset)
        tree = Call("-", Feature(0), Constant(1.0))
        ind = evaluator.evaluate_tree(tree)
        manual = objective_vector(
            confusion(classify(ind.semantics, 0.0), small_dataset.labels)
        )
        assert np.array_equal(ind.objectives, manual)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.integers(0, 6),
    )
    def test_objectives_equal_the_confusion_pipeline(self, seed, n_cases, depth):
        # Features on a quarter grid put many outputs exactly on the threshold 0.0.
        rng = random.Random(seed)
        features = np.array([[rng.randint(-8, 8) / 4 for _ in range(2)] for _ in range(n_cases)])
        labels = np.array([rng.random() < 0.3 for _ in range(n_cases)])
        labels[:2] = [True, False]
        dataset = Dataset(features, labels)
        tree = grow_tree(PrimitiveSet(n_features=2), depth, rng)
        ind = ClassificationEvaluator(dataset).evaluate_tree(tree)
        expected = objective_vector(confusion(classify(ind.semantics, 0.0), dataset.labels))
        assert ind.objectives.dtype == expected.dtype and ind.objectives.shape == (2,)
        assert np.array_equal(ind.objectives.view(np.int64), expected.view(np.int64))
        assert np.array_equal(ind.semantics, evaluate_semantics(tree, dataset.features))
