"""Shared fixtures and helpers for the test suite."""

import random
from pathlib import Path

import numpy as np
import pytest

from semogp import dataset, emo, harness, semantic_emo
from semogp.dataset import Dataset, synthetic_blobs, write_synthetic_csv
from semogp.gp_core import Call, Feature, Individual, _exchange

# The 11 engine x approach pairs the paper compares, as the package decides them.
PAIRS = list(semantic_emo.PAIRS)


class ScriptedRandom(random.Random):
    """random.Random whose random()/randrange() answers can be scripted.

    Script entries are consumed in call order: floats answer random(), ints
    answer randrange(n) verbatim, and the string "last" answers randrange(n)
    with n - 1. When the script is exhausted (or the head does not match the
    called method) the seeded stream takes over.
    """

    def __new__(cls, script=(), seed=0):
        return super().__new__(cls, seed)

    def __init__(self, script=(), seed=0):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        if self.script and isinstance(self.script[0], float):
            return self.script.pop(0)
        return super().random()

    def randrange(self, start, stop=None, step=1):
        head = self.script[0] if self.script else None
        if stop is None and step == 1:
            if head == "last":
                self.script.pop(0)
                return start - 1
            if isinstance(head, int) and not isinstance(head, bool):
                return self.script.pop(0)
        return super().randrange(start, stop, step)


def left_comb(depth: int):
    """A left-leaning chain of additions with the given tree depth."""
    tree = Feature(0)
    for _ in range(depth):
        tree = Call("+", tree, Feature(0))
    return tree


def reference_shape(tree) -> tuple[int, int, int]:
    """(size, depth, n_functions) by a plain recursive walk: the shape oracle."""
    if isinstance(tree, Call):
        left, right = reference_shape(tree.left), reference_shape(tree.right)
        return 1 + left[0] + right[0], 1 + max(left[1], right[1]), 1 + left[2] + right[2]
    return 1, 0, 0


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bits (NaN payloads and zero signs included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def exchanged(p1, p2, points):
    """The offspring a crossover hook's points give; None keeps the parents' trees."""
    return (p1.tree, p2.tree) if points is None else _exchange(p1.tree, p2.tree, *points)


def make_individual(semantics=None, objectives=None, tree=None):
    return Individual(
        tree=tree if tree is not None else Feature(0),
        semantics=None if semantics is None else np.asarray(semantics, dtype=np.float64),
        objectives=None if objectives is None else np.asarray(objectives, dtype=np.float64),
    )


def grid_cell_hypervolume(points, ref) -> float:
    """Hypervolume oracle: the area of the dominated cells of the grid that
    the distinct coordinates of the points inside ref (and ref) draw."""
    inside = [(float(a), float(b)) for a, b in points if a <= ref[0] and b <= ref[1]]
    xs = sorted({a for a, _ in inside} | {float(ref[0])})
    ys = sorted({b for _, b in inside} | {float(ref[1])})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            if any(a <= x0 and b <= y0 for a, b in inside):
                total += (x1 - x0) * (y1 - y0)
    return total


def file_bytes(directory) -> dict:
    """Each file's bytes, keyed by its name."""
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def blob_dataset(n_cases=60, imbalance=3, seed=0) -> Dataset:
    rows = synthetic_blobs(n_cases, imbalance, seed)
    features = np.array([[x0, x1] for x0, x1, _ in rows])
    labels = np.array([label == "pos" for _, _, label in rows])
    return Dataset(features, labels)


# Every cached function that carries results from one run to the next.
REUSE_CACHES = (dataset._parse_csv, harness._seed_split, emo._scored_population)


def clear_reuse_caches():
    for cached in REUSE_CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def clear_reuse_memos():
    """Start every test with empty parse, split and initial-population caches."""
    clear_reuse_caches()


@pytest.fixture
def small_dataset() -> Dataset:
    return blob_dataset()


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    write_synthetic_csv(path, 200, 9, seed=0)
    return path
