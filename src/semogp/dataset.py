"""Loading, validation, and splitting of imbalanced binary-classification data.

A dataset is a fixed table of labelled fitness cases: a read-only float64
feature matrix plus a boolean label vector, where True marks the positive
(minority) class. Instances are immutable after construction.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import math
import random

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


class Dataset:
    """An imbalanced binary-classification dataset.

    Args:
        features: array-like of shape (n_cases, n_features), finite floats.
        labels: boolean array-like of length n_cases, True = positive class.
    """

    def __init__(self, features, labels):
        # Fortran order keeps each feature column contiguous, as evaluation reads it.
        feats = np.array(features, dtype=np.float64, order="F")
        labs = np.array(labels, dtype=bool)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise DatasetError("features must be a 2-D matrix with at least one column")
        if labs.shape != (feats.shape[0],):
            raise DatasetError("labels length must match the number of feature rows")
        if feats.shape[0] < 2:
            raise DatasetError("a dataset needs at least two cases")
        if not np.all(np.isfinite(feats)):
            raise DatasetError("non-numeric feature cell: features must be finite")
        n_pos = int(labs.sum())
        if n_pos == 0 or n_pos == labs.size:
            raise DatasetError("a class with zero rows: both classes must be present")
        feats.setflags(write=False)
        labs.setflags(write=False)
        # load_csv hands one instance to every caller, so no attribute may be rebound.
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Dataset is immutable: cannot set {name!r}")

    @property
    def n_cases(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled copy (as sent to worker
        # processes) is validated and read-only too.
        return Dataset, (self.features, self.labels)

    def subset(self, indices) -> "Dataset":
        """Return a new dataset holding the given rows, in the given order."""
        idx = list(indices)
        return Dataset(self.features[idx], self.labels[idx])


def _parse_feature(cell: str, row_no: int, col_no: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DatasetError(
            f"non-numeric feature cell at row {row_no}, column {col_no}: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(
            f"non-numeric feature cell at row {row_no}, column {col_no}: {cell!r}"
        )
    return value


def load_csv(path, label_column: int = -1, positive_label: str | None = None) -> Dataset:
    """Load a CSV file of feature columns plus one label column.

    The first row is treated as a header when any cell outside the label
    column fails to parse as a number. The positive class defaults to the
    rarer label token, with the lexicographically smaller token winning ties.
    A leading UTF-8 byte-order mark is skipped.

    A file is parsed once while its bytes are unchanged: _parse_csv keeps
    its last Dataset under the bytes read, path, label_column and
    positive_label, and a call that matches all four returns that same
    (immutable) Dataset. Any change of content parses again; a failed
    parse is not kept.

    Args:
        path: CSV file path.
        label_column: index of the label column; negative indices count from
            the end (default: last column).
        positive_label: label token to treat as positive; must occur in the
            file when given.

    Raises:
        DatasetError: missing file, bytes that do not decode, ragged rows,
            non-numeric feature cells, label cardinality other than two, or
            an absent positive label.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DatasetError(f"missing file: {path}") from exc
    return _parse_csv(data, path, label_column, positive_label)


@functools.lru_cache(maxsize=1)
def _parse_csv(data: bytes, path, label_column: int, positive_label: str | None) -> Dataset:
    """load_csv's parse of a file's bytes; path only names the file in errors."""
    # Decoded as open(path, newline="") decodes the file, less a leading UTF-8 BOM.
    text = io.TextIOWrapper(io.BytesIO(data.removeprefix(codecs.BOM_UTF8)), newline="")
    try:
        rows = [row for row in csv.reader(text) if row]
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot decode {path}: {exc}") from None
    if not rows:
        raise DatasetError(f"empty dataset file: {path}")

    width = len(rows[0])
    if width < 2:
        raise DatasetError("rows need at least one feature column and a label column")
    label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DatasetError(f"label column {label_column} out of range for width {width}")

    # Header detection: any non-label cell of row 1 that is not a number.
    first = rows[0]
    has_header = False
    for col, cell in enumerate(first):
        if col == label_idx:
            continue
        try:
            float(cell)
        except ValueError:
            has_header = True
            break
    data_rows = rows[1:] if has_header else rows

    features = []
    tokens = []
    for offset, row in enumerate(data_rows):
        row_no = offset + (2 if has_header else 1)
        if len(row) != width:
            raise DatasetError(f"ragged row {row_no}: expected {width} cells, got {len(row)}")
        feats = [
            _parse_feature(cell, row_no, col)
            for col, cell in enumerate(row)
            if col != label_idx
        ]
        features.append(feats)
        tokens.append(row[label_idx].strip())

    distinct = sorted(set(tokens))
    if len(distinct) != 2:
        raise DatasetError(
            f"label cardinality: expected exactly two label tokens, found {len(distinct)} ({distinct})"
        )
    counts = {tok: tokens.count(tok) for tok in distinct}
    if positive_label is not None:
        positive_label = str(positive_label)
        if positive_label not in counts:
            raise DatasetError(
                f"a class with zero rows: positive label {positive_label!r} not present"
            )
        pos_token = positive_label
    else:
        # Rarer class is positive; ties go to the lexicographically smaller token.
        pos_token = min(distinct, key=lambda tok: (counts[tok], tok))

    labels = [tok == pos_token for tok in tokens]
    return Dataset(features, labels)


def stratified_split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split into train/test subsets preserving per-class proportions.

    Per class, the train share is round-half-up of fraction * class size,
    clamped so both splits keep at least one case of each class. Row order
    within each split follows the original dataset. Deterministic per seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must lie strictly between 0 and 1")
    rng = random.Random(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for positive in (True, False):
        members = np.flatnonzero(ds.labels == positive).tolist()
        if len(members) < 2:
            raise DatasetError("each class needs at least two cases to split")
        rng.shuffle(members)
        n_train = math.floor(train_fraction * len(members) + 0.5)
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.extend(members[:n_train])
        test_idx.extend(members[n_train:])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


def minmax_fit(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Return per-feature (min, max) vectors for min-max scaling."""
    return ds.features.min(axis=0), ds.features.max(axis=0)


def minmax_apply(ds: Dataset, mins: np.ndarray, maxs: np.ndarray) -> Dataset:
    """Scale features to [0, 1] with the given bounds; zero-range features map to 0."""
    span = np.asarray(maxs, dtype=np.float64) - np.asarray(mins, dtype=np.float64)
    safe = np.where(span > 0.0, span, 1.0)
    scaled = (ds.features - mins) / safe
    scaled = np.where(span > 0.0, scaled, 0.0)
    return Dataset(scaled, ds.labels)


def synthetic_blobs(n_cases: int, imbalance: int, seed: int) -> list[tuple[float, float, str]]:
    """Generate two overlapping 2-D Gaussian blobs with a 1:imbalance class ratio.

    Returns shuffled (x0, x1, label) rows with labels "pos" (minority, centred
    at (1, 1)) and "neg" (majority, at (0, 0)), both with spread 2.
    Deterministic per seed. The classes stay heavily overlapped so the
    trade-off front stays long; widely separated blobs collapse the front to
    a few near-perfect classifiers, which makes diversity comparisons
    meaningless.
    """
    if n_cases < 2 or imbalance < 1:
        raise ValueError("need n_cases >= 2 and imbalance >= 1")
    rng = random.Random(seed)
    n_pos = max(1, math.floor(n_cases / (1 + imbalance) + 0.5))
    classes = [("pos", 1.0)] * n_pos + [("neg", 0.0)] * (n_cases - n_pos)
    rows = [(rng.gauss(centre, 2.0), rng.gauss(centre, 2.0), label) for label, centre in classes]
    rng.shuffle(rows)
    return rows


def write_synthetic_csv(path, n_cases: int, imbalance: int, seed: int) -> None:
    """Write a synthetic blob dataset as CSV with header x0,x1,label."""
    rows = synthetic_blobs(n_cases, imbalance, seed)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "x1", "label"])
        for x0, x1, label in rows:
            writer.writerow([repr(x0), repr(x1), label])
