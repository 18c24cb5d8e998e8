"""CSV loading, validation, stratified splitting, scaling, synthetic data."""

import hashlib
import math
import os
import pickle
import random

import numpy as np
import pytest

from semogp.dataset import (
    Dataset,
    DatasetError,
    load_csv,
    minmax_apply,
    minmax_fit,
    stratified_split,
    synthetic_blobs,
    write_synthetic_csv,
)

from conftest import blob_dataset


def write(path, text):
    path.write_text(text)
    return path


def class_counts(ds):
    n_pos = int(ds.labels.sum())
    return {"positive": n_pos, "negative": ds.n_cases - n_pos}


class TestLoadCsv:
    def test_header_detected_and_skipped(self, tmp_path):
        path = write(tmp_path / "d.csv", "x0,x1,label\n1.0,2.0,pos\n3.0,4.0,neg\n0.5,0.5,neg\n")
        ds = load_csv(path)
        assert ds.n_cases == 3
        assert ds.n_features == 2
        assert ds.features[0].tolist() == [1.0, 2.0]

    def test_headerless_file_keeps_first_row(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,pos\n3.0,4.0,neg\n0.5,0.5,neg\n")
        ds = load_csv(path)
        assert ds.n_cases == 3
        assert ds.features[0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text, n_cases",
        [
            ("1.0,2.0,pos\n3.0,4.0,neg\n0.5,0.5,neg\n2.0,1.0,pos\n4.0,3.0,neg\n", 5),
            ("x0,x1,label\n1.0,2.0,pos\n3.0,4.0,neg\n0.5,0.5,neg\n", 3),
        ],
        ids=["headerless", "header"],
    )
    def test_a_utf8_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, text, n_cases):
        plain = load_csv(write(tmp_path / "plain.csv", text))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = load_csv(tmp_path / "bom.csv")
        assert marked.n_cases == plain.n_cases == n_cases
        assert np.array_equal(marked.features, plain.features)
        assert np.array_equal(marked.labels, plain.labels)

    def test_label_column_zero(self, tmp_path):
        path = write(tmp_path / "d.csv", "pos,1.0,2.0\nneg,3.0,4.0\n")
        ds = load_csv(path, label_column=0)
        assert ds.n_features == 2
        assert ds.features[1].tolist() == [3.0, 4.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing file"):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,pos\n3.0,neg\n")
        with pytest.raises(DatasetError, match="ragged row"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
    def test_non_numeric_feature_cell(self, tmp_path, cell):
        path = write(tmp_path / "d.csv", f"1.0,2.0,pos\n{cell},4.0,neg\n")
        with pytest.raises(DatasetError, match="non-numeric feature cell"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, label_column, message",
        [
            ("x0,x1,label\n1,2,pos\n3,abc,neg\n", -1, "non-numeric feature cell at row 3, column 1: 'abc'"),
            # The first bad cell of a row is the one named.
            ("1,2,pos\nnan,inf,neg\n", -1, "non-numeric feature cell at row 2, column 0: 'nan'"),
            ("1,pos,2\n3,neg,-inf\n", 1, "non-numeric feature cell at row 2, column 2: '-inf'"),
            ("pos,1,2\nneg, ,4\n", 0, "non-numeric feature cell at row 2, column 1: ' '"),
            # Rows are checked in file order, for width and cells alike.
            ("1,2,pos\n1,pos\n1,abc,neg\n", -1, "ragged row 2: expected 3 cells, got 2"),
            ("1,2,pos\nabc,2,neg\n1,neg\n", -1, "non-numeric feature cell at row 2, column 0: 'abc'"),
        ],
    )
    def test_bad_row_messages(self, tmp_path, text, label_column, message):
        path = write(tmp_path / "d.csv", text)
        with pytest.raises(DatasetError) as info:
            load_csv(path, label_column=label_column)
        assert str(info.value) == message

    def test_label_cardinality(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,a\n3,4,b\n5,6,c\n")
        with pytest.raises(DatasetError, match="label cardinality"):
            load_csv(path)

    def test_single_label_token_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,a\n3,4,a\n")
        with pytest.raises(DatasetError, match="label cardinality"):
            load_csv(path)

    def test_positive_defaults_to_rarer_class(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,up\n3,4,down\n5,6,down\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [True, False, False]

    def test_positive_tie_breaks_lexicographically(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,b\n3,4,a\n5,6,a\n7,8,b\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [False, True, True, False]

    def test_explicit_positive_label(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,up\n3,4,down\n5,6,down\n")
        ds = load_csv(path, positive_label="down")
        assert ds.labels.tolist() == [False, True, True]

    def test_explicit_positive_label_absent(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,2,up\n3,4,down\n")
        with pytest.raises(DatasetError, match="not present"):
            load_csv(path, positive_label="sideways")

    def test_reload_is_identical(self, blob_csv):
        # Unchanged bytes are parsed once: the second load returns the same Dataset.
        assert load_csv(blob_csv) is load_csv(blob_csv)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        # 0xff starts no character in UTF-8, the default text encoding.
        path = tmp_path / "d.csv"
        path.write_bytes(b"x0,x1,label\n1.0,2.0,\xffpos\n3.0,4.0,neg\n")
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"cannot decode {path}: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
        )


class TestParseMemo:
    """A file is parsed once while its bytes and the label settings are unchanged."""

    def test_same_length_rewrite_with_restored_mtime_loads_new_values(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,pos\n3.0,4.0,neg\n")
        before = path.stat()
        first = load_csv(path)
        write(path, "5.0,6.0,pos\n7.0,8.0,neg\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        second = load_csv(path)
        assert second is not first
        assert second.features.tolist() == [[5.0, 6.0], [7.0, 8.0]]

    def test_a_failed_parse_is_not_kept(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,pos\n3.0,4.0,neg\n")
        load_csv(path)
        write(path, "1.0,2.0,pos\n3.0,abc,neg\n")
        for _ in range(2):
            with pytest.raises(DatasetError, match="non-numeric feature cell at row 2, column 1: 'abc'"):
                load_csv(path)
        write(path, "1.0,2.0,pos\n3.0,9.0,neg\n")
        assert load_csv(path).features.tolist() == [[1.0, 2.0], [3.0, 9.0]]

    def test_other_label_settings_parse_again(self, tmp_path):
        path = write(tmp_path / "d.csv", "0,5,1.5\n1,6,2.5\n1,5,3.5\n")
        by_first = load_csv(path, label_column=0)
        assert by_first.features.tolist() == [[5.0, 1.5], [6.0, 2.5], [5.0, 3.5]]
        assert by_first.labels.tolist() == [True, False, False]
        by_second = load_csv(path, label_column=1)
        assert by_second is not by_first
        assert by_second.features.tolist() == [[0.0, 1.5], [1.0, 2.5], [1.0, 3.5]]
        assert by_second.labels.tolist() == [False, True, False]
        flipped = load_csv(path, label_column=1, positive_label="5")
        assert flipped is not by_second
        assert flipped.labels.tolist() == [True, False, True]
        assert load_csv(path, label_column=1, positive_label="5") is flipped

    def test_returned_arrays_stay_read_only(self, blob_csv):
        first = load_csv(blob_csv)
        again = load_csv(blob_csv)
        assert again is first
        for array in (again.features, again.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]


class TestDataset:
    def test_features_are_read_only(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.features[0, 0] = 99.0
        with pytest.raises(AttributeError, match="a Dataset is immutable: cannot set 'features'"):
            small_dataset.features = np.zeros_like(small_dataset.features)
        # Copies sent to worker processes stay read-only too.
        copy = pickle.loads(pickle.dumps(small_dataset))
        assert np.array_equal(copy.features, small_dataset.features)
        with pytest.raises(ValueError):
            copy.features[0, 0] = 99.0

    def test_needs_two_cases(self):
        with pytest.raises(DatasetError, match="at least two cases"):
            Dataset([[1.0, 2.0]], [True])

    def test_needs_both_classes(self):
        with pytest.raises(DatasetError, match="zero rows"):
            Dataset([[1.0], [2.0]], [True, True])

    def test_rejects_non_finite(self):
        with pytest.raises(DatasetError, match="finite"):
            Dataset([[1.0], [float("inf")]], [True, False])

    def test_subset_preserves_order_and_tokens(self, tmp_path):
        path = write(tmp_path / "d.csv", "1,1,yes\n2,2,no\n3,3,no\n4,4,yes\n")
        ds = load_csv(path)
        sub = ds.subset([0, 2])
        assert sub.features[:, 0].tolist() == [1.0, 3.0]
        assert sub.labels.tolist() == [ds.labels[0], ds.labels[2]]


class TestLayout:
    """Feature matrices are Fortran-ordered, so each column is contiguous, and read-only."""

    @staticmethod
    def assert_layout(ds):
        assert ds.features.flags.f_contiguous
        assert not ds.features.flags.writeable
        assert ds.features[:, 1].flags.c_contiguous

    def test_after_init_from_any_layout(self):
        rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        labels = [True, False, False]
        for features in (rows, np.array(rows), np.asfortranarray(rows), np.array(rows)[:, ::-1]):
            ds = Dataset(features, labels)
            self.assert_layout(ds)
            assert np.array_equal(ds.features, np.asarray(features))

    def test_after_subset_scaling_and_pickling(self, blob_csv):
        ds = load_csv(blob_csv)
        self.assert_layout(ds)
        train, test = stratified_split(ds, 0.7, 3)
        self.assert_layout(train)
        self.assert_layout(test)
        self.assert_layout(ds.subset(range(ds.n_cases - 1, -1, -3)))
        mins, maxs = minmax_fit(train)
        self.assert_layout(minmax_apply(test, mins, maxs))
        copy = pickle.loads(pickle.dumps(train))
        self.assert_layout(copy)
        assert np.array_equal(copy.features, train.features)


def reference_split(ds, train_fraction, seed):
    """stratified_split with its class member lists built row by row, as it was."""
    rng = random.Random(seed)
    train_idx, test_idx = [], []
    for positive in (True, False):
        members = [i for i, lab in enumerate(ds.labels) if bool(lab) == positive]
        rng.shuffle(members)
        n_train = math.floor(train_fraction * len(members) + 0.5)
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.extend(members[:n_train])
        test_idx.extend(members[n_train:])
    return sorted(train_idx), sorted(test_idx)


class TestStratifiedSplit:
    def test_matches_the_row_by_row_member_lists(self):
        for n_cases, imbalance in ((20, 1), (60, 3), (200, 9)):
            ds = blob_dataset(n_cases=n_cases, imbalance=imbalance, seed=n_cases)
            for seed in range(10):
                for fraction in (0.3, 0.7):
                    train_idx, test_idx = reference_split(ds, fraction, seed)
                    train, test = stratified_split(ds, fraction, seed)
                    assert np.array_equal(train.features, ds.features[train_idx])
                    assert np.array_equal(test.features, ds.features[test_idx])
                    assert np.array_equal(train.labels, ds.labels[train_idx])

    def test_fifty_fifty_counts(self):
        # 10 positive / 90 negative at fraction 0.5 -> 5 + 45 in train.
        ds = blob_dataset(n_cases=100, imbalance=9, seed=1)
        assert class_counts(ds) == {"positive": 10, "negative": 90}
        train, test = stratified_split(ds, 0.5, seed=7)
        assert class_counts(train) == {"positive": 5, "negative": 45}
        assert class_counts(test) == {"positive": 5, "negative": 45}

    def test_union_is_the_whole_dataset(self, small_dataset):
        train, test = stratified_split(small_dataset, 0.7, seed=3)
        rows = lambda d: sorted(map(tuple, d.features.tolist()))
        assert rows(train) + rows(test) != []
        merged = sorted(rows(train) + rows(test))
        assert merged == rows(small_dataset)
        assert train.n_cases + test.n_cases == small_dataset.n_cases

    def test_each_split_keeps_both_classes(self):
        ds = blob_dataset(n_cases=20, imbalance=9, seed=2)
        train, test = stratified_split(ds, 0.9, seed=0)
        for part in (train, test):
            assert class_counts(part)["positive"] >= 1
            assert class_counts(part)["negative"] >= 1

    def test_deterministic_per_seed(self, small_dataset):
        # Equal but distinct Datasets: the split keeps nothing between calls.
        a_train, a_test = stratified_split(small_dataset, 0.7, seed=11)
        b_train, b_test = stratified_split(small_dataset, 0.7, seed=11)
        assert a_train is not b_train and a_test is not b_test
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_seed_changes_membership(self):
        ds = blob_dataset(n_cases=100, imbalance=3, seed=5)
        a, _ = stratified_split(ds, 0.5, seed=1)
        b, _ = stratified_split(ds, 0.5, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_fraction_bounds(self, small_dataset):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DatasetError, match="strictly between"):
                stratified_split(small_dataset, bad, seed=0)

    def test_tiny_class_rejected(self):
        ds = Dataset([[1.0], [2.0], [3.0]], [True, False, False])
        with pytest.raises(DatasetError, match="at least two cases to split"):
            stratified_split(ds, 0.5, seed=0)

    def test_split_rows_keep_original_order(self):
        ds = blob_dataset(n_cases=40, imbalance=3, seed=9)
        train, _ = stratified_split(ds, 0.5, seed=4)
        # Subset indices are sorted, so train rows appear in dataset order.
        positions = [
            np.flatnonzero((ds.features == row).all(axis=1))[0] for row in train.features
        ]
        assert positions == sorted(positions)


class TestMinMax:
    def test_scales_to_unit_interval(self):
        ds = Dataset([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]], [True, False, False])
        mins, maxs = minmax_fit(ds)
        scaled = minmax_apply(ds, mins, maxs)
        assert scaled.features.min() == 0.0
        assert scaled.features.max() == 1.0
        assert scaled.features[1].tolist() == [0.5, 0.5]

    def test_zero_range_feature_maps_to_zero(self):
        ds = Dataset([[7.0, 1.0], [7.0, 2.0]], [True, False])
        mins, maxs = minmax_fit(ds)
        scaled = minmax_apply(ds, mins, maxs)
        assert scaled.features[:, 0].tolist() == [0.0, 0.0]

    def test_test_split_can_leave_unit_interval(self):
        train = Dataset([[0.0], [1.0]], [True, False])
        test = Dataset([[2.0], [-1.0]], [True, False])
        mins, maxs = minmax_fit(train)
        scaled = minmax_apply(test, mins, maxs)
        assert scaled.features[:, 0].tolist() == [2.0, -1.0]


class TestSynthetic:
    def test_imbalance_nine_to_one(self):
        rows = synthetic_blobs(200, 9, seed=0)
        n_pos = sum(1 for _, _, lab in rows if lab == "pos")
        assert n_pos == 20
        assert len(rows) - n_pos == 180

    def test_minority_never_empty(self):
        rows = synthetic_blobs(5, 100, seed=0)
        assert sum(1 for _, _, lab in rows if lab == "pos") == 1

    def test_deterministic(self):
        assert synthetic_blobs(50, 3, seed=4) == synthetic_blobs(50, 3, seed=4)
        assert synthetic_blobs(50, 3, seed=4) != synthetic_blobs(50, 3, seed=5)

    def test_rows_match_pin(self):
        # Recorded before both classes were drawn in one loop: same draws, same order.
        digest = hashlib.sha256(repr(synthetic_blobs(200, 9, 0)).encode()).hexdigest()
        assert digest == "7914f7e05d4f03b340ed069785396a338ab90999286a740f168217f443b16089"

    def test_written_csv_round_trips(self, tmp_path):
        path = tmp_path / "synth.csv"
        write_synthetic_csv(path, 100, 9, seed=1)
        ds = load_csv(path)
        assert class_counts(ds) == {"positive": 10, "negative": 90}
        rows = synthetic_blobs(100, 9, seed=1)
        by_col = np.array([[x0, x1] for x0, x1, _ in rows])
        assert np.array_equal(ds.features, by_col)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_blobs(1, 9, seed=0)
        with pytest.raises(ValueError):
            synthetic_blobs(10, 0, seed=0)
