import csv
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cellang import data
from cellang.cli import main
from cellang.data import (DEFAULT_COUNTS, DEFAULT_LABELS, SPLIT_FRACTIONS,
                          Dataset, SyntheticSpec, generate_synthetic,
                          load_table, save_table, standardize,
                          stratified_split)
from cellang.errors import ContractError, DataError


def make_dataset(counts, labels, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(sum(counts), dim)),
                   np.repeat(np.array(labels, dtype=str), counts), list(labels))


def index_dataset(counts):
    """A table whose one feature is the row index, so rows name themselves."""
    labels = ["c%d" % i for i in range(len(counts))]
    return Dataset(np.arange(sum(counts), dtype=np.float64)[:, None],
                   np.repeat(np.array(labels), counts), labels)


# Field texts where numpy's C reader and the row loop (csv.reader and
# float()) could part: numbers float() reads and numpy does not, or the
# other way round, non-finite and extreme values, whitespace, and the
# characters csv treats specially.
ODD_FEATURES = ["1_0", "\uff11", " 1 ", "\t2\t", "1\u3000", "1e500", "-inf",
                "nan", "", "5e-324", "2.2250738585072011e-308",
                "0." + "1234567890" * 5 + "12345", "0x10", "1 2", "+.5",
                "-0.0", "#1", "\x1c1", "1\x1d", "\x1e1", "1\x1f", "1\x0b",
                "1e", "infinity"]


def _quoted(field):
    return '"%s"' % field.replace('"', '""')


@st.composite
def table_texts(draw, per_class=0):
    """The text of a `label,f00,...` table: in half the draws well formed,
    with finite numbers, quoted and unquoted fields and three line endings;
    in the other half, about one field in six is odd (a label with csv's
    special characters, a feature from ODD_FEATURES, a non-finite number or
    loose text) and one row in ten blank, short or long. With `per_class`,
    that many well-formed rows each of classes a and b come first."""
    n_feat = draw(st.integers(1, 3))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    odd = draw(st.booleans())
    label = st.sampled_from(["a", "b", "CD3"])
    odd_label = st.text('ab,"\r\n #\x1c\u00e9', max_size=4)
    feature = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    odd_feature = st.one_of(st.floats().map(repr), st.sampled_from(ODD_FEATURES),
                            st.text("0123456789.e+- ", min_size=1, max_size=6))

    def field(usual, unusual):
        return draw(unusual if odd and draw(st.integers(0, 5)) == 0
                    else usual)

    lines = [",".join(["label"] + ["f%02d" % i for i in range(n_feat)])]
    lines += [",".join([c] + ["%d.5" % i] * n_feat)
              for i in range(per_class) for c in "ab"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9)) if odd else 3
        if kind == 0:
            lines.append("")
            continue
        width = n_feat + (kind == 1) - (kind == 2)
        fields = [field(label, odd_label)] + [field(feature, odd_feature)
                                              for _ in range(width)]
        lines.append(",".join(_quoted(f) if draw(st.booleans()) else f
                              for f in fields))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, path):
    """What `read(path)` gives: a DataError's message, or the table's
    feature bits, dtype and order, labels with their dtype, and concepts."""
    try:
        ds = read(path)
    except DataError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.dtype, ds.features.tobytes(),
            ds.features.flags.c_contiguous, ds.labels.dtype,
            ds.labels.tolist(), ds.concept_set)


def _read_rows(path):
    """The table through load_table's row loop alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        return data._load_rows(fh, path)


def _bulk_outcome(path):
    """_load_bulk's table as _outcome gives it, or None where it refuses
    the table and load_table leaves it to the row loop."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _outcome(lambda _: data._load_bulk(fh, path, None), path)
    except Exception:
        return None


def _write_table(path, text, encoding):
    path.write_bytes(text.encode(encoding, errors="replace"))


def _check_same_as_row_loop(text, encoding, field_limit):
    """load_table gives the row loop's table or its DataError message for
    `text`, read under `field_limit` as the csv field limit; so does the bulk
    path, where it accepts the table."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_table(path, text, encoding)
            rows = _outcome(_read_rows, path)
            assert _outcome(load_table, path) == rows
            assert _bulk_outcome(path) in (None, rows)
    finally:
        csv.field_size_limit(old_limit)


# (text, encoding, csv field limit): blank lines, line endings, quoting,
# widths and each of ODD_FEATURES in an otherwise good table, one at a
# time; then fields that span lines or pass a small field limit.
EDGE_TABLES = [(t, "utf-8", 131072) for t in [
    "label,f00\na,1.0\n\nb,2.0\n", "label,f00\na,1.0\n\n",
    "label,f00\r\na,1.0\r\nb,2.0\r\n", "label,f00\ra,1.0\rb,2.0\r",
    'label,f00\n"a,b",1.0\n"a""b",2.0\n"a\nb",3.0\n"a\r\nb",4.0\n',
    'label,f00\n"a\n\nb",1.0\n', 'label,f00\na"b,1.0\n"a"b,2.0\n',
    "label,f00\n#a,1.0\n", "label,f00\n", "label,f00\na,1.0,2.0\n",
    "label,f00,f01\na,1.0\n", "label,f00\na,1.0\n,2.0\n",
    "label,f00\na,1.0\n   \n"] + [
    "label,f00\na,1.0\nb,%s\n" % f for f in ODD_FEATURES]] + [
    ("label,f00\nN\u00e9gatif,1.0\n", "latin-1", 131072),
    ('label,f00\n"%s\n%s",1.0\n' % ("x" * 20, "x" * 20), "utf-8", 24),
    ('label,f00\na,"1.0%s\n"\n' % (" " * 20), "utf-8", 24),
    ("label,f00\n%s,1.0\n" % ("a" * 25), "utf-8", 24),
    ("label,f00\n%s,1.0\n" % ("a" * 24), "utf-8", 24)]


class TestLoadTable:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,f00,f01\na,1.0,2.0\nb,3.5,-1.0\na,0.0,0.25\n")
        ds = load_table(path)
        assert len(ds) == 3
        assert ds.concept_set == ["a", "b"]
        assert np.array_equal(ds.features[1], [3.5, -1.0])
        assert list(ds.labels) == ["a", "b", "a"]

    def test_nan_feature_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,f00\na,1.0\nb,nan\n")
        with pytest.raises(DataError, match="row 3"):
            load_table(path)

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,f00\na,oops\n")
        with pytest.raises(DataError, match="row 2"):
            load_table(path)

    def test_empty_label_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,f00\na,1.0\n,2.0\nb,3.0\n")
        with pytest.raises(DataError, match="distinct and non-empty"):
            load_table(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("cls,f00\na,1.0\n")
        with pytest.raises(DataError, match="label"):
            load_table(path)

    def test_no_feature_column_rejected(self, tmp_path):
        # Else it loads as an (N, 0) table, whose width of 0 `cellang train`
        # would report as a config error.
        path = tmp_path / "t.csv"
        path.write_text("label\na\nb\n")
        with pytest.raises(DataError, match="t.csv: no feature column"):
            load_table(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("label,f00\na,1.0\nNégatif,2.0\n".encode("latin-1"))
        with pytest.raises(DataError, match="t.csv: not UTF-8"):
            load_table(path)

    def test_feature_dim_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,f00,f01\na,1.0,2.0\n")
        with pytest.raises(DataError):
            load_table(path, feature_dim=5)

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = make_dataset((5, 5), ("a", "b"), seed=1)
        path = tmp_path / "rt.csv"
        save_table(ds, path)
        back = load_table(path)
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.features, back.features)

    def test_field_over_csv_limit_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("label,f00\n%s,1.0\n" % ("a" * 200000))
        with pytest.raises(DataError, match="big.csv: line 2: field larger"):
            load_table(path)

    @pytest.mark.parametrize("rows, error", [
        ("a,1.0\nb,2.5\n", None), ("a,1.0\nb,oops\n", "row 3 has a non-numeric")])
    def test_pipe_read_once(self, rows, error):
        # A pipe cannot be read twice, so it goes through the row loop alone.
        read_end, write_end = os.pipe()
        os.write(write_end, ("label,f00\n" + rows).encode("utf-8"))
        os.close(write_end)
        try:
            path = "/dev/fd/%d" % read_end
            if error is None:
                ds = load_table(path)
                assert ds.features.tolist() == [[1.0], [2.5]]
            else:
                with pytest.raises(DataError, match=error):
                    load_table(path)
        finally:
            os.close(read_end)

    def test_default_table_read_in_bulk(self, tmp_path):
        # The generated table takes the bulk path, with the row loop's bits.
        path = tmp_path / "cells.csv"
        save_table(generate_synthetic(SyntheticSpec()), path)
        bulk = _bulk_outcome(path)
        assert bulk is not None
        assert bulk == _outcome(load_table, path)
        assert bulk == _outcome(_read_rows, path)

    @pytest.mark.parametrize("text, encoding, field_limit", EDGE_TABLES)
    def test_edge_table_same_as_row_loop(self, text, encoding, field_limit):
        _check_same_as_row_loop(text, encoding, field_limit)

    @settings(max_examples=300, deadline=None)
    @given(table_texts(), st.sampled_from(["utf-8", "utf-8", "latin-1"]),
           st.sampled_from([131072, 24]))
    def test_same_as_row_loop(self, text, encoding, field_limit):
        _check_same_as_row_loop(text, encoding, field_limit)

    @settings(max_examples=40, deadline=None)
    @given(table_texts(per_class=8), st.sampled_from(["utf-8", "latin-1"]))
    def test_cli_exit_code(self, text, encoding):
        # The eight rows of each of two classes let some tables train.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _write_table(tmp / "t.csv", text, encoding)
            (tmp / "run.cfg").write_text(
                "game.variant=sender-sees-all\ngame.vocab_size=8\n"
                "game.embed_dim=4\ngame.conv_filters=3\ngame.conv_width=2\n"
                "train.max_epochs=1\ntrain.episodes_per_epoch=4\n")
            assert main(["train", "--config", str(tmp / "run.cfg"),
                         "--data", str(tmp / "t.csv"), "--out",
                         str(tmp / "run"), "--quiet"]) in (0, 2)


class TestStratifiedSplit:
    def test_default_counts_per_class(self):
        ds = make_dataset(DEFAULT_COUNTS, DEFAULT_LABELS)
        train, val, test = stratified_split(ds, seed=0)

        def per_class(split):
            return {c: len(split.by_label(c)) for c in DEFAULT_LABELS}

        assert per_class(train)["CD3"] == 88
        assert per_class(val)["CD3"] == 22
        assert per_class(test)["CD3"] == 28
        assert len(train) == 2640 and len(val) == 660 and len(test) == 825

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = make_dataset(DEFAULT_COUNTS, DEFAULT_LABELS)
        train, val, test = stratified_split(ds, seed=3)
        rows = np.concatenate([s.features for s in (train, val, test)])
        assert len(rows) == 4125
        assert len(np.unique(rows, axis=0)) == 4125
        assert np.array_equal(np.unique(rows, axis=0),
                              np.unique(ds.features, axis=0))

    def test_seed_controls_membership_not_counts(self):
        ds = make_dataset((20, 30), ("a", "b"))
        t0a, v0a, s0a = stratified_split(ds, seed=0)
        t0b, _, _ = stratified_split(ds, seed=0)
        t1, v1, s1 = stratified_split(ds, seed=1)
        assert np.array_equal(t0a.features, t0b.features)
        assert not np.array_equal(t0a.features, t1.features)
        assert (len(t0a), len(v0a), len(s0a)) == (len(t1), len(v1), len(s1))

    def test_small_class_rejected(self):
        # (3, 3, 3) leaves class a without a test record and b without val.
        for counts, labels, split in (((2, 30), ("a", "b"), "val"),
                                      ((3, 3, 3), ("a", "b", "c"), "test")):
            ds = make_dataset(counts, labels)
            with pytest.raises(DataError, match="'a'.* %s split" % split):
                stratified_split(ds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_split_properties(self, counts, seed):
        ds = index_dataset(counts)
        try:
            splits = stratified_split(ds, seed=seed)
        except DataError:
            assert min(counts) < 10  # a class large enough fills every split
            return
        assert min(counts) >= 3
        rows = np.sort(np.concatenate([s.features[:, 0] for s in splits]))
        assert np.array_equal(rows, np.arange(len(ds)))  # disjoint, exhaustive
        for split, again in zip(splits, stratified_split(ds, seed=seed)):
            assert np.array_equal(split.features, again.features)
            assert np.array_equal(split.labels, again.labels)
        for fraction, split in zip(SPLIT_FRACTIONS, splits):
            assert abs(len(split) - fraction * len(ds)) < 1
            assert all(len(split.by_label(c)) for c in ds.concept_set)


class TestStandardize:
    def test_train_moments(self):
        ds = make_dataset((40, 40), ("a", "b"), seed=2)
        train, val, _ = stratified_split(ds, seed=0)
        strain, sval = standardize(train, val)
        x = strain.features
        assert np.all(np.abs(x.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(x.std(axis=0) - 1) < 1e-10)

    def test_constant_feature_centered_only(self):
        features = np.stack([np.full(10, 3.0), np.arange(10.0)], axis=1)
        ds = Dataset(features, np.array(["a"] * 10), ["a"])
        (out,) = standardize(ds)
        x = out.features
        assert np.all(x[:, 0] == 0.0)

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                            st.integers(1, 5)),
                      elements=st.integers(-50, 50).map(float)))
    def test_train_mean_zero_and_no_second_pass(self, features):
        # Integer values keep every non-constant column's std >= 0.18.
        ds = Dataset(features, np.array(["a"] * len(features)), ["a"])
        (out,) = standardize(ds)
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-9)
        with pytest.raises(ContractError):
            standardize(out)

    def test_double_standardize_forbidden(self):
        ds = make_dataset((10,), ("a",))
        (out,) = standardize(ds)
        with pytest.raises(ContractError):
            standardize(out)

    def test_statistics_come_from_train_only(self):
        spec = SyntheticSpec(n_per_class=(30, 30, 30, 30, 60),
                             class_separation=5.0)
        train, val, _ = stratified_split(generate_synthetic(spec), seed=0)
        strain, _ = standardize(train, val)
        train_mean = train.features.mean(axis=0)
        val_mean = val.features.mean(axis=0)
        assert not np.allclose(train_mean, val_mean)
        assert np.array_equal(strain.standardization[0], train_mean)


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(n_per_class=(5, 5, 5, 5, 10), seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_default_counts_match_cohort(self):
        ds = generate_synthetic(SyntheticSpec(n_per_class=DEFAULT_COUNTS))
        assert len(ds) == 4125
        assert len(ds.by_label("Negative")) == 3287

    def test_separated_classes_recoverable_by_nearest_centroid(self):
        spec = SyntheticSpec(n_per_class=(200,) * 5, class_separation=5.0,
                             noise_sigma=1.0, seed=0)
        ds = generate_synthetic(spec)
        centroids = {c: ds.features[ds.by_label(c)].mean(axis=0)
                     for c in ds.concept_set}
        fresh = generate_synthetic(SyntheticSpec(
            n_per_class=(200,) * 5, class_separation=5.0, noise_sigma=1.0,
            seed=99))
        correct = 0
        for row, label in zip(fresh.features, fresh.labels):
            guess = min(centroids,
                        key=lambda c: np.sum((row - centroids[c]) ** 2))
            correct += guess == label
        assert correct / len(fresh) >= 0.99

    def test_delta_zero_classes_indistinguishable(self):
        ds = generate_synthetic(SyntheticSpec(
            n_per_class=(500,) * 5, class_separation=0.0, seed=1))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in ds.concept_set])
        # All class means sit near the origin relative to the noise scale.
        assert np.all(np.abs(means) < 0.2)

    def test_invalid_spec(self):
        with pytest.raises(DataError):
            SyntheticSpec(n_per_class=(0, 5, 5, 5, 5))
        with pytest.raises(DataError):
            SyntheticSpec(noise_sigma=0.0)
        for bad in (dict(noise_sigma=float("nan")),
                    dict(class_separation=float("inf")),
                    dict(feature_dim=-1), dict(seed=-1), dict(feature_dim=3),
                    dict(labels=("a", "b", "c", "d", "a")),
                    dict(labels=("a", "b", "", "d", "e"))):
            with pytest.raises(DataError):
                SyntheticSpec(**bad)

    @pytest.mark.parametrize("labels, dim, width", [
        (("a", "b", "c"), 6, 3),  # 6 // 2: each of a and b gets a block
        (DEFAULT_LABELS, 28, 7)])  # the default table
    def test_each_class_raised_on_its_own_block(self, labels, dim, width):
        spec = SyntheticSpec(n_per_class=(2000,) * len(labels), labels=labels,
                             feature_dim=dim, class_separation=4.0, seed=0)
        ds = generate_synthetic(spec)
        for c, label in enumerate(labels):
            expected = np.zeros(dim)
            if c < len(labels) - 1:  # the last (null) class is raised nowhere
                expected[width * c:width * (c + 1)] = 4.0
            mean = ds.features[ds.by_label(label)].mean(axis=0)
            assert np.abs(mean - expected).max() < 0.1, label
