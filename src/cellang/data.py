"""Feature tables: CSV ingestion, stratified splitting, standardization and
a synthetic Gaussian stand-in for the private cell cohort."""

import csv
import hashlib
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError

DEFAULT_LABELS = ("CD3", "CD20", "CD68", "Claudin1", "Negative")
DEFAULT_COUNTS = (138, 132, 177, 391, 3287)
SPLIT_NAMES = ("train", "val", "test")
SPLIT_FRACTIONS = (0.64, 0.16, 0.20)


@dataclass
class Dataset:
    """One split: an (N, F) float64 feature matrix and its (N,) labels."""
    features: np.ndarray
    labels: np.ndarray
    concept_set: list
    standardization: tuple = None  # (mean, std) fitted on a training split
    # The table a split was cut from (by stratified_split); fingerprint
    # hashes it, so an edit to any of its rows shows.
    source: "Dataset" = field(default=None, repr=False, compare=False)
    _pools: tuple = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.labels)

    def class_rows(self):
        """(order, starts, sizes): row indices grouped by class in concept
        order, table order within a class; class i owns
        order[starts[i]:starts[i] + sizes[i]]. Cached."""
        if self._pools is None:
            pools = [np.flatnonzero(self.labels == c) for c in self.concept_set]
            sizes = np.array([len(p) for p in pools], dtype=np.int64)
            self._pools = (np.concatenate(pools), np.cumsum(sizes) - sizes,
                           sizes)
        return self._pools

    def by_label(self, label):
        """Row indices of one class, in table order."""
        order, starts, sizes = self.class_rows()
        i = self.concept_set.index(label)
        return order[starts[i]:starts[i] + sizes[i]]


@dataclass
class SyntheticSpec:
    n_per_class: tuple = DEFAULT_COUNTS
    labels: tuple = DEFAULT_LABELS
    class_separation: float = 5.0
    noise_sigma: float = 1.0
    seed: int = 0
    feature_dim: int = 28

    def __post_init__(self):
        if len(self.n_per_class) != len(self.labels):
            raise DataError("n_per_class and labels lengths differ")
        _check_labels(self.labels)
        if any(n < 1 for n in self.n_per_class):
            raise DataError("all class counts must be positive")
        if not 0 < self.noise_sigma < math.inf:
            raise DataError("noise_sigma must be finite and > 0")
        if not 0 <= self.class_separation < math.inf:
            raise DataError("class_separation must be finite and >= 0")
        min_dim = max(1, len(self.labels) - 1)  # a block per non-null class
        if self.feature_dim < min_dim:
            raise DataError("feature_dim must be >= %d" % min_dim)
        if self.seed < 0:
            raise DataError("seed must be >= 0")


def _check_labels(labels):
    """DataError for an empty or repeated class label."""
    if "" in labels or len(set(labels)) < len(labels):
        raise DataError("class labels must be distinct and non-empty, got %r"
                        % (tuple(labels),))


def _feature_columns(n):
    return ["f%02d" % i for i in range(n)]


def _csv_rows(fh, path):
    """The rows of `fh`, read one at a time; bytes that are not UTF-8, or a
    field longer than `csv.field_size_limit()`, are a DataError that names
    the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataError("%s: not UTF-8 text: %s" % (path, exc))
    except csv.Error as exc:
        raise DataError("%s: line %d: %s" % (path, reader.line_num, exc))


def load_table(path, feature_dim=None):
    """Read a `label,f00,...` CSV into a Dataset.

    The concept set is the labels in order of first appearance; an empty
    label, a header with no feature column, a field longer than
    `csv.field_size_limit()`, or bytes that are not UTF-8, is a DataError.
    With `feature_dim`, a table of another width is a DataError too.

    The rows are parsed in bulk by numpy's C reader (`_load_bulk`). A table
    it refuses, and a file that cannot be read twice (a pipe), go through
    the row loop (`_load_rows`), which accepts the same tables, gives the
    same bits and names the bad row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.seekable():
            try:
                return _load_bulk(fh, path, feature_dim)
            except Exception:  # refused in bulk: the row loop decides
                fh.seek(0)
        return _load_rows(fh, path, feature_dim)


def _header_width(rows, path, feature_dim):
    """The feature count of the header, the first of `rows`; a DataError
    for a missing or malformed header."""
    try:
        header = next(rows)
    except StopIteration:
        raise DataError("%s: empty file" % path)
    if not header or header[0] != "label":
        raise DataError("%s: first column must be 'label'" % path)
    n_feat = len(header) - 1
    if n_feat == 0:
        raise DataError("%s: no feature column after 'label'" % path)
    if header[1:] != _feature_columns(n_feat):
        raise DataError("%s: feature columns must be f00..f%02d"
                        % (path, n_feat - 1))
    if feature_dim is not None and n_feat != feature_dim:
        raise DataError("%s: expected %d features, file has %d"
                        % (path, feature_dim, n_feat))
    return n_feat


def _load_bulk(fh, path, feature_dim):
    """The table from one np.loadtxt call over the rows after the header,
    with each label mapped to its code in order of first appearance; raises
    on any table the row loop might read otherwise."""
    limit = csv.field_size_limit()
    codes, n_lines = {}, 0

    def lines():
        """The lines of `fh`, counted; refuses one longer than the csv field
        limit, or one holding a character that numpy strips from a number as
        whitespace and float() refuses (U+001C to U+001F)."""
        nonlocal n_lines
        for line in fh:
            if (len(line) > limit or "\x1c" in line or "\x1d" in line
                    or "\x1e" in line or "\x1f" in line):
                raise ValueError("line left to the row loop")
            n_lines += 1
            yield line

    n_feat = _header_width(_csv_rows(fh, path), path, feature_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # say, loadtxt's "no data"
        table = np.loadtxt(
            lines(), delimiter=",", comments=None, quotechar='"', ndmin=2,
            converters={0: lambda s: codes.setdefault(s, len(codes))})
    # A row per line: numpy skips a blank line, which the row loop refuses,
    # and a record that spans lines could hold a field over the csv limit.
    if table.shape != (n_lines, n_feat + 1) or not np.isfinite(table).all():
        raise ValueError("table left to the row loop")
    seen = list(codes)
    _check_labels(seen)
    labels = np.array(seen, dtype=str)[table[:, 0].astype(np.intp)]
    return Dataset(np.ascontiguousarray(table[:, 1:]), labels, seen)


def _load_rows(fh, path, feature_dim=None):
    """load_table's row loop over the open table `fh`: csv.reader and
    float() on every value; the only source of the row-numbered
    DataErrors."""
    reader = _csv_rows(fh, path)
    n_feat = _header_width(reader, path, feature_dim)
    values, labels, seen = array("d"), [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != n_feat + 1:
            raise DataError("%s: row %d has %d columns, expected %d"
                            % (path, lineno, len(row), n_feat + 1))
        label = row[0]
        try:
            feats = [float(v) for v in row[1:]]
        except ValueError:
            raise DataError("%s: row %d has a non-numeric feature"
                            % (path, lineno))
        if not all(math.isfinite(v) for v in feats):
            raise DataError("%s: row %d has a non-finite feature"
                            % (path, lineno))
        if label not in seen:
            seen.append(label)
        values.extend(feats)
        labels.append(label)
    _check_labels(seen)
    features = np.array(values, dtype=np.float64).reshape(len(labels), n_feat)
    return Dataset(features, np.array(labels, dtype=str), seen)


def save_table(dataset, path):
    """Write a Dataset as CSV; float repr keeps round-trips bit-exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + _feature_columns(dataset.features.shape[1]))
        for label, row in zip(dataset.labels.tolist(), dataset.features):
            writer.writerow([label] + [repr(v) for v in row.tolist()])


def _apportion(quotas, total):
    """Integer counts summing to `total`: floors plus largest-remainder
    top-up (ties broken by position)."""
    floors = [math.floor(q) for q in quotas]
    deficit = total - sum(floors)
    order = sorted(range(len(quotas)),
                   key=lambda i: (-(quotas[i] - floors[i]), i))
    counts = list(floors)
    i = 0
    while deficit > 0:
        counts[order[i % len(order)]] += 1
        i += 1
        deficit -= 1
    return counts


def stratified_split(dataset, seed=0):
    """Per-class stratified train/val/test partition by SPLIT_FRACTIONS.

    Train and val take floor(fraction * class size) per class; the handful
    of seats left by flooring are topped up largest-remainder so the global
    split sizes hit the exact fractions, and each class's leftover goes to
    test. Splits are disjoint and exhaustive. A class that would get no
    record in some split is a DataError.
    """
    counts = {c: len(dataset.by_label(c)) for c in dataset.concept_set}
    if not counts:
        raise DataError("dataset has no classes")
    n_total = len(dataset)
    totals = _apportion([f * n_total for f in SPLIT_FRACTIONS], n_total)
    classes = dataset.concept_set
    train_f, val_f, _ = SPLIT_FRACTIONS
    train_c = _apportion([train_f * counts[c] for c in classes], totals[0])
    # Cap val so train + val never exceeds the class size.
    val_c = _apportion([val_f * counts[c] for c in classes], totals[1])
    for i, c in enumerate(classes):
        overflow = train_c[i] + val_c[i] - counts[c]
        if overflow > 0:
            val_c[i] -= overflow
        sizes = (train_c[i], val_c[i], counts[c] - train_c[i] - val_c[i])
        if 0 in sizes:
            raise DataError("class %r (%d records) gets none in the %s split"
                            % (c, counts[c], SPLIT_NAMES[sizes.index(0)]))
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for i, c in enumerate(classes):
        rows = dataset.by_label(c)[rng.permutation(counts[c])]
        a, b = train_c[i], train_c[i] + val_c[i]
        for part, chunk in zip(parts, (rows[:a], rows[a:b], rows[b:])):
            part.append(chunk)
    return tuple(Dataset(dataset.features[rows], dataset.labels[rows],
                         list(classes), standardization=dataset.standardization,
                         source=dataset)
                 for rows in map(np.concatenate, parts))


def fingerprint(*splits):
    """SHA-256 hex digest of the splits' features, labels and concept sets,
    then of each distinct table they were cut from (`Dataset.source`)."""
    sources = {id(ds.source): ds.source for ds in splits
               if ds.source is not None}
    digest = hashlib.sha256()
    for ds in splits + tuple(sources.values()):
        digest.update(json.dumps([ds.features.shape, ds.labels.tolist(),
                                  ds.concept_set]).encode("utf-8"))
        # Hashed through the buffer protocol, so a C-ordered little-endian
        # matrix is not copied.
        digest.update(np.ascontiguousarray(ds.features, "<f8"))
    return digest.hexdigest()


def standardize(train, *others):
    """Per-feature z-scoring fitted on the training split only; returns a
    tuple of the standardized splits, in the order given.

    Near-constant features (std < 1e-12) are centered but not divided.
    Re-standardizing an already standardized split is a contract violation.
    """
    for ds in (train,) + others:
        if ds.standardization is not None:
            raise ContractError("dataset is already standardized")
    if len(train) == 0:
        raise ContractError("training split is empty")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    divisor = np.where(std < 1e-12, 1.0, std)
    return tuple(Dataset((ds.features - mean) / divisor, ds.labels,
                         list(ds.concept_set),
                         standardization=(mean.copy(), std.copy()),
                         source=ds.source)
                 for ds in (train,) + others)


def generate_synthetic(spec):
    """Gaussian mixture stand-in: with K classes and F features, class
    c < K - 1 elevates feature block [wc, wc + w) by the separation delta,
    where w = F // (K - 1) (7 for the default 5 classes and 28 features);
    the final (null) class has an all-zero mean, as do features past the
    last block. Deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    width = spec.feature_dim // max(len(spec.labels) - 1, 1)
    blocks = []
    for c, n in enumerate(spec.n_per_class):
        mu = np.zeros(spec.feature_dim)
        if c < len(spec.labels) - 1:
            mu[c * width:(c + 1) * width] = spec.class_separation
        blocks.append(rng.normal(mu, spec.noise_sigma,
                                 size=(n, spec.feature_dim)))
    labels = np.repeat(np.array(spec.labels, dtype=str), spec.n_per_class)
    return Dataset(np.concatenate(blocks), labels, list(spec.labels))
