import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cellang.analysis import (ContingencyTable, build_report, contingency,
                              export_symbol_distribution,
                              identification_accuracy, majority_symbols,
                              mutual_information_bits, symbols_used_fraction,
                              write_report)
from cellang.errors import ContractError
from cellang.game import RoundOutcome


def outcomes(symbols, classes=None, correct=None, labels=("a", "b")):
    """A columnar outcome of len(symbols) rounds; `classes` are indices
    into `labels` (default all 0), `correct` defaults to all True."""
    n = len(symbols)
    return RoundOutcome(
        loss=np.full(n, 0.5), receiver_guess=np.zeros(n, dtype=np.int64),
        correct=np.array([True] * n if correct is None else correct),
        symbol_index=np.array(symbols, dtype=np.int64),
        target_index=np.array([0] * n if classes is None else classes,
                              dtype=np.int64),
        labels=list(labels))


def mi_oracle(counts):
    """Direct summation over joint cells, pure python."""
    total = sum(sum(row) for row in counts)
    mi = 0.0
    for i, row in enumerate(counts):
        pc = sum(row) / total
        for j, n in enumerate(row):
            if n == 0:
                continue
            ps = sum(r[j] for r in counts) / total
            p = n / total
            mi += p * math.log2(p / (pc * ps))
    return mi


class TestIdentificationAccuracy:
    def test_all_correct(self):
        assert identification_accuracy(outcomes([0] * 10)) == 1.0

    def test_half(self):
        outs = outcomes([0] * 4, correct=[True, False, False, True])
        accuracy = identification_accuracy(outs)
        assert accuracy == 0.5 and type(accuracy) is float

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            identification_accuracy(outcomes([]))


class TestSymbolsUsedFraction:
    def test_basic(self):
        fraction = symbols_used_fraction(outcomes([3, 3, 7, 42]), 100)
        assert fraction == 0.03 and type(fraction) is float

    def test_single_symbol(self):
        assert symbols_used_fraction(outcomes([9] * 50), 100) == 0.01

    def test_all_symbols(self):
        assert symbols_used_fraction(outcomes(range(100)), 100) == 1.0


class TestMajoritySymbols:
    def test_clear_majority(self):
        counts = np.zeros((1, 10), dtype=int)
        counts[0, 5] = 9
        counts[0, 8] = 1
        out = majority_symbols(ContingencyTable(["a"], counts))
        assert out["a"] == (5, 0.9)

    def test_tie_breaks_to_lowest_index(self):
        counts = np.zeros((1, 10), dtype=int)
        counts[0, [2, 4, 6, 8]] = 1
        out = majority_symbols(ContingencyTable(["a"], counts))
        assert out["a"] == (2, 0.25)

    def test_single_count(self):
        counts = np.zeros((1, 10), dtype=int)
        counts[0, 7] = 1
        assert majority_symbols(ContingencyTable(["a"], counts))["a"] == (7, 1.0)

    def test_empty_row_names_class(self):
        counts = np.zeros((2, 4), dtype=int)
        counts[0, 0] = 3
        with pytest.raises(ContractError, match="'b'"):
            majority_symbols(ContingencyTable(["a", "b"], counts))


class TestMutualInformation:
    def test_perfect_bijection(self):
        counts = np.eye(5, dtype=int) * 20
        table = ContingencyTable(list("abcde"), counts)
        assert abs(mutual_information_bits(table) - math.log2(5)) < 1e-12

    def test_independent_joint(self):
        counts = np.outer([10, 30], [5, 15]).astype(int)
        table = ContingencyTable(["a", "b"], counts)
        assert abs(mutual_information_bits(table)) < 1e-12

    def test_small_table_against_oracle(self):
        counts = np.array([[4, 0], [1, 3]])
        table = ContingencyTable(["a", "b"], counts)
        assert abs(mutual_information_bits(table)
                   - mi_oracle(counts.tolist())) < 1e-12

    def test_random_tables_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            v = int(rng.integers(2, 9))
            counts = rng.integers(0, 10, size=(k, v))
            counts[:, 0] += 1  # keep every row nonempty
            table = ContingencyTable([str(i) for i in range(k)], counts)
            assert abs(mutual_information_bits(table)
                       - mi_oracle(counts.tolist())) < 1e-12

    def test_bounded_by_entropies(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.integers(0, 20, size=(4, 6)) + 1
            table = ContingencyTable(list("abcd"), counts)
            p = counts / counts.sum()
            hc = -np.sum(p.sum(axis=1) * np.log2(p.sum(axis=1)))
            hs = -np.sum(p.sum(axis=0) * np.log2(p.sum(axis=0)))
            mi = mutual_information_bits(table)
            assert -1e-12 <= mi <= min(hc, hs) + 1e-12

    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=8),
                      elements=st.integers(0, 50)))
    def test_bounded_by_log_of_smaller_side(self, counts):
        assume(counts.sum() > 0)
        k, v = counts.shape
        mi = mutual_information_bits(
            ContingencyTable([str(i) for i in range(k)], counts))
        assert -1e-12 <= mi <= math.log2(min(k, v)) + 1e-12

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 10, size=(4, 7)) + 1
        base = mutual_information_bits(ContingencyTable(list("abcd"), counts))
        shuffled = counts[rng.permutation(4)][:, rng.permutation(7)]
        assert abs(mutual_information_bits(
            ContingencyTable(list("abcd"), shuffled)) - base) < 1e-12


class TestContingency:
    def test_counts_and_row_sums(self):
        table = contingency([0] * 3 + [1] * 5, [1] * 3 + [2] * 5, ["a", "b"],
                            4)
        assert table.total == 8
        assert list(table.counts.sum(axis=1)) == [3, 5]
        assert table.counts[0, 1] == 3 and table.counts[1, 2] == 5

    def test_matches_loop_over_rounds(self):
        # Reference: one increment per round, the loop the bincount replaced.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k, v = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            n = int(rng.integers(0, 200))
            classes, symbols = rng.integers(k, size=n), rng.integers(v, size=n)
            expected = np.zeros((k, v), dtype=np.int64)
            for c, s in zip(classes, symbols):
                expected[c, s] += 1
            labels = [str(i) for i in range(k)]
            table = contingency(classes, symbols, labels, v)
            assert table.labels == labels
            assert np.array_equal(table.counts, expected)

    @pytest.mark.parametrize("symbol", [-1, 4])
    def test_symbol_out_of_range_rejected(self, symbol):
        with pytest.raises(ContractError):
            contingency([1, 0], [0, symbol], ["a", "b"], 4)

    def test_report_rejects_other_class_order(self):
        with pytest.raises(ContractError, match="classes"):
            build_report(outcomes([0, 1]), ["b", "a"], 4)

    def test_purity_invariant_under_symbol_relabeling(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 10, size=(3, 6)) + 1
        table = ContingencyTable(list("abc"), counts)
        base = majority_symbols(table)
        perm = rng.permutation(6)
        relabeled = ContingencyTable(list("abc"), counts[:, perm])
        out = majority_symbols(relabeled)
        for label in base:
            assert out[label][1] == base[label][1]
            assert perm[out[label][0]] == base[label][0] or \
                counts[ord(label) - ord("a"), perm[out[label][0]]] == \
                counts[ord(label) - ord("a"), base[label][0]]


class TestExport:
    def test_row_counts_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        outs = outcomes(rng.integers(10, size=1000),
                        classes=rng.integers(2, size=1000))
        path = tmp_path / "symbols.csv"
        table = export_symbol_distribution(outs, path, ["a", "b"], 10)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1001
        assert lines[1:] == ["%s,%d" % (o.target_label, o.symbol_index)
                             for o in outs]
        assert table.total == 1000
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["class", "symbol_index"]
        back = contingency([["a", "b"].index(c) for c, _ in rows],
                           [int(v) for _, v in rows], ["a", "b"], 10)
        assert np.array_equal(back.counts, table.counts)
        matrix = (tmp_path / "symbols_contingency.csv").read_text()
        assert matrix.count("\n") == 3  # header + one row per class

    def test_report_file_mirrors_fields(self, tmp_path):
        outs = outcomes([1] * 4 + [2] * 4, classes=[0] * 4 + [1] * 4,
                        correct=[True] * 4 + [False] * 4)
        report = build_report(outs, ["a", "b"], 4)
        path = tmp_path / "report.txt"
        write_report(report, path)
        text = path.read_text()
        for key in ("identification_accuracy", "symbols_used_fraction",
                    "mutual_information_bits", "majority_symbol.a",
                    "purity.b", "contingency.a"):
            assert key + "=" in text
        assert "identification_accuracy=0.5" in text
