import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cellang.analysis import (ContingencyTable, build_report,
                              contingency_from_outcomes,
                              export_symbol_distribution,
                              identification_accuracy,
                              load_symbol_distribution, majority_symbols,
                              mutual_information_bits, symbols_used_fraction,
                              write_report)
from cellang.errors import ContractError
from cellang.game import RoundOutcome


def outcome(correct=True, symbol=0, label="a"):
    return RoundOutcome(loss=0.5, receiver_guess=0, correct=correct,
                        symbol_index=symbol, target_label=label)


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
        assert identification_accuracy([outcome(True)] * 10) == 1.0

    def test_half(self):
        outs = [outcome(True), outcome(False), outcome(False), outcome(True)]
        assert identification_accuracy(outs) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            identification_accuracy([])


class TestSymbolsUsedFraction:
    def test_basic(self):
        outs = [outcome(symbol=s) for s in (3, 3, 7, 42)]
        assert symbols_used_fraction(outs, 100) == 0.03

    def test_single_symbol(self):
        assert symbols_used_fraction([outcome(symbol=9)] * 50, 100) == 0.01

    def test_all_symbols(self):
        outs = [outcome(symbol=s) for s in range(100)]
        assert symbols_used_fraction(outs, 100) == 1.0


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
        outs = ([outcome(symbol=1, label="a")] * 3
                + [outcome(symbol=2, label="b")] * 5)
        table = contingency_from_outcomes(outs, ["a", "b"], 4)
        assert table.total == 8
        assert list(table.counts.sum(axis=1)) == [3, 5]

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
        outs = [outcome(symbol=int(rng.integers(10)),
                        label=["a", "b"][int(rng.integers(2))])
                for _ in range(1000)]
        path = tmp_path / "symbols.csv"
        table = export_symbol_distribution(outs, path, labels=["a", "b"],
                                           vocab_size=10)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1001
        assert table.total == 1000
        back = load_symbol_distribution(path, ["a", "b"], 10)
        assert np.array_equal(back.counts, table.counts)
        matrix = (tmp_path / "symbols_contingency.csv").read_text()
        assert matrix.count("\n") == 3  # header + one row per class

    def test_report_file_mirrors_fields(self, tmp_path):
        outs = ([outcome(True, symbol=1, label="a")] * 4
                + [outcome(False, symbol=2, label="b")] * 4)
        report = build_report(outs, ["a", "b"], 4)
        path = tmp_path / "report.txt"
        write_report(report, path)
        text = path.read_text()
        for key in ("identification_accuracy", "symbols_used_fraction",
                    "mutual_information_bits", "majority_symbol.a",
                    "purity.b", "contingency.a"):
            assert key + "=" in text
        assert "identification_accuracy=0.5" in text
