"""Emergent-language diagnostics over evaluation logs: accuracy, vocabulary
usage, symbol-class association and mutual information."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class ContingencyTable:
    labels: list          # class order (rows)
    counts: np.ndarray    # (K, V) nonnegative integers

    @property
    def total(self):
        return int(self.counts.sum())


def contingency(label_index, symbol_index, labels, vocab_size):
    """The table of rounds given by their class indices into `labels` and
    their symbols, counted by one np.bincount of label * V + symbol."""
    k, symbol_index = len(labels), np.asarray(symbol_index, dtype=np.int64)
    if ((symbol_index < 0) | (symbol_index >= vocab_size)).any():
        raise ContractError("symbol index outside [0, %d)" % vocab_size)
    codes = np.asarray(label_index, dtype=np.int64) * vocab_size + symbol_index
    counts = np.bincount(codes, minlength=k * vocab_size)
    return ContingencyTable(list(labels), counts.reshape(k, vocab_size))


def _outcome_table(outcomes, labels, vocab_size):
    if list(outcomes.labels) != list(labels):
        raise ContractError("outcome classes differ from %s" % list(labels))
    return contingency(outcomes.target_index, outcomes.symbol_index, labels,
                       vocab_size)


@dataclass
class LanguageReport:
    identification_accuracy: float
    symbols_used_fraction: float
    majority_symbols: dict      # label -> (symbol index, purity)
    mutual_information_bits: float
    contingency: ContingencyTable


def identification_accuracy(outcomes):
    if not outcomes:
        raise ContractError("no outcomes")
    return int(np.count_nonzero(outcomes.correct)) / len(outcomes)


def symbols_used_fraction(outcomes, vocab_size):
    if not outcomes:
        raise ContractError("no outcomes")
    return len(np.flatnonzero(np.bincount(outcomes.symbol_index))) / vocab_size


def majority_symbols(table):
    """Per class: the most frequent symbol (lowest index on ties) and its
    share of the class row."""
    counts = table.counts
    row_sums = counts.sum(axis=1)
    if not row_sums.all():
        raise ContractError("class %r has no logged rounds"
                            % table.labels[int(np.argmin(row_sums))])
    best = counts.argmax(axis=1)
    purity = counts[np.arange(len(best)), best] / row_sums
    return dict(zip(table.labels, zip(best.tolist(), purity.tolist())))


def mutual_information_bits(table):
    """I(class; symbol) in bits; zero joint cells contribute nothing."""
    total = table.counts.sum()
    if total == 0:
        raise ContractError("contingency table is empty")
    p = table.counts / total
    pc = p.sum(axis=1)
    ps = p.sum(axis=0)
    nz = p > 0
    denom = np.outer(pc, ps)
    return float(np.sum(p[nz] * np.log2(p[nz] / denom[nz])))


def build_report(outcomes, labels, vocab_size):
    table = _outcome_table(outcomes, labels, vocab_size)
    return LanguageReport(
        identification_accuracy=identification_accuracy(outcomes),
        symbols_used_fraction=symbols_used_fraction(outcomes, vocab_size),
        majority_symbols=majority_symbols(table),
        mutual_information_bits=mutual_information_bits(table),
        contingency=table,
    )


def write_report(report, path):
    """Flat key=value text mirroring the report fields."""
    lines = [
        "identification_accuracy=%r" % report.identification_accuracy,
        "symbols_used_fraction=%r" % report.symbols_used_fraction,
        "mutual_information_bits=%r" % report.mutual_information_bits,
    ]
    for label, (sym, purity) in report.majority_symbols.items():
        lines.append("majority_symbol.%s=%d" % (label, sym))
        lines.append("purity.%s=%r" % (label, purity))
    for i, label in enumerate(report.contingency.labels):
        lines.append("contingency.%s=%s" % (
            label, ",".join(str(v) for v in report.contingency.counts[i])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _contingency_path(path):
    base, dot, ext = str(path).rpartition(".")
    return (base + "_contingency." + ext) if dot else str(path) + "_contingency"


def export_symbol_distribution(outcomes, path, labels, vocab_size):
    """Long-form `class,symbol_index` rows (one per round) for external
    violin/strip plots, plus the class-by-symbol count matrix alongside."""
    table = _outcome_table(outcomes, labels, vocab_size)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "symbol_index"])
        writer.writerows(zip(map(labels.__getitem__,
                                 outcomes.target_index.tolist()),
                             outcomes.symbol_index.tolist()))
    with open(_contingency_path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class"] + ["s%d" % v for v in range(vocab_size)])
        for label, row in zip(labels, table.counts.tolist()):
            writer.writerow([label] + row)
    return table

