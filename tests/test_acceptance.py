"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
live). The training-based criteria share cached runs via session fixtures."""

import math
import time

import numpy as np
import pytest

from cellang import autodiff as ad
from cellang.agents import (GameConfig, init_params, named_params,
                            receiver_forward, sender_forward)
from cellang.analysis import (ContingencyTable, build_report,
                              identification_accuracy, majority_symbols,
                              mutual_information_bits, symbols_used_fraction)
from cellang.autodiff import Tape, Tensor, backward
from cellang.cli import main
from cellang.data import (DEFAULT_COUNTS, DEFAULT_LABELS, SyntheticSpec,
                          generate_synthetic, standardize, stratified_split)
from cellang.game import RoundOutcome
from cellang.training import TrainConfig, evaluate, train

import conftest
from conftest import grads_close, numerical_grad

MARKER_CLASSES = DEFAULT_LABELS[:4]


def verdict(num, name, ok, detail=""):
    line = ("ACCEPTANCE %2d %-24s %s  %s"
            % (num, name, "PASS" if ok else "FAIL", detail))
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


@pytest.fixture(scope="session")
def delta5_splits():
    spec = SyntheticSpec(n_per_class=DEFAULT_COUNTS, class_separation=5.0,
                         noise_sigma=1.0, seed=0)
    return standardize(*stratified_split(generate_synthetic(spec), seed=0))


@pytest.fixture(scope="session")
def trained_runs(delta5_splits):
    """Cache of (variant, seed) -> (test accuracy, outcomes, elapsed)."""
    train_s, val_s, test_s = delta5_splits
    cache = {}

    def run(variant, seed):
        if (variant, seed) not in cache:
            cfg = GameConfig(variant=variant)
            t0 = time.monotonic()
            sender, receiver, _ = train(train_s, val_s, cfg,
                                        TrainConfig(seed=seed))
            elapsed = time.monotonic() - t0
            outcomes = evaluate(sender, receiver, test_s, cfg, 1000, seed=100)
            cache[(variant, seed)] = (identification_accuracy(outcomes),
                                      outcomes, elapsed)
        return cache[(variant, seed)]

    return run


def test_criterion_1_gradient_correctness(small_cfg):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    ok = True

    def close(analytic, x0, f, rtol=1e-4):
        return grads_close(analytic, numerical_grad(f, x0), rtol=rtol,
                           atol=1e-6)

    for _ in range(50):
        # linear
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        x0 = rng.normal(size=3)
        probe5 = rng.normal(size=5)

        def f_lin(x):
            tape = Tape()
            return float(ad.dot(tape, ad.linear(tape, Tensor(x), Tensor(w),
                                                Tensor(b)),
                                Tensor(probe5)).data[0])

        tape = Tape()
        xt = Tensor(x0)
        loss = ad.dot(tape, ad.linear(tape, xt, Tensor(w), Tensor(b)),
                      Tensor(probe5))
        backward(tape, loss)
        ok &= close(xt.grad, x0, f_lin)

        # linear on a (4, 3) row stack, scored by a (4, 5) x (5,) dot
        xs0 = rng.normal(size=(4, 3))
        probe4 = rng.normal(size=4)

        def f_rows(x, probe):
            tape = Tape()
            scores = ad.dot(tape, ad.linear(tape, x, Tensor(w), Tensor(b)),
                            probe)
            return tape, ad.dot(tape, scores, Tensor(probe4))

        xt, pt = Tensor(xs0), Tensor(probe5)
        backward(*f_rows(xt, pt))
        ok &= close(xt.grad, xs0, lambda x: float(
            f_rows(Tensor(x), Tensor(probe5))[1].data[0]))
        ok &= close(pt.grad, probe5, lambda p: float(
            f_rows(Tensor(xs0), Tensor(p))[1].data[0]))

        # conv1d
        xc0 = rng.normal(size=(2, 7))
        kern = rng.normal(size=(2, 2, 3))
        bc = rng.normal(size=2)
        probe_c = rng.normal(size=2 * 5)

        def f_conv(x):
            tape = Tape()
            out = ad.conv1d(tape, Tensor(x), Tensor(kern), Tensor(bc))
            flat = ad.reshape(tape, out, (-1,))
            return float(ad.dot(tape, flat, Tensor(probe_c)).data[0])

        tape = Tape()
        xt = Tensor(xc0)
        out = ad.conv1d(tape, xt, Tensor(kern), Tensor(bc))
        loss = ad.dot(tape, ad.reshape(tape, out, (-1,)), Tensor(probe_c))
        backward(tape, loss)
        ok &= close(xt.grad, xc0, f_conv)

        # sigmoid, log_softmax, dot, nll chained on one vector
        x0 = rng.normal(size=6)
        target = int(rng.integers(6))

        def f_chain(x):
            tape = Tape()
            s = ad.sigmoid(tape, Tensor(x))
            lp = ad.log_softmax(tape, s)
            return float(ad.nll_loss(tape, lp, target).data[0])

        tape = Tape()
        xt = Tensor(x0)
        loss = ad.nll_loss(tape, ad.log_softmax(tape, ad.sigmoid(tape, xt)),
                           target)
        backward(tape, loss)
        ok &= close(xt.grad, x0, f_chain)

        # gumbel softmax with frozen noise
        # (each evaluation seeds a fresh generator, so all see one noise)
        x0 = rng.normal(size=5)
        noise_seed = int(rng.integers(2 ** 32))
        probe_g = rng.normal(size=5)

        def f_gs(x):
            tape = Tape()
            y = ad.gumbel_softmax(tape, Tensor(x), 0.7,
                                  np.random.default_rng(noise_seed))
            return float(ad.dot(tape, y, Tensor(probe_g)).data[0])

        tape = Tape()
        xt = Tensor(x0)
        loss = ad.dot(tape, ad.gumbel_softmax(
            tape, xt, 0.7, np.random.default_rng(noise_seed)), Tensor(probe_g))
        backward(tape, loss)
        ok &= close(xt.grad, x0, f_gs)

        # the ops on a leading batch axis: linear on (2, 4, 3), conv1d on
        # (3, 2, 7), and sigmoid -> log_softmax -> nll over three rows
        xb0 = rng.normal(size=(2, 4, 3))
        probe_b = rng.normal(size=2 * 4 * 5)

        def f_lin_batch(x):
            tape = Tape()
            out = ad.reshape(tape, ad.linear(tape, x, Tensor(w),
                                             Tensor(b)), (-1,))
            return tape, ad.dot(tape, out, Tensor(probe_b))

        xt = Tensor(xb0)
        backward(*f_lin_batch(xt))
        ok &= close(xt.grad, xb0,
                    lambda x: float(f_lin_batch(Tensor(x))[1].data[0]))

        xcb0 = rng.normal(size=(3, 2, 7))
        probe_cb = rng.normal(size=3 * 2 * 5)

        def f_conv_batch(x):
            tape = Tape()
            out = ad.conv1d(tape, x, Tensor(kern), Tensor(bc))
            return tape, ad.dot(tape, ad.reshape(tape, out, (-1,)),
                                Tensor(probe_cb))

        xt = Tensor(xcb0)
        backward(*f_conv_batch(xt))
        ok &= close(xt.grad, xcb0,
                    lambda x: float(f_conv_batch(Tensor(x))[1].data[0]))

        xrows0 = rng.normal(size=(3, 6))
        targets = rng.integers(6, size=3)

        def f_chain_batch(x):
            tape = Tape()
            lp = ad.log_softmax(tape, ad.sigmoid(tape, x))
            return tape, ad.nll_loss(tape, lp, targets)

        xt = Tensor(xrows0)
        backward(*f_chain_batch(xt))
        ok &= close(xt.grad, xrows0,
                    lambda x: float(f_chain_batch(Tensor(x))[1].data[0]))

    # full sender -> receiver composite at frozen noise, every parameter
    for instance in range(50):
        sender, receiver = init_params(small_cfg, instance)
        params = named_params(sender, receiver)
        feats = [rng.normal(size=small_cfg.feature_dim)
                 for _ in range(small_cfg.n_concepts)]
        noise_seed = int(rng.integers(2 ** 32))
        target_pos = int(rng.integers(small_cfg.n_concepts))

        def composite_loss():
            tape = Tape()
            symbol, _ = sender_forward(tape, sender, small_cfg, feats,
                                       small_cfg.temperature,
                                       np.random.default_rng(noise_seed))
            lp = receiver_forward(tape, receiver, small_cfg, symbol, feats)
            return tape, ad.nll_loss(tape, lp, target_pos)

        tape, loss = composite_loss()
        backward(tape, loss)
        h = 1e-5
        for name, p in params.items():
            analytic = p.grad.reshape(-1)
            flat = p.data.reshape(-1)
            # Probe a subset of entries for the big output map, all others
            # in full, to stay inside the runtime budget.
            idx = range(flat.size) if flat.size <= 64 else \
                rng.choice(flat.size, size=64, replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = float(composite_loss()[1].data[0])
                flat[i] = orig - h
                fm = float(composite_loss()[1].data[0])
                flat[i] = orig
                num = (fp - fm) / (2 * h)
                ok &= bool(np.isclose(analytic[i], num, rtol=1e-3, atol=1e-6))

    # the same composite over a batch of three rounds: one tape, the loss
    # summed over the rounds, every parameter
    for instance in range(20):
        sender, receiver = init_params(small_cfg, 100 + instance)
        params = named_params(sender, receiver)
        feats = rng.normal(size=(3, small_cfg.n_concepts,
                                 small_cfg.feature_dim))
        noise_seed = int(rng.integers(2 ** 32))
        targets = rng.integers(small_cfg.n_concepts, size=3)

        def batch_loss():
            tape = Tape()
            symbol, _ = sender_forward(tape, sender, small_cfg, feats,
                                       small_cfg.temperature,
                                       np.random.default_rng(noise_seed))
            lp = receiver_forward(tape, receiver, small_cfg, symbol, feats)
            return tape, ad.nll_loss(tape, lp, targets)

        backward(*batch_loss())
        for name, p in params.items():
            analytic = p.grad.reshape(-1)
            flat = p.data.reshape(-1)
            idx = range(flat.size) if flat.size <= 64 else \
                rng.choice(flat.size, size=64, replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = float(batch_loss()[1].data[0])
                flat[i] = orig - h
                fm = float(batch_loss()[1].data[0])
                flat[i] = orig
                num = (fp - fm) / (2 * h)
                ok &= bool(np.isclose(analytic[i], num, rtol=1e-3, atol=1e-6))

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    verdict(1, "gradient-correctness", ok, "%.1fs" % elapsed)


def test_criterion_2_channel_correctness():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        logits = Tensor(rng.normal(scale=4, size=10))
        y = ad.gumbel_softmax(Tape(), logits, 0.8, rng=rng)
        ok &= bool(np.all(y.data >= 0)) and abs(y.data.sum() - 1.0) < 1e-10
    # The hard channel: with no temperature the sender sends the one-hot
    # argmax of its logits, one exact one-hot row per round.
    cfg = GameConfig()
    sender, _ = init_params(cfg, 0)
    inputs = rng.normal(size=(200, cfg.sender_inputs(), cfg.feature_dim))
    symbol, logits = sender_forward(Tape(), sender, cfg, inputs)
    ok &= bool(np.all((symbol.data == 0.0) | (symbol.data == 1.0)))
    ok &= np.array_equal(symbol.data.sum(axis=-1), np.ones(200))
    ok &= np.array_equal(symbol.data.argmax(axis=-1),
                         logits.data.argmax(axis=-1))
    total = np.zeros(10)
    uniform = Tensor(np.zeros(10))
    for _ in range(10000):
        total += ad.gumbel_softmax(Tape(), uniform, 1.0, rng=rng).data
    dev = float(np.max(np.abs(total / 10000 - 0.1)))
    ok &= dev < 0.03
    verdict(2, "channel-correctness", ok, "max mean deviation %.4f" % dev)


def test_criterion_3_chance_baseline(delta5_splits):
    _, _, test_s = delta5_splits
    cfg = GameConfig()
    sender, receiver = init_params(cfg, 0)
    acc = identification_accuracy(
        evaluate(sender, receiver, test_s, cfg, 1000, seed=0))
    ok = 0.16 <= acc <= 0.24
    verdict(3, "chance-baseline", ok, "untrained accuracy %.3f" % acc)


def test_criterion_4_emergence_experiment1(trained_runs):
    acc, _, elapsed = trained_runs("sender-sees-all", 0)
    ok = acc >= 0.90 and elapsed <= 600
    verdict(4, "emergence-exp1", ok,
            "test accuracy %.3f in %.0fs" % (acc, elapsed))


def test_criterion_5_emergence_experiment2(trained_runs):
    acc2, _, _ = trained_runs("sender-sees-target", 0)
    ok = acc2 >= 0.70
    pairs = []
    for seed in (0, 1, 2):
        a1, _, _ = trained_runs("sender-sees-all", seed)
        a2, _, _ = trained_runs("sender-sees-target", seed)
        pairs.append((a1, a2))
    # Both variants saturate near 1.0 on well-separated synthetic data, so
    # "sender-sees-all is the easier game" is only refutable when the
    # restricted variant wins by a clear margin.
    ordering = [a1 >= a2 - 0.02 for a1, a2 in pairs]
    ok &= all(ordering)
    verdict(5, "emergence-exp2", ok,
            "exp2 accuracy %.3f, per-seed (exp1, exp2) %s"
            % (acc2, [(round(a, 3), round(b, 3)) for a, b in pairs]))


def test_criterion_6_language_structure(trained_runs):
    _, outcomes, _ = trained_runs("sender-sees-all", 0)
    report = build_report(outcomes, list(DEFAULT_LABELS), 100)
    purities = {c: report.majority_symbols[c][1] for c in MARKER_CLASSES}
    ok = all(p >= 0.8 for p in purities.values())
    ok &= report.symbols_used_fraction <= 0.2
    ok &= report.mutual_information_bits >= 1.5
    verdict(6, "language-structure", ok,
            "purities %s, used %.3f, MI %.2f bits"
            % ({c: round(p, 2) for c, p in purities.items()},
               report.symbols_used_fraction, report.mutual_information_bits))


def test_criterion_7_split_fidelity():
    spec = SyntheticSpec(n_per_class=DEFAULT_COUNTS, seed=0)
    dataset = generate_synthetic(spec)
    train_s, val_s, test_s = stratified_split(dataset, seed=0)
    cd3 = tuple(len(s.by_label("CD3")) for s in (train_s, val_s, test_s))
    total = sum(len(s) for s in (train_s, val_s, test_s))
    rows = np.concatenate([s.features for s in (train_s, val_s, test_s)])
    distinct = len(np.unique(rows, axis=0))
    ok = cd3 == (88, 22, 28)
    ok &= total == 4125 and distinct == 4125
    ok &= len(test_s) == 825
    verdict(7, "split-fidelity", ok,
            "CD3 %s, test total %d" % (cd3, len(test_s)))


TINY_CONFIG = """\
game.variant=sender-sees-all
game.vocab_size=8
game.embed_dim=4
game.conv_filters=3
game.conv_width=2
train.seed=0
train.max_epochs=4
train.episodes_per_epoch=60
"""


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--counts", "30,30,30", "--labels", "a,b,c",
                 "--feature-dim", "6", "--delta", "4.0",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--quiet"]) == 0
        ev = tmp_path / (name + "_eval")
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(data), "--episodes", "200",
                     "--seed", "3", "--out", str(ev)]) == 0
        outs.append((out, ev))
    histories_match = (outs[0][0] / "history.csv").read_bytes() == \
        (outs[1][0] / "history.csv").read_bytes()
    reports_match = (outs[0][1] / "report.txt").read_bytes() == \
        (outs[1][1] / "report.txt").read_bytes()

    # interrupted-and-resumed run matches the uninterrupted one
    short_cfg = tmp_path / "short.cfg"
    short_cfg.write_text(TINY_CONFIG.replace("max_epochs=4", "max_epochs=2"))
    part = tmp_path / "part"
    assert main(["train", "--config", str(short_cfg), "--data", str(data),
                 "--out", str(part), "--quiet"]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(resumed), "--quiet",
                 "--resume", str(part / "checkpoint.npz")]) == 0
    resume_match = (resumed / "history.csv").read_bytes() == \
        (outs[0][0] / "history.csv").read_bytes()
    ok = histories_match and reports_match and resume_match
    verdict(8, "determinism", ok,
            "history %s, report %s, resume %s"
            % (histories_match, reports_match, resume_match))


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        v = int(rng.integers(3, 12))
        counts = rng.integers(0, 12, size=(k, v))
        counts[:, int(rng.integers(v))] += 1  # nonempty rows
        labels = ["c%d" % i for i in range(k)]
        table = ContingencyTable(labels, counts)

        # brute-force majority per class
        for i, label in enumerate(labels):
            best_sym, best_count = 0, -1
            for s in range(v):
                if counts[i][s] > best_count:
                    best_sym, best_count = s, counts[i][s]
            got = majority_symbols(table)[label]
            ok &= got == (best_sym, best_count / counts[i].sum())

        # brute-force used fraction from a reconstructed outcome log
        classes, symbols = [], []
        for i in range(k):
            for s in range(v):
                classes += [i] * counts[i][s]
                symbols += [s] * counts[i][s]
        n = len(symbols)
        outcomes = RoundOutcome(np.zeros(n), np.zeros(n, dtype=np.int64),
                                np.ones(n, dtype=bool),
                                np.array(symbols, dtype=np.int64),
                                np.array(classes, dtype=np.int64), labels)
        distinct = set()
        for o in outcomes:
            distinct.add(o.symbol_index)
        ok &= symbols_used_fraction(outcomes, v) == len(distinct) / v

        # brute-force MI by direct summation
        total = counts.sum()
        mi = 0.0
        for i in range(k):
            for s in range(v):
                n = counts[i][s]
                if n == 0:
                    continue
                p = n / total
                pc = counts[i].sum() / total
                ps = counts[:, s].sum() / total
                mi += p * math.log2(p / (pc * ps))
        ok &= abs(mutual_information_bits(table) - mi) < 1e-12
    verdict(9, "metric-oracles", ok, "100 random tables")


def test_criterion_10_null_control():
    spec = SyntheticSpec(n_per_class=(50, 50, 50, 50, 200),
                         class_separation=0.0, noise_sigma=1.0, seed=0)
    train_s, val_s, test_s = standardize(
        *stratified_split(generate_synthetic(spec), seed=0))
    cfg = GameConfig()
    sender, receiver, _ = train(train_s, val_s, cfg, TrainConfig(seed=0))
    outcomes = evaluate(sender, receiver, test_s, cfg, 1000, seed=5)
    acc = identification_accuracy(outcomes)
    report = build_report(outcomes, list(DEFAULT_LABELS), 100)
    ok = 0.14 <= acc <= 0.28
    # Note: class-symbol mutual information stays near zero here even when
    # identification accuracy exceeds the band, because agents can describe
    # individual target vectors rather than (absent) class structure.
    verdict(10, "null-control", ok,
            "trained accuracy on noise %.3f (class MI %.3f bits)"
            % (acc, report.mutual_information_bits))


def test_criterion_11_seed_robust_emergence(trained_runs):
    # Criterion 4 on eight seeds: with the default channel temperature no
    # seed may end on the plateau where two classes share one symbol
    # (test accuracy near 0.8).
    accs = [trained_runs("sender-sees-all", seed)[0] for seed in range(8)]
    ok = min(accs) >= 0.90
    verdict(11, "seed-robust-emergence", ok,
            "test accuracy per seed 0-7 %s" % [round(a, 3) for a in accs])
