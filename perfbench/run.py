"""Benchmark of cellang's training and evaluation, end to end and per layer.

Run from the repository root. The one command that runs every workload
(each in its own process) and prints every end-to-end metric by name and
unit, with the failed/attempted count of each workload:

    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

The traced run, which prints the per-layer metrics instead:

    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

`--workload` also takes a single workload name (train-all, train-target,
eval-all); then the last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`, and the lines
before it give the host context and each metric in readable form.

Each workload run is a closed loop: one caller in one process makes the
next call only when the previous one has returned. The workload seed
generates the synthetic table (`data.generate_synthetic`, acceptance size:
5 classes, 4125 rows, 28 features, delta 5), which is written to CSV and
read back through `data.load_table`; it also seeds the split and
`TrainConfig.seed`. The game uses the `GameConfig` defaults and training
the `TrainConfig` defaults, with a checkpoint written every epoch.

A run repeats one cycle of three phases for `--seconds` (at least
MIN_CYCLES times; a cycle starts only if it is expected to end in time,
and the time left after the last cycle goes to more eval calls).
Interleaving the phases lets every metric sample the whole run, so a
burst of host slowness weighs on all of them alike instead of on
whichever phase it overlapped.

- train: one `training.train` call. `train_rounds_per_s` is the median
  over calls of a call's training rounds divided by its wall time
  (validation and checkpoint writes included).
- setup, SETUPS_PER_CYCLE times: `load_table`, `stratified_split` and
  `standardize`, then `init_params` for the train workloads or
  `load_checkpoint` for eval-all. `setup_s` is the median.
- eval: `training.evaluate` of the checkpoint's best parameters on the
  test split, then `analysis.build_report`, `write_report` and
  `export_symbol_distribution`, repeated until the workload's share of
  the cycle is spent. `eval_rounds_per_s` is the median over calls of a
  call's rounds divided by its wall time. Each metric's sample count is
  printed with it.

`peak_rss_mb` is the peak resident memory of the process. The end-to-end
numbers come from this untraced run. The traced run (`--trace 1`) wraps
the program's public functions by name from `tracing.py`, records spans in
memory and derives the per-layer metrics from their self times, plus
direct forward/backward timings of single autodiff ops. A per-layer metric
that cannot be measured at some commit, because the function it binds to
is gone or changed, is listed as absent and does not fail the run.

Every call is checked; a call that raises or fails a check counts as
failed: training losses finite, no early stop, best validation accuracy
at least the workload's floor (chance is 0.2), the same history and the
same evaluation outcomes on every repeat, contingency totals equal to the
rounds evaluated, and class/symbol mutual information in [0, log2 K]
up to float rounding (MI_TOLERANCE).
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CYCLES = 2            # two identical train calls check determinism
SETUPS_PER_CYCLE = 3
TRACED_EVAL_CALLS = 3
SAMPLED = ("setup_s", "train_rounds_per_s", "eval_rounds_per_s")
EVAL_ROUNDS = 1000        # per evaluate call, on the 825-row test split
# MI is a float sum of p*log2(p/q) terms: a sender that emits one symbol for
# every class has MI 0 mathematically but can read -3e-16. The bound checks
# use the same tolerance as the program's own MI tests.
MI_TOLERANCE = 1e-12
CHILD_TIMEOUT_S = 175


@dataclass(frozen=True)
class Workload:
    variant: str
    epochs: int                 # per train call; early stopping never fires
    episodes_per_epoch: object  # None -> training split size (2640 rounds)
    train_share: float          # share of each cycle spent in the train call
    min_val_accuracy: object    # floor on a call's best validation accuracy
    checkpoint_in_setup: bool   # eval-all loads the checkpoint in setup


WORKLOADS = {
    # The sender's 75-long convolution, its 1420->100 output linear and the
    # per-round tape walk in autodiff.backward do most of the work; Adam over
    # 142k output weights is about 8%. A batched engine or a linear/Adam
    # change shows most here. Short sender-sees-all runs can sit on a plateau
    # where the sender merges classes (val accuracy 0.6 or 0.8: seed 28 stays
    # at 0.57-0.59 for four epochs), so the floor is twice chance, not 0.8.
    "train-all": Workload("sender-sees-all", 2, None, 0.65, 0.4, False),
    # 15-long sender sequence with a 220->100 output: per-round fixed Python
    # cost dominates (episode sampling, tape construction, the receiver's
    # 5-candidate linear+dot loop). A sender-only or Adam-only gain shows
    # little here; removing per-round overhead shows most.
    # Four epochs: three can end just under 0.8 (seed 249103477 reads 0.38,
    # 0.745, 0.795, then 1.0), while the fourth epoch reached at least 0.995
    # on all 30 random seeds tried.
    "train-target": Workload("sender-sees-target", 4, None, 0.65, 0.8, False),
    # Hard-symbol evaluation of a sender-sees-all checkpoint plus the
    # analysis report: the same agents/autodiff forward code with no Gumbel
    # noise, no tape walk and no Adam. A change that speeds backward by
    # adding forward work shows here as a loss. The checkpoint comes from a
    # short seeded train run (640 rounds), whose throughput is dominated by
    # per-epoch fixed costs (validation and the checkpoint write).
    "eval-all": Workload("sender-sees-all", 1, 640, 0.25, None, True),
}

END_TO_END_UNITS = {"setup_s": "s", "train_rounds_per_s": "1/s",
                    "eval_rounds_per_s": "1/s", "peak_rss_mb": "MB"}

OPS = ("linear_embed", "conv1d", "sigmoid", "linear_out", "gumbel_softmax",
       "receiver_score", "nll_loss")
AUTODIFF_OPS = ("linear", "conv1d", "sigmoid", "log_softmax", "dot",
                "nll_loss", "concat", "reshape", "gumbel_softmax")

PER_LAYER_UNITS = {
    "data.load_table_s": "s",
    "data.split_standardize_s": "s",
    "agents.init_params_s": "s",
    "training.checkpoint_load_s": "s",
    "agents.sender_forward_us": "us",
    "agents.receiver_forward_us": "us",
    "game.sample_episode_us": "us",
    "game.play_round_self_us": "us",
    "autodiff.backward_us": "us",
    "autodiff.tape_nodes_per_round": "count",
    "autodiff.op_calls_per_round": "count",
    "training.adam_step_us": "us",
    "training.adam_steps": "count",
    "training.validation_s": "s",
    "training.checkpoint_save_s": "s",
    "training.checkpoint_bytes": "bytes",
    "training.evaluate_us_per_round": "us",
    "analysis.build_report_s": "s",
    "analysis.export_s": "s",
    "trace.overhead_share": "ratio",
    "trace.coverage": "ratio",
}
for _op in OPS:
    PER_LAYER_UNITS["op.%s.fwd_us" % _op] = "us"
    PER_LAYER_UNITS["op.%s.bwd_us" % _op] = "us"


def import_program():
    """Import cellang from this checkout's src/, never from elsewhere."""
    if not (SRC / "cellang" / "__init__.py").is_file():
        sys.exit("perfbench: %s/cellang not found; run from a full checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    import cellang
    from cellang import agents, analysis, autodiff, data, game, training
    if Path(cellang.__file__).resolve().parent != SRC / "cellang":
        sys.exit("perfbench: imported cellang from %s, not %s"
                 % (cellang.__file__, SRC))
    return dict(agents=agents, analysis=analysis, autodiff=autodiff,
                data=data, game=game, training=training)


# --------------------------------------------------------------- host ----

def _blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return "unknown", None
    name = "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))
    # The BLAS library numpy loaded, as this process maps it.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return name, int(getattr(handle, fn)())
    return name, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_context():
    blas, threads = _blas_info()
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": threads,
            "cpu": _cpu_model()}


def host_speed_probe_ms():
    """Fixed Python + numpy work, median of five timings. Reported next to
    the metrics to show host drift; no metric is rescaled by it."""
    a = np.random.default_rng(0).random((96, 96))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(50000):
            acc += i * i
        for _ in range(40):
            a = np.tanh(a @ a.T / 96.0)
        times.append((time.perf_counter() - t0) * 1e3)
    return tracing.median(times)


# ------------------------------------------------------------ workload ----

def mi_in_range(mi, n_classes):
    """Whether mutual information (bits) lies in [0, log2 K], up to
    MI_TOLERANCE at either end."""
    return -MI_TOLERANCE <= mi <= math.log2(n_classes) + MI_TOLERANCE


class Checks:
    """Attempted and failed calls of one run, with the reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def call(self, what, fn):
        """Run fn, which returns (result, problem); a raised exception or a
        problem string fails the call. Returns result (None on exception)."""
        self.attempted += 1
        try:
            result, problem = fn()
        except Exception:  # boundary: record and keep measuring
            self.failures.append("%s raised:\n%s" % (what, traceback.format_exc()))
            return None
        if problem:
            self.failures.append("%s: %s" % (what, problem))
        return result


class WorkloadRun:
    def __init__(self, name, seed, mods, workdir):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.m = mods
        self.workdir = workdir
        self.table = workdir / "cells.csv"
        self.checkpoint = workdir / "checkpoint.npz"
        self.game_cfg = mods["agents"].GameConfig(variant=self.wl.variant)
        self.train_cfg = mods["training"].TrainConfig(
            max_epochs=self.wl.epochs,
            episodes_per_epoch=self.wl.episodes_per_epoch,
            early_stop_patience=self.wl.epochs + 1,
            seed=seed)
        self.checks = Checks()
        self.first_history = None
        self.first_outcomes = None
        self.splits = None          # (train, val, test) from the last setup
        self.agents = None          # (sender, receiver) the eval phase uses

    def write_table(self):
        data = self.m["data"]
        data.save_table(data.generate_synthetic(data.SyntheticSpec(seed=self.seed)),
                        self.table)

    # setup -----------------------------------------------------------

    def split(self):
        data = self.m["data"]
        table = data.load_table(self.table)
        return data.standardize(*data.stratified_split(table, seed=self.seed))

    def _setup_once(self):
        t0 = time.perf_counter()
        self.splits = self.split()
        if self.wl.checkpoint_in_setup:
            self.agents = self.m["training"].load_checkpoint(self.checkpoint).best()
        else:  # timed as set-up cost only; train() initialises its own
            self.m["agents"].init_params(self.game_cfg, self.seed)
        wall = time.perf_counter() - t0
        sizes = tuple(len(s) for s in self.splits)
        problem = None
        if sizes != (2640, 660, 825):
            problem = "split sizes %s, expected (2640, 660, 825)" % (sizes,)
        return wall, problem

    def setup_once(self):
        return self.checks.call("setup", self._setup_once)

    # train -----------------------------------------------------------

    def _train_once(self):
        train_split, val_split, _ = self.splits
        t0 = time.perf_counter()
        _, _, history = self.m["training"].train(
            train_split, val_split, self.game_cfg, self.train_cfg,
            checkpoint_path=self.checkpoint)
        wall = time.perf_counter() - t0
        per_epoch = self.wl.episodes_per_epoch or len(train_split)
        rounds = per_epoch * len(history)
        problem = None
        losses = [row["train_loss"] for row in history]
        best = max((row["val_accuracy"] for row in history), default=0.0)
        if len(history) != self.wl.epochs:
            problem = "ran %d epochs, expected %d" % (len(history), self.wl.epochs)
        elif not all(math.isfinite(v) for v in losses):
            problem = "non-finite train_loss in %s" % losses
        elif self.wl.min_val_accuracy and best < self.wl.min_val_accuracy:
            problem = "best validation accuracy %.3f < %.2f" % (
                best, self.wl.min_val_accuracy)
        elif self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            problem = "history differs from the first call with the same seed"
        return (rounds, wall), problem

    def train_once(self):
        return self.checks.call("train", self._train_once)

    # eval ------------------------------------------------------------

    def load_trained(self):
        if self.wl.checkpoint_in_setup:  # setup loaded it already
            return

        def load():
            return self.m["training"].load_checkpoint(self.checkpoint).best(), None
        self.agents = self.checks.call("load checkpoint", load)

    def _eval_once(self):
        training, analysis = self.m["training"], self.m["analysis"]
        test_split = self.splits[2]
        labels = list(test_split.concept_set)
        vocab = self.game_cfg.vocab_size
        sender, receiver = self.agents
        t0 = time.perf_counter()
        outcomes = training.evaluate(sender, receiver, test_split, self.game_cfg,
                                     EVAL_ROUNDS, self.seed)
        report = analysis.build_report(outcomes, labels, vocab)
        analysis.write_report(report, self.workdir / "report.txt")
        exported = analysis.export_symbol_distribution(
            outcomes, self.workdir / "symbols.csv", labels, vocab)
        wall = time.perf_counter() - t0
        signature = [(o.loss, o.receiver_guess, o.correct, o.symbol_index,
                      o.target_label) for o in outcomes]
        mi = report.mutual_information_bits
        problem = None
        if len(outcomes) != EVAL_ROUNDS:
            problem = "%d outcomes for %d rounds" % (len(outcomes), EVAL_ROUNDS)
        elif report.contingency.total != EVAL_ROUNDS or exported.total != EVAL_ROUNDS:
            problem = "contingency totals %d/%d != %d rounds" % (
                report.contingency.total, exported.total, EVAL_ROUNDS)
        elif not np.array_equal(report.contingency.counts, exported.counts):
            problem = "exported contingency differs from the report's"
        elif not mi_in_range(mi, len(labels)):
            problem = "mutual information %r outside [0, log2 K]" % mi
        elif self.first_outcomes is None:
            self.first_outcomes = signature
        elif signature != self.first_outcomes:
            problem = "outcomes differ from the first call with the same seed"
        return (len(outcomes), wall), problem

    def eval_once(self):
        return self.checks.call("eval", self._eval_once)

    def cycle(self, samples, setups, eval_ratio, min_eval_calls=1):
        """One train call, then `setups` setups, then eval calls until they
        have taken eval_ratio times the train call's wall time. Appends
        each passing call's (rounds, wall) or setup wall to samples."""
        trained = self.train_once()
        if trained is not None:
            samples["train_rounds_per_s"].append(trained)
        for _ in range(setups):
            wall = self.setup_once()
            if wall is not None:
                samples["setup_s"].append(wall)
        self.load_trained()
        budget = eval_ratio * (trained[1] if trained is not None else 0.0)
        self.evaluate_for(samples, budget, min_eval_calls)
        return trained

    def evaluate_for(self, samples, budget, min_calls=0):
        """Eval calls until they have taken `budget` seconds (at least
        min_calls of them), each passing call's (rounds, wall) appended to
        samples."""
        if self.agents is None:  # no checkpoint to evaluate
            return
        start = time.perf_counter()
        calls = 0
        while calls < min_calls or time.perf_counter() - start < budget:
            calls += 1
            evaluated = self.eval_once()
            if evaluated is not None:
                samples["eval_rounds_per_s"].append(evaluated)


def measure(run, seconds):
    """The untraced run: every end-to-end metric, and the sample count of
    each median."""
    samples = {name: [] for name in SAMPLED}
    eval_ratio = (1.0 - run.wl.train_share) / run.wl.train_share
    run.splits = run.split()
    start = time.perf_counter()
    cycles = 0
    # Start a cycle only if one more of average length still fits.
    while cycles < MIN_CYCLES or \
            (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        cycles += 1
        run.cycle(samples, SETUPS_PER_CYCLE, eval_ratio)
    run.evaluate_for(samples, seconds - (time.perf_counter() - start))
    metrics = {}
    if samples["setup_s"]:
        metrics["setup_s"] = tracing.median(samples["setup_s"])
    for name in ("train_rounds_per_s", "eval_rounds_per_s"):
        if samples[name]:
            metrics[name] = tracing.median([rounds / wall
                                            for rounds, wall in samples[name]])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {name: len(v) for name, v in samples.items()}


# -------------------------------------------------------------- trace ----

def install_probes(tracer, m):
    training, game, agents = m["training"], m["game"], m["agents"]
    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "sample_episode", "game.sample_episode")
    tracer.wrap(training, "play_round", "game.play_round")
    tracer.wrap(training, "backward", "autodiff.backward",
                count=lambda args, kwargs: len(args[0].nodes))
    tracer.wrap(training, "evaluate", "training.evaluate")
    tracer.wrap(training, "save_checkpoint", "training.save_checkpoint")
    tracer.wrap(training, "load_checkpoint", "training.load_checkpoint")
    tracer.wrap(training, "init_params", "agents.init_params")
    tracer.wrap(getattr(training, "Adam", None), "step", "training.adam_step")
    tracer.wrap(game, "sender_forward", "agents.sender_forward")
    tracer.wrap(game, "receiver_forward", "agents.receiver_forward")
    tracer.wrap(agents, "init_params", "agents.init_params")
    for op in AUTODIFF_OPS:
        tracer.wrap(m["autodiff"], op, "op." + op)
    for layer in ("analysis", "data"):
        mod = m[layer]
        for attr, fn in sorted(vars(mod).items()):
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == mod.__name__
                    and not isinstance(fn, type)):
                tracer.wrap(mod, attr, "%s.%s" % (layer, attr))


def layer_metrics(spans, counts, train_rounds, epochs, eval_rounds, checkpoint):
    """Per-layer metrics from one traced run. Returns (metrics, absent)."""
    self_t = tracing.self_times(spans)
    # Without a train span, -2 matches no parent: every span is top level.
    root = next((i for i, s in enumerate(spans) if s.name == "training.train"),
                -2)
    in_rounds = {}  # name -> [indices] inside train, outside validation/ckpt
    in_train = {}   # name -> [indices] directly inside train
    top = {}        # name -> [indices] not inside train
    for i, s in enumerate(spans):
        if i == root:
            continue
        step = tracing.child_of(spans, i, root)
        if step < 0:
            top.setdefault(s.name, []).append(i)
            continue
        if step == i:
            in_train.setdefault(s.name, []).append(i)
        if spans[step].name not in ("training.evaluate",
                                    "training.save_checkpoint"):
            in_rounds.setdefault(s.name, []).append(i)

    durations = [s.duration for s in spans]

    def dur(idx):
        return [durations[i] for i in idx]

    def per_round_us(name, times=durations):
        return sum(times[i] for i in in_rounds[name]) * 1e6 / train_rounds

    def top_median(name):
        return tracing.median(dur(top[name]))

    formulas = {
        "data.load_table_s": lambda: top_median("data.load_table"),
        "data.split_standardize_s": lambda: (top_median("data.stratified_split")
                                             + top_median("data.standardize")),
        "agents.init_params_s": lambda: tracing.median(
            dur(top.get("agents.init_params", []) + in_train["agents.init_params"])),
        "training.checkpoint_load_s": lambda: top_median("training.load_checkpoint"),
        "agents.sender_forward_us": lambda: per_round_us("agents.sender_forward"),
        "agents.receiver_forward_us": lambda: per_round_us("agents.receiver_forward"),
        "game.sample_episode_us": lambda: per_round_us("game.sample_episode"),
        "game.play_round_self_us": lambda: per_round_us("game.play_round", self_t),
        "autodiff.backward_us": lambda: per_round_us("autodiff.backward"),
        "autodiff.tape_nodes_per_round":
            lambda: counts["autodiff.backward.count"] / train_rounds,
        "autodiff.op_calls_per_round": lambda: sum(
            len(idx) for name, idx in in_rounds.items()
            if name.startswith("op.")) / train_rounds,
        "training.adam_step_us": lambda: 1e6 * tracing.median(
            dur(in_train["training.adam_step"])),
        "training.adam_steps": lambda: float(len(in_train["training.adam_step"])),
        "training.validation_s": lambda: sum(
            dur(in_train["training.evaluate"])) / epochs,
        "training.checkpoint_save_s": lambda: sum(
            dur(in_train["training.save_checkpoint"])) / epochs,
        "training.checkpoint_bytes": lambda: float(os.path.getsize(checkpoint)),
        "training.evaluate_us_per_round": lambda: sum(
            dur(top["training.evaluate"])) * 1e6 / eval_rounds,
        "analysis.build_report_s": lambda: top_median("analysis.build_report"),
        "analysis.export_s": lambda: (top_median("analysis.write_report")
                                      + top_median("analysis.export_symbol_distribution")),
        "trace.coverage": lambda: sum(
            sum(dur(idx)) for idx in in_train.values()) / spans[root].duration,
    }
    metrics, absent = {}, {}
    for name, formula in formulas.items():
        try:
            metrics[name] = float(formula())
        except (KeyError, IndexError, ValueError, ZeroDivisionError,
                OSError) as exc:
            absent[name] = "%s: %s" % (type(exc).__name__, exc)
    return metrics, absent


def op_probes(m, game_cfg, seed, budget_s=0.15):
    """Forward and backward time of single ops at the workload's shapes,
    called directly and differentiated through autodiff.backward.

    A non-scalar output is reduced to a scalar by reshape + dot; the
    backward time of that reduction alone is subtracted.
    """
    ad, agents = m["autodiff"], m["agents"]
    rng = np.random.default_rng(seed)
    Tensor = ad.Tensor

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    sender, receiver = agents.init_params(game_cfg, seed)
    f, n = game_cfg.feature_dim, game_cfg.n_concepts
    seq_len, flat = game_cfg.sender_seq_len(), game_cfg.flattened_conv_len()
    conv_out = (game_cfg.conv_filters, game_cfg.conv_out_len())
    symbol = Tensor(np.full(game_cfg.vocab_size, 1.0 / game_cfg.vocab_size),
                    requires_grad=True)
    candidates = [rng.normal(size=f) for _ in range(n)]
    cases = {
        "linear_embed": (lambda t, x: ad.linear(t, x, sender.embed_weight,
                                                sender.embed_bias), (f,)),
        "conv1d": (lambda t, x: ad.conv1d(t, x, sender.conv_kernels,
                                          sender.conv_bias), (1, seq_len)),
        "sigmoid": (lambda t, x: ad.sigmoid(t, x), conv_out),
        "linear_out": (lambda t, x: ad.linear(t, x, sender.out_weight,
                                              sender.out_bias), (flat,)),
        "gumbel_softmax": (lambda t, x: ad.gumbel_softmax(
            t, x, game_cfg.temperature, rng=rng), (game_cfg.vocab_size,)),
        "receiver_score": (lambda t, x: agents.receiver_forward(
            t, receiver, game_cfg, symbol, candidates), (1,)),
        "nll_loss": (lambda t, x: ad.nll_loss(t, x, n // 2), (n,)),
    }
    metrics, absent = {}, {}
    for name, (op, shape) in cases.items():
        try:
            fwd, bwd = _time_op(ad, op, leaf(*shape), budget_s)
        except Exception as exc:  # an op that cannot bind is absent
            absent["op.%s" % name] = "%s: %s" % (type(exc).__name__, exc)
            continue
        metrics["op.%s.fwd_us" % name] = fwd
        metrics["op.%s.bwd_us" % name] = bwd
    return metrics, absent


def _time_op(ad, op, x, budget_s):
    fwd, bwd = [], []
    weights = None
    end = time.perf_counter() + budget_s
    while len(fwd) < 20 or time.perf_counter() < end:
        tape = ad.Tape()
        t0 = time.perf_counter()
        out = op(tape, x)
        t1 = time.perf_counter()
        loss, reduce_only = out, None
        if out.data.size != 1:
            if weights is None:
                weights = ad.Tensor(np.linspace(-1.0, 1.0, out.data.size))
            loss = _reduce(ad, tape, out, weights)
            reduce_tape = ad.Tape()
            reduce_only = (reduce_tape, _reduce(
                ad, reduce_tape, ad.Tensor(out.data, requires_grad=True), weights))
        t2 = time.perf_counter()
        ad.backward(tape, loss)
        t3 = time.perf_counter()
        reduce_s = 0.0
        if reduce_only is not None:
            ad.backward(*reduce_only)
            reduce_s = time.perf_counter() - t3
        fwd.append(t1 - t0)
        bwd.append(t3 - t2 - reduce_s)
    return tracing.median(fwd) * 1e6, tracing.median(bwd) * 1e6


def _reduce(ad, tape, out, weights):
    return ad.dot(tape, ad.reshape(tape, out, (out.data.size,)), weights)


def measure_traced(run):
    """The traced run: every per-layer metric (and the list of absent ones)."""
    samples = {name: [] for name in SAMPLED}
    run.splits = run.split()
    # Untraced reference call for the tracing overhead.
    trained = run.train_once()
    m = run.m
    with tracing.Tracer() as tracer:
        install_probes(tracer, m)
        traced = run.cycle(samples, SETUPS_PER_CYCLE, 0.0, TRACED_EVAL_CALLS)
        spans, counts, absent = tracer.spans, dict(tracer.counts), dict(tracer.absent)
    eval_calls = len(samples["eval_rounds_per_s"])
    train_rounds = traced[0] if traced else 0
    metrics, missing = layer_metrics(spans, counts, train_rounds, run.wl.epochs,
                                     eval_calls * EVAL_ROUNDS, run.checkpoint)
    absent.update(missing)
    if trained and traced:
        metrics["trace.overhead_share"] = (traced[1] - trained[1]) / traced[1]
    else:
        absent["trace.overhead_share"] = "a train call failed"
    try:
        ops, op_absent = op_probes(m, run.game_cfg, run.seed)
    except Exception as exc:  # the probes' own set-up cannot bind
        ops, op_absent = {}, {"op.*": "%s: %s" % (type(exc).__name__, exc)}
    metrics.update(ops)
    absent.update(op_absent)
    return metrics, absent


# ---------------------------------------------------------------- main ----

def _print_metrics(workload, metrics, units, counts):
    for name, value in metrics.items():
        samples = " (median of %d)" % counts[name] if name in counts else ""
        print("%-13s %-34s %14.6g %s%s" % (workload, name, value, units[name],
                                           samples))


def run_one(name, seed, seconds, trace):
    mods = import_program()
    workdir = WORK / ("%s-%d" % (name, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = host_context()
        host["probe_before_ms"] = host_speed_probe_ms()
        run = WorkloadRun(name, seed, mods, workdir)
        run.write_table()
        if trace:
            metrics, absent = measure_traced(run)
            units, counts = PER_LAYER_UNITS, {}
        else:
            (metrics, counts), absent = measure(run, seconds), {}
            units = END_TO_END_UNITS
        host["probe_after_ms"] = host_speed_probe_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    for failure in run.checks.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    print("host " + json.dumps(host, sort_keys=True))
    for metric, reason in sorted(absent.items()):
        print("absent %s (%s)" % (metric, reason))
    _print_metrics(name, metrics, units, counts)
    failed = len(run.checks.failures)
    print("%-13s %-34s %d/%d" % (name, "failed/attempted", failed,
                                 run.checks.attempted))
    # The traced run reports what it could measure; the untraced run needs
    # every end-to-end metric.
    missing = [] if trace else [k for k in units if k not in metrics]
    if missing or not run.checks.attempted:
        sys.exit("perfbench: no value for %s" % ", ".join(missing))
    result = {"correct": failed == 0, "attempted": run.checks.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            sys.exit("perfbench: workload %s exited with %d"
                     % (name, proc.returncode))
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"]["%s/%s" % (name, metric)] = entry
    print(json.dumps(total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
