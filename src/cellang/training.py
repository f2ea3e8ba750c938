"""End-to-end optimization: Adam, the training loop, evaluation and
single-file checkpointing with bit-exact resume."""

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .agents import ConfigFields, GameConfig, init_params, named_params
from .analysis import identification_accuracy
from .autodiff import backward
from .data import fingerprint
from .errors import (CheckpointError, ConfigError, DataError, ParameterError,
                     TrainingError)
from .game import RoundOutcome, play_round, sample_episode

CHECKPOINT_VERSION = 8
# Adam's moment decay rates and denominator offset, Kingma & Ba's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
# Rounds per training minibatch and per evaluation forward pass; it also
# bounds sender-sees-all's (block, 20, 71) conv output.
BATCH_ROUNDS = 32
# Hard-symbol rounds of the validation pass that ends each epoch.
VAL_ROUNDS = 200
# Elements per pass of Adam.step: a chunk of its six vectors fits in L2.
_ADAM_CHUNK = 16384
HISTORY_HEADER = "epoch,train_loss,val_accuracy"
# The config keys a resumed run may change: they only decide when it stops.
RESUMABLE_KEYS = ("train.max_epochs", "train.early_stop_patience")


@dataclass
class TrainConfig(ConfigFields):
    learning_rate: float = 1e-3
    episodes_per_epoch: int = None  # None -> size of the training split
    max_epochs: int = 200
    early_stop_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be > 0")
        for name in ("max_epochs", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ParameterError("%s must be >= 1" % name)
        if self.episodes_per_epoch is not None and self.episodes_per_epoch < 1:
            raise ParameterError("episodes_per_epoch must be none or >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")

    def resolved_seeds(self):
        """The four RNG stream seeds, derived from the master seed."""
        derived = np.random.SeedSequence(self.seed).generate_state(4)
        return {n: int(s) for n, s in zip(
            ("init_seed", "episode_seed", "gumbel_seed", "val_seed"), derived)}


def run_config(game_cfg, train_cfg):
    """A run's configuration as flat `section.key` -> value: what a
    manifest records."""
    sections = {"game": game_cfg.to_dict(), "train": train_cfg.to_dict()}
    return {"%s.%s" % (section, k): v
            for section, items in sections.items() for k, v in items.items()}


class Adam:
    """Adam with bias correction (Kingma & Ba, arXiv:1412.6980), at
    ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON and `cfg.learning_rate`, that owns
    the parameters: each Tensor's `.data`/`.grad` becomes a view into the
    flat `theta`/`grad`, to assign into and never rebind. A step runs
    _ADAM_CHUNK elements at a time through two chunk-long scratch vectors,
    allocated by the first step, so a state loaded only to evaluate never
    holds them."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.step_count = 0
        ends = np.cumsum([p.data.size for p in params.values()])
        self._layout = [(k, slice(end - p.data.size, end), p.shape)
                        for (k, p), end in zip(params.items(), ends)]
        self.theta = np.concatenate([p.values for p in params.values()])
        # np.zeros, unlike zeros_like, leaves pages untouched until written.
        self.grad, self.m, self.v = (np.zeros(self.theta.size)
                                     for _ in range(3))
        self._g = self._tmp = None
        data, grad = self.views(self.theta), self.views(self.grad)
        for k, p in params.items():
            p.data, p.grad = data[k], grad[k]

    def views(self, vector):
        """name -> shaped view into a vector laid out like `theta`."""
        return {k: vector[span].reshape(shape)
                for k, span, shape in self._layout}

    def step(self, grad_scale=1.0):
        """One update from `grad * grad_scale`. If that product has a
        non-finite element, raises TrainingError before `theta`, `m`, `v` or
        `step_count` changes. The check scales only grad's min and max: a NaN
        makes both NaN, and rounding keeps every other product between
        theirs, so it holds for any grad_scale."""
        if not all(math.isfinite(float(x) * grad_scale)
                   for x in (self.grad.min(), self.grad.max())):
            bad = next(k for k, a in self.views(self.grad).items()
                       if not np.isfinite(a * grad_scale).all())
            raise TrainingError("non-finite gradient in %s" % bad)
        if self._g is None:
            size = min(_ADAM_CHUNK, self.theta.size)
            self._g, self._tmp = np.empty(size), np.empty(size)
        self.step_count += 1
        m_scale = 1 - ADAM_BETA1 ** self.step_count
        v_scale = 1 - ADAM_BETA2 ** self.step_count
        # In place, in the per-tensor formula's operation order so the bits
        # match it: theta -= lr * m_hat / (sqrt(v_hat) + eps). Elementwise,
        # so chunking changes no bit.
        for start in range(0, self.theta.size, _ADAM_CHUNK):
            span = slice(start, start + _ADAM_CHUNK)
            theta, m, v = self.theta[span], self.m[span], self.v[span]
            g, tmp = self._g[:theta.size], self._tmp[:theta.size]
            np.multiply(self.grad[span], grad_scale, out=g)
            m *= ADAM_BETA1
            m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            np.multiply(g, 1 - ADAM_BETA2, out=tmp)
            v += np.multiply(tmp, g, out=tmp)
            np.divide(v, v_scale, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPSILON
            np.divide(m, m_scale, out=g)
            g *= self.cfg.learning_rate
            theta -= np.divide(g, tmp, out=g)


def evaluate(sender, receiver, split, game_cfg, n_episodes, seed):
    """Play n_episodes deterministic (hard-symbol) rounds, drawn and played
    BATCH_ROUNDS at a time (the draws do not depend on the block size); return
    one RoundOutcome of every round. The tapes are dropped unwalked."""
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1, got %d" % n_episodes)
    rng = np.random.default_rng(seed)
    blocks = [play_round(sample_episode(split, game_cfg, rng,
                                        min(BATCH_ROUNDS, n_episodes - start)),
                         sender, receiver, game_cfg)[0]
              for start in range(0, n_episodes, BATCH_ROUNDS)]
    return RoundOutcome(*(np.concatenate([getattr(b, f.name) for b in blocks])
                          for f in fields(RoundOutcome)[:-1]),
                        split.concept_set)


def history_csv(history):
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append("%d,%r,%r" % (row["epoch"], row["train_loss"],
                                   row["val_accuracy"]))
    return "\n".join(lines) + "\n"


class TrainState:
    """Everything needed to continue training bit-exactly. `history` is the
    one record of how far the run got: one row per finished epoch."""

    def __init__(self, game_cfg, train_cfg, data_fingerprint):
        self.game_cfg = game_cfg
        self.train_cfg = train_cfg
        # Of the train and val splits and the table they were cut from.
        self.data_fingerprint = data_fingerprint
        seeds = train_cfg.resolved_seeds()
        self.seeds = seeds
        self.sender, self.receiver = init_params(game_cfg, seeds["init_seed"])
        self.optimizer = Adam(named_params(self.sender, self.receiver), train_cfg)
        self.episode_rng = np.random.default_rng(seeds["episode_seed"])
        self.gumbel_rng = np.random.default_rng(seeds["gumbel_seed"])
        self.history = []
        self.best_theta = None  # optimizer.theta after the best epoch

    def best_epoch(self):
        """The first epoch with the highest validation accuracy; -1 before
        any epoch."""
        accuracies = [row["val_accuracy"] for row in self.history]
        return accuracies.index(max(accuracies)) if accuracies else -1

    def best(self):
        if self.best_theta is None:
            return self.sender, self.receiver
        views = self.optimizer.views(self.best_theta)
        return self.sender.over(views), self.receiver.over(views)

    def check_data(self, train_split, val_split):
        """DataError unless these are the splits, cut from the same table,
        that this state was trained on."""
        if fingerprint(train_split, val_split) != self.data_fingerprint:
            raise DataError("the splits differ from those the checkpoint was "
                            "trained on, or were cut from another table")


def train(train_split, val_split, game_cfg, train_cfg,
          checkpoint_path=None, resume_from=None, log=None):
    """Optimize the agents on the training split.

    Plays minibatches of BATCH_ROUNDS rounds with relaxed symbols at
    `game_cfg.temperature`. Keeps the parameters with the best validation
    accuracy (VAL_ROUNDS hard-symbol rounds); stops at max_epochs or after
    early_stop_patience epochs without improvement, both read off the
    history, so resuming a finished run trains no epoch. Returns (best
    sender, best receiver, history).
    A resumed run must keep the checkpoint's splits and their table (checked
    first: a DataError) and its configuration but RESUMABLE_KEYS.
    The checkpoint's directory is made only once the resume is accepted.
    A non-finite loss or gradient raises TrainingError; the checkpoint then
    still holds the last whole epoch.
    """
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        state.check_data(train_split, val_split)
        saved = run_config(state.game_cfg, state.train_cfg)
        changed = ["%s (checkpoint %s, config %s)" % (k, saved[k], v)
                   for k, v in run_config(game_cfg, train_cfg).items()
                   if v != saved[k] and k not in RESUMABLE_KEYS]
        if changed:
            raise ConfigError("resume may change only %s, not %s"
                              % (" and ".join(RESUMABLE_KEYS),
                                 "; ".join(changed)))
        state.train_cfg = train_cfg
    else:
        state = TrainState(game_cfg, train_cfg,
                           fingerprint(train_split, val_split))
    if checkpoint_path is not None:
        Path(checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
    cfg, tcfg, history = state.game_cfg, state.train_cfg, state.history
    while (len(history) < tcfg.max_epochs
           and len(history) - state.best_epoch() <= tcfg.early_stop_patience):
        epoch, losses = len(history), []
        remaining = tcfg.episodes_per_epoch or len(train_split)
        while remaining > 0:
            batch = min(BATCH_ROUNDS, remaining)
            remaining -= batch
            episodes = sample_episode(train_split, cfg, state.episode_rng,
                                      batch)
            outcome, tape, loss = play_round(
                episodes, state.sender, state.receiver, cfg, cfg.temperature,
                state.gumbel_rng)
            if not np.isfinite(outcome.loss).all():
                raise TrainingError("non-finite loss at epoch %d" % epoch)
            state.optimizer.grad.fill(0.0)
            backward(tape, loss)
            losses.append(outcome.loss)
            state.optimizer.step(grad_scale=1.0 / batch)
        val_outcomes = evaluate(state.sender, state.receiver, val_split, cfg,
                                VAL_ROUNDS, state.seeds["val_seed"])
        val_acc = identification_accuracy(val_outcomes)
        row = {"epoch": epoch,
               "train_loss": float(np.concatenate(losses).mean()),
               "val_accuracy": val_acc}
        history.append(row)
        if log is not None:
            log(row)
        if state.best_epoch() == epoch:
            state.best_theta = state.optimizer.theta.copy()
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state)
    sender, receiver = state.best()
    return sender, receiver, history


def _checkpoint_arrays(state):
    """prefix + name -> live view: every array a checkpoint holds."""
    opt = state.optimizer
    vectors = {"cur/": opt.theta, "best/": state.best_theta,
               "adam_m/": opt.m, "adam_v/": opt.v}
    return {prefix + k: view for prefix, vector in vectors.items()
            if vector is not None for k, view in opt.views(vector).items()}


def save_checkpoint(path, state):
    """Single-file .npz container: named little-endian float64 arrays plus a
    JSON metadata blob under the 'meta' key."""
    arrays = _checkpoint_arrays(state)
    meta = {
        "version": CHECKPOINT_VERSION,
        "history": state.history,
        "game_cfg": state.game_cfg.to_dict(),
        "train_cfg": state.train_cfg.to_dict(),
        "data_fingerprint": state.data_fingerprint,
        "adam_step": state.optimizer.step_count,
        "episode_rng": state.episode_rng.bit_generator.state,
        "gumbel_rng": state.gumbel_rng.bit_generator.state,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild a TrainState; resuming from it continues training bit-exactly.

    Every metadata key must be present, each config must hold exactly its
    class's fields, and every array must have the shape the checkpoint's own
    configuration gives it.
    """
    try:
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
    except Exception as exc:
        raise CheckpointError("cannot read checkpoint %s: %s" % (path, exc))
    if "meta" not in arrays:
        raise CheckpointError("checkpoint %s has no metadata" % path)
    try:
        meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError("checkpoint %s has unreadable metadata: %s"
                              % (path, exc))
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError("unsupported checkpoint version %r" % version)
    try:
        return _restore_state(meta, arrays)
    except KeyError as exc:
        raise CheckpointError("checkpoint %s is missing %s" % (path, exc))
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a generator state numpy cannot hold, say inc = -1.
        raise CheckpointError("checkpoint %s is invalid: %s" % (path, exc))


def _checked_history(history):
    """`history` if it is a list of rows that each hold exactly the
    HISTORY_HEADER keys, finite numbers, and their own position as `epoch`;
    ValueError otherwise."""
    keys = set(HISTORY_HEADER.split(","))
    if not isinstance(history, list):
        raise ValueError("history is not a list")
    for i, row in enumerate(history):
        if not (isinstance(row, dict) and set(row) == keys
                and all(type(v) in (int, float) and math.isfinite(v)
                        for v in row.values())
                and type(row["epoch"]) is int and row["epoch"] == i):
            raise ValueError("history row %d is malformed: %r" % (i, row))
    return history


def _restore_state(meta, arrays):
    """TrainState built from the checkpoint's configs, then overwritten with
    its saved values; KeyError names a key that meta or arrays lack."""
    data_fp, step = meta["data_fingerprint"], meta["adam_step"]
    if not isinstance(data_fp, str):
        raise ValueError("data_fingerprint is not a string: %r" % (data_fp,))
    state = TrainState(GameConfig.from_dict(meta["game_cfg"]),
                       TrainConfig.from_dict(meta["train_cfg"]), data_fp)
    state.history = _checked_history(meta["history"])
    # Every finished epoch took at least one Adam step.
    if type(step) is not int or step < len(state.history):
        raise ValueError("adam_step must be an integer >= %d, the epochs run; "
                         "got %r" % (len(state.history), step))
    if state.history:  # saved once there is a best epoch
        state.best_theta = np.empty_like(state.optimizer.theta)
    for k, live in _checkpoint_arrays(state).items():
        if arrays[k].shape != live.shape:
            raise ValueError("array %s has shape %s, expected %s"
                             % (k, arrays[k].shape, live.shape))
        live[...] = arrays[k]
    state.optimizer.step_count = step
    state.episode_rng.bit_generator.state = meta["episode_rng"]
    state.gumbel_rng.bit_generator.state = meta["gumbel_rng"]
    return state
