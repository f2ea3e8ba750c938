import dataclasses
import json

import numpy as np
import pytest

from cellang import training
from cellang.agents import GameConfig, init_params, named_params
from cellang.analysis import build_report, identification_accuracy
from cellang.autodiff import Tensor
from cellang.cli import main
from cellang.data import (SyntheticSpec, generate_synthetic, save_table,
                          standardize, stratified_split)
from cellang.errors import (CheckpointError, ConfigError, DataError,
                            ParameterError, TrainingError)
from cellang.game import play_round, sample_episode
from cellang.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                              BATCH_ROUNDS, Adam, TrainConfig, TrainState,
                              evaluate, history_csv, load_checkpoint,
                              save_checkpoint, train)


def tiny_table(cfg, table_seed=0):
    return generate_synthetic(SyntheticSpec(
        n_per_class=(30, 30, 30), labels=("a", "b", "c"),
        feature_dim=cfg.feature_dim, class_separation=4.0, seed=table_seed))


def tiny_splits(cfg, table_seed=0, split_seed=0):
    return standardize(*stratified_split(tiny_table(cfg, table_seed),
                                         seed=split_seed))


@pytest.fixture
def tiny_setup(small_cfg):
    return (small_cfg,) + tiny_splits(small_cfg)


@pytest.fixture
def one_epoch_checkpoint(tiny_setup, tmp_path):
    cfg, train_s, val_s, _ = tiny_setup
    path = tmp_path / "ck.npz"
    train(train_s, val_s, cfg, tiny_train_cfg(max_epochs=1),
          checkpoint_path=path)
    return path


def rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint after `edit(meta, arrays)` changed it in place."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(arrays["meta"].tobytes().decode("utf-8"))
    edit(meta, arrays)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                   dtype=np.uint8)
    np.savez(path, **arrays)


def cli_exit_codes(checkpoint, cfg, tmp_path):
    """Exit codes of `cellang eval` and of `cellang train --resume` given
    `checkpoint`, with a table and config that fit the game `cfg`."""
    data, config = tmp_path / "cells.csv", tmp_path / "run.cfg"
    save_table(tiny_table(cfg), data)
    config.write_text("".join("game.%s=%s\n" % kv
                              for kv in cfg.to_dict().items()))
    return (main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                  "--out", str(tmp_path / "ev")]),
            main(["train", "--config", str(config), "--data", str(data),
                  "--out", str(tmp_path / "more"), "--quiet",
                  "--resume", str(checkpoint)]))


def tiny_train_cfg(**overrides):
    base = dict(max_epochs=3, episodes_per_epoch=60, eval_episodes=50,
                early_stop_patience=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def per_tensor_adam(values, grads, cfg, grad_scale):
    """Reference: the per-tensor Adam update, applied in place to `values`
    (name -> array) for each step's name -> gradient dict in `grads`.
    Returns the moments (m, v)."""
    m = {k: np.zeros_like(a) for k, a in values.items()}
    v = {k: np.zeros_like(a) for k, a in values.items()}
    for t, step_grads in enumerate(grads, start=1):
        for k, value in values.items():
            g = step_grads[k] * grad_scale
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = m[k] / (1 - ADAM_BETA1 ** t)
            v_hat = v[k] / (1 - ADAM_BETA2 ** t)
            value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return m, v


class TestAdam:
    def test_first_step_is_sign_update(self):
        cfg = TrainConfig(learning_rate=1e-3)
        for g in (0.5, -0.02, 1e-3):
            p = Tensor([1.0], requires_grad=True)
            opt = Adam({"p": p}, cfg)
            p.grad[...] = g
            opt.step()
            delta = p.data[0] - 1.0
            assert abs(delta + cfg.learning_rate * np.sign(g)) < 1e-6

    def test_zero_gradient_leaves_parameter(self):
        cfg = TrainConfig()
        p = Tensor([2.5], requires_grad=True)
        opt = Adam({"p": p}, cfg)
        p.grad[...] = 0.0
        opt.step()
        assert p.data[0] == 2.5
        # After a real step, a zero-gradient step decays the moments.
        p.grad[...] = 1.0
        opt.step()
        m1, v1 = opt.views(opt.m)["p"][0], opt.views(opt.v)["p"][0]
        p.grad[...] = 0.0
        opt.step()
        assert opt.views(opt.m)["p"][0] == ADAM_BETA1 * m1
        assert opt.views(opt.v)["p"][0] == ADAM_BETA2 * v1

    def test_scalar_quadratic_converges(self):
        # 200 steps on f(w) = (w - 3)^2 with lr 0.1.
        cfg = TrainConfig(learning_rate=0.1)
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, cfg)
        for _ in range(200):
            p.grad[...] = 2 * (p.data - 3.0)
            opt.step()
        assert abs(p.data[0] - 3.0) < 0.01

    def test_non_finite_gradient_aborts(self):
        params = {name: Tensor([0.0, 0.0], requires_grad=True)
                  for name in ("first", "second", "third")}
        opt = Adam(params, TrainConfig())
        params["second"].grad[1] = np.nan
        with pytest.raises(TrainingError, match="gradient in second"):
            opt.step()
        assert not opt.theta.any()

    def test_matches_per_tensor_update_bit_for_bit(self, small_cfg):
        cfg = TrainConfig(learning_rate=3e-3)
        params = named_params(*init_params(small_cfg, 0))
        values = {k: p.data.copy() for k, p in params.items()}
        rng = np.random.default_rng(4)
        grads = [{k: rng.normal(scale=10.0 ** rng.integers(-4, 2),
                                size=a.shape) for k, a in values.items()}
                 for _ in range(5)]
        opt = Adam(params, cfg)
        for step_grads in grads:
            for k, p in params.items():
                p.grad[...] = step_grads[k]
            opt.step(grad_scale=1.0 / 32)
        m, v = per_tensor_adam(values, grads, cfg, 1.0 / 32)
        for k, p in params.items():
            assert p.data.tobytes() == values[k].tobytes(), k
            assert opt.views(opt.m)[k].tobytes() == m[k].tobytes(), k
            assert opt.views(opt.v)[k].tobytes() == v[k].tobytes(), k

    def test_parameters_are_views_into_flat_vectors(self, small_cfg,
                                                    one_epoch_checkpoint):
        fresh = TrainState(small_cfg, tiny_train_cfg(), "")
        loaded = load_checkpoint(one_epoch_checkpoint)
        for state in (fresh, loaded):
            opt = state.optimizer
            for k, p in named_params(state.sender, state.receiver).items():
                assert np.shares_memory(p.data, opt.theta), k
                assert np.shares_memory(p.grad, opt.grad), k
        opt = loaded.optimizer
        for k, p in named_params(*loaded.best()).items():
            assert not np.shares_memory(p.data, opt.theta), k
            assert not np.shares_memory(p.data, opt.grad), k

    def test_scratch_allocated_by_first_step(self, one_epoch_checkpoint):
        # A state loaded only to evaluate never steps, so never holds them.
        opt = load_checkpoint(one_epoch_checkpoint).optimizer
        assert opt._g is None and opt._tmp is None
        opt.step()
        assert opt._g.shape == opt._tmp.shape == opt.theta.shape


class TestEvaluate:
    def test_deterministic(self, tiny_setup):
        cfg, _, _, test_s = tiny_setup
        sender, receiver = init_params(cfg, 0)
        a = evaluate(sender, receiver, test_s, cfg, 50, seed=5)
        b = evaluate(sender, receiver, test_s, cfg, 50, seed=5)
        assert list(a) == list(b)

    def test_blocks_match_single_rounds(self, tiny_setup):
        # Three blocks, the last one partial, against the same episodes
        # drawn and played one at a time (batches of 1).
        cfg, _, _, test_s = tiny_setup
        sender, receiver = init_params(cfg, 3)
        n = 2 * BATCH_ROUNDS + 5
        outcomes = evaluate(sender, receiver, test_s, cfg, n, seed=6)
        rng = np.random.default_rng(6)
        assert len(outcomes) == n
        for name in ("loss", "receiver_guess", "correct", "symbol_index",
                     "target_index"):
            assert getattr(outcomes, name).shape == (n,), name
        for o in outcomes:
            ref_outcome, _, _ = play_round(sample_episode(test_s, cfg, rng, 1),
                                           sender, receiver, cfg)
            (ref,) = ref_outcome
            assert (o.receiver_guess, o.correct, o.symbol_index,
                    o.target_label) == (ref.receiver_guess, ref.correct,
                                        ref.symbol_index, ref.target_label)
            assert abs(o.loss - ref.loss) <= 1e-12 * max(1.0, ref.loss)
            assert type(o.loss) is float and type(o.target_label) is str

    def test_no_rounds_rejected(self, tiny_setup):
        cfg, _, _, test_s = tiny_setup
        sender, receiver = init_params(cfg, 0)
        with pytest.raises(ParameterError, match="n_episodes"):
            evaluate(sender, receiver, test_s, cfg, 0, seed=0)

    def test_symbol_indices_in_vocab(self, tiny_setup):
        cfg, _, _, test_s = tiny_setup
        sender, receiver = init_params(cfg, 1)
        for o in evaluate(sender, receiver, test_s, cfg, 100, seed=0):
            assert 0 <= o.symbol_index < cfg.vocab_size


class TestTrainLoop:
    def test_history_and_determinism(self, tiny_setup):
        cfg, train_s, val_s, _ = tiny_setup
        tcfg = tiny_train_cfg()
        _, _, h1 = train(train_s, val_s, cfg, tcfg)
        _, _, h2 = train(train_s, val_s, cfg, tcfg)
        assert h1 == h2
        assert len(h1) == 3
        assert history_csv(h1) == history_csv(h2)
        for row in h1:
            assert row["train_loss"] >= 0.0

    def test_learning_improves_loss(self, tiny_setup):
        cfg, train_s, val_s, _ = tiny_setup
        tcfg = tiny_train_cfg(max_epochs=20, episodes_per_epoch=300,
                              early_stop_patience=30, learning_rate=3e-3)
        _, _, history = train(train_s, val_s, cfg, tcfg)
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert history[-1]["val_accuracy"] > 0.5

    def test_best_params_are_returned(self, tiny_setup):
        cfg, train_s, val_s, _ = tiny_setup
        tcfg = tiny_train_cfg(max_epochs=5)
        sender, receiver, history = train(train_s, val_s, cfg, tcfg)
        best = max(row["val_accuracy"] for row in history)
        acc = identification_accuracy(evaluate(
            sender, receiver, val_s, cfg, tcfg.eval_episodes,
            tcfg.resolved_seeds()["val_seed"]))
        assert acc == best

    def test_one_symbol_per_class_vocabulary(self, tiny_setup):
        # vocab_size == n_concepts, the smallest vocabulary allowed: one
        # epoch trains, and evaluation gives a K x K class-symbol table.
        cfg, train_s, val_s, test_s = tiny_setup
        cfg = dataclasses.replace(cfg, vocab_size=cfg.n_concepts)
        sender, receiver, history = train(train_s, val_s, cfg,
                                          tiny_train_cfg(max_epochs=1))
        assert len(history) == 1
        report = build_report(evaluate(sender, receiver, test_s, cfg, 100, 0),
                              test_s.concept_set, cfg.vocab_size)
        assert report.contingency.counts.shape == (cfg.n_concepts,) * 2
        assert report.contingency.total == 100

    def test_non_finite_loss_keeps_last_checkpoint(self, tiny_setup,
                                                    tmp_path, monkeypatch):
        cfg, train_s, val_s, _ = tiny_setup
        tcfg = tiny_train_cfg(episodes_per_epoch=96)  # 3 minibatches of 32
        _, _, full_history = train(train_s, val_s, cfg, tcfg)
        path = tmp_path / "ck.npz"
        training_calls, after_epoch_0 = [], []

        def poisoned(*args):
            outcome, tape, loss = play_round(*args)
            if len(args) > 4:  # a training round: evaluation sends no tau
                training_calls.append(None)
                # Epoch 1's 2nd minibatch: its 1st has already stepped Adam.
                if len(training_calls) == 5:
                    after_epoch_0.append(path.read_bytes())
                    outcome.loss[0] = np.nan
            return outcome, tape, loss

        monkeypatch.setattr(training, "play_round", poisoned)
        with pytest.raises(TrainingError, match="non-finite loss at epoch 1"):
            train(train_s, val_s, cfg, tcfg, checkpoint_path=path)
        monkeypatch.undo()
        assert path.read_bytes() == after_epoch_0[0]
        assert load_checkpoint(path).optimizer.step_count == 3
        _, _, resumed = train(train_s, val_s, cfg, tcfg, resume_from=path)
        assert resumed == full_history


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tiny_setup, tmp_path):
        cfg, train_s, val_s, _ = tiny_setup
        path = tmp_path / "ck.npz"
        train(train_s, val_s, cfg, tiny_train_cfg(max_epochs=2),
              checkpoint_path=path)
        state = load_checkpoint(path)
        save_checkpoint(tmp_path / "ck2.npz", state)
        state2 = load_checkpoint(tmp_path / "ck2.npz")
        for k, p in named_params(state.sender, state.receiver).items():
            q = named_params(state2.sender, state2.receiver)[k]
            assert np.array_equal(p.data, q.data)
        assert state.history == state2.history
        assert state.episode_rng.bit_generator.state == \
            state2.episode_rng.bit_generator.state

    def test_resume_matches_uninterrupted(self, tiny_setup, tmp_path):
        cfg, train_s, val_s, _ = tiny_setup
        full_cfg = tiny_train_cfg(max_epochs=4)
        _, _, full_history = train(train_s, val_s, cfg, full_cfg)

        half_cfg = tiny_train_cfg(max_epochs=2)
        path = tmp_path / "half.npz"
        train(train_s, val_s, cfg, half_cfg, checkpoint_path=path)
        _, _, resumed = train(train_s, val_s, cfg, full_cfg, resume_from=path)
        assert resumed == full_history

    def test_resume_of_finished_run_trains_no_epoch(self, tiny_setup,
                                                    tmp_path):
        cfg, train_s, val_s, _ = tiny_setup
        tcfg = tiny_train_cfg(max_epochs=30, early_stop_patience=2)
        path = tmp_path / "ck.npz"
        _, _, history = train(train_s, val_s, cfg, tcfg, checkpoint_path=path)
        assert len(history) < tcfg.max_epochs  # patience ended it
        saved = path.read_bytes()
        _, _, resumed = train(train_s, val_s, cfg, tcfg, checkpoint_path=path,
                              resume_from=path)
        assert resumed == history
        assert path.read_bytes() == saved
        # A raised patience continues the run as if it had never stopped.
        longer = dataclasses.replace(tcfg, early_stop_patience=4)
        _, _, continued = train(train_s, val_s, cfg, longer, resume_from=path)
        _, _, uninterrupted = train(train_s, val_s, cfg, longer)
        assert continued == uninterrupted
        assert len(continued) > len(history)

    def test_best_epoch_is_first_highest_accuracy(self, small_cfg):
        state = TrainState(small_cfg, tiny_train_cfg(), "")
        assert state.best_epoch() == -1
        state.history = [{"val_accuracy": a} for a in (0.5, 0.75, 0.75, 0.5)]
        assert state.best_epoch() == 1

    def test_meta_holds_only_what_history_cannot_give(self, small_cfg,
                                                      one_epoch_checkpoint,
                                                      tmp_path):
        with np.load(one_epoch_checkpoint) as npz:
            meta = json.loads(npz["meta"].tobytes().decode("utf-8"))
            assert any(k.startswith("best/") for k in npz.files)
        assert set(meta) == {"version", "history", "game_cfg", "train_cfg",
                             "data_fingerprint", "adam_step", "episode_rng",
                             "gumbel_rng"}
        assert len(meta["history"]) == 1
        # Before any epoch there is no best epoch, so no best/ arrays.
        path = tmp_path / "fresh.npz"
        save_checkpoint(path, TrainState(small_cfg, tiny_train_cfg(), ""))
        with np.load(path) as npz:
            assert not any(k.startswith("best/") for k in npz.files)
        assert load_checkpoint(path).best_theta is None

    def test_truncated_file_rejected(self, tiny_setup, tmp_path):
        cfg, train_s, val_s, _ = tiny_setup
        path = tmp_path / "ck.npz"
        train(train_s, val_s, cfg, tiny_train_cfg(max_epochs=1),
              checkpoint_path=path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["game_cfg.vocab_size",
                                     "game_cfg.variant",
                                     "train_cfg.eval_episodes"])
    def test_missing_meta_key_rejected(self, one_epoch_checkpoint, key):
        def drop_key(meta, arrays):
            *parents, name = key.split(".")
            for parent in parents:
                meta = meta[parent]
            del meta[name]

        rewrite_checkpoint(one_epoch_checkpoint, drop_key)
        with pytest.raises(CheckpointError, match=key.split(".")[-1]):
            load_checkpoint(one_epoch_checkpoint)

    # The last: a field a version-3 checkpoint could hold, deleted since.
    @pytest.mark.parametrize("key, value", [("game_cfg.vocab_size", "10"),
                                            ("game_cfg", []),
                                            ("train_cfg.temp_decay_epochs", 4)])
    def test_wrongly_typed_meta_value_rejected(self, one_epoch_checkpoint,
                                               tmp_path, key, value):
        def set_value(meta, arrays):
            *parents, name = key.split(".")
            for parent in parents:
                meta = meta[parent]
            meta[name] = value

        rewrite_checkpoint(one_epoch_checkpoint, set_value)
        with pytest.raises(CheckpointError, match="invalid"):
            load_checkpoint(one_epoch_checkpoint)
        assert main(["eval", "--checkpoint", str(one_epoch_checkpoint),
                     "--data", str(tmp_path / "unread.csv"),
                     "--out", str(tmp_path / "ev")]) == 3

    def test_wrong_shape_array_rejected(self, one_epoch_checkpoint):
        def trim_column(meta, arrays):
            key = "cur/sender.out_weight"
            assert arrays[key].shape == (8, 33)
            arrays[key] = arrays[key][:, :32]

        rewrite_checkpoint(one_epoch_checkpoint, trim_column)
        with pytest.raises(CheckpointError, match="out_weight"):
            load_checkpoint(one_epoch_checkpoint)

    def test_unreadable_meta_rejected(self, one_epoch_checkpoint):
        path = one_epoch_checkpoint
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        for blob in (b"{not json", b"[1]"):
            arrays["meta"] = np.frombuffer(blob, dtype=np.uint8)
            np.savez(path, **arrays)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value", [
        ("train", "learning_rate", 0.05), ("game", "vocab_size", 20),
        ("train", "seed", 7), ("train", "eval_episodes", 40),
    ])
    def test_resume_refuses_changed_config(self, tiny_setup,
                                           one_epoch_checkpoint,
                                           section, key, value):
        cfg, train_s, val_s, _ = tiny_setup
        configs = {"game": cfg,
                   "train": tiny_train_cfg()}  # a raised max_epochs may resume
        configs[section] = dataclasses.replace(configs[section],
                                               **{key: value})
        with pytest.raises(ConfigError, match="%s.%s" % (section, key)):
            train(train_s, val_s, configs["game"], configs["train"],
                  resume_from=one_epoch_checkpoint)

    def test_resume_refuses_other_data(self, small_cfg, one_epoch_checkpoint):
        # Same configs, other rows: only the fingerprint differs.
        for table_seed, split_seed in ((1, 0), (0, 1)):
            train_s, val_s, _ = tiny_splits(small_cfg, table_seed, split_seed)
            with pytest.raises(DataError, match="splits differ"):
                train(train_s, val_s, small_cfg, tiny_train_cfg(),
                      resume_from=one_epoch_checkpoint)

    def test_eval_refuses_other_split_seed(self, small_cfg,
                                           one_epoch_checkpoint, tmp_path,
                                           capsys):
        # The CLI splits every table with seed 0, so a library run trained
        # on the seed-1 splits of the same table is refused.
        data = tmp_path / "cells.csv"
        save_table(tiny_table(small_cfg), data)
        path = tmp_path / "seed1.npz"
        train_s, val_s, _ = tiny_splits(small_cfg, split_seed=1)
        train(train_s, val_s, small_cfg, tiny_train_cfg(max_epochs=1),
              checkpoint_path=path)
        for checkpoint, code in ((one_epoch_checkpoint, 0), (path, 2)):
            assert main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(data), "--episodes", "30",
                         "--out", str(tmp_path / "ev")]) == code, checkpoint
        assert "splits differ" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[0].__delitem__("val_accuracy"),
        lambda rows: rows[0].update(epoch=1),
        lambda rows: rows[0].update(epoch=0.0),
        lambda rows: rows[0].update(train_loss="0.5"),
        lambda rows: rows[0].update(temperature=None),
        lambda rows: rows[0].update(val_accuracy=float("nan")),
        lambda rows: rows[0].update(extra=1.0),
        lambda rows: rows.append([1, 0.5, 0.5, 1.0]),
        lambda rows: rows.__setitem__(0, {}),
        lambda rows: {"0": rows[0]},
    ], ids=["missing-key", "wrong-epoch", "float-epoch", "string-value",
            "null-value", "nan-value", "extra-key", "row-not-object",
            "empty-row", "not-a-list"])
    def test_malformed_history_rejected(self, small_cfg, one_epoch_checkpoint,
                                        tmp_path, edit):
        # The history decides where a resumed run stands, so a history it
        # could not have written is refused at load by both commands. `edit`
        # changes the rows in place or returns a history to put instead.
        def rewrite(meta, arrays):
            meta["history"] = edit(meta["history"]) or meta["history"]

        rewrite_checkpoint(one_epoch_checkpoint, rewrite)
        with pytest.raises(CheckpointError, match="history"):
            load_checkpoint(one_epoch_checkpoint)
        assert cli_exit_codes(one_epoch_checkpoint, small_cfg,
                              tmp_path) == (3, 3)

    def test_version_1_rejected(self, small_cfg, one_epoch_checkpoint,
                                tmp_path):
        # Also version 3, which held the Adam constants, the minibatch size
        # and a temperature schedule as TrainConfig fields; version 4, whose
        # saved episode stream state fed the per-episode draw; version 5,
        # whose progress counters could disagree with its history and whose
        # fingerprint left out the test split; and version 6, the last to
        # hold a data config (split seed and labels).
        for version in (1, 3, 4, 5, 6):
            rewrite_checkpoint(one_epoch_checkpoint, lambda meta, arrays:
                               meta.update(version=version, data_cfg={
                                   "split_seed": 0, "labels": []}))
            with pytest.raises(CheckpointError, match="version %d" % version):
                load_checkpoint(one_epoch_checkpoint)
            assert cli_exit_codes(one_epoch_checkpoint, small_cfg,
                                  tmp_path) == (3, 3)

    def test_version_2_rejected(self, one_epoch_checkpoint, tmp_path):
        # The version before batched sampling, which also stored the
        # receiver's image bias.
        def make_version_2(meta, arrays):
            meta["version"] = 2
            for prefix in ("cur/", "adam_m/", "adam_v/"):
                arrays[prefix + "receiver.image_embed_bias"] = np.zeros(4)

        rewrite_checkpoint(one_epoch_checkpoint, make_version_2)
        with pytest.raises(CheckpointError, match="version 2"):
            load_checkpoint(one_epoch_checkpoint)
        assert main(["eval", "--checkpoint", str(one_epoch_checkpoint),
                     "--data", str(tmp_path / "unread.csv"),
                     "--out", str(tmp_path / "ev")]) == 3

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestConfigRanges:
    @pytest.mark.parametrize("field, value", [
        ("episodes_per_epoch", 0), ("max_epochs", 0), ("max_epochs", -3),
        ("early_stop_patience", 0), ("eval_episodes", 0),
        ("learning_rate", -1e-3), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("max_epochs", float("inf")),
        ("seed", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrainConfig(episodes_per_epoch=1, max_epochs=1, early_stop_patience=1,
                    eval_episodes=1)


class TestSeeds:
    def test_resolved_seeds_deterministic(self):
        a = TrainConfig(seed=5).resolved_seeds()
        b = TrainConfig(seed=5).resolved_seeds()
        c = TrainConfig(seed=6).resolved_seeds()
        assert a == b
        assert a != c
