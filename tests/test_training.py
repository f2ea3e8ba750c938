import dataclasses
import json

import numpy as np
import pytest

from cellang.agents import GameConfig, init_params, named_params
from cellang.analysis import identification_accuracy
from cellang.autodiff import Tensor
from cellang.cli import main
from cellang.data import (DataConfig, SyntheticSpec, generate_synthetic,
                          standardize, stratified_split)
from cellang.errors import (CheckpointError, ConfigError, DataError,
                            ParameterError, TrainingError)
from cellang.game import play_round, sample_episode
from cellang.training import (EVAL_BLOCK, Adam, TrainConfig, TrainState,
                              evaluate, history_csv, load_checkpoint,
                              save_checkpoint, train)


def tiny_splits(cfg, table_seed=0, split_seed=0):
    spec = SyntheticSpec(n_per_class=(30, 30, 30), labels=("a", "b", "c"),
                         feature_dim=cfg.feature_dim,
                         class_separation=4.0, seed=table_seed)
    return standardize(*stratified_split(generate_synthetic(spec),
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
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * g * g
            m_hat = m[k] / (1 - cfg.beta1 ** t)
            v_hat = v[k] / (1 - cfg.beta2 ** t)
            value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
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
        assert opt.views(opt.m)["p"][0] == cfg.beta1 * m1
        assert opt.views(opt.v)["p"][0] == cfg.beta2 * v1

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
        fresh = TrainState(small_cfg, tiny_train_cfg(), DataConfig(), 60, "")
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
        n = 2 * EVAL_BLOCK + 5
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

    def test_temperature_schedule(self):
        tcfg = TrainConfig(temp_decay_epochs=4, temp_floor=0.5)
        taus = [tcfg.temperature_at(e, 1.0) for e in range(6)]
        assert taus[0] == 1.0
        assert taus[4] == 0.5 == taus[5]
        assert all(a >= b for a, b in zip(taus, taus[1:]))


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

    def test_truncated_file_rejected(self, tiny_setup, tmp_path):
        cfg, train_s, val_s, _ = tiny_setup
        path = tmp_path / "ck.npz"
        train(train_s, val_s, cfg, tiny_train_cfg(max_epochs=1),
              checkpoint_path=path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["seeds", "game_cfg.vocab_size",
                                     "game_cfg.variant",
                                     "data_cfg.split_seed"])
    def test_missing_meta_key_rejected(self, one_epoch_checkpoint, key):
        def drop_key(meta, arrays):
            *parents, name = key.split(".")
            for parent in parents:
                meta = meta[parent]
            del meta[name]

        rewrite_checkpoint(one_epoch_checkpoint, drop_key)
        with pytest.raises(CheckpointError, match=key.split(".")[-1]):
            load_checkpoint(one_epoch_checkpoint)

    @pytest.mark.parametrize("key, value", [("game_cfg.vocab_size", "10"),
                                            ("game_cfg", [])])
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
        ("train", "seed", 7), ("data", "split_seed", 5),
    ])
    def test_resume_refuses_changed_config(self, tiny_setup,
                                           one_epoch_checkpoint,
                                           section, key, value):
        cfg, train_s, val_s, _ = tiny_setup
        configs = {"game": cfg,
                   "train": tiny_train_cfg(),  # a raised max_epochs may resume
                   "data": DataConfig()}
        configs[section] = dataclasses.replace(configs[section],
                                               **{key: value})
        with pytest.raises(ConfigError, match="%s.%s" % (section, key)):
            train(train_s, val_s, configs["game"], configs["train"],
                  resume_from=one_epoch_checkpoint, data_cfg=configs["data"])

    def test_resume_refuses_other_data(self, small_cfg, one_epoch_checkpoint):
        # Same (default) DataConfig, other rows: only the fingerprint differs.
        for table_seed, split_seed in ((1, 0), (0, 1)):
            train_s, val_s, _ = tiny_splits(small_cfg, table_seed, split_seed)
            with pytest.raises(DataError, match="splits differ"):
                train(train_s, val_s, small_cfg, tiny_train_cfg(),
                      resume_from=one_epoch_checkpoint)

    def test_version_1_rejected(self, one_epoch_checkpoint, tmp_path):
        def set_version_1(meta, arrays):
            meta["version"] = 1

        rewrite_checkpoint(one_epoch_checkpoint, set_version_1)
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(one_epoch_checkpoint)
        assert main(["eval", "--checkpoint", str(one_epoch_checkpoint),
                     "--data", str(tmp_path / "unread.csv"),
                     "--out", str(tmp_path / "ev")]) == 3

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
        ("temp_decay_epochs", -1), ("temp_floor", 0.0), ("epsilon", 0.0),
        ("batch_episodes", 0), ("learning_rate", -1e-3),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("epsilon", float("inf")), ("beta2", float("nan")),
        ("max_epochs", float("inf")), ("seed", -1), ("init_seed", -3),
        ("val_seed", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrainConfig(episodes_per_epoch=1, max_epochs=1, early_stop_patience=1,
                    eval_episodes=1, temp_decay_epochs=0)


class TestSeeds:
    def test_resolved_seeds_deterministic(self):
        a = TrainConfig(seed=5).resolved_seeds()
        b = TrainConfig(seed=5).resolved_seeds()
        c = TrainConfig(seed=6).resolved_seeds()
        assert a == b
        assert a != c

    def test_explicit_seed_overrides(self):
        seeds = TrainConfig(seed=5, gumbel_seed=123).resolved_seeds()
        assert seeds["gumbel_seed"] == 123
