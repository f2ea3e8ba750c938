import numpy as np
import pytest

from cellang import autodiff as ad
from cellang.agents import (GameConfig, Variant, init_params, named_params,
                            receiver_forward, sender_forward)
from cellang.autodiff import Tape, Tensor, backward
from cellang.errors import ContractError, ParameterError
from cellang.training import TrainConfig


def random_inputs(cfg, rng, n=None):
    n = cfg.sender_inputs() if n is None else n
    return [rng.normal(size=cfg.feature_dim) for _ in range(n)]


class TestGameConfig:
    def test_defaults_match_declared_architecture(self):
        cfg = GameConfig()
        assert (cfg.n_concepts, cfg.vocab_size, cfg.feature_dim,
                cfg.embed_dim) == (5, 100, 28, 15)
        assert cfg.flattened_conv_len() == 20 * (75 - 5 + 1)

    def test_vocab_smaller_than_concepts_rejected(self):
        with pytest.raises(ParameterError):
            GameConfig(vocab_size=3, n_concepts=5)

    def test_conv_width_exceeding_sequence_rejected(self):
        with pytest.raises(ParameterError):
            GameConfig(variant="sender-sees-target", conv_width=16)

    def test_roundtrip_dict(self):
        cfg = GameConfig(variant="sender-sees-target", temperature=0.7)
        assert GameConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_requires_every_field(self):
        d = GameConfig().to_dict()
        del d["vocab_size"]
        with pytest.raises(KeyError, match="vocab_size"):
            GameConfig.from_dict(d)
        # A key of no field, say of a deleted setting, is refused, not
        # ignored.
        d = dict(TrainConfig().to_dict(), beta1=0.8)
        with pytest.raises(ValueError, match="beta1"):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, value):
        with pytest.raises(ParameterError, match="temperature"):
            GameConfig(temperature=value)

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", True), ("vocab_size", 100.0), ("embed_dim", "15"),
        ("temperature", True)])
    def test_mistyped_value_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            GameConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert GameConfig(vocab_size=np.int64(8)).vocab_size == 8


class TestInitParams:
    def test_same_seed_bit_identical(self, small_cfg):
        a = named_params(*init_params(small_cfg, 9))
        b = named_params(*init_params(small_cfg, 9))
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)

    def test_biases_zero(self, small_cfg):
        for name, tensor in named_params(*init_params(small_cfg, 0)).items():
            if name.endswith("bias"):
                assert np.all(tensor.data == 0)

    def test_different_seeds_differ(self, small_cfg):
        a = named_params(*init_params(small_cfg, 0))
        b = named_params(*init_params(small_cfg, 1))
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_parameter_names(self, small_cfg):
        # No receiver.image_embed_bias: it would shift every candidate's
        # score by the same amount, which the softmax ignores.
        assert list(named_params(*init_params(small_cfg, 0))) == [
            "sender.embed_weight", "sender.embed_bias", "sender.conv_kernels",
            "sender.conv_bias", "sender.out_weight", "sender.out_bias",
            "receiver.image_embed_weight", "receiver.symbol_embed_weight",
            "receiver.symbol_embed_bias"]

    def test_weight_range_is_glorot(self, small_cfg):
        sender, _ = init_params(small_cfg, 3)
        w = sender.embed_weight.data
        a = np.sqrt(6 / (small_cfg.feature_dim + small_cfg.embed_dim))
        assert np.all(np.abs(w) <= a)


class TestSenderForward:
    def test_eval_hard_one_hot_and_deterministic(self, small_cfg):
        rng = np.random.default_rng(0)
        sender, _ = init_params(small_cfg, 0)
        inputs = random_inputs(small_cfg, rng)
        sym1, _ = sender_forward(Tape(), sender, small_cfg, inputs)
        sym2, _ = sender_forward(Tape(), sender, small_cfg, inputs)
        assert sorted(sym1.data) == [0.0] * (small_cfg.vocab_size - 1) + [1.0]
        assert np.array_equal(sym1.data, sym2.data)

    def test_train_soft_sums_to_one(self, small_cfg):
        rng = np.random.default_rng(1)
        sender, _ = init_params(small_cfg, 0)
        sym, _ = sender_forward(Tape(), sender, small_cfg,
                                random_inputs(small_cfg, rng),
                                small_cfg.temperature, rng)
        assert abs(sym.data.sum() - 1.0) < 1e-10

    def test_zero_params_tie_breaks_to_lowest_index(self, small_cfg):
        sender, _ = init_params(small_cfg, 0)
        for tensor in sender.named().values():
            tensor.data = np.zeros_like(tensor.data)
        rng = np.random.default_rng(2)
        sym, logits = sender_forward(Tape(), sender, small_cfg,
                                     random_inputs(small_cfg, rng))
        assert np.all(logits.data == 0)
        assert sym.data[0] == 1.0

    def test_arity_mismatch(self, small_cfg):
        sender, _ = init_params(small_cfg, 0)
        rng = np.random.default_rng(3)
        with pytest.raises(ContractError):
            sender_forward(Tape(), sender, small_cfg,
                           random_inputs(small_cfg, rng, n=1))


class TestReceiverForward:
    def test_identical_candidates_give_uniform(self, small_cfg):
        rng = np.random.default_rng(4)
        _, receiver = init_params(small_cfg, 0)
        symbol = Tensor(ad.one_hot(2, small_cfg.vocab_size))
        cand = rng.normal(size=small_cfg.feature_dim)
        out = receiver_forward(Tape(), receiver, small_cfg, symbol,
                               [cand] * small_cfg.n_concepts)
        assert np.allclose(out.data, np.log(1 / small_cfg.n_concepts),
                           atol=1e-12)

    def test_normalization(self, small_cfg):
        rng = np.random.default_rng(5)
        _, receiver = init_params(small_cfg, 1)
        symbol = Tensor(ad.one_hot(0, small_cfg.vocab_size))
        out = receiver_forward(Tape(), receiver, small_cfg, symbol,
                               random_inputs(small_cfg, rng,
                                             n=small_cfg.n_concepts))
        assert abs(np.exp(out.data).sum() - 1.0) < 1e-10

    def test_permutation_equivariance(self, small_cfg):
        rng = np.random.default_rng(6)
        _, receiver = init_params(small_cfg, 2)
        symbol = Tensor(ad.one_hot(1, small_cfg.vocab_size))
        cands = random_inputs(small_cfg, rng, n=small_cfg.n_concepts)
        base = receiver_forward(Tape(), receiver, small_cfg, symbol, cands)
        for _ in range(5):
            perm = rng.permutation(small_cfg.n_concepts)
            permuted = receiver_forward(Tape(), receiver, small_cfg, symbol,
                                        [cands[p] for p in perm])
            assert np.allclose(permuted.data, base.data[perm], atol=1e-12)

    def test_candidate_count_enforced(self, small_cfg):
        rng = np.random.default_rng(7)
        _, receiver = init_params(small_cfg, 0)
        symbol = Tensor(ad.one_hot(0, small_cfg.vocab_size))
        with pytest.raises(ContractError):
            receiver_forward(Tape(), receiver, small_cfg, symbol,
                             random_inputs(small_cfg, rng, n=2))


class TestEndToEnd:
    def test_every_parameter_gets_finite_gradient(self, small_cfg):
        rng = np.random.default_rng(8)
        sender, receiver = init_params(small_cfg, 0)
        tape = Tape()
        inputs = random_inputs(small_cfg, rng)
        symbol, _ = sender_forward(tape, sender, small_cfg, inputs,
                                   small_cfg.temperature, rng)
        log_probs = receiver_forward(tape, receiver, small_cfg, symbol,
                                     random_inputs(small_cfg, rng,
                                                   n=small_cfg.n_concepts))
        loss = ad.nll_loss(tape, log_probs, 0)
        backward(tape, loss)
        for name, p in named_params(sender, receiver).items():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    def test_eval_hard_invariant_to_rng(self, small_cfg):
        sender, _ = init_params(small_cfg, 0)
        rng = np.random.default_rng(9)
        inputs = random_inputs(small_cfg, rng)
        a, _ = sender_forward(Tape(), sender, small_cfg, inputs,
                              rng=np.random.default_rng(0))
        b, _ = sender_forward(Tape(), sender, small_cfg, inputs,
                              rng=np.random.default_rng(999))
        assert np.array_equal(a.data, b.data)
