import math

import numpy as np
import pytest

from cellang.agents import GameConfig, init_params, named_params
from cellang.autodiff import backward
from cellang.data import Dataset, SyntheticSpec, generate_synthetic
from cellang.errors import ContractError, DataError
from cellang.game import play_round, sample_episode


@pytest.fixture
def split3(small_cfg):
    spec = SyntheticSpec(n_per_class=(10, 10, 10), labels=("a", "b", "c"),
                         feature_dim=small_cfg.feature_dim, seed=0)
    return generate_synthetic(spec)


@pytest.fixture
def split_uneven(small_cfg):
    spec = SyntheticSpec(n_per_class=(7, 10, 13), labels=("a", "b", "c"),
                         feature_dim=small_cfg.feature_dim, seed=1)
    return generate_synthetic(spec)


class ConstantRng:
    """A stand-in generator whose every uniform double is `value`."""
    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def label_of(split, row):
    """Label of the split's record with these features."""
    return split.labels[np.flatnonzero((split.features == row).all(axis=1))[0]]


def episodes_of(batch):
    """(candidate feature rows, target index, receiver permutation) of each
    episode of a batch."""
    return zip(batch.features[batch.rows], batch.target_index.tolist(),
               batch.receiver_permutation)


class TestSampleEpisode:
    def test_one_candidate_per_concept(self, small_cfg, split3):
        rng = np.random.default_rng(0)
        # Ten batches of one, then a batch of 32.
        batches = [sample_episode(split3, small_cfg, rng, 1) for _ in range(10)]
        batches.append(sample_episode(split3, small_cfg, rng, 32))
        assert batches[-1].rows.shape == (32, 3)
        for batch in batches:
            assert batch.labels == ["a", "b", "c"]
            for candidates, t, perm in episodes_of(batch):
                assert [label_of(split3, row) for row in candidates] == \
                    ["a", "b", "c"]
                assert 0 <= t < 3
                assert label_of(split3, candidates[t]) == batch.labels[t]
                assert sorted(perm) == [0, 1, 2]

    def test_target_index_uniform(self, small_cfg, split3):
        batch = sample_episode(split3, small_cfg, np.random.default_rng(1),
                               10000)
        counts = np.bincount(batch.target_index, minlength=3)
        assert counts.sum() == 10000
        assert np.all(np.abs(counts / 10000 - 1 / 3) < 0.02)

    def test_same_seed_identical(self, small_cfg, split3):
        a = sample_episode(split3, small_cfg, np.random.default_rng(7), 5)
        b = sample_episode(split3, small_cfg, np.random.default_rng(7), 5)
        assert np.array_equal(a.target_index, b.target_index)
        assert np.array_equal(a.receiver_permutation, b.receiver_permutation)
        assert np.array_equal(a.rows, b.rows)

    def test_draws_match_one_uniform_row_per_episode(self, small_cfg,
                                                     split_uneven):
        # Reference: per episode, the next 2K + 1 doubles of the stream give
        # concept c's record floor(u[c] * size_c), the target floor(u[K] * K)
        # and the permutation that sorts u[K + 1:]; a batch's episodes are
        # the reference's in order, whatever its size.
        k = small_cfg.n_concepts
        pools = [split_uneven.by_label(c) for c in split_uneven.concept_set]
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for batch in [1] * 150 + [32] * 5:
            drawn = sample_episode(split_uneven, small_cfg, rng, batch)
            for candidates, t, perm in episodes_of(drawn):
                u = ref.random(2 * k + 1).tolist()
                rows = [pool[math.floor(x * len(pool))]
                        for pool, x in zip(pools, u)]
                assert np.array_equal(candidates, split_uneven.features[rows])
                assert t == math.floor(u[k] * k)
                assert perm.tolist() == sorted(range(k),
                                               key=u[k + 1:].__getitem__)

    @pytest.mark.parametrize("u", [np.nextafter(1.0, 0.0), 0.0])
    def test_extreme_uniforms_stay_in_range(self, small_cfg, split_uneven, u):
        # The largest double below 1 picks each concept's last record and
        # the last target; 0.0 picks the first record and the first target.
        k = small_cfg.n_concepts
        drawn = sample_episode(split_uneven, small_cfg, ConstantRng(u), 4)
        end = -1 if u else 0
        assert (drawn.rows == [split_uneven.by_label(c)[end]
                               for c in split_uneven.concept_set]).all()
        assert (drawn.target_index == (k - 1 if u else 0)).all()
        assert (np.sort(drawn.receiver_permutation, axis=1)
                == np.arange(k)).all()

    def test_permutations_and_records_uniform(self, small_cfg, split_uneven):
        drawn = sample_episode(split_uneven, small_cfg,
                               np.random.default_rng(9), 12000)
        perms, counts = np.unique(drawn.receiver_permutation, axis=0,
                                  return_counts=True)
        assert len(perms) == 6
        assert np.all(np.abs(counts / 12000 - 1 / 6) < 0.02)
        # Every record of every class is some episode's candidate.
        assert np.array_equal(np.unique(drawn.rows),
                              np.arange(len(split_uneven)))

    def test_target_slot_independent_of_target_class(self, split5):
        # Sender-sees-all shows the target first, so the receiver's slot of
        # the target must not depend on which class is the target: over
        # 10,000 episodes, (target class, receiver slot) is uniform on K x K.
        cfg = GameConfig(variant="sender-sees-all")
        n, k = 10000, cfg.n_concepts
        drawn = sample_episode(split5, cfg, np.random.default_rng(13), n)
        rounds = np.arange(n)
        shown = drawn.rows[rounds[:, None], drawn.receiver_permutation]
        target_row = drawn.rows[rounds, drawn.target_index]
        slot = (shown == target_row[:, None]).argmax(axis=1)
        counts = np.bincount(drawn.target_index * k + slot, minlength=k * k)
        expected = n / (k * k)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 51.18  # the 0.999 quantile of chi-square, 24 dof

    def test_empty_concept_names_it(self, small_cfg, split3):
        keep = split3.labels != "b"
        empty = Dataset(split3.features[keep], split3.labels[keep],
                        ["a", "b", "c"])
        with pytest.raises(DataError, match="'b'"):
            sample_episode(empty, small_cfg, np.random.default_rng(0), 1)

    def test_concept_count_mismatch(self, split3):
        cfg = GameConfig(n_concepts=5, vocab_size=10, feature_dim=6,
                         embed_dim=4, conv_filters=3, conv_width=2)
        with pytest.raises(ContractError):
            sample_episode(split3, cfg, np.random.default_rng(0), 1)


class TestPlayRound:
    def test_uniform_log_probs_loss_is_log_k(self, small_cfg, split3):
        # Zero receiver params produce uniform scores, so loss = ln K.
        rng = np.random.default_rng(2)
        sender, receiver = init_params(small_cfg, 0)
        for tensor in receiver.named().values():
            tensor.data = np.zeros_like(tensor.data)
        ep = sample_episode(split3, small_cfg, rng, 8)
        outcome, _, _ = play_round(ep, sender, receiver, small_cfg)
        assert np.abs(outcome.loss - np.log(3)).max() < 1e-12

    def test_chance_level_for_random_agents(self, small_cfg, split3):
        # A single random init can exceed chance by accidental sender and
        # receiver alignment, so average a few init seeds.
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(3)
            sender, receiver = init_params(small_cfg, seed)
            ep = sample_episode(split3, small_cfg, rng, 1000)
            outcome, _, _ = play_round(ep, sender, receiver, small_cfg)
            accs.append(outcome.correct.mean())
        assert abs(np.mean(accs) - 1 / 3) < 0.05

    def test_eval_hard_deterministic(self, small_cfg, split3):
        sender, receiver = init_params(small_cfg, 2)
        ep = sample_episode(split3, small_cfg, np.random.default_rng(4), 20)
        a, _, _ = play_round(ep, sender, receiver, small_cfg)
        b, _, _ = play_round(ep, sender, receiver, small_cfg)
        assert list(a) == list(b)

    def test_loss_nonnegative_and_outcome_consistent(self, small_cfg, split3):
        rng = np.random.default_rng(5)
        sender, receiver = init_params(small_cfg, 3)
        ep = sample_episode(split3, small_cfg, rng, 50)
        outcome, _, _ = play_round(ep, sender, receiver, small_cfg,
                                   small_cfg.temperature, rng)
        assert len(outcome) == 50
        for row, (candidates, t, perm) in zip(outcome, episodes_of(ep)):
            assert row.loss >= 0
            assert 0 <= row.symbol_index < small_cfg.vocab_size
            target_pos = int(np.nonzero(perm == t)[0][0])
            assert row.correct == (row.receiver_guess == target_pos)
            assert row.target_label == label_of(split3, candidates[t])

    def test_round_records_twelve_tape_nodes(self, split3):
        for variant in ("sender-sees-all", "sender-sees-target"):
            cfg = GameConfig(n_concepts=3, vocab_size=8, feature_dim=6,
                             embed_dim=4, conv_filters=3, conv_width=2,
                             variant=variant)
            rng = np.random.default_rng(6)
            sender, receiver = init_params(cfg, 0)
            ep = sample_episode(split3, cfg, rng, 1)
            _, tape, _ = play_round(ep, sender, receiver, cfg,
                                    cfg.temperature, rng)
            assert len(tape.nodes) == 12, variant


@pytest.fixture
def split5():
    return generate_synthetic(SyntheticSpec(n_per_class=(12,) * 5, seed=3))


class TestBatchedRound:
    @pytest.mark.parametrize("variant", ["sender-sees-all",
                                         "sender-sees-target"])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_matches_looped_single_rounds(self, split5, variant, batch):
        # Acceptance-size game. Reference: the same episodes, drawn and
        # played one at a time (batches of 1) with their Gumbel noise drawn
        # in order from one generator, the gradients accumulated over the
        # loop. One (B, V) noise draw is B (V,) draws.
        cfg = GameConfig(variant=variant)
        episodes = sample_episode(split5, cfg, np.random.default_rng(11),
                                  batch)
        ref_params = init_params(cfg, 4)
        ref_rng, ref_rows = np.random.default_rng(11), []
        ref_gumbel = np.random.default_rng(12)
        for b in range(batch):
            outcome, tape, loss = play_round(
                sample_episode(split5, cfg, ref_rng, 1), *ref_params, cfg,
                0.8, ref_gumbel)
            backward(tape, loss)
            ref_rows += list(outcome)
        params = init_params(cfg, 4)
        outcome, tape, loss = play_round(episodes, *params, cfg, 0.8,
                                         np.random.default_rng(12))
        assert len(tape.nodes) == 12
        backward(tape, loss)
        ref_mean = np.mean([row.loss for row in ref_rows])
        assert abs(loss.data[0] / batch - ref_mean) <= 1e-12 * ref_mean
        assert abs(outcome.loss.mean() - ref_mean) <= 1e-12 * ref_mean
        for row, ref in zip(outcome, ref_rows, strict=True):
            assert (row.receiver_guess, row.correct, row.symbol_index,
                    row.target_label) == (ref.receiver_guess, ref.correct,
                                          ref.symbol_index, ref.target_label)
        ref_named = named_params(*ref_params)
        for name, p in named_params(*params).items():
            ref_grad = ref_named[name].grad
            assert np.abs(p.grad - ref_grad).max() <= \
                1e-13 * np.abs(ref_grad).max(), name
