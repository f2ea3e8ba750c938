"""Episode sampling and batched play of the referential game."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .agents import Variant, receiver_forward, sender_forward
from .errors import ContractError, DataError


@dataclass
class Episode:
    """A batch of B episodes: per episode, K candidates (one record per
    concept, in concept order, so the target's class is labels[target_index])
    as row indices into the split's feature matrix, a target and the order in
    which the receiver will see the candidates."""
    features: np.ndarray  # the split's (N, F) matrix, shared, not copied
    labels: list  # the split's K class names in concept order, shared
    rows: np.ndarray  # (B, K)
    target_index: np.ndarray  # (B,)
    receiver_permutation: np.ndarray  # (B, K)


Round = namedtuple("Round", "loss receiver_guess correct symbol_index "
                             "target_label")


@dataclass
class RoundOutcome:
    """A batch of rounds' results: a (B,) array per field but `labels`, the
    class names in concept order. Iterating yields a Round per round."""
    loss: np.ndarray
    receiver_guess: np.ndarray
    correct: np.ndarray
    symbol_index: np.ndarray
    target_index: np.ndarray  # the target's class index into labels
    labels: list

    def __len__(self):
        return len(self.loss)

    def __iter__(self):
        return map(Round, self.loss.tolist(), self.receiver_guess.tolist(),
                   self.correct.tolist(), self.symbol_index.tolist(),
                   map(self.labels.__getitem__, self.target_index.tolist()))


def sample_episode(split, cfg, rng, batch):
    """Draw `batch` episodes as one Episode of index arrays: per episode,
    one record per concept, a uniform target and a uniform permutation of
    the candidate slots shown to the receiver.

    One u = rng.random((batch, 2K + 1)) gives every draw: per episode, record
    pick floor(u[k] * size_k) of concept k, target floor(u[K] * K) and the
    permutation that sorts u[K + 1:]. Picks stay in range: for u < 1 under
    round-to-nearest, floor(u * n) < n, and the bias is at most n / 2**53.
    Each episode takes the next 2K + 1 doubles of the stream, so episode b of
    a batch is the b-th of a run of batch-of-1 draws, whatever the batch
    size.
    """
    if len(split.concept_set) != cfg.n_concepts:
        raise ContractError("split has %d concepts, config expects %d"
                            % (len(split.concept_set), cfg.n_concepts))
    order, starts, sizes = split.class_rows()
    if not sizes.all():
        raise DataError("concept %r has no records in this split"
                        % split.concept_set[int(np.argmin(sizes))])
    k = cfg.n_concepts
    u = rng.random((batch, 2 * k + 1))
    picks = (u[:, :k] * sizes).astype(np.int64)
    return Episode(split.features, split.concept_set, order[starts + picks],
                   (u[:, k] * k).astype(np.int64),
                   u[:, k + 1:].argsort(axis=1, kind="stable"))


def play_round(episode, sender, receiver, cfg, temperature=None, rng=None):
    """Play every round of a batched episode on one tape; returns
    (RoundOutcome, tape, loss tensor). The loss is the sum of the rounds'
    losses, so its gradients are the sum of theirs. With no `temperature`
    the sender sends its argmax symbol; otherwise a Gumbel-softmax sample at
    that temperature, with (B, V) noise drawn from `rng`.

    The sender sees the candidates target-first (SENDER_SEES_ALL) or the
    target alone; the receiver sees the candidates under the episode's
    permutation and must point at the target's permuted position.
    """
    tape = ad.Tape()
    t, perm, rows = (episode.target_index, episode.receiver_permutation,
                     episode.rows)
    rounds = np.arange(len(t))[:, None]
    if cfg.variant is Variant.SENDER_SEES_ALL:
        # Stable sort of "is not the target": the target, then the others
        # in concept order.
        order = np.argsort(np.arange(cfg.n_concepts) != t[:, None], axis=1,
                           kind="stable")
    else:
        order = t[:, None]
    symbol, _logits = sender_forward(
        tape, sender, cfg, episode.features[rows[rounds, order]],
        temperature, rng)
    log_probs = receiver_forward(tape, receiver, cfg, symbol,
                                 episode.features[rows[rounds, perm]])
    target_pos = (perm == t[:, None]).argmax(axis=1)
    loss = ad.nll_loss(tape, log_probs, target_pos)
    guess = log_probs.data.argmax(axis=1)
    outcome = RoundOutcome(
        loss=-log_probs.data[rounds[:, 0], target_pos], receiver_guess=guess,
        correct=guess == target_pos, symbol_index=symbol.data.argmax(axis=1),
        target_index=t, labels=episode.labels)
    return outcome, tape, loss
