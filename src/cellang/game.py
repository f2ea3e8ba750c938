"""Episode sampling and play of the referential game, one round or a batch
of rounds at a time."""

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .agents import Mode, Variant, receiver_forward, sender_forward
from .errors import ContractError, DataError


@dataclass
class Episode:
    """K candidates (one record per concept, in concept order) as row indices
    into the split's feature matrix, a target, and the order in which the
    receiver will see the candidates. A batch of B episodes has a leading
    axis of B on every field but `features`."""
    features: np.ndarray  # the split's (N, F) matrix, shared, not copied
    rows: np.ndarray  # (K,) or (B, K)
    target_index: int  # or (B,)
    receiver_permutation: np.ndarray  # (K,) or (B, K)
    target_label: str  # or (B,)

    @property
    def candidates(self):
        """(K, F) or (B, K, F) candidate feature rows."""
        return self.features[self.rows]

    def __getitem__(self, index):
        """The batch's episode at an int index, or a batch for a slice."""
        return Episode(self.features, self.rows[index],
                       self.target_index[index],
                       self.receiver_permutation[index],
                       self.target_label[index])


@dataclass
class RoundOutcome:
    """One round's result; a batch's has one array entry per round."""
    loss: float
    receiver_guess: int
    correct: bool
    symbol_index: int
    target_label: str

    def rows(self):
        """A batch's outcome as one RoundOutcome of Python values per round."""
        return [RoundOutcome(*row) for row in zip(
            *(getattr(self, f.name).tolist() for f in fields(self)))]


def sample_episode(split, cfg, rng, batch=None):
    """Draw one record per concept, a uniform target and a uniform
    permutation of the candidate slots shown to the receiver; with `batch`,
    that many episodes as one batched Episode of index arrays.

    Each episode draws rng.integers(sizes) (one record per concept, in
    concept order), rng.integers(K) and rng.permutation(K), so episode b of
    a batch is the episode the b-th unbatched call would draw, whatever the
    batch size.
    """
    if len(split.concept_set) != cfg.n_concepts:
        raise ContractError("split has %d concepts, config expects %d"
                            % (len(split.concept_set), cfg.n_concepts))
    order, starts, sizes = split.class_rows()
    if not sizes.all():
        raise DataError("concept %r has no records in this split"
                        % split.concept_set[int(np.argmin(sizes))])
    k, n = cfg.n_concepts, 1 if batch is None else batch
    picks, perms = (np.empty((n, k), dtype=np.int64) for _ in range(2))
    targets = np.empty(n, dtype=np.int64)
    for b in range(n):
        picks[b] = rng.integers(sizes)
        targets[b] = rng.integers(k)
        perms[b] = rng.permutation(k)
    # An object array, so that outcome rows share the split's label strings.
    labels = np.array(split.concept_set, dtype=object)[targets]
    episodes = Episode(split.features, order[starts + picks], targets, perms,
                       labels)
    return episodes if batch is not None else episodes[0]


def play_round(episode, sender, receiver, cfg, rng, mode,
               temperature=None, noise=None):
    """Play one round, or every round of a batched episode on one tape;
    returns (outcome, tape, loss tensor). A batch's loss is the sum of its
    rounds' losses, so its gradients are the sum of theirs.

    The sender sees the candidates target-first (SENDER_SEES_ALL) or the
    target alone; the receiver sees the candidates under the episode's
    permutation and must point at the target's permuted position.
    """
    tape = ad.Tape()
    batched = episode.rows.ndim == 2
    if not batched:
        episode = Episode(episode.features, *(
            np.asarray(getattr(episode, f.name))[None]
            for f in fields(episode)[1:]))
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
        tape, sender, cfg, episode.features[rows[rounds, order]], mode,
        rng=rng, temperature=temperature, noise=noise)
    log_probs = receiver_forward(tape, receiver, cfg, symbol,
                                 episode.features[rows[rounds, perm]])
    target_pos = (perm == t[:, None]).argmax(axis=1)
    loss = ad.nll_loss(tape, log_probs, target_pos)
    guess = log_probs.data.argmax(axis=1)
    outcome = RoundOutcome(
        loss=-log_probs.data[rounds[:, 0], target_pos],
        receiver_guess=guess,
        correct=guess == target_pos,
        symbol_index=symbol.data.argmax(axis=1),
        target_label=episode.target_label,
    )
    return (outcome if batched else outcome.rows()[0]), tape, loss
