"""Episode sampling and single-round play of the referential game."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .agents import Mode, Variant, receiver_forward, sender_forward
from .errors import ContractError, DataError


@dataclass
class Episode:
    """K candidate feature rows (one per concept, in concept order), a
    target, and the order in which the receiver will see the candidates."""
    candidates: np.ndarray  # (K, F)
    target_index: int
    receiver_permutation: np.ndarray
    target_label: str


@dataclass
class RoundOutcome:
    loss: float
    receiver_guess: int
    correct: bool
    symbol_index: int
    target_label: str


def sample_episode(split, cfg, rng):
    """Draw one record per concept, a uniform target and a uniform
    permutation of the candidate slots shown to the receiver."""
    if len(split.concept_set) != cfg.n_concepts:
        raise ContractError("split has %d concepts, config expects %d"
                            % (len(split.concept_set), cfg.n_concepts))
    order, starts, sizes = split.class_rows()
    if not sizes.all():
        raise DataError("concept %r has no records in this split"
                        % split.concept_set[int(np.argmin(sizes))])
    # One draw per concept, in concept order: the same stream as a scalar
    # rng.integers(size) call per concept.
    rows = order[starts + rng.integers(sizes)]
    target = int(rng.integers(cfg.n_concepts))
    perm = rng.permutation(cfg.n_concepts)
    return Episode(split.features[rows], target, perm,
                   split.concept_set[target])


def play_round(episode, sender, receiver, cfg, rng, mode,
               temperature=None, noise=None):
    """Play one round; returns (outcome, tape, loss tensor).

    The sender sees the candidates target-first (SENDER_SEES_ALL) or the
    target alone; the receiver sees the candidates under the episode's
    permutation and must point at the target's permuted position.
    """
    tape = ad.Tape()
    t = episode.target_index
    feats = episode.candidates
    if cfg.variant is Variant.SENDER_SEES_ALL:
        sender_in = np.concatenate((feats[t:t + 1], feats[:t], feats[t + 1:]))
    else:
        sender_in = feats[t:t + 1]
    symbol, _logits = sender_forward(tape, sender, cfg, sender_in, mode,
                                     rng=rng, temperature=temperature,
                                     noise=noise)
    perm = episode.receiver_permutation
    log_probs = receiver_forward(tape, receiver, cfg, symbol, feats[perm])
    target_pos = int(np.nonzero(perm == t)[0][0])
    loss = ad.nll_loss(tape, log_probs, target_pos)
    guess = int(np.argmax(log_probs.data))
    outcome = RoundOutcome(
        loss=float(loss.data[0]),
        receiver_guess=guess,
        correct=guess == target_pos,
        symbol_index=int(np.argmax(symbol.data)),
        target_label=episode.target_label,
    )
    return outcome, tape, loss
