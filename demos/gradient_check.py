"""Finite-difference check of the round loss gradients.

Plays a single soft-symbol round (a batch of one) with the Gumbel noise
frozen, backpropagates through the tape, then compares a sample of each
parameter's gradient against a central finite difference of the replayed
round.

Run:  python3 demos/gradient_check.py
"""

import numpy as np

from cellang.agents import GameConfig, Variant, init_params, named_params
from cellang.autodiff import backward, sample_gumbel
from cellang.data import SyntheticSpec, generate_synthetic
from cellang.game import play_round, sample_episode


def round_loss(episode, sender, receiver, cfg, noise):
    _, tape, loss = play_round(episode, sender, receiver, cfg, cfg.temperature,
                               noise=noise)
    return tape, loss


def main():
    cfg = GameConfig(n_concepts=3, vocab_size=8, feature_dim=6, embed_dim=4,
                     conv_filters=3, conv_width=2,
                     variant=Variant.SENDER_SEES_ALL)
    spec = SyntheticSpec(n_per_class=(20, 20, 20), labels=("a", "b", "c"),
                         feature_dim=6, class_separation=3.0, seed=0)
    split = generate_synthetic(spec)

    rng = np.random.default_rng(0)
    episode = sample_episode(split, cfg, rng, 1)
    noise = sample_gumbel(rng, (1, cfg.vocab_size))
    sender, receiver = init_params(cfg, seed=1)

    tape, loss = round_loss(episode, sender, receiver, cfg, noise)
    backward(tape, loss)
    print("round loss: %.6f" % loss.data[0])

    eps = 1e-6
    worst = 0.0
    for name, p in named_params(sender, receiver).items():
        flat = p.data.reshape(-1)
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + eps
        _, lp = round_loss(episode, sender, receiver, cfg, noise)
        flat[idx] = orig - eps
        _, lm = round_loss(episode, sender, receiver, cfg, noise)
        flat[idx] = orig
        numeric = (lp.data[0] - lm.data[0]) / (2 * eps)
        analytic = p.grad.reshape(-1)[idx]
        err = abs(numeric - analytic) / max(1.0, abs(numeric))
        worst = max(worst, err)
        print("%-24s [%4d]  analytic % .6e  numeric % .6e  rel.err %.2e"
              % (name, idx, analytic, numeric, err))
    print("worst relative error: %.2e" % worst)
    assert worst < 1e-4


if __name__ == "__main__":
    main()
