"""End-to-end walkthrough on a small synthetic problem.

Generates a three-class Gaussian-mixture table, splits and standardizes it,
trains the sender/receiver pair for a few epochs, and prints the resulting
language report (accuracy, vocabulary usage, per-class majority symbols,
class/symbol mutual information).

Runs in well under a minute:  python3 demos/quickstart.py
"""

from cellang.agents import GameConfig, Variant
from cellang.analysis import build_report
from cellang.data import SyntheticSpec, generate_synthetic, standardize, \
    stratified_split
from cellang.training import TrainConfig, evaluate, train


def main():
    spec = SyntheticSpec(n_per_class=(120, 120, 120), labels=("a", "b", "c"),
                         feature_dim=6, class_separation=4.0, seed=0)
    train_s, val_s, test_s = standardize(
        *stratified_split(generate_synthetic(spec), seed=0))
    print("splits: train=%d val=%d test=%d"
          % (len(train_s), len(val_s), len(test_s)))

    game_cfg = GameConfig(n_concepts=3, vocab_size=8, feature_dim=6,
                          embed_dim=4, conv_filters=3, conv_width=2,
                          variant=Variant.SENDER_SEES_ALL)
    train_cfg = TrainConfig(max_epochs=40, episodes_per_epoch=400,
                            learning_rate=5e-3, seed=0)

    def log(row):
        print("epoch %2d  loss %.3f  val acc %.2f"
              % (row["epoch"], row["train_loss"], row["val_accuracy"]))

    sender, receiver, history = train(train_s, val_s, game_cfg, train_cfg,
                                      log=log)
    print("best val accuracy: %.3f"
          % max(row["val_accuracy"] for row in history))

    outcomes = evaluate(sender, receiver, test_s, game_cfg,
                        n_episodes=500, seed=99)
    report = build_report(outcomes, list(test_s.concept_set),
                          game_cfg.vocab_size)
    print("test accuracy:        %.3f" % report.identification_accuracy)
    print("vocab fraction used:  %.3f" % report.symbols_used_fraction)
    print("class/symbol MI bits: %.3f" % report.mutual_information_bits)
    for label, (symbol, purity) in sorted(report.majority_symbols.items()):
        print("  class %-2s -> symbol %d (purity %.2f)"
              % (label, symbol, purity))


if __name__ == "__main__":
    main()
