"""Command-line entry point: `gen-data`, `train` and `eval` subcommands.

Model hyperparameters live in a flat key=value config file, except the class
count and feature width, which `train` reads off its table; flags carry only
paths, seeds and episode counts. Every run directory receives a manifest
that reproduces the run bit-exactly when fed back as the config.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .agents import GameConfig
from .analysis import build_report, export_symbol_distribution, write_report
from .data import (DEFAULT_COUNTS, DEFAULT_LABELS, SPLIT_NAMES, SyntheticSpec,
                   generate_synthetic, load_table, save_table, standardize,
                   stratified_split)
from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DimensionError, ParameterError, TrainingError)
from .training import (TrainConfig, evaluate, history_csv, load_checkpoint,
                       run_config, train)


def _opt_int(s):
    """Integer, or None for "none" (an unset optional knob)."""
    return None if s.lower() == "none" else int(s)


# The GameConfig fields `train` reads off its table and no config sets: the
# labels fix the candidates per round, the feature columns the input width.
TABLE_FIELDS = ("n_concepts", "feature_dim")


def _converters(config_cls):
    """key -> converter for a config dataclass's fields but TABLE_FIELDS:
    the type of the field's default, or _opt_int for a None default."""
    return {f.name: _opt_int if f.default is None else type(f.default)
            for f in fields(config_cls) if f.name not in TABLE_FIELDS}


_SECTIONS = {"game": GameConfig, "train": TrainConfig}
# section -> key -> converter.
_KEYS = {name: _converters(cls) for name, cls in _SECTIONS.items()}


def parse_config_text(text, source="<config>"):
    """key -> value of each `key=value` line; a key may appear once."""
    kv, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected key=value, got %r"
                              % (source, lineno, line))
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError("%s line %d: key %r repeats line %d"
                              % (source, lineno, key, first_line[key]))
        first_line[key] = lineno
        kv[key] = value.strip()
    return kv


def resolve_configs(kv, source="<config>", **table_fields):
    """Turn flat key=value pairs into (GameConfig, TrainConfig), with the
    TABLE_FIELDS given as keywords (their GameConfig defaults otherwise)."""
    values = {"game": dict(table_fields), "train": {}}
    for key, value in kv.items():
        prefix, _, name = key.partition(".")
        known = _KEYS.get(prefix, {})
        if name not in known:
            raise ConfigError("%s: unknown key %r" % (source, key))
        try:
            values[prefix][name] = known[name](value)
        except (ValueError, TypeError):
            raise ConfigError("%s: bad value for key %r: %r"
                              % (source, key, value))
    if "variant" not in values["game"]:
        raise ConfigError("%s: missing required key 'game.variant'" % source)
    try:
        return tuple(cls(**values[n]) for n, cls in _SECTIONS.items())
    except ValueError as exc:
        raise ConfigError("%s: %s" % (source, exc))


def _write_manifest(path, header_pairs, config=None):
    lines = ["# cellang %s" % __version__]
    lines += ["# %s=%s" % (k, v) for k, v in header_pairs]
    # "none" is how resolve_configs reads a None value back.
    lines += ["%s=%s" % (k, "none" if v is None else v)
              for k, v in (config or {}).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepare_splits(data_path):
    """The standardized (train, val, test) splits of a table: every run
    splits with seed 0, its classes the table's labels in order of first
    appearance."""
    return standardize(*stratified_split(load_table(data_path), seed=0))


def cmd_gen_data(args):
    try:
        counts = tuple(int(v) for v in args.counts.split(","))
    except ValueError:
        raise ConfigError("--counts must be comma-separated integers, got %r"
                          % args.counts)
    labels = tuple(args.labels.split(","))
    try:
        spec = SyntheticSpec(n_per_class=counts, labels=labels,
                             class_separation=args.delta,
                             noise_sigma=args.sigma, seed=args.seed,
                             feature_dim=args.feature_dim)
    except DataError as exc:
        raise ConfigError(str(exc))
    dataset = generate_synthetic(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_table(dataset, out)
    _write_manifest(str(out) + ".spec", [("command", "gen-data")],
                    {"counts": ",".join(str(c) for c in counts),
                     "labels": args.labels, "delta": args.delta,
                     "sigma": args.sigma, "seed": args.seed,
                     "feature_dim": args.feature_dim})
    print("wrote %d records to %s" % (len(dataset), out))
    return 0


def cmd_train(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (args.config, exc))
    kv = parse_config_text(text, args.config)
    train_split, val_split, _ = _prepare_splits(args.data)
    game_cfg, train_cfg = resolve_configs(
        kv, args.config, n_concepts=len(train_split.concept_set),
        feature_dim=train_split.features.shape[1])
    out = Path(args.out)  # train makes it once a resume is accepted

    def log(row):
        if not args.quiet:
            print("epoch %3d  loss %.4f  val_acc %.3f" %
                  (row["epoch"], row["train_loss"], row["val_accuracy"]))

    _, _, history = train(train_split, val_split, game_cfg, train_cfg,
                          checkpoint_path=out / "checkpoint.npz",
                          resume_from=args.resume, log=log)
    (out / "history.csv").write_text(history_csv(history), encoding="utf-8")
    config = run_config(game_cfg, train_cfg)
    # As comments, so a replay reads them off the table again.
    shape = [("game." + k, config.pop("game." + k)) for k in TABLE_FIELDS]
    _write_manifest(out / "manifest.txt",
                    [("command", "train"), ("data", args.data)] + shape, config)
    print("best val accuracy: %.4f" % max(r["val_accuracy"] for r in history))
    return 0


def cmd_eval(args):
    if args.episodes < 1:
        raise ConfigError("--episodes must be >= 1, got %d" % args.episodes)
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0, got %d" % args.seed)
    state = load_checkpoint(args.checkpoint)
    game_cfg = state.game_cfg
    splits = _prepare_splits(args.data)
    state.check_data(*splits[:2])
    split = splits[SPLIT_NAMES.index(args.split)]
    sender, receiver = state.best()
    outcomes = evaluate(sender, receiver, split, game_cfg,
                        args.episodes, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = build_report(outcomes, split.concept_set, game_cfg.vocab_size)
    write_report(report, out / "report.txt")
    export_symbol_distribution(outcomes, out / "symbols.csv",
                               split.concept_set, game_cfg.vocab_size)
    _write_manifest(out / "manifest.txt",
                    [("command", "eval"), ("checkpoint", args.checkpoint),
                     ("data", args.data), ("split", args.split),
                     ("episodes", args.episodes), ("seed", args.seed)])
    print("accuracy %.4f  symbols used %.3f  MI %.3f bits"
          % (report.identification_accuracy, report.symbols_used_fraction,
             report.mutual_information_bits))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="cellang",
                     description="Two-agent signaling games over cell "
                                 "feature vectors.")
    parser.add_argument("--version", action="version",
                        version="cellang " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic feature table")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=5.0,
                   help="class separation")
    p.add_argument("--sigma", type=float, default=1.0, help="noise stddev")
    p.add_argument("--counts", default=",".join(str(c) for c in DEFAULT_COUNTS))
    p.add_argument("--labels", default=",".join(DEFAULT_LABELS))
    p.add_argument("--feature-dim", type=int, default=28)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train sender and receiver")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and report "
                                    "language metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except (TrainingError, CheckpointError, DimensionError, ContractError,
            ParameterError, OSError) as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
