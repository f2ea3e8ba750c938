import csv
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cellang import training
from cellang.analysis import contingency
from cellang.cli import (_KEYS, _SECTIONS, main, parse_config_text,
                         resolve_configs)
from cellang.data import load_table, save_table, stratified_split
from cellang.errors import ConfigError
from cellang.game import play_round

TINY_CONFIG = """\
# tiny run for tests
game.variant=sender-sees-all
game.n_concepts=3
game.vocab_size=8
game.feature_dim=6
game.embed_dim=4
game.conv_filters=3
game.conv_width=2
train.seed=0
train.max_epochs=2
train.episodes_per_epoch=40
train.eval_episodes=30
"""


def with_line(line, config=TINY_CONFIG):
    """`config` with `line` in place of the line that sets the same key, or
    with `line` appended when none does."""
    key = line.partition("=")[0]
    kept = [l for l in config.splitlines() if l.partition("=")[0] != key]
    return "\n".join(kept + [line]) + "\n"


README = (Path(__file__).resolve().parents[1] / "README.md"
          ).read_text(encoding="utf-8")

GEN_ARGS = ["gen-data", "--counts", "30,30,30", "--labels", "a,b,c",
            "--feature-dim", "6", "--delta", "4.0"]


@pytest.fixture
def tiny_run(tmp_path):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(GEN_ARGS + ["--out", str(data)]) == 0
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out), "--quiet"]) == 0
    return tmp_path, data, cfg, out


class TestConfigParsing:
    def test_round_trip(self):
        kv = parse_config_text(TINY_CONFIG)
        game_cfg, train_cfg = resolve_configs(kv)
        assert game_cfg.vocab_size == 8
        assert train_cfg.max_epochs == 2

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="game.bogus"):
            resolve_configs(parse_config_text("game.variant=sender-sees-all\n"
                                              "game.bogus=1\n"))

    def test_missing_variant_named(self):
        with pytest.raises(ConfigError, match="game.variant"):
            resolve_configs(parse_config_text("game.vocab_size=10\n"))

    def test_repeated_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError,
                           match="line 3: key 'train.seed' repeats line 2"):
            parse_config_text("game.variant=sender-sees-all\ntrain.seed=0\n"
                              "train.seed=5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + "train.seed=5\n")
        assert main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "unread.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "line 13: key 'train.seed' repeats line 9" in \
            capsys.readouterr().err

    def test_readme_key_table_lists_every_key(self):
        section = README.split("### Config file keys", 1)[1].split("\n#")[0]
        rows = dict(re.findall(r"^\| `(\w+)\.` \| (.*) \|$", section, re.M))
        assert set(rows) == set(_KEYS) == {"game", "train"}
        for name, keys in rows.items():
            assert set(re.findall(r"`(\w+)`", keys)) == set(_KEYS[name]), name
            # Every numeric or None default is stated, as the first word in
            # the parentheses after its key, and is the dataclass's default.
            stated = dict(re.findall(r"`(\w+)` \(([\w.+-]+)", keys))
            for f in fields(_SECTIONS[name]):
                if f.default is None:
                    assert stated.get(f.name) == "none", (name, f.name)
                elif type(f.default) in (int, float):
                    assert f.name in stated and \
                        float(stated[f.name]) == f.default, (name, f.name)

    def test_readme_states_checkpoint_version(self):
        stated = re.findall(r"current\s+`CHECKPOINT_VERSION`\s+is\s+(\d+)",
                            README)
        assert stated == [str(training.CHECKPOINT_VERSION)]

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="train.seed"):
            resolve_configs(parse_config_text("game.variant=sender-sees-all\n"
                                              "train.seed=abc\n"))


class TestGenData:
    def test_default_spec_row_count(self, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["gen-data", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4126
        assert (tmp_path / "full.csv.spec").exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(GEN_ARGS + ["--out", str(a), "--seed", "3"])
        main(GEN_ARGS + ["--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_delta_zero_near_chance_for_centroids(self, tmp_path):
        out = tmp_path / "null.csv"
        main(["gen-data", "--counts", "300,300,300", "--labels", "a,b,c",
              "--feature-dim", "6", "--delta", "0", "--out", str(out)])
        from cellang.data import load_table
        ds = load_table(out)
        centroids = {c: ds.features[ds.labels == c].mean(axis=0)
                     for c in ds.concept_set}
        correct = sum(
            min(centroids, key=lambda c: np.sum((row - centroids[c]) ** 2))
            == label for row, label in zip(ds.features, ds.labels))
        assert abs(correct / len(ds) - 1 / 3) < 0.1

    def test_invalid_counts_usage_error(self, tmp_path, capsys):
        for counts in ("0,5", "3,x"):
            code = main(["gen-data", "--counts", counts, "--labels", "a,b",
                         "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert "config error:" in capsys.readouterr().err

    def test_invalid_spec_usage_error(self, tmp_path, capsys):
        # The last three: a repeated label, an empty one, and fewer features
        # than non-null classes (no room for a block each).
        for flag, value in (("--sigma", "nan"), ("--delta", "inf"),
                            ("--feature-dim", "-1"), ("--seed", "-1"),
                            ("--labels", "a,a,b"), ("--labels", "a,,b"),
                            ("--feature-dim", "1")):
            out = tmp_path / "x.csv"
            code = main(GEN_ARGS + [flag, value, "--out", str(out)])
            assert code == 1, flag
            assert "config error:" in capsys.readouterr().err
            assert not out.exists()


class TestTrain:
    def test_outputs_exist(self, tiny_run):
        _, _, _, out = tiny_run
        assert (out / "checkpoint.npz").exists()
        assert (out / "manifest.txt").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_accuracy,temperature"
        assert len(history) == 3

    def test_manifest_reproduces_run(self, tiny_run):
        tmp_path, data, _, out = tiny_run
        out2 = tmp_path / "run2"
        assert main(["train", "--config", str(out / "manifest.txt"),
                     "--data", str(data), "--out", str(out2),
                     "--quiet"]) == 0
        assert (out / "history.csv").read_bytes() == \
            (out2 / "history.csv").read_bytes()

    def test_missing_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("game.vocab_size=10\n")
        data = tmp_path / "d.csv"
        main(GEN_ARGS + ["--out", str(data)])
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 1

    def test_out_of_range_train_key_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(GEN_ARGS + ["--out", str(data)])
        cfg = tmp_path / "bad.cfg"
        for bad in ("train.episodes_per_epoch=0", "train.learning_rate=nan",
                    "train.learning_rate=inf", "game.temperature=nan",
                    "train.seed=-1",
                    # Lines of a manifest written before the per-stream seed
                    # overrides, the data section (split_seed, labels and
                    # standardize), the Adam constants and the temperature
                    # schedule were removed: refused as unknown keys, never
                    # run differently.
                    "data.split_seed=-1", "data.labels=a,b,c,a",
                    "data.labels=a,,b,c",
                    "train.init_seed=5", "data.standardize=true",
                    "train.beta1=0.9", "train.temp_decay_epochs=0"):
            cfg.write_text(with_line(bad))
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "o")]) == 1, bad
            field = bad.partition("=")[0].partition(".")[2]
            assert field in capsys.readouterr().err, bad
            assert not (tmp_path / "o" / "history.csv").exists()

    @staticmethod
    def train_under_blas_threads(tmp_path, config, gen_args):
        """Train the same run with 1 and with 2 OpenBLAS threads, each in
        its own process; returns each run's (history.csv bytes, checkpoint
        arrays)."""
        data = tmp_path / "d.csv"
        assert main(gen_args + ["--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        src = Path(__file__).resolve().parents[1] / "src"
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads" + threads)
            env = dict(os.environ, PYTHONPATH=str(src),
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "cellang.cli", "train", "--config",
                 str(cfg), "--data", str(data), "--out", str(out), "--quiet"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            with np.load(out / "checkpoint.npz") as npz:
                arrays = {k: npz[k].tobytes() for k in npz.files
                          if k != "meta"}
            runs.append(((out / "history.csv").read_bytes(), arrays))
        return runs

    def test_history_independent_of_blas_threads(self, tmp_path):
        (h1, _), (h2, _) = self.train_under_blas_threads(
            tmp_path, TINY_CONFIG, GEN_ARGS)
        assert h1 == h2

    def test_acceptance_size_independent_of_blas_threads(self, tmp_path):
        # The default game: sender-sees-all's 1420 -> 100 output linear over
        # a 32-round minibatch is large enough for OpenBLAS to thread.
        config = ("game.variant=sender-sees-all\ntrain.max_epochs=2\n"
                  "train.episodes_per_epoch=96\ntrain.eval_episodes=64\n")
        (h1, a1), (h2, a2) = self.train_under_blas_threads(
            tmp_path, config, ["gen-data"])
        assert h1 == h2
        assert a1 == a2

    def test_refused_resume_leaves_run_untouched(self, tiny_run, capsys):
        tmp_path, data, _, out = tiny_run
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        cfg = tmp_path / "resume.cfg"
        for changed in ("train.learning_rate=0.05", "train.eval_episodes=20"):
            cfg.write_text(with_line(changed))
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out), "--quiet",
                         "--resume", str(out / "checkpoint.npz")]) == 1
            err = capsys.readouterr().err
            assert "resume may change only" in err
            assert changed.partition("=")[0] in err
            assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        # An unchanged config resumes.
        cfg.write_text(TINY_CONFIG.replace("max_epochs=2", "max_epochs=3"))
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "more"), "--quiet",
                     "--resume", str(out / "checkpoint.npz")]) == 0

    def test_resume_of_finished_run_trains_no_epoch(self, tmp_path):
        data, cfg = tmp_path / "data.csv", tmp_path / "run.cfg"
        assert main(GEN_ARGS + ["--out", str(data)]) == 0
        config = with_line("train.max_epochs=30",
                           with_line("train.early_stop_patience=2"))
        cfg.write_text(config)
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfg), "--data", str(data), "--quiet"]
        assert main(argv + ["--out", str(out)]) == 0
        history = (out / "history.csv").read_bytes()
        assert len(history.splitlines()) - 1 < 30  # patience ended it
        resume = ["--resume", str(out / "checkpoint.npz")]
        assert main(argv + ["--out", str(out)] + resume) == 0
        assert (out / "history.csv").read_bytes() == history
        # A raised patience trains on from where the run stopped.
        cfg.write_text(with_line("train.early_stop_patience=4", config))
        assert main(argv + ["--out", str(tmp_path / "more")] + resume) == 0
        longer = (tmp_path / "more" / "history.csv").read_bytes()
        assert longer.startswith(history) and len(longer) > len(history)

    def test_non_finite_loss_exit_code(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d.csv"
        main(GEN_ARGS + ["--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)

        def poisoned(*args):
            outcome, tape, loss = play_round(*args)
            outcome.loss[0] = np.nan
            return outcome, tape, loss

        monkeypatch.setattr(training, "play_round", poisoned)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--quiet"]) == 3
        assert "non-finite loss at epoch 0" in capsys.readouterr().err
        # No epoch ended, so nothing was saved, and no history was written.
        assert list(out.iterdir()) == []

    def test_class_missing_from_split_rejected_before_training(
            self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["gen-data", "--counts", "3,3,3", "--labels", "a,b,c",
              "--feature-dim", "6", "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 2
        assert "'a' (3 records) gets none in the test split" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_empty_label_rejected(self, tmp_path, capsys):
        # The table's own labels are the classes, and an empty one is
        # refused.
        data = tmp_path / "d.csv"
        main(GEN_ARGS + ["--out", str(data)])
        data.write_text(re.sub(r"(?m)^a,", ",", data.read_text()))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 2
        assert "distinct and non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG)
        assert main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 2


class TestEval:
    def test_outputs_and_consistency(self, tiny_run):
        tmp_path, data, _, out = tiny_run
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(data), "--split", "test",
                     "--episodes", "200", "--seed", "1",
                     "--out", str(ev)]) == 0
        with open(ev / "symbols.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["class", "symbol_index"] and len(rows) == 200
        # The long-form rows count up to the report's and the exported
        # class x symbol tables.
        labels = ["a", "b", "c"]
        table = contingency([labels.index(c) for c, _ in rows],
                            [int(v) for _, v in rows], labels, 8)
        report = (ev / "report.txt").read_text()
        assert "identification_accuracy=" in report
        for label, counts in zip(labels, table.counts.tolist()):
            assert "contingency.%s=%s" % (
                label, ",".join(map(str, counts))) in report.splitlines()
        with open(ev / "symbols_contingency.csv", newline="") as fh:
            exported = [row[1:] for row in list(csv.reader(fh))[1:]]
        assert np.array_equal(np.array(exported, dtype=int), table.counts)

    def test_byte_identical_reports(self, tiny_run):
        tmp_path, data, _, out = tiny_run
        evs = []
        for name in ("e1", "e2"):
            ev = tmp_path / name
            assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                         "--data", str(data), "--split", "val",
                         "--episodes", "100", "--seed", "7",
                         "--out", str(ev)]) == 0
            evs.append(ev)
        assert (evs[0] / "report.txt").read_bytes() == \
            (evs[1] / "report.txt").read_bytes()
        assert (evs[0] / "symbols.csv").read_bytes() == \
            (evs[1] / "symbols.csv").read_bytes()

    def test_written_numbers_are_python_floats(self, tiny_run):
        # '%r' of a numpy scalar reads np.float64(...) on numpy 2, so a
        # metric that leaks as a numpy scalar changes the files' bytes.
        tmp_path, data, _, out = tiny_run
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(data), "--episodes", "50",
                     "--out", str(ev)]) == 0
        history = (out / "history.csv").read_text()
        report = (ev / "report.txt").read_text()
        assert "np." not in history and "np." not in report
        header, *rows = history.splitlines()
        assert header == "epoch,train_loss,val_accuracy,temperature"
        assert len(rows) == 2
        for row in rows:
            epoch, *values = row.split(",")
            int(epoch)
            for value in values:
                assert repr(float(value)) == value
        for line in report.splitlines():
            key, value = line.split("=")
            if key.startswith(("majority_symbol.", "contingency.")):
                [int(v) for v in value.split(",")]
            else:
                assert repr(float(value)) == value, key

    def test_non_positive_episodes_usage_error(self, tiny_run, capsys):
        tmp_path, data, _, out = tiny_run
        for flag, value in (("--episodes", "0"), ("--episodes", "-5"),
                            ("--seed", "-1")):
            assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                         "--data", str(data), flag, value,
                         "--out", str(tmp_path / "ev")]) == 1, flag
            assert "config error:" in capsys.readouterr().err

    def test_other_table_rejected(self, tiny_run, capsys):
        tmp_path, _, cfg, out = tiny_run
        other = tmp_path / "other.csv"
        main(GEN_ARGS + ["--seed", "9", "--out", str(other)])
        capsys.readouterr()
        for argv in (["eval", "--checkpoint", str(out / "checkpoint.npz"),
                      "--out", str(tmp_path / "ev")],
                     ["train", "--config", str(cfg), "--quiet",
                      "--resume", str(out / "checkpoint.npz"),
                      "--out", str(tmp_path / "more")]):
            assert main(argv + ["--data", str(other)]) == 2, argv[0]
            assert "splits differ" in capsys.readouterr().err
            assert not (tmp_path / "ev").exists()

    def test_edited_test_row_rejected(self, tiny_run, capsys):
        # The fingerprint covers the whole table, so an edit to a row that
        # only the test split holds is refused too.
        tmp_path, data, _, out = tiny_run
        table = load_table(data)
        test_row = stratified_split(table, seed=0)[2].features[0]
        i = int(np.flatnonzero((table.features == test_row).all(axis=1))[0])
        table.features[i, 0] += 3.0
        save_table(table, data)
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(data), "--split", "test",
                     "--out", str(tmp_path / "ev")]) == 2
        assert "another table" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_dimension_mismatch_rejected(self, tiny_run, tmp_path):
        _, _, _, out = tiny_run
        other = tmp_path / "other.csv"
        main(["gen-data", "--counts", "30,30,30", "--labels", "a,b,c",
              "--feature-dim", "9", "--out", str(other)])
        code = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(other), "--out", str(tmp_path / "ee")])
        assert code == 2


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["train"]) == 1
