import filecmp
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import temporal_augmenter
from temporal_augmenter import cli, gradcheck, layers, optim
from temporal_augmenter import config as config_mod
from temporal_augmenter import data as data_mod
from temporal_augmenter.config import (
    PRESETS,
    TASKS,
    ConfigError,
    RunConfig,
    format_config,
    load_config,
    parse_config_text,
    preset_run_config,
)
from temporal_augmenter.data import (
    Dataset,
    DataSource,
    load_csv_signals,
    load_wav_dir,
    split_indices,
)
from temporal_augmenter.model import load_checkpoint, save_checkpoint
from temporal_augmenter.synth import (
    make_heartbeat_dataset,
    make_radar_dataset,
    write_heartbeat_csv,
    write_radar_csv,
    write_tone_corpus,
)
from temporal_augmenter.tensor_core import Rng


@pytest.fixture()
def radar_csv(tmp_path):
    path = tmp_path / "radar.csv"
    write_radar_csv(path, make_radar_dataset(120, Rng(400)))
    return path


def write_generic_csv(path, classes, rng):
    """Ten rows of six uniform features per class, labelled by ``classes``."""
    with open(path, "w") as fh:
        fh.write("f1,f2,f3,f4,f5,f6,label\n")
        for i in range(10 * len(classes)):
            row = ",".join(repr(float(v)) for v in rng.uniform((6,)))
            fh.write(row + f",{classes[i % len(classes)]}\n")


def train_custom(tmp_path, classes, rng) -> str:
    """Train a small custom model on a generic table; returns its checkpoint."""
    data = tmp_path / f"{'-'.join(classes)}.csv"
    write_generic_csv(data, classes, rng)
    out = tmp_path / f"run-{'-'.join(classes)}"
    cfg_path = tmp_path / f"cfg-{'-'.join(classes)}.txt"
    cfg_path.write_text(f"task = custom\nlabel_col = label\ndata = {data}\n"
                        f"out = {out}\nepochs = 1\nconv_filters = 4\n"
                        f"dense_sizes = 6\npool_size = 2\nbatch_size = 8\n")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return str(out / "checkpoint.tackpt")


def radar_config_text(data_path, out_dir, epochs=3):
    return (f"task = ionosphere\n"
            f"data = {data_path}\n"
            f"out = {out_dir}\n"
            f"seed = 11\n"
            f"epochs = {epochs}\n"
            f"conv_filters = 8\n"
            f"dense_sizes = 8,4\n")


# Each task's schema and its preset rendered by ``format_config``, recorded
# before the presets became config-key overrides, which moved none of them.
PRESET_SETTINGS = {
    "tess": ("wav", "task = tess\nseed = 0\nstandardize = true\nsplit_train = 0.7\n"
                    "split_val = 0.1\nsplit_test = 0.2\nstratified = false\n"
                    "target_len = 1024\noptimizer = rmsprop\nlr = 0.001\nepsilon = 1e-07\n"
                    "rho = 0.9\nmomentum = 0.0\nbeta1 = 0.9\nbeta2 = 0.999\n"
                    "batch_size = 32\nepochs = 20\nshuffle = true\n"),
    "mitbih": ("mitbih", "task = mitbih\nseed = 0\nstandardize = true\nsplit_train = 0.6\n"
                         "split_val = 0.2\nsplit_test = 0.2\nstratified = true\n"
                         "target_len = 1024\noptimizer = adam\nlr = 0.001\nepsilon = 1e-07\n"
                         "rho = 0.9\nmomentum = 0.0\nbeta1 = 0.9\nbeta2 = 0.999\n"
                         "batch_size = 128\nepochs = 50\nshuffle = true\n"),
    "ionosphere": ("ionosphere", "task = ionosphere\nseed = 0\nstandardize = true\n"
                                 "split_train = 0.6\nsplit_val = 0.2\nsplit_test = 0.2\n"
                                 "stratified = false\ntarget_len = 1024\noptimizer = adam\n"
                                 "lr = 0.001\nepsilon = 1e-07\nrho = 0.9\nmomentum = 0.0\n"
                                 "beta1 = 0.9\nbeta2 = 0.999\nbatch_size = 128\n"
                                 "epochs = 100\nshuffle = true\n"),
    "custom": ("generic", "task = custom\nseed = 0\nstandardize = true\nsplit_train = 0.6\n"
                          "split_val = 0.2\nsplit_test = 0.2\nstratified = false\n"
                          "target_len = 1024\noptimizer = adam\nlr = 0.001\nepsilon = 1e-07\n"
                          "rho = 0.9\nmomentum = 0.0\nbeta1 = 0.9\nbeta2 = 0.999\n"
                          "batch_size = 32\nepochs = 10\nshuffle = true\n"),
}

ABSENT = object()


def held_settings(cfg) -> dict:
    """(section or None, name) -> value of every field and model override
    that ``cfg`` holds."""
    held = {}
    for name, value in vars(cfg).items():
        inner = value if isinstance(value, dict) else getattr(value, "__dict__", None)
        if inner is None:
            held[(None, name)] = value
        else:
            held.update(((name, k), v) for k, v in inner.items())
    return held


class TestPresets:
    def test_tess_preset_hyperparameters(self):
        cfg = preset_run_config("tess")
        assert cfg.split.ratios == (0.7, 0.1, 0.2)
        assert cfg.train.optimizer == "rmsprop"
        assert cfg.train.lr == 1e-3
        assert cfg.train.momentum == 0.0
        assert cfg.train.epsilon == 1e-7
        assert cfg.train.batch_size == 32
        assert cfg.train.epochs == 20

    def test_mitbih_preset_hyperparameters(self):
        cfg = preset_run_config("mitbih")
        assert cfg.split.ratios == (0.6, 0.2, 0.2)
        assert cfg.split.stratified is True
        assert cfg.train.optimizer == "adam"
        assert cfg.train.batch_size == 128
        assert cfg.train.epochs == 50
        assert cfg.train.epsilon == 1e-7

    def test_ionosphere_preset_hyperparameters(self):
        cfg = preset_run_config("ionosphere")
        assert cfg.split.ratios == (0.6, 0.2, 0.2)
        assert cfg.train.optimizer == "adam"
        assert cfg.train.batch_size == 128
        assert cfg.train.epochs == 100

    def test_every_preset_resolves_to_its_recorded_settings(self):
        for task in TASKS:
            cfg = preset_run_config(task)
            assert (cfg.schema, format_config(cfg)) == PRESET_SETTINGS[task], task

    def test_presets_hold_only_keys_that_differ_from_the_defaults(self):
        defaults = held_settings(RunConfig(task="custom"))
        for task, (_, overrides) in PRESETS.items():
            for key, value in overrides.items():
                cfg = RunConfig(task="custom")
                cfg.set(key, value)
                assert held_settings(cfg) != defaults, (task, key)


# Each is set as the value of every config key in the property test below.
BAD_TEXT_VALUES = ["", "-1", "0", "1.5", "true", str(2 ** 40), "x", "nan", "inf", "1e999",
                   "\xff", ",", "0" * 70]


class TestConfigParsing:
    def test_overrides_apply_after_preset(self):
        cfg = parse_config_text("task = mitbih\nepochs = 7\nbatch_size = 16\n"
                                "dropout_stream = 0.25\nstreams = gru\n")
        assert cfg.train.epochs == 7
        assert cfg.train.batch_size == 16
        assert cfg.model_overrides["dropout_stream"] == 0.25
        assert cfg.model_overrides["streams"] == ("gru",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("task = tess\nbogus = 1\n")

    def test_missing_task_rejected(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config_text("epochs = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("task = tess\nepochs = 1\nepochs = 2\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\ntask = ionosphere  # trailing\nseed = 4\n")
        assert cfg.task == "ionosphere"
        assert cfg.seed == 4

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config_text("task = tess\nepochs = three\n")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("task = tess\nstratified = maybe\n")

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("task = tess\nsplit_train = 0.9\n")
        with pytest.raises(ConfigError, match="positive ratios"):
            parse_config_text("task = tess\nsplit_val = nan\n")

    def test_custom_requires_label_col(self):
        with pytest.raises(ConfigError, match="label_col"):
            parse_config_text("task = custom\n")

    def test_data_root_env(self, tmp_path, monkeypatch):
        cfg = parse_config_text("task = ionosphere\ndata = sub/file.csv\n")
        monkeypatch.setenv("TEMPORAL_AUGMENTER_DATA", str(tmp_path))
        assert cfg.resolved_data_path() == str(tmp_path / "sub" / "file.csv")
        monkeypatch.delenv("TEMPORAL_AUGMENTER_DATA")
        assert cfg.resolved_data_path() == "sub/file.csv"

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.txt")

    def test_config_that_is_not_utf8_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_bytes(b"task = ionosphere\n# caf\xe9\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert f"config error: {cfg_path}: not UTF-8 text" in capsys.readouterr().err

    def test_value_error_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"^run\.cfg:2: seed: expected int"):
            parse_config_text("task = tess\nseed = 1.5\n", source="run.cfg")

    @pytest.mark.parametrize("line,named", [
        ("conv_filters = 0", "conv_filters must be positive, got 0"),
        ("lstm_units = -1", "lstm_units must be positive"),
        ("pool_size = 0", "pool_size must be positive"),
        ("dropout_stream = 1.0", "dropout_stream must be in [0, 1)"),
        ("dropout_head = -0.1", "dropout_head must be in [0, 1)"),
        ("conv_activation = tanh", "conv_activation must be"),
        ("dense_sizes = 8,0", "dense_sizes must be positive"),
        ("streams = gru,rnn", "streams must be a non-empty subset"),
        ("streams =", "streams must be a non-empty subset"),
        ("streams = lstm,lstm", "duplicate stream"),
    ])
    def test_model_rule_names_source_and_line(self, line, named):
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"task = tess\nseed = 1\n{line}\n", source="run.cfg")
        assert str(info.value).startswith("run.cfg:3: ") and named in str(info.value)

    def test_every_key_holding_any_bad_value_parses_or_raises_config_error(self):
        """Whatever one key's line holds, the parser returns a config, which
        ``format_config`` renders as text that reads back to it, or raises a
        ConfigError naming the source; no other exception escapes."""
        for key in config_mod._KEYS:
            for value in BAD_TEXT_VALUES:
                lines = {"task": "custom", "label_col": "y", key: value}
                text = "".join(f"{k} = {v}\n" for k, v in lines.items())
                try:
                    cfg = parse_config_text(text, source="run.cfg")
                except ConfigError as exc:
                    assert str(exc).startswith("run.cfg"), (key, value)
                    continue
                assert parse_config_text(format_config(cfg)) == replace(cfg, data=None, out=None)

    def test_each_key_sets_exactly_one_field(self):
        """Setting any key on any preset changes one field of the config, or
        adds one model override, and nothing else; ``seed`` changes ``seed``
        alone."""
        for task, key in itertools.product(TASKS, config_mod._KEYS):
            cfg = preset_run_config(task)
            before = held_settings(cfg)
            marker = object()
            cfg.set(key, marker)
            after = held_settings(cfg)
            changed = {name for name in before.keys() | after.keys()
                       if before.get(name, ABSENT) != after.get(name, ABSENT)}
            assert len(changed) == 1, (task, key, changed)
            (name,) = changed
            value = after[name]
            assert value is marker or (isinstance(value, tuple) and marker in value), (task, key)
            if key == "seed":
                assert name == (None, "seed")

    def test_a_key_that_two_fields_hold_is_refused(self):
        with pytest.raises(TypeError, match="config key 'task' is held by two fields"):
            config_mod._add_keys(RunConfig)

    @pytest.mark.parametrize("task", ["tess", "mitbih", "ionosphere"])
    def test_label_col_only_for_the_generic_schema(self, task):
        with pytest.raises(ConfigError, match=rf"^run\.cfg:1: label_col applies only to the "
                                              rf"generic schema .*'{task}'"):
            parse_config_text(f"label_col = y\ntask = {task}\n", source="run.cfg")
        assert parse_config_text("task = custom\nlabel_col = y\n").label_col == "y"

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("overrides", [
        "",
        "dense_sizes =\nstreams = lstm\nclip_norm = 0.25\nreturn_sequences = true\n"
        "target_len = 300\nstandardize = false\nseed = 9\nsplit_train = 0.6\n"
        "split_val = 0.15\nsplit_test = 0.25\nstratified = true\noptimizer = rmsprop\nmomentum = 0.5\n",
    ], ids=["preset", "overrides"])
    def test_format_config_round_trips(self, task, overrides):
        label_col = "label_col = y\n" if task == "custom" else ""  # generic schema only
        cfg = parse_config_text(f"task = {task}\n{label_col}data = /in-xyz/d.csv\n"
                                f"out = /out-xyz\n" + overrides)
        text = format_config(cfg)
        assert "schema" not in text and "-xyz" not in text
        assert parse_config_text(text) == replace(cfg, data=None, out=None)


class TestTrainCommand:
    def test_end_to_end_artifacts(self, tmp_path, radar_csv, capsys, monkeypatch):
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out))
        # train prints the log it trained; it does not read its trainlog back
        monkeypatch.delattr(optim.TrainLog, "from_csv")
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 0
        for fname in ("checkpoint.tackpt", "trainlog.csv", "report_test.json",
                      "report_test.txt", "config.txt"):
            assert (out / fname).exists(), fname
        log_lines = (out / "trainlog.csv").read_text().splitlines()
        assert len(log_lines) == 4  # header + 3 epochs
        _, _, train_acc, _, val_acc = (float(v) for v in log_lines[-1].split(","))
        assert capsys.readouterr().out.startswith(
            f"trained ionosphere for 3 epochs: train_acc={train_acc:.4f} val_acc={val_acc:.4f}\n")
        report = json.loads((out / "report_test.json").read_text())
        assert report["split"] == "test"
        assert "kappa" in report["overall"]

    def test_same_seed_identical_artifacts(self, tmp_path, radar_csv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = tmp_path / "a.txt"
        cfg_b = tmp_path / "b.txt"
        cfg_a.write_text(radar_config_text(radar_csv, out_a))
        cfg_b.write_text(radar_config_text(radar_csv, out_b))
        assert cli.main(["train", "--config", str(cfg_a)]) == 0
        assert cli.main(["train", "--config", str(cfg_b)]) == 0
        for fname in ("checkpoint.tackpt", "trainlog.csv", "report_test.json",
                      "report_test.txt"):
            assert filecmp.cmp(out_a / fname, out_b / fname, shallow=False), fname

    def test_missing_data_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(tmp_path / "absent.csv", tmp_path / "out"))
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 3
        assert "absent.csv" in capsys.readouterr().err

    def test_header_only_csv_exit_3(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("f1,f2,label\n")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = custom\nlabel_col = label\ndata = {data}\n"
                            f"out = {tmp_path / 'out'}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "no data rows" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("task = nosuch\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    def test_model_with_no_timesteps_exits_2_before_a_row_is_parsed(
            self, tmp_path, radar_csv, monkeypatch, capsys):
        """The model is sized from the data's shape before any row is
        parsed: 17 pulses through a 9-wide kernel leave 9, pooled by 10 to 0.
        The error names the config file, and the output directory, made
        before the data was read, is gone again."""
        calls = []
        monkeypatch.setattr(data_mod, "_parse_row", lambda *args: calls.append(args))
        out = tmp_path / "out" / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out)
                            + "conv_kernel = 9\npool_size = 10\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg_path}: invalid model configuration: " in err
        assert "leave no timesteps" in err
        assert calls == []
        assert not (tmp_path / "out").exists()
        kept = tmp_path / "kept"  # an empty directory that was there before stays
        kept.mkdir()
        cfg_path.write_text(radar_config_text(radar_csv, kept)
                            + "conv_kernel = 9\npool_size = 10\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert kept.is_dir()

    def test_bad_value_named_first_in_split_order(self, tmp_path, radar_csv, capsys):
        """Train parses the rows part by part, train then val then test, so
        of several bad values it names the first in that order, not in the
        file's."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "out"))
        cfg = load_config(cfg_path)
        order = np.concatenate(split_indices(load_csv_signals(radar_csv, "ionosphere").labels,
                                             2, cfg.split, cfg.seed))
        first = int(order[0])
        assert first != 0
        lines = radar_csv.read_text().splitlines(keepends=True)
        for row in (0, first):
            fields = lines[row].split(",")
            fields[3] = "oops"
            lines[row] = ",".join(fields)
        radar_csv.write_text("".join(lines))
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert (f"data error: {radar_csv}: row {first}, column 3: non-numeric value 'oops'"
                in capsys.readouterr().err)

    def test_bad_model_key_exits_2_before_data_is_read(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(tmp_path / "absent.csv", tmp_path / "out")
                            + "gru_units = 0\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}:8: gru_units must be positive" in err
        assert "absent.csv" not in err

    def test_seed_flag_sets_every_seed_the_seed_key_sets(self, tmp_path, radar_csv):
        """``--seed`` goes through the setter of the file's ``seed`` key, so
        the split, the initialisation and the training all take it."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "flag", epochs=1))
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "5"]) == 0
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "key", epochs=1)
                            .replace("seed = 11", "seed = 5"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        for name in ("checkpoint.tackpt", "trainlog.csv", "report_test.json", "config.txt"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()

    def test_missing_out_exit_2(self, tmp_path, radar_csv):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = ionosphere\ndata = {radar_csv}\nepochs = 1\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("lr", "nan"), ("lr", "-0.001"), ("lr", "0"), ("lr", "inf"),
        ("epsilon", "0"), ("epsilon", "nan"),
        ("rho", "1"), ("rho", "-0.1"), ("beta1", "1.5"), ("beta2", "nan"),
        ("momentum", "1"), ("clip_norm", "-1"), ("clip_norm", "0"), ("clip_norm", "inf"),
        ("target_len", "-1"), ("target_len", "0"),
    ])
    def test_bad_hyperparameter_exit_2(self, tmp_path, radar_csv, capsys, key, value):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "out") + f"{key} = {value}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and str(cfg_path) in err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_independent_of_paths(self, tmp_path, radar_csv):
        """The extras hold no path, so the data's directory and ``--out``
        leave the checkpoint's bytes the same."""
        moved = tmp_path / "elsewhere" / "deeper" / "radar.csv"
        moved.parent.mkdir(parents=True)
        moved.write_bytes(radar_csv.read_bytes())
        checkpoints = []
        for data, out in ((radar_csv, tmp_path / "a"), (moved, tmp_path / "b" / "c")):
            cfg_path = tmp_path / "cfg.txt"
            cfg_path.write_text(radar_config_text(data, out))
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            checkpoints.append((out / "checkpoint.tackpt").read_bytes())
            assert load_config(out / "config.txt").data == str(data)
        assert checkpoints[0] == checkpoints[1]
        blob = checkpoints[0]
        extras = json.loads(blob[16:16 + int.from_bytes(blob[8:16], "little")])["extras"]
        assert sorted(extras) == ["class_names", "data_sha256", "run_config"]
        assert extras["data_sha256"] == hashlib.sha256(radar_csv.read_bytes()).hexdigest()
        assert extras["class_names"] == ["bad", "good"]

    def test_truncated_wav_clip_exit_3(self, tmp_path, capsys):
        data = tmp_path / "tones"
        write_tone_corpus(data, Rng(403), clips_per_class=4, clip_len=80)
        clip = sorted((data / "tone880").iterdir())[1]
        clip.write_bytes(clip.read_bytes()[:-1])  # 16-bit mono: cut mid-sample
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = tess\ndata = {data}\nout = {tmp_path / 'out'}\n"
                            f"target_len = 64\nepochs = 1\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert f"data error: {clip}: WAV data cut short" in capsys.readouterr().err

    def test_divergence_exit_4(self, tmp_path, radar_csv, monkeypatch):
        from temporal_augmenter import optim

        def poisoned(probs, onehot):
            return float("nan"), np.zeros_like(probs)

        monkeypatch.setattr(optim, "cce_loss", poisoned)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "out", epochs=1))
        assert cli.main(["train", "--config", str(cfg_path)]) == 4

    def test_non_finite_validation_loss_exit_4_leaves_no_output(self, tmp_path, capsys):
        """One step at lr 1e308 sends the weights to +-inf: the batch's loss
        was finite, but the epoch's validation loss is NaN."""
        data = tmp_path / "radar.csv"
        write_radar_csv(data, make_radar_dataset(60, Rng(1)))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = ionosphere\ndata = {data}\nout = {tmp_path / 'out'}\n"
                            f"epochs = 1\nlr = 1e308\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["train", "--config", str(cfg_path)]) == 4
        assert ("training diverged: non-finite validation loss at epoch 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestPathsOfTheWrongKind:
    """A directory where a file belongs, or a file where the output
    directory belongs, is a typed error, not a traceback."""

    def test_checkpoint_directory_exit_3(self, tmp_path, radar_csv, capsys):
        assert cli.main(["eval", str(tmp_path), str(radar_csv)]) == 3
        assert f"checkpoint is not a regular file: {tmp_path}" in capsys.readouterr().err

    def test_csv_data_directory_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(tmp_path, tmp_path / "out"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert f"data file is not a regular file: {tmp_path}" in capsys.readouterr().err

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path)]) == 2
        assert f"config file is not a regular file: {tmp_path}" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2_before_data_is_read(self, tmp_path, radar_csv, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(tmp_path / "absent.csv", out))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot create output directory {out}" in err
        assert "absent.csv" not in err
        assert cli.main(["eval", str(tmp_path / "absent.tackpt"), str(radar_csv),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}" in err and "absent.tackpt" not in err
        assert out.read_text() == "not a directory\n"

    def test_train_output_file_that_is_a_directory_exit_2(self, tmp_path, radar_csv, capsys):
        target = tmp_path / "run" / "trainlog.csv"
        target.mkdir(parents=True)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, target.parent, epochs=1))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert f"config error: cannot write {target}: " in capsys.readouterr().err

    def test_eval_report_file_that_is_a_directory_exit_2(self, tmp_path, capsys):
        checkpoint = train_custom(tmp_path, ["a", "b"], Rng(403))
        target = tmp_path / "evalout" / "report_test.json"
        target.mkdir(parents=True)
        assert cli.main(["eval", checkpoint, str(tmp_path / "a-b.csv"),
                         "--out", str(target.parent)]) == 2
        assert f"config error: cannot write {target}: " in capsys.readouterr().err

    def test_report_curves_file_that_is_a_directory_exit_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        (run / "curves.csv").mkdir(parents=True)
        (run / "trainlog.csv").write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                                          "1,0.7,0.5,0.69,0.5\n")
        (run / "report_test.txt").write_text("report\n")
        assert cli.main(["report", str(run)]) == 2
        assert f"config error: cannot write {run / 'curves.csv'}: " in capsys.readouterr().err


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def train_in_child(tmp_path, config_text: str, pin_threads: bool = True) -> dict:
    """Run ``train`` in a child process; returns the sha256 of the
    checkpoint, the trainlog and the test report.  With ``pin_threads`` the
    child's environment sets BLAS to one thread; without it, the child's
    environment has no BLAS thread variable at all."""
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"out = {out}\n" + config_text)
    src = os.path.dirname(os.path.dirname(temporal_augmenter.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = src
    if pin_threads:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    subprocess.run([sys.executable, "-m", "temporal_augmenter", "train",
                    "--config", str(cfg_path)], env=env, check=True,
                   capture_output=True, timeout=300)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("checkpoint.tackpt", "trainlog.csv", "report_test.json")}


class TestKeepFreedMemory:
    def test_train_sets_it_and_eval_does_not(self, tmp_path, radar_csv, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert calls == [1]
        assert cli.main(["eval", str(out / "checkpoint.tackpt"), str(radar_csv)]) == 0
        assert calls == [1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_takes_both_settings(self):
        """In a child process, so that this one's allocator is left as it is;
        glibc refuses a mapping threshold above 32 MiB, for one."""
        src = os.path.dirname(os.path.dirname(temporal_augmenter.__file__))
        done = subprocess.run([sys.executable, "-c", "from temporal_augmenter import cli; "
                               "print(cli._keep_freed_memory())"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout == "True\n"

    def test_no_mallopt_changes_nothing(self, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        assert cli._keep_freed_memory() is False
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # no mallopt symbol
        assert cli._keep_freed_memory() is False


class TestPinnedDigests:
    """Fixed-seed runs write the same bytes as the commits before them.
    The trainlog and report digests were last re-recorded when stream and
    head dropout moved from one SplitMix64 word per element to one 32-bit
    half, which changes every train-mode mask; the checkpoint digests when
    the GRU's recurrent weights became one [u, 3u] tensor (checkpoint
    version 3), which moved no stored value.

    The two-runs-agree tests cannot see a change that moves bits in both
    runs; these literals can.  Each run is a child process with BLAS on one
    thread: threaded OpenBLAS splits the long inner sum of a skinny product
    such as the cells' input-weight gradient at these batch sizes, so the
    bits depend on the thread count.  The digests were recorded with numpy
    2.4.6 on OpenBLAS 0.3.31.  Another BLAS build may order its
    floating-point sums differently and so legitimately produce other
    digests.
    """

    HEARTBEAT_CHECKPOINT = "3675d21fa8efd94c6cea61f9cb6ab35a16140048d7257c1abce6cc2633f8ad6f"

    @staticmethod
    def heartbeat_config(tmp_path) -> str:
        data = tmp_path / "beats.csv"
        write_heartbeat_csv(data, make_heartbeat_dataset(60, Rng(900)))
        return f"task = mitbih\ndata = {data}\nseed = 5\nepochs = 2\nbatch_size = 7\n"

    def test_heartbeat_run_matches_recorded_digests(self, tmp_path):
        """The mitbih shape (T = 187, 128 filters), stream and head dropout
        on, and batches of 7 rows, an odd count, so a batch spans several
        front-end blocks and ends in a short one."""
        digests = train_in_child(tmp_path, self.heartbeat_config(tmp_path))
        assert digests["checkpoint.tackpt"] == self.HEARTBEAT_CHECKPOINT
        assert digests["trainlog.csv"] == (
            "e06a79f7df089991c48298d4999ddc46e62e38ee9273ed4b80711864ab1ba65a")

    def test_heartbeat_run_without_thread_variables(self, tmp_path):
        """The package defaults BLAS to one thread, so a child that sets no
        thread variable writes the pinned checkpoint.  Only on 2 or more
        cores does this tell the default apart from a threaded BLAS: on one
        core, threaded OpenBLAS runs one thread and writes the same bits."""
        digests = train_in_child(tmp_path, self.heartbeat_config(tmp_path), pin_threads=False)
        assert digests["checkpoint.tackpt"] == self.HEARTBEAT_CHECKPOINT

    def test_tone_run_matches_recorded_digests(self, tmp_path):
        """The tess shape: WAV clips of T = 1024, so each cell runs 512
        BPTT steps, RMSProp, and 18 training clips in batches of 5, so the
        last batch holds three."""
        data = tmp_path / "tones"
        write_tone_corpus(data, Rng(901), clips_per_class=8)
        digests = train_in_child(tmp_path, f"task = tess\ndata = {data}\nseed = 6\n"
                                           f"epochs = 2\nbatch_size = 5\nconv_filters = 32\n")
        assert digests == {
            "checkpoint.tackpt":
                "ebf5bea56c47fc7bd7aaca3988a4e13659ee009bbbef559a85c8faebc61679fc",
            "trainlog.csv":
                "190c30d6c7ae00c0871b64dbba771a6733cba4b74947ba1020df2cad329e58c7",
            "report_test.json":
                "a6d8b105662419c0421346bb79b0f5a445c42a6c72e1e4cc25b952e10f3430c2",
        }

    def test_radar_run_matches_recorded_digests(self, tmp_path):
        """The ionosphere shape (T = 17, two channels) with a 3-step kernel,
        so the front-end filters before it pools, stream and head dropout
        on, and batches of 45 rows, an odd count: a batch spans two
        front-end blocks of at most 34 rows, and the last batch holds 27."""
        data = tmp_path / "radar.csv"
        write_radar_csv(data, make_radar_dataset(120, Rng(902)))
        digests = train_in_child(tmp_path, f"task = ionosphere\ndata = {data}\nseed = 7\n"
                                           f"epochs = 3\nbatch_size = 45\nconv_kernel = 3\n")
        assert digests == {
            "checkpoint.tackpt":
                "ec614ce510825d592f2b7076b4ee6d41b272bb886e6b89a3d31b192a53e50047",
            "trainlog.csv":
                "612d0d28f0409f1e4670981b3142433966384d857cdc01b8cc5e5d5796991d22",
            "report_test.json":
                "1f10457ce09bec9d2d8b92e8b4db94edbcfd8b05bcf97ebf50a62a1e0554a67a",
        }


class TestEvalCommand:
    @pytest.fixture()
    def trained_run(self, tmp_path, radar_csv):
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        return out, radar_csv

    def test_eval_reproduces_train_report_bitwise(self, trained_run, tmp_path, capsys):
        out, radar_csv = trained_run
        eval_out = tmp_path / "eval_out"
        rc = cli.main(["eval", str(out / "checkpoint.tackpt"), str(radar_csv),
                       "--split", "test", "--out", str(eval_out)])
        assert rc == 0
        assert filecmp.cmp(out / "report_test.json", eval_out / "report_test.json",
                           shallow=False)
        assert filecmp.cmp(out / "report_test.txt", eval_out / "report_test.txt",
                           shallow=False)

    def test_split_labels_differ(self, trained_run, tmp_path, capsys):
        out, radar_csv = trained_run
        rc = cli.main(["eval", str(out / "checkpoint.tackpt"), str(radar_csv),
                       "--split", "val"])
        assert rc == 0
        assert "val split" in capsys.readouterr().out

    def test_class_count_mismatch_exit_2(self, tmp_path, capsys):
        # a 5-class checkpoint evaluated against 2-class data must exit 2
        rng = Rng(401)
        checkpoint = train_custom(tmp_path, ["c0", "c1", "c2", "c3", "c4"], rng)
        two = tmp_path / "two.csv"
        write_generic_csv(two, ["c0", "c1"], rng)
        assert cli.main(["eval", checkpoint, str(two)]) == 2
        assert "class-count mismatch" in capsys.readouterr().err

    def test_class_name_mismatch_exit_2(self, tmp_path, capsys):
        # {cat, dog} evaluated on {ant, cat}: the counts agree, but cat
        # would be scored as class 1, which the checkpoint calls dog
        rng = Rng(402)
        checkpoint = train_custom(tmp_path, ["cat", "dog"], rng)
        other = tmp_path / "other.csv"
        write_generic_csv(other, ["ant", "cat"], rng)
        assert cli.main(["eval", checkpoint, str(other)]) == 2
        err = capsys.readouterr().err
        assert "class-name mismatch" in err
        assert "['cat', 'dog']" in err and "['ant', 'cat']" in err

    def test_missing_checkpoint_exit_3(self, tmp_path, radar_csv):
        rc = cli.main(["eval", str(tmp_path / "none.tackpt"), str(radar_csv)])
        assert rc == 3

    def test_failed_eval_leaves_no_out_directory(self, tmp_path, radar_csv, monkeypatch):
        """Like train, eval removes the --out directories it made, while
        still empty, when it fails; a directory that existed stays."""
        monkeypatch.chdir(tmp_path)
        args = ["eval", "absent.tackpt", str(radar_csv), "--out", "evalout/x"]
        assert cli.main(args) == 3
        assert not (tmp_path / "evalout").exists()
        (tmp_path / "evalout").mkdir()
        assert cli.main(args) == 3
        assert (tmp_path / "evalout").is_dir() and not (tmp_path / "evalout" / "x").exists()

    @pytest.mark.parametrize("key,value", [("pool_size", 1.5), ("pool_size", True),
                                           ("conv_kernel", 1.0), ("dense_sizes", [8.5, 4]),
                                           ("return_sequences", "no"),
                                           ("dropout_stream", False),
                                           ("streams", {"gru": 1, "lstm": 2})])
    def test_non_integer_model_setting_exit_3(self, trained_run, tmp_path, capsys, key, value):
        """The header's config holds the value in place of an integer, a
        bool, a rate or a list; 8.5 once passed as 8, the trained size, "no"
        as return sequences on, and a mapping as the list of its keys."""
        out, radar_csv = trained_run
        blob = (out / "checkpoint.tackpt").read_bytes()
        end = 16 + int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:end])
        header["config"][key] = value
        text = json.dumps(header).encode()
        path = tmp_path / "bad.tackpt"
        path.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text + blob[end:])
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        err = capsys.readouterr().err
        assert "bad.tackpt" in err and f"{key} must be" in err

    def test_header_config_without_a_field_exit_3(self, trained_run, tmp_path, capsys):
        """A field missing from the header's config once took its default."""
        out, radar_csv = trained_run
        blob = (out / "checkpoint.tackpt").read_bytes()
        end = 16 + int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:end])
        header["config"].pop("gru_units")
        text = json.dumps(header).encode()
        path = tmp_path / "bad.tackpt"
        path.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text + blob[end:])
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        err = capsys.readouterr().err
        assert "bad.tackpt" in err and "lacks field 'gru_units'" in err

    def test_corrupt_checkpoint_exit_3(self, trained_run, tmp_path, capsys):
        out, radar_csv = trained_run
        blob = (out / "checkpoint.tackpt").read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        end = 16 + hlen
        bad = [blob[:cut] for cut in (0, 7, 8, 15, 16, end // 2, end - 1, end, end + 13,
                                      (end + len(blob)) // 2, len(blob) - 1)]
        bad.append(blob + b"\x00" * 8)
        bad.append(blob[:8] + (len(blob)).to_bytes(8, "little") + blob[16:])
        bad.append(blob[:16] + blob[16:end].replace(b'"version":3', b'"version":7') + blob[end:])
        bad.append(blob[:16] + blob[16:end].replace(b'"lstm_units":', b'"lstm_unitz":') + blob[end:])
        bad.append(blob[:16] + b"\xff" + blob[17:])
        path = tmp_path / "bad.tackpt"
        for data in bad:
            path.write_bytes(data)
            assert cli.main(["eval", str(path), str(radar_csv)]) == 3
            assert "data error" in capsys.readouterr().err
        # the scaler tensors come last, mean then std: drop std from the
        # header and the body, then give std the wrong shape
        header = json.loads(blob[16:end])
        std_entry = header["tensors"].pop()
        assert std_entry["name"] == "extra.scaler_std"
        std_bytes = 8 * math.prod(std_entry["shape"])

        def rewrite(body):
            text = json.dumps(header).encode("utf-8")
            return blob[:8] + len(text).to_bytes(8, "little") + text + body

        no_std = rewrite(blob[end:len(blob) - std_bytes])
        mean_entry = header["tensors"].pop()  # the mean has the std's shape
        no_scaler = rewrite(blob[end:len(blob) - 2 * std_bytes])
        header["tensors"] += [mean_entry, dict(std_entry, shape=[math.prod(std_entry["shape"])])]
        flat_std = rewrite(blob[end:])
        cases = [(no_std, [str(path), "extra.scaler_std"]),
                 (no_scaler, [str(path), "extra.scaler_mean"]), (flat_std, ["std shape"])]
        # overwrite the first float of gru.conv.K (the first tensor), the last
        # of std (the last tensor), then of the mean before it; the loader
        # refuses a non-finite value (a NaN weight once scored the split), the
        # scaler the rest
        for at, value, named in (
                (end, math.nan, [str(path), "'gru.conv.K'"]),
                (end, math.inf, [str(path), "'gru.conv.K'"]),
                (end, -math.inf, [str(path), "'gru.conv.K'"]),
                (len(blob) - 8, math.nan, [str(path), "'extra.scaler_std'"]),
                (len(blob) - 8, 0.0, ["scaler std"]), (len(blob) - 8, -1.0, ["scaler std"]),
                (len(blob) - 8, math.inf, [str(path), "'extra.scaler_std'"]),
                (len(blob) - std_bytes - 8, math.nan, [str(path), "'extra.scaler_mean'"])):
            cases.append((blob[:at] + np.float64(value).astype("<f8").tobytes() + blob[at + 8:],
                          named))
        # a tensor that is neither a parameter nor extra.*, once dropped unread
        header = json.loads(blob[16:end])
        header["tensors"].append({"name": "bogus", "shape": [2]})
        cases.append((rewrite(blob[end:] + bytes(16)), [str(path), "'bogus'"]))
        eval_out = tmp_path / "evalout"
        for data, named in cases:
            path.write_bytes(data)
            assert cli.main(["eval", str(path), str(radar_csv), "--out", str(eval_out)]) == 3
            err = capsys.readouterr().err
            assert "data error" in err and all(text in err for text in named)
            assert not eval_out.exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_checkpoint_version_exit_3(self, trained_run, tmp_path, capsys, version):
        """Version 1 stored one tensor per cell gate, version 2 the GRU's
        recurrent weights as two tensors; their files are refused."""
        out, radar_csv = trained_run
        path = tmp_path / f"v{version}.tackpt"
        path.write_bytes((out / "checkpoint.tackpt").read_bytes().replace(
            b'"version":3', b'"version":%d' % version, 1))
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        assert f"{path}: unsupported checkpoint version {version}" in capsys.readouterr().err

    def test_non_finite_probabilities_exit_3(self, trained_run, tmp_path, capsys):
        """Head weights scaled by 1e300 are finite, but the logits overflow;
        the split was once scored on the NaN probabilities that followed."""
        out, radar_csv = trained_run
        net, extras, extra_tensors = load_checkpoint(out / "checkpoint.tackpt")
        for dp in net.head:
            dp.W *= 1e300
        path = tmp_path / "huge.tackpt"
        save_checkpoint(path, net, extras=extras, extra_tensors=extra_tensors)
        eval_out = tmp_path / "evalout"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["eval", str(path), str(radar_csv), "--out", str(eval_out)]) == 3
        assert (f"data error: {path}: the model gives test sample 0 a NaN or infinite class "
                f"probability" in capsys.readouterr().err)
        assert not eval_out.exists()

    @staticmethod
    def rewrite_extras(blob: bytes, edit) -> bytes:
        """``blob`` with ``edit`` applied to its header's extras dict."""
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        edit(header["extras"])
        edited = json.dumps(header).encode("utf-8")
        return blob[:8] + len(edited).to_bytes(8, "little") + edited + blob[16 + hlen:]

    @pytest.mark.parametrize("key,value", [
        ("run_config", None),  # missing, as in a checkpoint from before run_config
        ("run_config", 5),
        ("run_config", ["task = ionosphere"]),
        ("class_names", ["x"]),
        ("class_names", 5),
        ("data_sha256", None),
        ("data_sha256", 5),
        ("data_sha256", "0" * 63 + "g"),  # not hex
        ("data_sha256", "0" * 63),
        ("data_sha256", "A" * 64),  # a hexdigest is lowercase
    ])
    def test_edited_extras_exit_3(self, trained_run, tmp_path, capsys, key, value):
        out, radar_csv = trained_run

        def edit(extras):
            extras.pop(key)
            if value is not None:
                extras[key] = value

        path = tmp_path / "edited.tackpt"
        path.write_bytes(self.rewrite_extras((out / "checkpoint.tackpt").read_bytes(), edit))
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and key in err

    RUN_CONFIG_EDITS = [  # key, new value, the text the error must hold
        ("split_test", "0.3", "ratios must sum to 1"),
        ("seed", "1.5", "seed"),
        ("stratified", "maybe", "stratified"),
        ("split_val", "0.2x", "split_val"),
        ("target_len", "0", "target_len"),
        ("bogus", "1", "bogus"),
        ("task", None, "task"),
        ("lr", "nan", "lr"),
        # model settings on which run_config and the header's config differ
        ("gru_units", "3", "gru_units"),
        ("streams", "lstm", "streams"),
        ("pool_size", "100", "leave no timesteps"),  # for the header's input shape
    ]

    @pytest.mark.parametrize("key,value,named", RUN_CONFIG_EDITS,
                             ids=[f"{key}-{value}" for key, value, _ in RUN_CONFIG_EDITS])
    def test_edited_run_config_exit_3(self, trained_run, tmp_path, capsys, key, value, named):
        """Edits that the config parser refuses, or whose model settings
        differ from the checkpoint header's config: the line ``key = value``
        replaces ``key``'s line, or is added; None deletes the line."""
        out, radar_csv = trained_run

        def edit(extras):
            lines = [line for line in extras["run_config"].splitlines()
                     if line.split(" = ")[0] != key]
            if value is not None:
                lines.append(f"{key} = {value}")
            extras["run_config"] = "\n".join(lines) + "\n"

        path = tmp_path / "edited.tackpt"
        path.write_bytes(self.rewrite_extras((out / "checkpoint.tackpt").read_bytes(), edit))
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"{path}: run_config" in err and named in err


def write_generic_blank_lines(path, rng):
    """30 rows of a generic table whose label column is second of five,
    with blank lines among the rows and at the end."""
    with open(path, "w") as fh:
        fh.write("f1,kind,f2,f3,f4\n\n")
        for i in range(30):
            values = [repr(float(v)) for v in rng.uniform((4,))]
            fh.write(",".join([values[0], ("cat", "dog", "eel")[i % 3], *values[1:]]) + "\n")
            if i % 7 == 3:
                fh.write("\n")
        fh.write("\n")


EVAL_DATASETS = {  # name -> (write the data under a path, config lines)
    "mitbih": (lambda path: write_heartbeat_csv(path, make_heartbeat_dataset(60, Rng(410))),
               "task = mitbih\n"),
    "ionosphere": (lambda path: write_radar_csv(path, make_radar_dataset(60, Rng(411))),
                   "task = ionosphere\n"),
    "generic": (lambda path: write_generic_blank_lines(path, Rng(412)),
                "task = custom\nlabel_col = kind\n"),
    "wav": (lambda path: write_tone_corpus(path, Rng(413), clips_per_class=6, clip_len=80),
            "task = tess\ntarget_len = 64\n"),
}


@pytest.fixture(scope="module", params=sorted(EVAL_DATASETS))
def eval_run(request, tmp_path_factory):
    """(kind, checkpoint, data path) of a small model trained on each kind of data."""
    kind = request.param
    tmp = tmp_path_factory.mktemp(f"eval-{kind}")
    write, lines = EVAL_DATASETS[kind]
    data = tmp / ("tones" if kind == "wav" else "data.csv")
    write(data)
    cfg_path = tmp / "cfg.txt"
    cfg_path.write_text(lines + f"data = {data}\nout = {tmp / 'run'}\nseed = 3\nepochs = 1\n"
                                f"batch_size = 16\nconv_filters = 4\ndense_sizes = 6\n")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return kind, str(tmp / "run" / "checkpoint.tackpt"), data


class TestEvalReadsOnce:
    """``eval`` checks the data's digest and parses only the rows it scores."""

    @staticmethod
    def eval_report(checkpoint, data, split, out) -> bytes:
        assert cli.main(["eval", checkpoint, str(data), "--split", split, "--out", str(out)]) == 0
        return b"".join((out / f"report_{split}.{ext}").read_bytes() for ext in ("json", "txt"))

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_report_equals_full_parse_and_parses_each_scored_row_once(
            self, eval_run, tmp_path, monkeypatch, capsys, split):
        kind, checkpoint, data = eval_run
        parser = "_decode_wav" if kind == "wav" else "_parse_row"
        original = getattr(data_mod, parser)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(data_mod, parser, counted)
        report = self.eval_report(checkpoint, data, split, tmp_path / "skip")
        scored = json.loads((tmp_path / "skip" / f"report_{split}.json").read_text())
        assert len(calls) == scored["overall"]["n"] > 0

        # the oracle: parse every row, then take the scored ones
        load = DataSource.load

        def full_parse(source, indices):
            whole = load(source, np.arange(source.n))
            return Dataset(features=whole.features[indices], labels=whole.labels[indices],
                           class_names=whole.class_names)

        monkeypatch.setattr(DataSource, "load", full_parse)
        calls.clear()
        assert self.eval_report(checkpoint, data, split, tmp_path / "full") == report
        assert len(calls) > scored["overall"]["n"]

    def test_changed_data_exit_2_naming_both_digests(self, eval_run, tmp_path, capsys):
        kind, checkpoint, data = eval_run
        trained = load_checkpoint(checkpoint)[1]["data_sha256"]
        changed = tmp_path / "changed"
        if kind == "wav":
            renamed = shutil.copytree(data, changed / "renamed")
            first = sorted((renamed / "tone440").iterdir())[0]
            first.rename(first.with_name("zz" + first.name))
            added = shutil.copytree(data, changed / "added")
            shutil.copy(first.with_name("zz" + first.name), added / "tone880" / "extra.wav")
            variants = [renamed, added]
        else:
            raw = data.read_bytes()
            at = raw.index(b".") + 1  # a digit of the first value: the data stays valid
            flipped = raw[:at] + (b"2" if raw[at:at + 1] == b"1" else b"1") + raw[at + 1:]
            changed.mkdir()
            variants = [changed / "flipped.csv", changed / "blank.csv"]
            variants[0].write_bytes(flipped)
            variants[1].write_bytes(raw + b"\n")
        for path in variants:
            assert cli.main(["eval", checkpoint, str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error: data mismatch" in err
            now = (load_wav_dir(path, 64).sha256 if kind == "wav"
                   else hashlib.sha256(path.read_bytes()).hexdigest())
            assert trained != now and trained in err and now in err and str(path) in err


@pytest.mark.parametrize("kind", sorted(EVAL_DATASETS))
def test_train_parses_each_row_once(kind, tmp_path, monkeypatch):
    """``train`` parses each CSV row, or decodes each clip, exactly once:
    straight into its part, with no whole-file parse beside it."""
    write, lines = EVAL_DATASETS[kind]
    data = tmp_path / ("tones" if kind == "wav" else "data.csv")
    write(data)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(lines + f"data = {data}\nout = {tmp_path / 'run'}\nepochs = 1\n"
                                f"batch_size = 16\nconv_filters = 4\ndense_sizes = 6\n")
    parser = "_decode_wav" if kind == "wav" else "_parse_row"
    original = getattr(data_mod, parser)
    samples = []  # a CSV row by its line index, a clip by its path

    def counted(*args):
        samples.append(str(args[1]))
        return original(*args)

    monkeypatch.setattr(data_mod, parser, counted)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    n = cli._load_source(load_config(cfg_path), str(data)).n
    assert len(samples) == len(set(samples)) == n


def test_train_and_eval_leave_openssl_unloaded(tmp_path, radar_csv):
    """The loaders hash with the interpreter's built-in SHA-256: importing
    hashlib would load OpenSSL's ``_hashlib``, about 3.6 MB of resident
    memory in every train and eval process.  A child process, since the
    test runner itself may have imported hashlib."""
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(radar_config_text(radar_csv, out, epochs=1))
    code = ("import sys\nfrom temporal_augmenter import cli\n"
            "rc = cli.main(sys.argv[1:])\nprint(rc, '_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(temporal_augmenter.__file__)))
    for args in (["train", "--config", str(cfg_path)],
                 ["eval", str(out / "checkpoint.tackpt"), str(radar_csv)]):
        result = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                                capture_output=True, text=True, timeout=300)
        assert result.stdout.splitlines()[-1] == "0 False", args[0]


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for component in gradcheck.COMPONENTS:
            assert component in out
        assert "FAIL" not in out

    def test_module_filter(self, capsys):
        assert cli.main(["gradcheck", "--module", "gru"]) == 0
        out = capsys.readouterr().out
        assert "gru" in out and "lstm" not in out

    def test_unknown_module_exit_2(self, capsys):
        assert cli.main(["gradcheck", "--module", "quux"]) == 2

    def test_corrupted_gradient_exit_5(self, monkeypatch, capsys):
        original = layers.dense_backward

        def corrupted(cache, dy):
            dx, dW, db = original(cache, dy)
            return dx, dW * 1.5, db

        monkeypatch.setattr(layers, "dense_backward", corrupted)
        assert cli.main(["gradcheck", "--module", "dense"]) == 5
        assert "FAIL" in capsys.readouterr().out


class TestReportCommand:
    def test_report_after_train(self, tmp_path, radar_csv, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out, epochs=4))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Epochs: 4" in text
        for row in ("Kappa", "Kappa Standard Error", "95% CI"):
            assert row in text, row
        assert (out / "summary.txt").exists()
        assert (out / "curves.csv").exists()
        assert (out / "curves.csv").read_text() == (out / "trainlog.csv").read_text()

    def test_empty_dir_exit_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", str(empty)]) == 3

    def test_missing_dir_exit_3(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope")]) == 3

    HEADER = "epoch,train_loss,train_acc,val_loss,val_acc\n"

    def test_report_entry_that_is_a_directory_exit_3(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trainlog.csv").write_text(self.HEADER + "1,0.7,0.5,0.69,0.5\n")
        (run / "report_test.txt").write_text("report\n")
        (run / "report_x.txt").mkdir()
        assert cli.main(["report", str(run)]) == 3
        assert (f"data error: report file is not a regular file: {run / 'report_x.txt'}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("log,named", [
        (HEADER + "1,0.7,0.5,0.69,0.5\n2,abc,0.5,0.69,0.5\n", "row 2: could not convert"),
        (HEADER + "1,abc\n", "row 1: expected one value in each"),
        (HEADER.replace(",val_acc", "") + "1,0.7,0.5,0.69\n",
         "row 1: expected one value in each of the columns epoch, train_loss, train_acc, "
         "val_loss, val_acc"),
    ], ids=["non-numeric", "short-row", "missing-column"])
    def test_malformed_trainlog_exit_3(self, tmp_path, capsys, log, named):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trainlog.csv").write_text(log)
        (run / "report_test.txt").write_text("report\n")
        assert cli.main(["report", str(run)]) == 3
        assert f"data error: {run / 'trainlog.csv'}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["trainlog.csv", "report_test.txt"])
    def test_file_not_utf8_exit_3(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trainlog.csv").write_text(self.HEADER + "1,0.7,0.5,0.69,0.5\n")
        (run / "report_test.txt").write_text("report\n")
        with open(run / name, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        assert cli.main(["report", str(run)]) == 3
        assert f"data error: {run / name}: not UTF-8 text" in capsys.readouterr().err
