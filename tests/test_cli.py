import filecmp
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import temporal_augmenter
from temporal_augmenter import cli, gradcheck, layers
from temporal_augmenter.config import ConfigError, PRESETS, load_config, parse_config_text, preset_run_config
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


def radar_config_text(data_path, out_dir, epochs=3):
    return (f"task = ionosphere\n"
            f"data = {data_path}\n"
            f"out = {out_dir}\n"
            f"seed = 11\n"
            f"epochs = {epochs}\n"
            f"conv_filters = 8\n"
            f"dense_sizes = 8,4\n")


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

    def test_all_presets_have_schema(self):
        for task, preset in PRESETS.items():
            assert "schema" in preset and "train" in preset


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
        assert cfg.split.seed == 4

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


class TestTrainCommand:
    def test_end_to_end_artifacts(self, tmp_path, radar_csv, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, out))
        rc = cli.main(["train", "--config", str(cfg_path)])
        assert rc == 0
        for fname in ("checkpoint.tackpt", "trainlog.csv", "report_test.json",
                      "report_test.txt", "config.txt"):
            assert (out / fname).exists(), fname
        log_lines = (out / "trainlog.csv").read_text().splitlines()
        assert len(log_lines) == 4  # header + 3 epochs
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

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("task = nosuch\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    def test_missing_out_exit_2(self, tmp_path, radar_csv):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = ionosphere\ndata = {radar_csv}\nepochs = 1\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    def test_divergence_exit_4(self, tmp_path, radar_csv, monkeypatch):
        from temporal_augmenter import optim

        def poisoned(probs, onehot):
            return float("nan"), np.zeros_like(probs)

        monkeypatch.setattr(optim, "cce_loss", poisoned)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(radar_config_text(radar_csv, tmp_path / "out", epochs=1))
        assert cli.main(["train", "--config", str(cfg_path)]) == 4


class TestPinnedDigests:
    def test_heartbeat_run_matches_recorded_digests(self, tmp_path):
        """A fixed-seed heartbeat run writes the same bytes as the commits before it.

        The two-runs-agree tests cannot see a change that moves bits in both
        runs; these literals can.  The run has the mitbih shape (T = 187,
        128 filters), stream and head dropout on, and batches of 7 rows, an
        odd count, so a batch spans several front-end blocks and ends in a
        short one.  It runs in a child process with BLAS on one thread:
        threaded OpenBLAS splits the long inner sum of a skinny product
        such as the cells' input-weight gradient at this batch size, so the
        bits depend on the thread count.  The digests were recorded with
        numpy 2.4.6 on OpenBLAS 0.3.31.  Another BLAS build may order its
        floating-point sums differently and so legitimately produce other
        digests.
        """
        data = tmp_path / "beats.csv"
        write_heartbeat_csv(data, make_heartbeat_dataset(60, Rng(900)))
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"task = mitbih\ndata = {data}\nout = {out}\nseed = 5\n"
                            f"epochs = 2\nbatch_size = 7\n")
        src = os.path.dirname(os.path.dirname(temporal_augmenter.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        subprocess.run([sys.executable, "-m", "temporal_augmenter", "train",
                        "--config", str(cfg_path)], env=env, check=True,
                       capture_output=True, timeout=300)

        def sha256(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()

        assert sha256("checkpoint.tackpt") == (
            "080886c0d58c4e313bfecf6a07fe01def8994b80c743739a4a9ef1afd10045ef")
        assert sha256("trainlog.csv") == (
            "fc116c53cde769271ecc692d36f69a44bebd6aa93c1a156dcce27e35e02d94d2")


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

        def write_generic(path, classes):
            with open(path, "w") as fh:
                fh.write("f1,f2,f3,f4,f5,f6,label\n")
                for i in range(10 * classes):
                    row = ",".join(repr(float(v)) for v in rng.uniform((6,)))
                    fh.write(row + f",c{i % classes}\n")

        five = tmp_path / "five.csv"
        two = tmp_path / "two.csv"
        write_generic(five, 5)
        write_generic(two, 2)
        out = tmp_path / "run5"
        cfg_path = tmp_path / "cfg5.txt"
        cfg_path.write_text(f"task = custom\nlabel_col = label\ndata = {five}\n"
                            f"out = {out}\nepochs = 1\nconv_filters = 4\n"
                            f"dense_sizes = 6\npool_size = 2\nbatch_size = 8\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        rc = cli.main(["eval", str(out / "checkpoint.tackpt"), str(two)])
        assert rc == 2
        assert "class-count mismatch" in capsys.readouterr().err

    def test_missing_checkpoint_exit_3(self, tmp_path, radar_csv):
        rc = cli.main(["eval", str(tmp_path / "none.tackpt"), str(radar_csv)])
        assert rc == 3

    def test_corrupt_checkpoint_exit_3(self, trained_run, tmp_path, capsys):
        out, radar_csv = trained_run
        blob = (out / "checkpoint.tackpt").read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        end = 16 + hlen
        bad = [blob[:cut] for cut in (0, 7, 8, 15, 16, end // 2, end - 1, end, end + 13,
                                      (end + len(blob)) // 2, len(blob) - 1)]
        bad.append(blob + b"\x00" * 8)
        bad.append(blob[:8] + (len(blob)).to_bytes(8, "little") + blob[16:])
        bad.append(blob[:16] + blob[16:end].replace(b'"version":1', b'"version":7') + blob[end:])
        bad.append(blob[:16] + blob[16:end].replace(b'"lstm_units":', b'"lstm_unitz":') + blob[end:])
        bad.append(blob[:16] + b"\xff" + blob[17:])
        path = tmp_path / "bad.tackpt"
        for data in bad:
            path.write_bytes(data)
            assert cli.main(["eval", str(path), str(radar_csv)]) == 3
            assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("split", {"ratios": [0.6, 0.2, 0.3], "seed": 11, "stratified": False}),
        ("split", {"ratios": [0.6, 0.2, 0.2], "seed": "abc", "stratified": False}),
        ("split", [0.6, 0.2, 0.2]),
        ("class_names", ["x"]),
        ("class_names", 5),
        ("split", {"ratios": [0.6, "0.2", 0.2], "seed": 11, "stratified": False}),
        ("split", {"ratios": [0.6, 0.2, 0.2], "seed": 11, "stratified": "yes"}),
        ("target_len", 0),
        ("label_col", 7),
    ])
    def test_edited_extras_exit_3(self, trained_run, tmp_path, capsys, key, value):
        out, radar_csv = trained_run
        blob = (out / "checkpoint.tackpt").read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        header["extras"][key] = value
        edited = json.dumps(header).encode("utf-8")
        path = tmp_path / "edited.tackpt"
        path.write_bytes(blob[:8] + len(edited).to_bytes(8, "little") + edited
                         + blob[16 + hlen:])
        assert cli.main(["eval", str(path), str(radar_csv)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and key in err


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
