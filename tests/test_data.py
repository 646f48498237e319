import hashlib
import math
import os
import shutil
import wave
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter.data import (
    DataError,
    Dataset,
    DataSource,
    ScalerParams,
    SplitSpec,
    apply_scaler,
    fit_scaler,
    load_csv_signals,
    load_wav_dir,
    one_hot,
    split,
    split_indices,
)
from temporal_augmenter.synth import (
    make_heartbeat_dataset,
    make_radar_dataset,
    write_heartbeat_csv,
    write_radar_csv,
    write_tone_corpus,
    write_wav,
)
from temporal_augmenter.tensor_core import Rng


def load_all(source: DataSource) -> Dataset:
    """Every sample of ``source``, parsed in file order."""
    return source.load(np.arange(source.n))


def write_mitbih_rows(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestMitbihLoader:
    def test_shape_contract(self, tmp_path):
        path = tmp_path / "beats.csv"
        rows = [[0.1] * 187 + [0.0], [0.2] * 187 + [3.0], [0.3] * 187 + [4.0]]
        write_mitbih_rows(path, rows)
        ds = load_all(load_csv_signals(path, "mitbih"))
        assert ds.features.shape == (3, 187, 1)
        npt.assert_array_equal(ds.labels, [0, 3, 4])
        assert ds.class_names == ["N", "S", "V", "F", "Q"]

    def test_non_numeric_field_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = [0.1] * 187 + [0.0]
        row[5] = "oops"
        write_mitbih_rows(path, [row])
        with pytest.raises(DataError, match=r"row 0, column 5"):
            load_all(load_csv_signals(path, "mitbih"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_field_names_row_and_column(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        good = [0.1] * 187 + [0.0]
        row = list(good)
        row[5] = token
        write_mitbih_rows(path, [good, row])
        with pytest.raises(DataError, match=rf"row 1, column 5: non-finite value '{token}'"):
            load_all(load_csv_signals(path, "mitbih"))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "short.csv"
        write_mitbih_rows(path, [[0.1] * 10])
        with pytest.raises(DataError, match="expected 188"):
            load_csv_signals(path, "mitbih")

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        write_mitbih_rows(path, [[0.1] * 187 + [9.0]])
        with pytest.raises(DataError, match="0..4"):
            load_csv_signals(path, "mitbih")

    @pytest.mark.parametrize("token", ["x", "nan", "NaN", "inf", "1.5", ""])
    def test_bad_label_names_the_row(self, tmp_path, token):
        path = tmp_path / "lbl.csv"
        write_mitbih_rows(path, [[0.1] * 187 + [0.0], [0.1] * 187 + [token]])
        expected = rf"row 1: unknown label token '{token}', not an integer in 0\.\.4"
        with pytest.raises(DataError, match=expected):
            load_csv_signals(path, "mitbih")

    def test_round_trip_through_writer(self, tmp_path):
        ds = make_heartbeat_dataset(40, Rng(306))
        path = tmp_path / "beats.csv"
        write_heartbeat_csv(path, ds)
        loaded = load_all(load_csv_signals(path, "mitbih"))
        assert loaded.features.tobytes() == ds.features.tobytes()
        npt.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.class_names == ds.class_names

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            load_csv_signals("/nonexistent/never.csv", "mitbih")


class TestIonosphereLoader:
    def test_shape_and_labels(self, tmp_path):
        path = tmp_path / "ion.csv"
        with open(path, "w") as fh:
            fh.write(",".join(str(0.01 * i) for i in range(34)) + ",g\n")
            fh.write(",".join(str(-0.01 * i) for i in range(34)) + ",b\n")
        ds = load_all(load_csv_signals(path, "ionosphere"))
        assert ds.features.shape == (2, 17, 2)
        npt.assert_array_equal(ds.labels, [1, 0])
        assert ds.class_names == ["bad", "good"]
        # pairs are consecutive: pulse p holds attributes 2p and 2p+1
        assert ds.features[0, 3, 0] == 0.06
        assert ds.features[0, 3, 1] == 0.07

    def test_non_finite_field_names_row_and_column(self, tmp_path):
        path = tmp_path / "ion.csv"
        values = ["0.5"] * 34
        values[3] = "inf"
        path.write_text(",".join(values) + ",g\n")
        with pytest.raises(DataError, match=r"row 0, column 3: non-finite value 'inf'"):
            load_all(load_csv_signals(path, "ionosphere"))

    def test_unknown_token(self, tmp_path):
        path = tmp_path / "tok.csv"
        with open(path, "w") as fh:
            fh.write(",".join(["0.0"] * 34) + ",x\n")
        with pytest.raises(DataError, match="unknown label token"):
            load_csv_signals(path, "ionosphere")

    def test_round_trip_through_writer(self, tmp_path):
        ds = make_radar_dataset(40, Rng(300))
        path = tmp_path / "radar.csv"
        write_radar_csv(path, ds)
        loaded = load_all(load_csv_signals(path, "ionosphere"))
        npt.assert_array_equal(loaded.features, ds.features)
        npt.assert_array_equal(loaded.labels, ds.labels)


class TestGenericLoader:
    def test_header_and_label_column(self, tmp_path):
        path = tmp_path / "gen.csv"
        with open(path, "w") as fh:
            fh.write("f1,f2,kind,f3\n")
            fh.write("1.0,2.0,dog,3.0\n")
            fh.write("4.0,5.0,cat,6.0\n")
        ds = load_all(load_csv_signals(path, "generic", label_col="kind"))
        assert ds.features.shape == (2, 3, 1)
        assert ds.class_names == ["cat", "dog"]
        npt.assert_array_equal(ds.labels, [1, 0])
        npt.assert_array_equal(ds.features[0, :, 0], [1.0, 2.0, 3.0])

    def test_non_finite_field_names_row_and_column(self, tmp_path):
        # the column index is the file's, counting the label column
        path = tmp_path / "gen.csv"
        path.write_text("f1,f2,kind,f3\n1.0,2.0,dog,3.0\n4.0,5.0,cat,nan\n")
        with pytest.raises(DataError, match=r"row 2, column 3: non-finite value 'nan'"):
            load_all(load_csv_signals(path, "generic", label_col="kind"))
        path.write_text("f1,kind,f2\n1.0,dog,oops\n")
        with pytest.raises(DataError, match=r"row 1, column 2: non-numeric value 'oops'"):
            load_all(load_csv_signals(path, "generic", label_col="kind"))

    def test_blank_lines_count_in_row_numbers(self, tmp_path):
        # rows are numbered by the file's 0-based line index, as in mitbih
        path = tmp_path / "gen.csv"
        path.write_text("f1,kind\n\n1.0,dog\n\noops,cat\n")
        with pytest.raises(DataError, match=r"row 4, column 0: non-numeric value 'oops'"):
            load_all(load_csv_signals(path, "generic", label_col="kind"))

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\r\r\n", "\n\r"])
    def test_line_endings_parse_alike(self, tmp_path, newline):
        """Lines end at \\n, \\r or \\r\\n, and rows are numbered as a file
        opened in text mode numbers its lines."""
        text = "f1,kind,f2\n1.5,dog,2.0\n\n-3.0,cat,4.25"
        (tmp_path / "lf.csv").write_bytes(text.encode())
        other = tmp_path / "other.csv"
        other.write_bytes(text.replace("\n", newline).encode())
        lf = load_all(load_csv_signals(tmp_path / "lf.csv", "generic", label_col="kind"))
        loaded = load_all(load_csv_signals(other, "generic", label_col="kind"))
        assert loaded.features.tobytes() == lf.features.tobytes()
        npt.assert_array_equal(loaded.labels, lf.labels)
        other.write_bytes(text.replace("-3.0", "oops").replace("\n", newline).encode())
        with open(other, newline="") as fh:
            row = next(idx for idx, line in enumerate(fh) if "oops" in line)
        with pytest.raises(DataError, match=rf"row {row}, column 0: non-numeric value 'oops'"):
            load_all(load_csv_signals(other, "generic", label_col="kind"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_bytes(b"f1,kind\n1.0,\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv_signals(path, "generic", label_col="kind")

    def test_load_parses_only_the_rows_asked_for(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("f1,kind,f2\n1.0,dog,2.0\n\n3.0,cat,oops\n5.0,cat,6.0\n")
        source = load_csv_signals(path, "generic", label_col="kind")
        npt.assert_array_equal(source.labels, [1, 0, 0])
        assert source.class_names == ["cat", "dog"] and source.shape == (2, 1)
        ds = source.load([2, 0])  # row 1 holds a bad value and is never parsed
        npt.assert_array_equal(ds.features[:, :, 0], [[5.0, 6.0], [1.0, 2.0]])
        npt.assert_array_equal(ds.labels, [0, 1])
        with pytest.raises(DataError, match=r"row 3, column 2: non-numeric value 'oops'"):
            load_all(source)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("f1,kind\n\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv_signals(path, "generic", label_col="kind")

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "gen.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="empty file"):
            load_csv_signals(path, "generic", label_col="kind")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv_signals(path, "generic", label_col="kind")

    def test_requires_label_col(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv_signals(path, "generic")


class TestWavLoader:
    def test_16bit_scaling_contract(self, tmp_path):
        (tmp_path / "one").mkdir()
        ints = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2")
        with wave.open(str(tmp_path / "one" / "a.wav"), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(ints.tobytes())
        ds = load_all(load_wav_dir(tmp_path, target_len=5))
        npt.assert_array_equal(ds.features[0, :, 0], ints.astype(np.float64) / 32768.0)

    def test_stereo_mixes_to_mono_and_pads(self, tmp_path):
        (tmp_path / "s").mkdir()
        left = np.array([8192, 8192], dtype="<i2")
        right = np.array([-8192, 8192], dtype="<i2")
        inter = np.empty(4, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        with wave.open(str(tmp_path / "s" / "st.wav"), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(inter.tobytes())
        ds = load_all(load_wav_dir(tmp_path, target_len=4))
        npt.assert_allclose(ds.features[0, :, 0], [0.0, 0.25, 0.0, 0.0], atol=1e-12)

    def test_8bit_decoding(self, tmp_path):
        (tmp_path / "c").mkdir()
        vals = np.array([128, 255, 0], dtype=np.uint8)
        with wave.open(str(tmp_path / "c" / "b.wav"), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(4000)
            wf.writeframes(vals.tobytes())
        ds = load_all(load_wav_dir(tmp_path, target_len=3))
        npt.assert_allclose(ds.features[0, :, 0], [0.0, 127 / 128, -1.0], atol=1e-12)

    def test_crop_to_target_len(self, tmp_path):
        (tmp_path / "c").mkdir()
        write_wav(tmp_path / "c" / "long.wav", np.linspace(-0.5, 0.5, 100), 8000)
        ds = load_all(load_wav_dir(tmp_path, target_len=10))
        assert ds.features.shape == (1, 10, 1)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="no .wav files"):
            load_wav_dir(tmp_path, target_len=4)

    def test_no_class_dirs_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no class subdirectories"):
            load_wav_dir(tmp_path, target_len=4)

    def test_unsupported_width_rejected(self, tmp_path):
        (tmp_path / "w").mkdir()
        with wave.open(str(tmp_path / "w" / "deep.wav"), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(4)
            wf.setframerate(8000)
            wf.writeframes(b"\x00" * 16)
        with pytest.raises(DataError, match="sample width"):
            load_all(load_wav_dir(tmp_path, target_len=4))

    @pytest.mark.parametrize("channels,width,cut",
                             [(1, 2, 1), (2, 2, 2), (2, 1, 1), (1, 2, 180)],
                             ids=["16bit-mid-sample", "16bit-stereo-mid-frame",
                                  "8bit-stereo-mid-frame", "16bit-at-a-frame-boundary"])
    def test_clip_cut_inside_a_frame_rejected(self, tmp_path, channels, width, cut):
        """A 100-frame clip cut inside a sample or a frame, or at a frame
        boundary (cut to 44 + 20 bytes, 10 whole frames), is cut short."""
        (tmp_path / "c").mkdir()
        path = tmp_path / "c" / "cut.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(8000)
            wf.writeframes(b"\x01" * (channels * width * 100))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError) as excinfo:
            load_all(load_wav_dir(tmp_path, target_len=4))
        assert f"{path}: WAV data cut short" in str(excinfo.value)

    def test_clip_cut_inside_its_header_rejected(self, tmp_path):
        (tmp_path / "c").mkdir()
        path = tmp_path / "c" / "cut.wav"
        write_wav(path, np.zeros(8), 8000)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError) as excinfo:
            load_all(load_wav_dir(tmp_path, target_len=4))
        assert f"{path}: WAV header cut short" in str(excinfo.value)

    def test_tone_corpus_balanced_classes(self, tmp_path):
        names = write_tone_corpus(tmp_path, Rng(301), frequencies=(440.0, 880.0),
                                  clips_per_class=5, clip_len=256)
        ds = load_all(load_wav_dir(tmp_path, target_len=256))
        assert ds.class_names == names == ["tone440", "tone880"]
        assert ds.n == 10
        npt.assert_array_equal(np.bincount(ds.labels), [5, 5])
        # classes alphabetical for index stability
        assert ds.class_names == sorted(ds.class_names)


class TestDataSha256:
    """The loaders hash the bytes they parse; the digest is hashlib's sha256
    of the same bytes, though the loaders take it with the interpreter's
    built-in module."""

    def test_csv_is_the_sha256_of_its_bytes(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_heartbeat_csv(path, make_heartbeat_dataset(20, Rng(310)))
        raw = path.read_bytes()
        expected = hashlib.sha256(raw).hexdigest()
        assert load_csv_signals(path, "mitbih").sha256 == expected
        edited = bytearray(raw)
        edited[len(raw) // 2] ^= 1
        path.write_bytes(bytes(edited))
        assert load_csv_signals(path, "mitbih").sha256 != expected

    def test_wav_tree_hashes_each_loaded_file_in_order(self, tmp_path):
        root = tmp_path / "tones"
        write_tone_corpus(root, Rng(311), frequencies=(440.0, 880.0), clips_per_class=2,
                          clip_len=64)
        (root / "tone440" / "notes.txt").write_text("not read by the loader")
        expected = hashlib.sha256()
        for cls in ("tone440", "tone880"):
            for name in ("clip0000.wav", "clip0001.wav"):
                raw = (root / cls / name).read_bytes()
                expected.update(f"{cls}/{name}".encode() + b"\0"
                                + len(raw).to_bytes(8, "little") + raw)
        assert load_wav_dir(root, 64).sha256 == expected.hexdigest()
        copy = shutil.copytree(root, tmp_path / "copy")
        assert load_wav_dir(copy, 64).sha256 == expected.hexdigest()
        # same bytes in the same order, one path changed
        (root / "tone880" / "clip0001.wav").rename(root / "tone880" / "clip0009.wav")
        assert load_wav_dir(root, 64).sha256 != expected.hexdigest()

    def test_wav_name_that_is_not_utf8(self, tmp_path):
        (tmp_path / "c").mkdir()
        raw_name = os.path.join(os.fsencode(tmp_path / "c"), b"\xff.wav")
        try:
            write_wav(os.fsdecode(raw_name), np.zeros(8), 8000)
        except OSError:
            pytest.skip("the file system refuses names that are not UTF-8")
        raw = Path(os.fsdecode(raw_name)).read_bytes()
        expected = hashlib.sha256(b"c/\xff.wav\0" + len(raw).to_bytes(8, "little") + raw)
        assert load_wav_dir(tmp_path, 8).sha256 == expected.hexdigest()


class TestScaler:
    def test_hand_calculation(self):
        ds = Dataset(features=np.array([[[1.0]], [[2.0]], [[3.0]]]),
                     labels=np.zeros(3, dtype=np.int64), class_names=["a"])
        sp = fit_scaler(ds)
        assert abs(sp.mean[0, 0] - 2.0) < 1e-15
        assert abs(sp.std[0, 0] - math.sqrt(2.0 / 3.0)) < 1e-15
        scaled = apply_scaler(sp, ds)
        npt.assert_allclose(scaled.features[:, 0, 0], [-1.22474, 0.0, 1.22474], atol=1e-5)

    def test_constant_feature_unchanged(self):
        feats = np.column_stack([np.full(5, 3.0), np.arange(5.0)])[:, :, None]
        ds = Dataset(features=feats, labels=np.zeros(5, dtype=np.int64), class_names=["a"])
        scaled = apply_scaler(fit_scaler(ds), ds)
        npt.assert_array_equal(scaled.features[:, 0, 0], np.full(5, 3.0))
        assert abs(scaled.features[:, 1, 0].mean()) < 1e-10

    def test_fit_then_apply_zero_means(self):
        rng = Rng(302)
        ds = Dataset(features=rng.uniform((40, 6, 2)) * 5 + 1,
                     labels=np.zeros(40, dtype=np.int64), class_names=["a"])
        scaled = apply_scaler(fit_scaler(ds), ds)
        assert np.max(np.abs(scaled.features.mean(axis=0))) < 1e-10

    def test_shape_mismatch(self):
        ds = Dataset(features=np.zeros((4, 3, 1)), labels=np.zeros(4, dtype=np.int64),
                     class_names=["a"])
        sp = fit_scaler(ds)
        other = Dataset(features=np.zeros((4, 5, 1)), labels=np.zeros(4, dtype=np.int64),
                        class_names=["a"])
        with pytest.raises(DataError):
            apply_scaler(sp, other)

    def test_std_shape_mismatch(self):
        ds = Dataset(features=np.zeros((4, 3, 1)), labels=np.zeros(4, dtype=np.int64),
                     class_names=["a"])
        sp = fit_scaler(ds)
        for std in (sp.std.reshape(3), sp.std[:1], np.ones((3, 2))):
            with pytest.raises(DataError, match="std shape"):
                apply_scaler(ScalerParams(mean=sp.mean, std=std), ds)


def source_of(ds: Dataset) -> DataSource:
    """A source whose rows are the samples of an in-memory dataset."""
    return DataSource(sha256="", labels=ds.labels, class_names=ds.class_names,
                      shape=ds.features.shape[1:], parse=lambda rows: ds.features[rows])


def toy_dataset(n, k=2, seed=303):
    rng = Rng(seed)
    labels = np.arange(n) % k
    return Dataset(features=rng.uniform((n, 4, 1)), labels=labels,
                   class_names=[str(i) for i in range(k)])


class TestSplit:
    def test_floor_counts_remainder_to_train(self):
        tr, va, te = split(source_of(toy_dataset(10)), SplitSpec(ratios=(0.6, 0.2, 0.2)), 1)
        assert (tr.n, va.n, te.n) == (6, 2, 2)
        tr, va, te = split(source_of(toy_dataset(351)), SplitSpec(ratios=(0.6, 0.2, 0.2)), 1)
        assert (tr.n, va.n, te.n) == (211, 70, 70)

    def test_disjoint_and_exhaustive(self):
        ds = toy_dataset(53)
        ds.features[:, 0, 0] = np.arange(53)  # unique ids
        tr, va, te = split(source_of(ds), SplitSpec(ratios=(0.7, 0.1, 0.2)), 2)
        ids = np.concatenate([p.features[:, 0, 0] for p in (tr, va, te)])
        npt.assert_array_equal(np.sort(ids), np.arange(53))

    def test_stratified_preserves_balance(self):
        tr, va, te = split(source_of(toy_dataset(20)),
                           SplitSpec(ratios=(0.6, 0.2, 0.2), stratified=True), 3)
        for part in (tr, va, te):
            counts = np.bincount(part.labels, minlength=2)
            assert counts[0] == counts[1]

    def test_same_seed_same_partition(self):
        ds = toy_dataset(40)
        a = split(source_of(ds), SplitSpec(), 9)
        b = split(source_of(ds), SplitSpec(), 9)
        for pa, pb in zip(a, b):
            npt.assert_array_equal(pa.features, pb.features)
            npt.assert_array_equal(pa.labels, pb.labels)

    def test_zero_sample_split_rejected(self):
        with pytest.raises(DataError, match="0 samples"):
            split(source_of(toy_dataset(4)), SplitSpec(ratios=(0.8, 0.1, 0.1)), 0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split(source_of(toy_dataset(10)), SplitSpec(ratios=(0.5, 0.2, 0.2)), 0)
        with pytest.raises(ValueError):
            split(source_of(toy_dataset(10)), SplitSpec(ratios=(1.0, 0.0, 0.0)), 0)


def write_source(kind, root) -> DataSource:
    """Write a small dataset of ``kind`` under ``root`` and read it back."""
    root.mkdir()
    path = root / "data.csv"
    if kind == "mitbih":
        write_heartbeat_csv(path, make_heartbeat_dataset(50, Rng(320)))
        return load_csv_signals(path, "mitbih")
    if kind == "ionosphere":
        write_radar_csv(path, make_radar_dataset(50, Rng(321)))
        return load_csv_signals(path, "ionosphere")
    if kind == "generic":  # the label second of four, blank lines among the rows
        rng, lines = Rng(322), ["f1,kind,f2,f3", ""]
        for i in range(45):
            values = [repr(float(v)) for v in rng.uniform((3,))]
            lines += [",".join([values[0], "xyz"[i % 3], *values[1:]])] + [""] * (i % 4 == 1)
        path.write_text("\n".join(lines) + "\n")
        return load_csv_signals(path, "generic", label_col="kind")
    write_tone_corpus(root, Rng(323), clips_per_class=8, clip_len=80)
    return load_wav_dir(root, 64)


class TestSplitIndices:
    @pytest.mark.parametrize("stratified", [False, True])
    def test_split_takes_the_rows_split_indices_picks(self, tmp_path, stratified):
        """Each part ``split`` parses is bitwise equal to a whole-file parse
        taken at the rows ``split_indices`` picks."""
        spec = SplitSpec(ratios=(0.6, 0.2, 0.2), stratified=stratified)
        for kind in ("mitbih", "ionosphere", "generic", "wav"):
            source = write_source(kind, tmp_path / kind)
            whole = load_all(source)
            parts = split_indices(source.labels, len(source.class_names), spec, 4)
            for part, idx in zip(split(source, spec, 4), parts):
                assert part.features.shape == whole.features[idx].shape, kind
                assert part.features.tobytes() == whole.features[idx].tobytes(), kind
                npt.assert_array_equal(part.labels, whole.labels[idx])
                assert part.class_names == whole.class_names
            npt.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(source.n))


class TestOneHot:
    def test_basis_row(self):
        npt.assert_array_equal(one_hot([2], 5)[0], [0, 0, 1, 0, 0])

    def test_rows_sum_to_one(self):
        y = (Rng(304).uniform((30,)) * 4).astype(np.int64)
        oh = one_hot(y, 4)
        npt.assert_array_equal(oh.sum(axis=1), np.ones(30))

    def test_argmax_round_trip(self):
        y = (Rng(305).uniform((30,)) * 6).astype(np.int64)
        npt.assert_array_equal(one_hot(y, 6).argmax(axis=1), y)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot([3], 3)
