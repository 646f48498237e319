"""Dataset ingestion, standardization, splits, and label encoding.

Supported sources:
  * ``mitbih`` CSV schema: no header, 187 numeric feature columns followed
    by a numeric label in 0..4; rows become [187, 1] sequences.
  * ``ionosphere`` CSV schema: no header, 34 numeric attributes (two per
    radar pulse, 17 pulses) followed by a 'b'/'g' token (decoded 0/1); rows
    become [17, 2] sequences.
  * ``generic`` CSV schema: header row, one named label column, remaining
    columns numeric; rows become [d, 1] sequences and label tokens map to
    indices in sorted token order.
  * WAV directories: one subdirectory per class (sorted alphabetically for
    index stability) of RIFF PCM files, 8- or 16-bit, mono or stereo.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor_core import Rng, Tensor


class DataError(Exception):
    """Raised for malformed or missing input data."""


@dataclass
class Dataset:
    features: Tensor  # [n, T, d]
    labels: np.ndarray  # int64 [n]
    class_names: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.features.ndim == 2:  # flat [n, d] -> [n, d, 1]
            self.features = self.features[:, :, None]
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(set(self.class_names)) != len(self.class_names):
            raise DataError(f"duplicate class names: {self.class_names}")
        k = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise DataError(f"label out of range [0, {k})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------

_MITBIH_FEATURES = 187
_ION_ATTRS = 34
_ION_PULSES = 17


def _parse_row(fields, row_idx: int, path) -> np.ndarray:
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        for col, tok in enumerate(fields):
            try:
                float(tok)
            except ValueError:
                raise DataError(f"{path}: row {row_idx}, column {col}: "
                                f"non-numeric value {tok!r}") from None
        raise
    finite = np.isfinite(values)
    if not finite.all():
        col = int(np.argmin(finite))
        raise DataError(f"{path}: row {row_idx}, column {col}: "
                        f"non-finite value {fields[col]!r}")
    return values


def load_csv_signals(path, schema: str, label_col: str | None = None) -> Dataset:
    """Load a signal table; ``schema`` is 'mitbih', 'ionosphere', or 'generic'."""
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    if schema == "mitbih":
        return _load_mitbih(path)
    if schema == "ionosphere":
        return _load_ionosphere(path)
    if schema == "generic":
        if not label_col:
            raise DataError("generic schema requires a label column name")
        return _load_generic(path, label_col)
    raise DataError(f"unknown schema {schema!r}")


def _read_rows(path):
    with open(path, newline="") as fh:
        for idx, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            yield idx, line.split(",")


def _load_mitbih(path) -> Dataset:
    feats, labels = [], []
    for idx, fields in _read_rows(path):
        if len(fields) != _MITBIH_FEATURES + 1:
            raise DataError(f"{path}: row {idx}: expected {_MITBIH_FEATURES + 1} "
                            f"columns, got {len(fields)}")
        values = _parse_row(fields, idx, path)
        label = int(values[-1])
        if label != values[-1] or not 0 <= label <= 4:
            raise DataError(f"{path}: row {idx}: label {values[-1]} not an integer in 0..4")
        feats.append(values[:-1])
        labels.append(label)
    if not feats:
        raise DataError(f"{path}: no data rows")
    features = np.stack(feats)[:, :, None]
    return Dataset(features=features, labels=np.array(labels),
                   class_names=["N", "S", "V", "F", "Q"])


def _load_ionosphere(path) -> Dataset:
    feats, labels = [], []
    for idx, fields in _read_rows(path):
        if len(fields) != _ION_ATTRS + 1:
            raise DataError(f"{path}: row {idx}: expected {_ION_ATTRS + 1} "
                            f"columns, got {len(fields)}")
        token = fields[-1].strip()
        if token not in ("b", "g"):
            raise DataError(f"{path}: row {idx}: unknown label token {token!r}")
        values = _parse_row(fields[:-1], idx, path)
        # two attributes per pulse: consecutive pairs -> [17 pulses, 2]
        feats.append(values.reshape(_ION_PULSES, 2))
        labels.append(0 if token == "b" else 1)
    if not feats:
        raise DataError(f"{path}: no data rows")
    return Dataset(features=np.stack(feats), labels=np.array(labels),
                   class_names=["bad", "good"])


def _load_generic(path, label_col: str) -> Dataset:
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if label_col not in header:
        raise DataError(f"{path}: label column {label_col!r} not in header {header}")
    label_idx = header.index(label_col)
    feats, tokens = [], []
    for idx, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataError(f"{path}: row {idx}: expected {len(header)} columns, got {len(fields)}")
        tokens.append(fields[label_idx].strip())
        fields[label_idx] = "0"  # placeholder, so errors name the file's column
        feats.append(np.delete(_parse_row(fields, idx, path), label_idx))
    class_names = sorted(set(tokens))
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([index[t] for t in tokens])
    return Dataset(features=np.stack(feats)[:, :, None], labels=labels, class_names=class_names)


# ---------------------------------------------------------------------------
# WAV directory loader
# ---------------------------------------------------------------------------

def load_wav_dir(root_path, target_len: int) -> Dataset:
    """Load a directory tree of PCM WAV files, one class per subdirectory.

    Samples are decoded to [-1, 1), mixed to mono by channel mean, and
    cropped or zero-padded at the tail to ``target_len``.  Sample rates are
    recorded in ``meta['sample_rates']``; no resampling is performed.
    """
    if not os.path.isdir(root_path):
        raise DataError(f"not a directory: {root_path}")
    class_names = sorted(d for d in os.listdir(root_path)
                         if os.path.isdir(os.path.join(root_path, d)))
    if not class_names:
        raise DataError(f"{root_path}: no class subdirectories")
    feats, labels, rates = [], [], set()
    for label, cls in enumerate(class_names):
        cls_dir = os.path.join(root_path, cls)
        files = sorted(f for f in os.listdir(cls_dir) if f.lower().endswith(".wav"))
        if not files:
            raise DataError(f"{cls_dir}: class directory contains no .wav files")
        for fname in files:
            samples, rate = _read_wav(os.path.join(cls_dir, fname))
            rates.add(rate)
            feats.append(_fit_length(samples, target_len))
            labels.append(label)
    features = np.stack(feats)[:, :, None]
    return Dataset(features=features, labels=np.array(labels), class_names=class_names,
                   meta={"sample_rates": sorted(rates), "target_len": target_len})


def _read_wav(path) -> tuple:
    try:
        with wave.open(path, "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise DataError(f"{path}: unsupported WAV compression {wf.getcomptype()!r}")
            width = wf.getsampwidth()
            channels = wf.getnchannels()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise DataError(f"{path}: unsupported WAV encoding ({exc})") from exc
    if width == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise DataError(f"{path}: unsupported sample width {width * 8} bits (PCM 8/16 only)")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return samples, rate


def _fit_length(samples: np.ndarray, target_len: int) -> np.ndarray:
    if samples.shape[0] >= target_len:
        return samples[:target_len]
    out = np.zeros(target_len)
    out[:samples.shape[0]] = samples
    return out


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass
class ScalerParams:
    """Per-position mean and population std; constant positions pass through."""
    mean: Tensor  # [T, d]
    std: Tensor   # [T, d]


def fit_scaler(ds: Dataset) -> ScalerParams:
    """Fit on the training partition only."""
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)  # population std
    constant = std < 1e-12
    mean = np.where(constant, 0.0, mean)
    std = np.where(constant, 1.0, std)
    return ScalerParams(mean=mean, std=std)


def apply_scaler(sp: ScalerParams, ds: Dataset) -> Dataset:
    if sp.mean.shape != ds.features.shape[1:]:
        raise DataError(f"scaler shape {sp.mean.shape} does not match data {ds.features.shape[1:]}")
    return replace(ds, features=(ds.features - sp.mean) / sp.std)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    ratios: tuple = (0.6, 0.2, 0.2)  # train, val, test
    seed: int = 0
    stratified: bool = False

    def validate(self) -> None:
        if len(self.ratios) != 3 or not all(r > 0 for r in self.ratios):  # NaN fails too
            raise ValueError(f"need three positive ratios, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {self.ratios}")


def _partition_counts(n: int, ratios) -> tuple:
    """Floor counts for (train, val, test) with the remainder going to train."""
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    return n_train, n_val, n_test


def split(ds: Dataset, spec: SplitSpec):
    """Seeded shuffle-then-partition; returns (train, val, test) Datasets."""
    spec.validate()
    rng = Rng(spec.seed)
    n = ds.n
    if spec.stratified:
        train_idx, val_idx, test_idx = [], [], []
        for cls in range(ds.num_classes):
            members = np.flatnonzero(ds.labels == cls)
            perm = members[rng.permutation(members.shape[0])]
            n_tr, n_va, _ = _partition_counts(members.shape[0], spec.ratios)
            train_idx.append(perm[:n_tr])
            val_idx.append(perm[n_tr:n_tr + n_va])
            test_idx.append(perm[n_tr + n_va:])
        parts = tuple(np.concatenate(p) for p in (train_idx, val_idx, test_idx))
    else:
        perm = rng.permutation(n)
        n_tr, n_va, _ = _partition_counts(n, spec.ratios)
        parts = (perm[:n_tr], perm[n_tr:n_tr + n_va], perm[n_tr + n_va:])
    for name, idx in zip(("train", "val", "test"), parts):
        if idx.shape[0] == 0:
            raise DataError(f"{name} split received 0 samples (n={n}, ratios={spec.ratios})")
    return tuple(ds.subset(idx) for idx in parts)


def one_hot(labels, k: int) -> Tensor:
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out
