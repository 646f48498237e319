"""Dataset ingestion, standardization and splits.

Supported sources:
  * CSV tables, read by ``load_csv_signals``: the header-less ``mitbih`` and
    ``ionosphere`` layouts of ``CSV_SCHEMAS``, whose rows end in the label,
    and ``generic`` tables, whose first non-blank line is a header naming
    the columns, one of them the label; generic rows become [d, 1] and label
    tokens map to indices in sorted token order.  An error names a row by
    its 0-based line index in the file, blank lines and header included,
    and a field by its 0-based column in the file.
  * WAV directories: one subdirectory per class (sorted alphabetically for
    index stability) of RIFF PCM files, 8- or 16-bit, mono or stereo.  An
    error names a clip by its path under the root.

A ``Dataset`` that ``DataSource.load`` returns names each of its samples
as the reader's errors do (``Dataset.where``).

There is one reader per format, and ``train`` and ``eval`` both use it.
``load_csv_signals`` and ``load_wav_dir`` read each file once, hash its
bytes, take every sample's label and return a ``DataSource``, which parses
or decodes features from the same bytes only for the samples ``load`` asks
for: ``split`` parses each row once, straight into its part, and ``eval``
parses only the split it scores.  The digest is taken with the
interpreter's built-in SHA-256 (``_sha2``, or ``_sha256`` before CPython
3.12): ``hashlib`` would map OpenSSL, about 3.6 MB of resident memory in
every process that reads data.
"""

from __future__ import annotations

import io
import math
import os
import wave
from dataclasses import dataclass, replace

import numpy as np

from .settings import POSITIVE, check, setting
from .tensor_core import Rng, Tensor

try:
    from _sha2 import sha256 as _sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython < 3.12
    except ImportError:  # an interpreter without CPython's built-in modules
        from hashlib import sha256 as _sha256


class DataError(Exception):
    """Raised for malformed or missing input data."""


def _by_index(i) -> str:
    return f"sample {i}"


@dataclass
class Dataset:
    features: Tensor  # [n, T, d]
    labels: np.ndarray  # int64 [n]
    class_names: list
    where: object = _by_index  # where(i) names sample i in an error, as its reader does

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# CSV loader
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """A CSV layout: one row's feature shape, in C order, and its classes."""
    shape: tuple
    class_names: tuple
    label_tokens: tuple | None = None  # None: the label is a numeric class index

    def class_index(self, token: str) -> int | None:
        """The class index that a label field names, or None."""
        if self.label_tokens is not None:
            return self.label_tokens.index(token) if token in self.label_tokens else None
        try:
            value = float(token)
        except ValueError:
            return None
        return int(value) if value.is_integer() and 0 <= value < len(self.class_names) else None


CSV_SCHEMAS = {
    "mitbih": CsvSchema(shape=(187, 1), class_names=("N", "S", "V", "F", "Q")),
    # two attributes per radar pulse: consecutive pairs -> [17 pulses, 2]
    "ionosphere": CsvSchema(shape=(17, 2), class_names=("bad", "good"),
                            label_tokens=("b", "g")),
}


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


def read_file(path, what: str) -> bytes:
    """The bytes of the file at ``path``; a path that is missing, names no
    regular file (a directory, say) or cannot be read is a DataError naming
    it as ``what``."""
    if not os.path.isfile(path):
        state = "is not a regular file" if os.path.exists(path) else "not found"
        raise DataError(f"{what} {state}: {path}")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"{what} cannot be read: {path}: {exc.strerror or exc}") from None


def utf8_text(raw: bytes, path) -> str:
    """``raw`` decoded as UTF-8; bytes that are not UTF-8 are a DataError
    naming ``path``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def _lines(text: str):
    """Yield (0-based line index, start, stop, stripped line) for each
    non-blank line of ``text``, ``text[start:stop]`` being the line; lines
    end at "\\n" alone."""
    start = idx = 0
    while start < len(text):
        stop = text.find("\n", start)
        if stop < 0:
            stop = len(text)
        if line := text[start:stop].strip():
            yield idx, start, stop, line
        start, idx = stop + 1, idx + 1


def _field(line: str, col: int, columns: int) -> str:
    """Field ``col`` of a line of ``columns`` fields, splitting no more of
    the line than it must."""
    if col == columns - 1:
        return line[line.rfind(",") + 1:]
    return line.split(",", col + 1)[col]


@dataclass
class DataSource:
    """A dataset read once: its bytes are hashed, every sample's label is
    known, and ``load`` parses the features of the samples it is asked for.

    ``sha256`` is the hex sha256 of a CSV file's bytes or, for a WAV tree,
    of each file ``load_wav_dir`` reads, in its order, as its '/'-separated
    path under the root in file-system bytes, a NUL, its length as 8
    little-endian bytes, then its bytes.
    """
    sha256: str
    labels: np.ndarray  # int64 [n]
    class_names: list
    shape: tuple  # one sample's features, [T, d]
    parse: object  # parse(indices) -> features [len(indices), ...]
    where: object  # where(i) names sample i as the reader's errors do

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def load(self, indices) -> Dataset:
        """The samples at ``indices``, in that order."""
        rows, where = np.asarray(indices), self.where
        return Dataset(features=self.parse(rows).reshape((rows.shape[0],) + self.shape),
                       labels=self.labels[rows], class_names=list(self.class_names),
                       where=lambda i: where(rows[i]))


def load_csv_signals(path, schema: str, label_col: str | None = None) -> DataSource:
    """Read, hash and check a UTF-8 signal table; ``schema`` is 'generic' or
    a key of ``CSV_SCHEMAS``.  Every row's column count and label are
    checked here, its features only when ``load`` parses the row.  A
    generic table needs ``label_col``, which ``RunConfig.validate`` checks."""
    spec = CSV_SCHEMAS.get(schema)
    raw = read_file(path, "data file")
    digest = _sha256(raw).hexdigest()
    text = utf8_text(raw, path)
    del raw
    if "\r" in text:  # universal newlines, as a file opened in text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = _lines(text)
    if spec is not None:  # header-less: the features, then the label
        shape, label_idx = spec.shape, math.prod(spec.shape)
        columns = label_idx + 1
    else:
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in first[3].split(",")]
        if label_col not in header:
            raise DataError(f"{path}: label column {label_col!r} not in header {header}")
        columns, label_idx, shape = len(header), header.index(label_col), (len(header) - 1, 1)
    rows, tokens = [], []  # rows: (line index, start, stop) of each data row
    for idx, start, stop, line in lines:
        count = line.count(",") + 1
        if count != columns:
            raise DataError(f"{path}: row {idx}: expected {columns} columns, got {count}")
        tokens.append(_field(line, label_idx, columns).strip())
        rows.append((idx, start, stop))
    if not rows:
        raise DataError(f"{path}: no data rows")
    if spec is None:  # generic: the classes are the sorted distinct tokens
        names = tuple(sorted(set(tokens)))
        spec = CsvSchema(shape, names, label_tokens=names)
    index = {token: spec.class_index(token) for token in set(tokens)}
    labels = [index[token] for token in tokens]
    if None in labels:
        row = labels.index(None)
        expected = (f"one of {list(spec.label_tokens)}" if spec.label_tokens is not None
                    else f"an integer in 0..{len(spec.class_names) - 1}")
        raise DataError(f"{path}: row {rows[row][0]}: unknown label token {tokens[row]!r}, "
                        f"not {expected}")
    keep = np.delete(np.arange(columns), label_idx)  # the feature columns

    def parse(indices):
        feats = []
        for i in indices:
            idx, start, stop = rows[i]
            fields = text[start:stop].strip().split(",")
            fields[label_idx] = "0"  # placeholder, so errors name the file's column
            feats.append(_parse_row(fields, idx, path)[keep])
        return np.stack(feats)

    return DataSource(sha256=digest, labels=np.array(labels, dtype=np.int64),
                      class_names=list(spec.class_names), shape=shape, parse=parse,
                      where=lambda i: f"{path}: row {rows[i][0]}")


# ---------------------------------------------------------------------------
# WAV directory loader
# ---------------------------------------------------------------------------

def _listdir(path) -> list:
    """``os.listdir(path)``, whose OSError is a DataError naming ``path``."""
    try:
        return os.listdir(path)
    except OSError as exc:
        raise DataError(f"directory cannot be read: {path}: {exc.strerror or exc}") from None


def _wav_files(root_path) -> tuple:
    """(class names, [(label, '/'-separated path under root_path)]) of a WAV
    tree, in the order ``load_wav_dir`` reads it."""
    if not os.path.isdir(root_path):
        raise DataError(f"not a directory: {root_path}")
    class_names = sorted(d for d in _listdir(root_path)
                         if os.path.isdir(os.path.join(root_path, d)))
    if not class_names:
        raise DataError(f"{root_path}: no class subdirectories")
    for cls in class_names:
        try:
            cls.encode("utf-8")  # a class name goes into the reports and the checkpoint
        except UnicodeEncodeError:
            raise DataError(f"{root_path}: class directory name {os.fsencode(cls)!r} "
                            f"is not UTF-8") from None
    files = []
    for label, cls in enumerate(class_names):
        cls_dir = os.path.join(root_path, cls)
        names = sorted(f for f in _listdir(cls_dir) if f.lower().endswith(".wav"))
        if not names:
            raise DataError(f"{cls_dir}: class directory contains no .wav files")
        files += [(label, f"{cls}/{name}") for name in names]
    return class_names, files


def load_wav_dir(root_path, target_len: int) -> DataSource:
    """Read and hash a tree of PCM WAV files, one class per subdirectory; a
    clip is decoded only when ``load`` asks for it.

    Samples are decoded to [-1, 1), mixed to mono by channel mean, and
    cropped or zero-padded at the tail to ``target_len``; no resampling is
    performed.
    """
    class_names, files = _wav_files(root_path)
    digest, raws = _sha256(), []
    for _, rel in files:
        raw = read_file(os.path.join(root_path, rel), "WAV clip")
        digest.update(os.fsencode(rel) + b"\0" + len(raw).to_bytes(8, "little"))
        digest.update(raw)
        raws.append(raw)

    def where(i):
        return os.path.join(root_path, files[i][1])

    def parse(indices):
        clips = (_decode_wav(raws[i], where(i)) for i in indices)
        return np.stack([_fit_length(samples, target_len) for samples in clips])

    return DataSource(sha256=digest.hexdigest(),
                      labels=np.array([label for label, _ in files], dtype=np.int64),
                      class_names=class_names, shape=(target_len, 1), parse=parse, where=where)


def _decode_wav(raw: bytes, path) -> np.ndarray:
    try:
        with wave.open(io.BytesIO(raw), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise DataError(f"{path}: unsupported WAV compression {wf.getcomptype()!r}")
            width = wf.getsampwidth()
            channels = wf.getnchannels()
            declared = wf.getnframes()
            raw = wf.readframes(declared)
    except EOFError:
        raise DataError(f"{path}: WAV header cut short") from None
    except RuntimeError:  # the wave module's chunk reader seeking past the RIFF chunk's end
        raise DataError(f"{path}: a WAV chunk claims more bytes than its RIFF chunk "
                        f"holds") from None
    except wave.Error as exc:
        raise DataError(f"{path}: unsupported WAV encoding ({exc})") from exc
    if width not in (1, 2):
        raise DataError(f"{path}: unsupported sample width {width * 8} bits (PCM 8/16 only)")
    frames, rest = divmod(len(raw), width * channels)
    if rest:
        raise DataError(f"{path}: WAV data cut short: {len(raw)} bytes is not a whole number "
                        f"of {channels}-channel {width * 8}-bit frames")
    if frames != declared:
        raise DataError(f"{path}: WAV data cut short: {frames} of the {declared} frames "
                        f"its header declares")
    if width == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    else:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return samples


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


def fit_scaler(ds: Dataset, path) -> ScalerParams:
    """Fit on the training partition only.  A mean or std that overflows
    float64 is a DataError naming the data file ``path`` and the first
    (step, channel) where it does, so every std is finite and > 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.features.mean(axis=0)
        std = ds.features.std(axis=0)  # population std
    bad = np.argwhere(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        step, channel = bad[0]
        raise DataError(f"{path}: step {step}, channel {channel}: the training split's mean "
                        f"or std overflows float64")
    constant = std < 1e-12
    mean = np.where(constant, 0.0, mean)
    std = np.where(constant, 1.0, std)
    return ScalerParams(mean=mean, std=std)


def apply_scaler(sp: ScalerParams, ds: Dataset) -> Dataset:
    """``ds`` standardized by ``sp``, whose stds ``fit_scaler`` or the
    checkpoint loader checked to be finite and > 0.  A std can still be
    tiny, so a scaled value that overflows, or holds NaN, is a DataError
    naming the first (sample, step, channel) where it does, the sample as
    ``ds.where`` names it."""
    with np.errstate(over="ignore", invalid="ignore"):
        features = (ds.features - sp.mean) / sp.std
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        sample, step, channel = bad[0]
        raise DataError(f"{ds.where(sample)}: step {step}, channel {channel}: the standardized "
                        f"value is not finite")
    return replace(ds, features=features)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    split_train: float = setting(0.6, POSITIVE)
    split_val: float = setting(0.2, POSITIVE)
    split_test: float = setting(0.2, POSITIVE)
    stratified: bool = setting(False)

    def validate(self) -> None:
        check(self)
        if abs(self.split_train + self.split_val + self.split_test - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got split_train + split_val + split_test = "
                             f"{self.split_train} + {self.split_val} + {self.split_test}")


def _partition_counts(n: int, spec: SplitSpec) -> tuple:
    """Floor counts for (train, val, test) with the remainder going to train."""
    n_val = int(n * spec.split_val)
    n_test = int(n * spec.split_test)
    n_train = n - n_val - n_test
    return n_train, n_val, n_test


def split_indices(labels: np.ndarray, num_classes: int, spec: SplitSpec, seed: int) -> tuple:
    """Shuffle-then-partition of the samples with ``labels``, shuffled by
    ``Rng(seed)``; returns the (train, val, test) row indices.  Of the data,
    the labels alone decide them.  ``spec`` has passed ``SplitSpec.validate``."""
    rng = Rng(seed)
    n = labels.shape[0]
    if spec.stratified:
        train_idx, val_idx, test_idx = [], [], []
        for cls in range(num_classes):
            members = np.flatnonzero(labels == cls)
            perm = members[rng.permutation(members.shape[0])]
            n_tr, n_va, _ = _partition_counts(members.shape[0], spec)
            train_idx.append(perm[:n_tr])
            val_idx.append(perm[n_tr:n_tr + n_va])
            test_idx.append(perm[n_tr + n_va:])
        parts = tuple(np.concatenate(p) for p in (train_idx, val_idx, test_idx))
    else:
        perm = rng.permutation(n)
        n_tr, n_va, _ = _partition_counts(n, spec)
        parts = (perm[:n_tr], perm[n_tr:n_tr + n_va], perm[n_tr + n_va:])
    for name, idx in zip(("train", "val", "test"), parts):
        if idx.shape[0] == 0:
            raise DataError(f"{name} split received 0 samples (n={n}, split_train = "
                            f"{spec.split_train}, split_val = {spec.split_val}, "
                            f"split_test = {spec.split_test})")
    return parts


def split(source: DataSource, spec: SplitSpec, seed: int):
    """(train, val, test) Datasets of the rows ``split_indices`` picks, each
    row parsed once, straight into its part, in split order."""
    return tuple(source.load(idx)
                 for idx in split_indices(source.labels, len(source.class_names), spec, seed))

