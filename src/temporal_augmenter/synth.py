"""Generated desk-scale datasets.

The real corpora behind the three reference tasks are large downloads; these
generators produce format-identical stand-ins sized for a workstation:

  * a pure-tone WAV corpus (classes differ only in frequency),
  * a heartbeat-like corpus with five imbalanced classes, in the mitbih layout,
  * a radar-echo-like corpus (coherent decaying echo vs clutter), in the
    ionosphere layout; both layouts are entries of ``data.CSV_SCHEMAS``.

Each function is deterministic given its Rng.
"""

from __future__ import annotations

import os
import wave

import numpy as np

from .data import CSV_SCHEMAS, Dataset
from .tensor_core import Rng


def write_wav(path, samples: np.ndarray, rate: int, channels: int = 1) -> None:
    """Write float samples in [-1, 1) as 16-bit PCM."""
    clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
    ints = np.round(clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(ints.tobytes())


def write_tone_corpus(root, rng: Rng, frequencies=(440.0, 880.0, 1320.0),
                      clips_per_class: int = 200, sample_rate: int = 4000,
                      clip_len: int = 1000) -> list:
    """Write a WAV tree of noisy pure tones; returns the class names.

    Every clip has a random phase and amplitude, so frequency is the only
    class cue.
    """
    names = []
    t = np.arange(clip_len) / sample_rate
    for freq in frequencies:
        cls = f"tone{int(round(freq))}"
        names.append(cls)
        os.makedirs(os.path.join(root, cls), exist_ok=True)
        for i in range(clips_per_class):
            phase = rng.uniform(()) * 2.0 * np.pi
            amp = 0.5 + 0.45 * rng.uniform(())
            noise = 0.02 * rng.normal(clip_len)
            samples = amp * np.sin(2.0 * np.pi * freq * t + phase) + noise
            write_wav(os.path.join(root, cls, f"clip{i:04d}.wav"), samples, sample_rate)
    return sorted(names)


# ---------------------------------------------------------------------------
# heartbeat-like corpus
# ---------------------------------------------------------------------------

_BEAT_LEN = CSV_SCHEMAS["mitbih"].shape[0]

# (center, width, amplitude) bumps per class, loosely P/QRS/T shaped; the
# second class intentionally stays close to the first so the task is not
# linearly trivial.
_BEAT_TEMPLATES = {
    0: [(25, 6, 0.18), (45, 2, -0.12), (50, 2.5, 1.0), (55, 2, -0.22), (85, 10, 0.32)],
    1: [(30, 4, 0.06), (42, 2, -0.10), (46, 2.5, 0.92), (51, 2, -0.20), (76, 9, 0.30)],
    2: [(48, 7, 0.85), (60, 5, -0.35), (95, 12, -0.28)],
    3: [(36, 6, 0.45), (50, 4.5, 0.88), (57, 3, -0.28), (88, 11, 0.15)],
    4: [(50, 1.5, 1.0), (70, 15, 0.48)],
}

# approximate class mix of a large arrhythmia corpus: one dominant class,
# several rare ones
_BEAT_MIX = (0.828, 0.025, 0.066, 0.007, 0.074)


def _bumps(t: np.ndarray, spec, shift: float, widen: float) -> np.ndarray:
    out = np.zeros_like(t)
    for center, width, amp in spec:
        out += amp * np.exp(-0.5 * ((t - center - shift) / (width * widen)) ** 2)
    return out


def make_heartbeat_dataset(n: int, rng: Rng) -> Dataset:
    """Five-class imbalanced beat-shaped sequences in the mitbih row shape, values in [0, 1]."""
    counts = [int(round(n * frac)) for frac in _BEAT_MIX]
    counts[0] += n - sum(counts)
    t = np.arange(_BEAT_LEN, dtype=np.float64)
    feats = np.zeros((n, _BEAT_LEN))
    labels = np.zeros(n, dtype=np.int64)
    row = 0
    for cls, count in enumerate(counts):
        for _ in range(count):
            shift = (rng.uniform(()) - 0.5) * 12.0
            widen = 0.9 + 0.2 * rng.uniform(())
            scale = 0.8 + 0.4 * rng.uniform(())
            wander = 0.04 * np.sin(2.0 * np.pi * t / _BEAT_LEN + 2.0 * np.pi * rng.uniform(()))
            beat = scale * _bumps(t, _BEAT_TEMPLATES[cls], shift, widen)
            beat += wander + 0.03 * rng.normal(_BEAT_LEN)
            lo, hi = beat.min(), beat.max()
            beat = (beat - lo) / (hi - lo + 1e-9)
            valid = 150 + int(rng.uniform(()) * 37)
            beat[valid:] = 0.0
            feats[row] = beat
            labels[row] = cls
            row += 1
    perm = rng.permutation(n)
    return Dataset(features=feats[perm][:, :, None], labels=labels[perm],
                   class_names=list(CSV_SCHEMAS["mitbih"].class_names))


def write_heartbeat_csv(path, ds: Dataset) -> None:
    """Serialize a heartbeat dataset in the header-less mitbih layout."""
    flat = ds.features[:, :, 0]
    with open(path, "w") as fh:
        for row, label in zip(flat, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(label)!r}\n")


# ---------------------------------------------------------------------------
# radar-echo-like corpus
# ---------------------------------------------------------------------------

_RADAR = CSV_SCHEMAS["ionosphere"]
_PULSES = _RADAR.shape[0]


def make_radar_dataset(n: int, rng: Rng, good_fraction: float = 0.64) -> Dataset:
    """Two-class pulse-return sequences in the ionosphere row shape, values in [-1, 1].

    Good returns carry a coherent decaying complex echo; bad returns are
    clutter (heavy noise, sometimes with a faint fast-decaying echo).
    """
    n_good = int(round(n * good_fraction))
    p = np.arange(_PULSES, dtype=np.float64)
    feats = np.zeros((n, _PULSES, 2))
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        good = i < n_good
        if good:
            amp = 0.7 + 0.3 * rng.uniform(())
            decay = 6.0 + 8.0 * rng.uniform(())
            omega = 0.3 + 0.9 * rng.uniform(())
            phase = 2.0 * np.pi * rng.uniform(())
            noise_sd = 0.12
        else:
            faint = rng.uniform(()) < 0.25
            amp = 0.25 * rng.uniform(()) if faint else 0.0
            decay = 1.0 + 1.5 * rng.uniform(())
            omega = 2.0 * np.pi * rng.uniform(())
            phase = 2.0 * np.pi * rng.uniform(())
            noise_sd = 0.45
        envelope = amp * np.exp(-p / decay)
        feats[i, :, 0] = envelope * np.cos(omega * p + phase) + noise_sd * rng.normal(_PULSES)
        feats[i, :, 1] = envelope * np.sin(omega * p + phase) + noise_sd * rng.normal(_PULSES)
        labels[i] = 1 if good else 0
    feats = np.clip(feats, -1.0, 1.0)
    perm = rng.permutation(n)
    return Dataset(features=feats[perm], labels=labels[perm],
                   class_names=list(_RADAR.class_names))


def write_radar_csv(path, ds: Dataset) -> None:
    """Serialize a radar dataset in the header-less ionosphere layout."""
    flat = ds.features.reshape(ds.n, -1)
    with open(path, "w") as fh:
        for row, label in zip(flat, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{_RADAR.label_tokens[label]}\n")
