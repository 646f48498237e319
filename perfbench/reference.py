"""A fixed piece of reference work that tells how fast the machine runs now.

On a shared virtual machine each core slows down and speeds up for reasons
outside the benchmark, by up to half again and for minutes at a time.  The
benchmark times `reference_seconds()` on the core its child processes use,
right before and right after each child, and scales the child's times by
`REFERENCE_S` over those readings (see `run.scaled_metrics`).  The work is
fixed here and does not use the engine, so no change to the engine changes it.

It mixes what the engine spends its time on, in about equal parts: products,
ReLU and pooling on arrays of a convolution's shape, a plain Python loop (the
interpreter), and passes over an array larger than the caches.  Timed around
the pairs of a run, the mix followed the train and eval times of `mitbih`
and `ionosphere` with a log-log slope near 1, closer than a loop of small
numpy calls did.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one `reference_seconds()` call; scaled times are given as
# if every reading had taken this long.
REFERENCE_S = 0.1

_rng = np.random.default_rng(20240113)
_COLUMNS = _rng.standard_normal((128 * 17, 6))   # im2col of a [128, 17, 2] batch
_FILTERS = _rng.standard_normal((6, 128))
_BIG = _rng.standard_normal((64, 512, 16))       # 4 MiB


def _work() -> float:
    total = 0.0
    for _ in range(25):
        y = np.maximum(_COLUMNS @ _FILTERS, 0.0).reshape(128, 17, 128)
        pooled = np.maximum(y[:, :-1], y[:, 1:])
        total += float((pooled > 0).sum()) + float((y * y).mean(axis=0).sum())
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(15):
        pooled = np.maximum(_BIG[:, :-1], _BIG[:, 1:])
        total += float((pooled * pooled).mean())
    return total + acc


def reference_seconds() -> float:
    """Wall seconds of one fixed piece of work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
