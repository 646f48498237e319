"""Print the traced memory peak of one train step at the three preset shapes,
the SplitMix64 words its dropout masks draw, and the traced peak of one eval
forward.

Each line is one forward, loss and backward of the default model on a random
batch of a benchmark workload's shape: [batch, timesteps, channels] and its
class count, then one eval forward of the same batch.  tracemalloc counts the
bytes that numpy and Python allocate, so a figure is the same on every run of
one numpy build.  The script exits 1 when a train peak is more than
``TOLERANCE`` above its figure in ``PEAK_MIB``, so a train trace that starts
keeping a mask or a float array again fails; when an eval peak is more than
``TOLERANCE`` above its figure in ``EVAL_PEAK_MIB``, as the benchmark's
``eval_peak_rss_mb`` has its tightest bound; or when the 64-bit words drawn
(the ``Rng`` counter after the forward) exceed their figure in ``WORDS``, so
a return to 32 bits per stream-dropout element at rate 0.5 fails.  pytest does not collect this
file; run it from the repository root as

    PYTHONPATH=src python tests/step_memory.py
"""

import sys
import tracemalloc

import numpy as np

from temporal_augmenter import model, optim
from temporal_augmenter.tensor_core import Rng

# workload -> (batch, timesteps, channels, classes)
SHAPES = {
    "mitbih": (128, 187, 1, 5),
    "tess": (32, 1024, 1, 3),
    "ionosphere": (128, 17, 2, 2),
}

# workload -> the step peak in MiB, read with numpy 2.4 on CPython 3.11
PEAK_MIB = {"mitbih": 18.1, "tess": 24.7, "ionosphere": 2.5}
# workload -> the eval forward peak in MiB, read likewise
EVAL_PEAK_MIB = {"mitbih": 4.39, "tess": 5.86, "ionosphere": 1.16}
TOLERANCE = 0.10

# workload -> the 64-bit words one train step draws: one bit per
# stream-dropout element at rate 0.5 and 32 per head-dropout element at 0.3,
# 64 bits to a word
WORDS = {"mitbih": 51_712, "tess": 66_560, "ionosphere": 8_192}


def step_peak(n: int, timesteps: int, channels: int, classes: int) -> tuple:
    """(bytes at the traced peak, 64-bit words drawn) of one train step of
    the default model, and the bytes at the traced peak of one eval forward
    after it."""
    cfg = model.ModelConfig(input_timesteps=timesteps, input_channels=channels,
                            num_classes=classes)
    net = model.build(cfg, Rng(1))
    x = Rng(2).uniform((n, timesteps, channels)) * 2 - 1
    labels = np.arange(n) % classes
    rng = Rng(3)
    tracemalloc.start()
    try:
        probs, trace = model.forward(net, x, mode="train", rng=rng)
        words = rng._counter
        _, dlogits = optim.cce_loss(probs, labels)
        model.backward(net, trace, dlogits)
        peak = tracemalloc.get_traced_memory()[1]
        del probs, trace, dlogits
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        model.forward(net, x, mode="eval")
        return peak, words, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    over = []
    for name, shape in SHAPES.items():
        peak, words, eval_peak = step_peak(*shape)
        peak, eval_peak = peak / 2**20, eval_peak / 2**20
        print(f"{name:<11} {list(shape[:3])}  train step peak {peak:6.1f} MiB"
              f"  (figure {PEAK_MIB[name]:.1f})  words drawn {words:,} (figure {WORDS[name]:,})"
              f"  eval peak {eval_peak:4.2f} MiB (figure {EVAL_PEAK_MIB[name]:.2f})")
        if peak > PEAK_MIB[name] * (1 + TOLERANCE):
            over.append(f"{name} peak")
        if eval_peak > EVAL_PEAK_MIB[name] * (1 + TOLERANCE):
            over.append(f"{name} eval peak")
        if words > WORDS[name]:
            over.append(f"{name} words")
    if over:
        print(f"above its figure: {', '.join(over)}")
        sys.exit(1)
