"""Print the traced memory peak of one train step at the three preset shapes,
and the SplitMix64 words its dropout masks draw.

Each line is one forward, loss and backward of the default model on a random
batch of a benchmark workload's shape: [batch, timesteps, channels] and its
class count.  tracemalloc counts the bytes that numpy and Python allocate, so
a figure is the same on every run of one numpy build.  The script exits 1
when a peak is more than ``TOLERANCE`` above its figure in ``PEAK_MIB``, so
a train trace that starts keeping a mask or a float array again fails, or
when the 64-bit words drawn (the ``Rng`` counter after the forward) exceed
their figure in ``WORDS``, so a return to one word per dropout element
fails.  pytest does not collect this file; run it from the repository root as

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
PEAK_MIB = {"mitbih": 21.7, "tess": 29.6, "ionosphere": 3.4}
TOLERANCE = 0.10

# workload -> the 64-bit words one train step draws: one 32-bit half per
# stream- and head-dropout element, two halves to a word
WORDS = {"mitbih": 1_527_808, "tess": 2_098_176, "ionosphere": 135_168}


def step_peak(n: int, timesteps: int, channels: int, classes: int) -> tuple:
    """(bytes at the traced peak, 64-bit words drawn) of one train step of
    the default model."""
    cfg = model.ModelConfig(input_timesteps=timesteps, input_channels=channels,
                            num_classes=classes)
    net = model.build(cfg, Rng(1))
    x = Rng(2).uniform((n, timesteps, channels)) * 2 - 1
    onehot = np.eye(classes)[np.arange(n) % classes]
    rng = Rng(3)
    tracemalloc.start()
    try:
        probs, trace = model.forward(net, x, mode="train", rng=rng)
        words = rng._counter
        _, dlogits = optim.cce_loss(probs, onehot)
        model.backward(net, trace, dlogits)
        return tracemalloc.get_traced_memory()[1], words
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    over = []
    for name, shape in SHAPES.items():
        peak, words = step_peak(*shape)
        peak /= 2**20
        print(f"{name:<11} {list(shape[:3])}  train step peak {peak:6.1f} MiB"
              f"  (figure {PEAK_MIB[name]:.1f})  words drawn {words:,} (figure {WORDS[name]:,})")
        if peak > PEAK_MIB[name] * (1 + TOLERANCE):
            over.append(f"{name} peak")
        if words > WORDS[name]:
            over.append(f"{name} words")
    if over:
        print(f"above its figure: {', '.join(over)}")
        sys.exit(1)
