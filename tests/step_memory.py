"""Print the traced memory peak of one train step at the three preset shapes.

Each line is one forward, loss and backward of the default model on a random
batch of a benchmark workload's shape: [batch, timesteps, channels] and its
class count.  tracemalloc counts the bytes that numpy and Python allocate, so
a figure is the same on every run of one numpy build.  pytest does not
collect this file; run it from the repository root as

    PYTHONPATH=src python tests/step_memory.py
"""

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


def step_peak(n: int, timesteps: int, channels: int, classes: int) -> int:
    """Bytes at the traced peak of one train step of the default model."""
    cfg = model.ModelConfig(input_timesteps=timesteps, input_channels=channels,
                            num_classes=classes)
    net = model.build(cfg, Rng(1))
    x = Rng(2).uniform((n, timesteps, channels)) * 2 - 1
    onehot = np.eye(classes)[np.arange(n) % classes]
    tracemalloc.start()
    try:
        probs, trace = model.forward(net, x, mode="train", rng=Rng(3))
        _, dlogits = optim.cce_loss(probs, onehot)
        model.backward(net, trace, dlogits)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    for name, shape in SHAPES.items():
        print(f"{name:<11} {list(shape[:3])}  train step peak {step_peak(*shape) / 2**20:6.1f} MiB")
