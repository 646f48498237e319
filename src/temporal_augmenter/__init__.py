"""Dual-stream recurrent ensemble engine for signal classification.

The package trains a two-stream network (a GRU stream for short-term
structure and an LSTM stream for long-term structure, each fronted by a
single 1-D convolution) on sequence classification tasks, and reports the
full set of confusion-matrix statistics (per-class and overall, including
Cohen's kappa with standard error and confidence intervals, and one-vs-rest
ROC AUC).

Importing the package sets the BLAS thread variables (``OPENBLAS``, ``OMP``,
``MKL`` and ``BLIS_NUM_THREADS``) to 1 where they are unset, so that a seed
reproduces models bit for bit whatever the core count.  A caller that
imported numpy first keeps its BLAS's own default.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .model import ModelConfig, TemporalAugmenterModel, build, forward, backward, param_count
from .optim import TrainConfig, TrainLog, fit
from .tensor_core import Rng

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "TemporalAugmenterModel",
    "build",
    "forward",
    "backward",
    "param_count",
    "TrainConfig",
    "TrainLog",
    "fit",
    "Rng",
    "__version__",
]
