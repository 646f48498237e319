"""Central finite-difference verification of every analytic backward pass.

Each check builds random instances, evaluates a scalar objective (a fixed
random projection of the outputs, or the cross-entropy loss for the whole
network), and compares the analytic gradients against central differences
with h = 1e-5.  Relative error uses a small denominator floor so exactly-zero
gradients compare cleanly.  Nondifferentiable points (ReLU kinks, pooling
ties) are kept out of the sampled instances by construction.  ReLU and
dropout write over their input, so they are given copies.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from . import layers, model as model_mod, optim, recurrent
from .data import one_hot
from .model import ModelConfig
from .tensor_core import Rng

TOLERANCE = 1e-4
_H = 1e-5


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_grad(objective, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar objective w.r.t. arr, in place."""
    out = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + _H
        fp = objective()
        arr[idx] = orig - _H
        fm = objective()
        arr[idx] = orig
        out[idx] = (fp - fm) / (2.0 * _H)
    return out


def _uniform_pm(rng: Rng, shape) -> np.ndarray:
    return rng.uniform(shape) * 2.0 - 1.0


def _worst(run, proj, pairs) -> float:
    """Largest relative error over ``pairs`` of (analytic gradient, array)
    of the objective ``sum(run()[0] * proj)``, each array perturbed in place."""
    def objective():
        return float(np.sum(run()[0] * proj))

    return max(max_rel_err(analytic, fd_grad(objective, arr)) for analytic, arr in pairs)


def check_dense(seed: int = 0, trials: int = 5) -> float:
    rng = Rng(seed).derive("dense")
    worst = 0.0
    for _ in range(trials):
        n = 2 + int(rng.uniform(()) * 4)
        i = 1 + int(rng.uniform(()) * 6)
        o = 1 + int(rng.uniform(()) * 5)
        x = _uniform_pm(rng, (n, i))
        p = layers.DenseParams(W=_uniform_pm(rng, (i, o)), b=_uniform_pm(rng, (o,)))
        proj = _uniform_pm(rng, (n, o))
        dx, dW, db = layers.dense_backward(layers.dense_forward(x, p)[1], proj)
        worst = max(worst, _worst(lambda: layers.dense_forward(x, p), proj,
                                  ((dx, x), (dW, p.W), (db, p.b))))
    return worst


def check_conv1d(seed: int = 0, trials: int = 5) -> float:
    rng = Rng(seed).derive("conv1d")
    worst = 0.0
    for trial in range(trials):
        n = 2 + int(rng.uniform(()) * 2)
        k = 1 + trial % 3
        T = k + 2 + int(rng.uniform(()) * 4)
        c = 1 + int(rng.uniform(()) * 3)
        F = 1 + int(rng.uniform(()) * 4)
        x = _uniform_pm(rng, (n, T, c))
        p = layers.Conv1DParams(K=_uniform_pm(rng, (k, c, F)), b=_uniform_pm(rng, (F,)))
        proj = _uniform_pm(rng, (n, T - k + 1, F))
        dK, db = layers.conv1d_backward(layers.conv1d_forward(x, p)[1], proj)
        worst = max(worst, _worst(lambda: layers.conv1d_forward(x, p), proj,
                                  ((dK, p.K), (db, p.b))))
    return worst


def _gapped_windows(rng: Rng, shape, pool: int) -> np.ndarray:
    """Random input whose in-window values are separated by > 100*h."""
    while True:
        x = _uniform_pm(rng, shape)
        n, T, c = shape
        windows = x[:, :(T // pool) * pool, :].reshape(n, T // pool, pool, c)
        sorted_w = np.sort(windows, axis=2)
        if pool == 1 or np.min(np.diff(sorted_w, axis=2)) > 100 * _H:
            return x


def check_maxpool1d(seed: int = 0, trials: int = 5) -> float:
    rng = Rng(seed).derive("maxpool")
    worst = 0.0
    for trial in range(trials):
        n = 2 + int(rng.uniform(()) * 2)
        pool = 1 + trial % 3
        T = pool * (2 + int(rng.uniform(()) * 3)) + trial % 2
        c = 1 + int(rng.uniform(()) * 3)
        x = _gapped_windows(rng, (n, T, c), pool)
        y, cache = layers.maxpool1d_forward(x, pool)
        proj = _uniform_pm(rng, y.shape)
        dx = layers.maxpool1d_backward(cache, proj)
        worst = max(worst, _worst(lambda: layers.maxpool1d_forward(x, pool), proj, ((dx, x),)))
    return worst


def check_relu(seed: int = 0, trials: int = 5) -> float:
    rng = Rng(seed).derive("relu")
    worst = 0.0
    for _ in range(trials):
        shape = (2 + int(rng.uniform(()) * 3), 1 + int(rng.uniform(()) * 6))
        x = _uniform_pm(rng, shape)
        x += np.where(x >= 0, 1e-2, -1e-2)  # keep away from the kink
        proj = _uniform_pm(rng, shape)
        dx = layers.relu_backward(layers.relu_forward(x.copy())[0], proj.copy())
        worst = max(worst, _worst(lambda: layers.relu_forward(x.copy()), proj, ((dx, x),)))
    return worst


def check_dropout(seed: int = 0, trials: int = 3) -> float:
    """Dropout, then ReLU and dropout with the backward from the output, as the model runs it."""
    rng = Rng(seed).derive("dropout")
    worst = 0.0
    for trial in range(trials):
        shape = (3, 4 + trial)
        x = _uniform_pm(rng, shape)
        x += np.where(x >= 0, 1e-2, -1e-2)  # keep away from the ReLU kink
        proj = _uniform_pm(rng, shape)
        mask_seed = int(rng.uniform(()) * 1e9)

        def dropout():
            return layers.dropout_forward(x.copy(), 0.4, "train", Rng(mask_seed))

        def pair():
            return layers.dropout_forward(layers.relu_forward(x.copy())[0], 0.4, "train",
                                          Rng(mask_seed))

        dx = layers.dropout_backward(dropout()[1], proj.copy())
        y, (_, scale) = pair()
        dx_pair = layers.dropout_backward((None, scale), layers.relu_backward(y, proj.copy()))
        worst = max(worst, _worst(dropout, proj, ((dx, x),)), _worst(pair, proj, ((dx_pair, x),)))
    return worst


def _check_cell(kind: str, seed: int) -> float:
    rng = Rng(seed).derive(kind)
    run, run_back = ((recurrent.lstm_forward, recurrent.lstm_backward) if kind == "lstm"
                     else (recurrent.gru_forward, recurrent.gru_backward))
    worst = 0.0
    for T in (1, 2, 5):
        n, d, u = 3, 4, 3
        params = recurrent.draw_params(recurrent.zero_params(kind, d, u), kind, rng)
        params.b += _uniform_pm(rng, params.b.shape) * 0.1
        x = _uniform_pm(rng, (n, T, d))
        proj = _uniform_pm(rng, (n, T, u))

        def run_cell():
            # W is checked through the projection that the cell is given
            return run(recurrent.project(x, params), params)

        da, grads = run_back(run_cell()[1], proj)
        # dx and the W gradient from da, by the helper the model's backward calls
        dx, grads["W"] = recurrent.project_backward(x, da, params)
        pairs = [(dx, x)] + [(grads[name], arr) for name, arr in vars(params).items()]
        worst = max(worst, _worst(run_cell, proj, pairs))
    return worst


def check_lstm(seed: int = 0) -> float:
    return _check_cell("lstm", seed)


def check_gru(seed: int = 0) -> float:
    return _check_cell("gru", seed)


def miniature_config() -> ModelConfig:
    return ModelConfig(input_timesteps=5, input_channels=2, num_classes=3,
                       conv_filters=4, conv_kernel=2, pool_size=2,
                       dropout_stream=0.0, dropout_head=0.0,
                       lstm_units=3, gru_units=3, dense_sizes=(5, 4))


def pooled_miniature_config() -> ModelConfig:
    """A one-step kernel over one channel, the shape that takes the model's
    pooled front-end, with stream dropout on and a remainder step dropped."""
    return replace(miniature_config(), input_timesteps=7, input_channels=1, conv_kernel=1,
                   dropout_stream=0.3)


def _instance_clean(net, x: np.ndarray, band: float = 1e-3) -> bool:
    """True when no conv or hidden dense pre-activation sits within ``band`` of
    a ReLU kink and no pooling window holds two positive conv outputs closer
    than ``band`` (FD would cross the nondifferentiability otherwise).

    The pre-activations come from one real forward: each conv and dense input
    is read from its trace and passed through that layer again.
    """
    _, trace = model_mod.forward(net, x, mode="train", rng=Rng(0))
    pool = net.config.pool_size
    for sp, stream_cache in zip(net.streams, trace.stream_caches):
        pre, _ = layers.conv1d_forward(stream_cache[0], sp.conv)
        if np.min(np.abs(pre)) < band:
            return False
        if pool > 1:
            # pooling precedes the ReLU; a near-tie between positive values
            # would flip the winner under FD, while windows whose max is
            # clamped to zero pass no gradient either way
            n, T, c = pre.shape
            t_out = T // pool
            sorted_w = np.sort(pre[:, :t_out * pool].reshape(n, t_out, pool, c), axis=2)
            gaps = np.diff(sorted_w, axis=2)
            if np.any((gaps < band) & (sorted_w[:, :, 1:, :] > 0.0)):
                return False
    for dp, (dense_cache, _) in zip(net.head[:-1], trace.head_caches):
        pre, _ = layers.dense_forward(dense_cache[0], dp)
        if np.min(np.abs(pre)) < band:
            return False
    return True


def _build_clean_instance(cfg: ModelConfig, rng: Rng, n: int):
    """Model plus input sampled away from every ReLU kink and pooling near-tie.

    Biases get small random values: zero-bias builds can leave a whole dense
    layer dead (every pre-activation exactly on the kink), and bias gradients
    are part of the check anyway.
    """
    for _ in range(20):
        net = model_mod.build(cfg, rng)
        for name, arr in net.parameters().items():
            if name.endswith(".b"):
                arr += _uniform_pm(rng, arr.shape) * 0.4
            if name.endswith("conv.b"):  # bias conv outputs off the clamp
                arr += 0.8
        for _ in range(200):
            x = _uniform_pm(rng, (n, cfg.input_timesteps, cfg.input_channels))
            if _instance_clean(net, x):
                return net, x
    raise RuntimeError("could not sample a kink-free model instance")


def check_model(seed: int = 0, builds: int = 2) -> float:
    """Whole-network loss gradient versus finite differences, for each
    miniature: the general front-end, then the pooled one."""
    worst = 0.0
    for b, cfg in itertools.product(range(builds), (miniature_config(),
                                                    pooled_miniature_config())):
        rng = Rng(seed + b).derive("model")
        n = 3
        net, x = _build_clean_instance(cfg, rng, n)
        onehot = one_hot((rng.uniform((n,)) * cfg.num_classes).astype(np.int64),
                         cfg.num_classes)

        def objective():
            probs, _ = model_mod.forward(net, x, mode="train", rng=Rng(0))
            return float(optim.cce_loss(probs, onehot)[0])

        probs, trace = model_mod.forward(net, x, mode="train", rng=Rng(0))
        _, dlogits = optim.cce_loss(probs, onehot)
        grads = model_mod.backward(net, trace, dlogits)
        for name, arr in net.parameters().items():
            worst = max(worst, max_rel_err(grads[name], fd_grad(objective, arr)))
    return worst


COMPONENTS = {
    "dense": check_dense,
    "conv1d": check_conv1d,
    "maxpool1d": check_maxpool1d,
    "relu": check_relu,
    "dropout": check_dropout,
    "lstm": check_lstm,
    "gru": check_gru,
    "model": check_model,
}


def run(components=None, seed: int = 0) -> dict:
    """Run the named checks (all by default); returns component -> max rel err."""
    names = list(COMPONENTS) if components is None else list(components)
    results = {}
    for name in names:
        if name not in COMPONENTS:
            raise ValueError(f"unknown gradcheck component {name!r}; "
                             f"expected one of {sorted(COMPONENTS)}")
        results[name] = COMPONENTS[name](seed=seed)
    return results
