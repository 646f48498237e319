"""Dense float64 tensor kernels, seeded RNG, and weight initializers.

Tensors throughout the package are plain numpy ``float64`` ndarrays in
row-major (C) order.  Everything here is a pure function of its inputs;
the only stateful object is :class:`Rng`, which is owned by exactly one
caller at a time.
"""

from __future__ import annotations

import numpy as np

# A tensor is a float64 ndarray; the alias documents intent in signatures.
Tensor = np.ndarray


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def is_train_mode(mode: str) -> bool:
    """True for "train", False for "eval"; any other mode raises ValueError."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def sigmoid(x: Tensor, out: Tensor | None = None) -> Tensor:
    """Logistic function, evaluated on the numerically safe branch per sign.

    With ``z = exp(-|x|)`` the branches are ``1 / (1 + z)`` for ``x >= 0``
    and ``z / (1 + z)`` below.  ``max(z, x >= 0)`` is their numerator in both
    cases, since ``0 <= z <= 1``, and a NaN ``z`` survives the max, so one
    division gives the branch result bit for bit, ±0, ±inf, NaN and
    subnormal ``z`` included.  ``out`` may be ``x`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    z = np.copysign(x, -1.0, out=np.empty(x.shape))  # -|x|
    np.exp(z, out=z)
    np.maximum(z, x >= 0, out=out)
    z += 1.0
    return np.divide(out, z, out=out)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, shifted by the row max for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# seeded pseudo-random generator
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, applied in place to the uint64 array ``z``."""
    shifted = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=shifted)
        z ^= shifted
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=shifted)
        z ^= shifted
        z *= _MIX2
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
    return z


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"draw count must be >= 0, got {n}")


def _shape_tuple(shape) -> tuple:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


class Rng:
    """SplitMix64 generator: a 64-bit counter advanced by a fixed odd gamma,
    with each output a finalizing hash of the counter.

    The k-th word after seeding is a pure function of (seed, k) using only
    64-bit integer arithmetic, so sequences are identical across runs and
    platforms for the same seed.  The state is the counter of words drawn
    plus one pending 32-bit half: ``next_uint32`` splits each word into its
    low and then its high half, and a call that takes an odd number of
    halves leaves the last word's high half for the next ``next_uint32``
    call, whatever other draws come between (as numpy's ``Generator`` keeps
    its buffered half).  So any split of one ``next_uint32`` draw into
    consecutive calls hands out the same values.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0
        self._pending = None

    def next_uint64(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw 64-bit draws; ``n`` < 0 raises ValueError."""
        _check_count(n)
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z *= np.uint64(_GAMMA)
            z += np.uint64(self.seed)
        return _mix64(z)

    def next_uint32(self, n: int) -> np.ndarray:
        """Return the next ``n`` 32-bit draws: the pending half, if any, then
        the low and high half of each further word, on every platform.  The
        words come from ``next_uint64``; ``n`` < 0 raises ValueError."""
        _check_count(n)
        carried = []
        if n > 0 and self._pending is not None:
            carried, self._pending = [self._pending], None
        words = self.next_uint64((n - len(carried) + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")
        if halves.size > n - len(carried):
            self._pending, halves = halves[-1], halves[:-1]
        return np.concatenate((carried, halves)) if carried else halves

    def uniform(self, shape) -> Tensor:
        """I.i.d. uniform draws on [0, 1) using the top 53 bits of each word."""
        shape = _shape_tuple(shape)
        n = int(np.prod(shape, dtype=np.int64))
        bits = self.next_uint64(max(n, 0))
        bits >>= np.uint64(11)
        return np.multiply(bits, 2.0 ** -53).reshape(shape)

    def normal(self, shape) -> Tensor:
        """Standard normal draws via the Box-Muller transform."""
        shape = _shape_tuple(shape)
        n = int(np.prod(shape, dtype=np.int64))
        pairs = (n + 1) // 2
        bits = self.next_uint64(2 * pairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((bits[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (bits[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting one uniform draw each."""
        return np.argsort(self.uniform((n,)), kind="stable")

    def derive(self, tag: str) -> "Rng":
        """Independent child generator keyed by ``tag``; does not consume draws."""
        h = _FNV_OFFSET
        for byte in tag.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        child = _mix64(np.array([self.seed ^ h], dtype=np.uint64))
        return Rng(int(child[0]))


# ---------------------------------------------------------------------------
# weight initializers
# ---------------------------------------------------------------------------

def init_glorot_uniform(fan_in: int, fan_out: int, shape, rng: Rng) -> Tensor:
    """Uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fans must be positive, got fan_in={fan_in}, fan_out={fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniform(shape) * 2.0 - 1.0) * limit


def init_he_uniform(fan_in: int, shape, rng: Rng) -> Tensor:
    """Uniform on [-L, L] with L = sqrt(6 / fan_in)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    return (rng.uniform(shape) * 2.0 - 1.0) * limit


def init_orthogonal(rows: int, cols: int, rng: Rng) -> Tensor:
    """Orthonormal columns for rows >= cols (rows for rows < cols).

    QR of a gaussian draw with the sign of R's diagonal folded into Q so the
    factorization is unique.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    a = rng.normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q)
