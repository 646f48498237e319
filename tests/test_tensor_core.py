import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter.layers import DenseParams, dense_forward, relu_forward
from temporal_augmenter.tensor_core import (
    Rng,
    ShapeError,
    init_glorot_uniform,
    init_he_uniform,
    init_orthogonal,
    softmax,
)


def naive_matmul(a, b):
    """Triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def matmul(a, b):
    """The engine's shape-checked 2-D product: a dense layer with zero bias."""
    return dense_forward(a, DenseParams(W=b, b=np.zeros(b.shape[1])))[0]


class TestMatmul:
    def test_identity(self):
        a = np.array([[3.0, 4.0], [5.0, 6.0]])
        npt.assert_array_equal(matmul(np.eye(2), a), a)

    def test_forced_arithmetic(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        npt.assert_array_equal(out, [[11.0]])

    def test_against_triple_loop(self):
        rng = Rng(123)
        a = rng.uniform((5, 7)) * 2 - 1
        b = rng.uniform((7, 3)) * 2 - 1
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_identity_associativity_bitwise(self):
        rng = Rng(5)
        a = rng.uniform((4, 4))
        b = rng.uniform((4, 6))
        npt.assert_array_equal(matmul(matmul(a, np.eye(4)), b), matmul(a, b))


class TestElementwise:
    def test_relu_definition(self):
        npt.assert_array_equal(relu_forward(np.array([-1.0, 0.0, 2.0]))[0], [0.0, 0.0, 2.0])


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        npt.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_hand_calculation(self):
        logits = np.log(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(softmax(logits), [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = Rng(17)
        z = rng.uniform((40, 9)) * 20 - 10
        p = softmax(z)
        npt.assert_allclose(p.sum(axis=1), np.ones(40), rtol=0, atol=1e-12)

    def test_constant_shift_invariance(self):
        rng = Rng(18)
        z = rng.uniform((10, 5)) * 6 - 3
        shifted = z + rng.uniform((10, 1)) * 100
        assert np.max(np.abs(softmax(z) - softmax(shifted))) < 1e-12


class TestInitializers:
    def test_glorot_limit_trivial(self):
        # fan_in=2, fan_out=4 -> L = sqrt(6/6) = 1
        vals = init_glorot_uniform(2, 4, Rng(1))
        assert vals.shape == (2, 4)
        assert np.max(np.abs(vals)) <= 1.0

    def test_glorot_limit_formula(self):
        limit = math.sqrt(6.0 / 138.0)
        assert abs(limit - 0.20851) < 1e-5
        vals = init_glorot_uniform(128, 10, Rng(2))
        assert vals.shape == (128, 10)
        assert np.max(np.abs(vals)) <= limit
        # mean of U[-L, L] is 0 with sd L/sqrt(3); require |mean| < 3 sigma/sqrt(N)
        assert abs(vals.mean()) < 3 * limit / math.sqrt(3) / math.sqrt(vals.size)

    def test_he_limits(self):
        assert np.max(np.abs(init_he_uniform(6, 1000, Rng(3)))) <= 1.0
        vals = init_he_uniform(1, 100000, Rng(4))
        assert vals.shape == (1, 100000)
        limit = math.sqrt(6.0)
        assert abs(limit - 2.4495) < 1e-4
        assert np.max(np.abs(vals)) <= limit
        assert np.max(np.abs(vals)) > 0.99 * limit  # draws actually fill the range

    def test_orthogonal_1x1_unit(self):
        for seed in range(8):
            v = init_orthogonal(1, Rng(seed))[0, 0]
            assert v in (-1.0, 1.0)

    def test_orthogonal_columns(self):
        q = init_orthogonal(10, Rng(11))
        npt.assert_allclose(q.T @ q, np.eye(10), atol=1e-10)

    def test_orthogonal_preserves_norms(self):
        q = init_orthogonal(10, Rng(14))
        rng = Rng(15)
        for _ in range(5):
            v = rng.uniform((10,)) * 2 - 1
            ratio = np.linalg.norm(q @ v) / np.linalg.norm(v)
            assert 1 - 1e-9 <= ratio <= 1 + 1e-9

    def test_initializers_pure(self):
        a = init_glorot_uniform(7, 5, Rng(99))
        b = init_glorot_uniform(7, 5, Rng(99))
        npt.assert_array_equal(a, b)
        qa = init_orthogonal(6, Rng(98))
        qb = init_orthogonal(6, Rng(98))
        npt.assert_array_equal(qa, qb)


MASK64 = (1 << 64) - 1


def splitmix64_mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_words(seed: int, count: int) -> list:
    """Pure-Python SplitMix64 oracle: the first ``count`` words after ``seed``."""
    state = seed & MASK64
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        words.append(splitmix64_mix(state))
    return words


class SplitMix64Halves:
    """Pure-Python oracle of ``Rng``'s 64-bit and 32-bit draws: each word
    split into its low and then its high 32 bits, with a high half that a
    32-bit draw leaves over handed out first by the next one."""

    def __init__(self, seed: int):
        self.state = seed & MASK64
        self.words = 0
        self.pending = None

    def uint64(self, n: int) -> list:
        out = []
        for _ in range(n):
            self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
            self.words += 1
            out.append(splitmix64_mix(self.state))
        return out

    def uint32(self, n: int) -> list:
        out = []
        while len(out) < n:
            if self.pending is None:
                word, = self.uint64(1)
                out.append(word & 0xFFFFFFFF)
                self.pending = word >> 32
            else:
                out.append(self.pending)
                self.pending = None
        return out


class SplitMix64Bits:
    """Pure-Python oracle of ``Rng``'s bit stream over Python ints: each
    word's 64 bits, low bit first, with the bits that a draw leaves over
    handed out first by the next one; whole-word draws leave them alone."""

    def __init__(self, seed: int):
        self.source = SplitMix64Halves(seed)
        self.carry = self.count = 0  # the carried bits, stream order from bit 0

    def bits(self, n: int) -> int:
        """The stream's next n bits as one int, stream bit i at bit i."""
        while self.count < n:
            word, = self.source.uint64(1)
            self.carry |= word << self.count
            self.count += 64
        out = self.carry & ((1 << n) - 1)
        self.carry >>= n
        self.count -= n
        return out

    def fields(self, n: int, b: int) -> list:
        value = self.bits(n * b)
        return [(value >> (i * b)) & ((1 << b) - 1) for i in range(n)]


def fields(rng, n, b):
    """n b-bit fields of ``rng``'s bit stream, as dropout reads them."""
    drawn = rng.next_bits(n * b)
    if b == 1:
        return np.unpackbits(drawn, count=n, bitorder="little")
    return drawn.view(f"<u{b // 8}")


def uint32(rng, n):
    """n 32-bit fields: the draw that ``Rng.next_uint32`` made before the
    bit stream replaced it."""
    return fields(rng, n, 32)


class TestRngKnownAnswers:
    SEEDS = (0, 1, 7, 42, 0xDEADBEEF, 1 << 63, MASK64)

    def test_published_seed0_words(self):
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert splitmix64_words(0, 3) == published
        assert [int(w) for w in Rng(0).next_uint64(3)] == published

    @pytest.mark.parametrize("seed", SEEDS)
    def test_next_uint64_matches_pure_python(self, seed):
        rng = Rng(seed)
        got = [int(w) for w in rng.next_uint64(25)] + [int(w) for w in rng.next_uint64(15)]
        assert got == splitmix64_words(seed, 40)

    def test_next_uint32_takes_the_low_half_first(self):
        words = splitmix64_words(0, 2)
        halves = uint32(Rng(0), 4)
        assert halves.dtype == np.uint32
        assert [int(h) for h in halves] == [words[0] & 0xFFFFFFFF, words[0] >> 32,
                                            words[1] & 0xFFFFFFFF, words[1] >> 32]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_next_uint32_matches_pure_python(self, seed):
        """32-bit fields are the halves that ``next_uint32`` handed out, bit
        for bit: the carried half outlives 64-bit draws and empty draws
        between two 32-bit draws; the counter counts the words either kind
        took."""
        calls = [(32, 5), (64, 2), (32, 3), (32, 0), (32, 1), (32, 1), (64, 1), (32, 7),
                 (64, 0), (32, 4), (32, 9)]
        rng, oracle = Rng(seed), SplitMix64Halves(seed)
        for bits, n in calls:
            got = uint32(rng, n) if bits == 32 else rng.next_uint64(n)
            assert got.dtype == (np.uint32 if bits == 32 else np.uint64)
            assert [int(v) for v in got] == (oracle.uint32(n) if bits == 32 else oracle.uint64(n))
            assert rng._counter == oracle.words

    @pytest.mark.parametrize("a", [1, 3, 7, 11905])
    @pytest.mark.parametrize("b", [0, 1, 2, 5, 11904])
    def test_next_uint32_split_equals_one_draw(self, a, b):
        rng = Rng(17)
        parts = np.concatenate([uint32(rng, a), uint32(rng, b)])
        whole = Rng(17)
        assert parts.tobytes() == uint32(whole, a + b).tobytes()
        assert rng._counter == whole._counter == (a + b + 1) // 2

    @pytest.mark.parametrize("draw", ["next_uint64", "next_bits"])
    def test_negative_count_raises_and_draws_nothing(self, draw):
        """A negative count once moved the counter back, so that later draws
        repeated words already handed out."""
        rng = Rng(42)
        first = uint32(rng, 3)  # one word and a carried half left over
        for n in (-1, -2):
            with pytest.raises(ValueError, match=str(n)):
                getattr(rng, draw)(n)
        assert getattr(rng, draw)(0).size == 0
        assert rng._counter == 2
        oracle = SplitMix64Halves(42)
        assert [int(v) for v in first] == oracle.uint32(3)
        assert [int(v) for v in uint32(rng, 2)] == oracle.uint32(2)
        assert [int(w) for w in rng.next_uint64(2)] == oracle.uint64(2)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("b", [1, 8, 16, 32])
    def test_fields_match_pure_python(self, seed, b):
        """Draws of b-bit fields, whose bits often end inside a word, with
        whole-word draws between them."""
        rng, oracle = Rng(seed), SplitMix64Bits(seed)
        for n in (3, 64, 0, 1, 130, 7, 41):
            got = fields(rng, n, b)
            assert [int(v) for v in got] == oracle.fields(n, b), n
            assert rng._counter == oracle.source.words
            assert [int(w) for w in rng.next_uint64(1)] == oracle.source.uint64(1)

    @pytest.mark.parametrize("b", [1, 8, 16, 32])
    def test_block_draws_equal_one_draw(self, b):
        """Blocks of 1, 63, 65 and 59,521 fields, drawn one after another,
        are the fields of one draw over all of them."""
        sizes = (1, 63, 65, 59_521)
        rng = Rng(18)
        blocks = np.concatenate([fields(rng, n, b) for n in sizes])
        whole = Rng(18)
        assert blocks.tobytes() == fields(whole, sum(sizes), b).tobytes()
        assert rng._counter == whole._counter == -(-sum(sizes) * b // 64)

    def test_one_bit_field_i_is_bit_i_of_the_words(self):
        words = splitmix64_words(19, 4)
        got = fields(Rng(19), 256, 1)
        assert got.tolist() == [(words[i // 64] >> (i % 64)) & 1 for i in range(256)]

    def test_a_draw_of_whole_words_is_a_view_of_them(self):
        """With no bits carried, 128 bits are two words' bytes, not a copy."""
        rng = Rng(20)
        drawn = rng.next_bits(128)
        assert drawn.dtype == np.uint8 and drawn.size == 16 and drawn.base is not None
        assert drawn.view("<u8").tolist() == splitmix64_words(20, 2)

    def test_a_draw_clears_the_bits_past_its_end(self):
        drawn = Rng(21).next_bits(13)
        assert drawn.size == 2 and drawn[1] >> 5 == 0
        assert int(drawn.view("<u2")[0]) == splitmix64_words(21, 1)[0] & 0x1FFF

    @pytest.mark.parametrize("seed", SEEDS)
    def test_carried_bits_survive_whole_word_draws(self, seed):
        """``next_uint64``, ``uniform`` and ``permutation`` take fresh words
        and leave the carried bits to the next field draw."""
        rng, oracle = Rng(seed), SplitMix64Bits(seed)
        assert [int(v) for v in fields(rng, 5, 8)] == oracle.fields(5, 8)  # 24 bits carried
        assert [int(w) for w in rng.next_uint64(2)] == oracle.source.uint64(2)
        words = oracle.source.uint64(3)
        assert rng.uniform((3,)).tolist() == [(w >> 11) * 2.0 ** -53 for w in words]
        words = oracle.source.uint64(4)
        assert rng.permutation(4).tolist() == np.argsort([w >> 11 for w in words],
                                                         kind="stable").tolist()
        assert [int(v) for v in fields(rng, 3, 8)] == oracle.fields(3, 8)  # from the carry
        assert [int(v) for v in fields(rng, 5, 8)] == oracle.fields(5, 8)
        assert rng._counter == oracle.source.words

    def test_a_32_bit_draw_after_5_carried_bits_reads_the_next_32(self):
        words = splitmix64_words(22, 2)
        stream = words[0] | words[1] << 64
        rng = Rng(22)
        rng.next_bits(59)  # 5 bits of the first word carried
        assert [int(v) for v in uint32(rng, 2)] == [(stream >> 59) & 0xFFFFFFFF,
                                                    (stream >> 91) & 0xFFFFFFFF]
        assert rng._counter == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniform_is_top_53_bits_and_advances_by_n(self, seed):
        words = splitmix64_words(seed, 19)
        rng = Rng(seed)
        vals = rng.uniform((3, 5))
        assert vals.shape == (3, 5)
        assert vals.ravel().tolist() == [(w >> 11) * 2.0 ** -53 for w in words[:15]]
        assert rng.uniform((0,)).shape == (0,)  # draws nothing
        assert rng.uniform(()).item() == (words[15] >> 11) * 2.0 ** -53
        assert [int(w) for w in rng.next_uint64(3)] == words[16:19]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derive_seeds_child_with_mixed_fnv_hash(self, seed):
        h = 0xCBF29CE484222325
        for byte in b"stream":
            h = ((h ^ byte) * 0x100000001B3) & MASK64
        child = Rng(seed).derive("stream")
        assert child.seed == splitmix64_mix(seed ^ h)


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(42).uniform((1000,))
        b = Rng(42).uniform((1000,))
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform((100,)), Rng(2).uniform((100,)))

    def test_sequence_continues(self):
        r = Rng(7)
        parts = np.concatenate([r.uniform((300,)), r.uniform((700,))])
        npt.assert_array_equal(parts, Rng(7).uniform((1000,)))

    def test_uniform_range(self):
        vals = Rng(3).uniform((100000,))
        assert vals.min() >= 0.0 and vals.max() < 1.0

    def test_normal_moments(self):
        vals = Rng(4).normal((100000,))
        assert abs(vals.mean()) < 0.02
        assert abs(vals.std() - 1.0) < 0.02

    def test_permutation_is_permutation(self):
        perm = Rng(5).permutation(500)
        npt.assert_array_equal(np.sort(perm), np.arange(500))

    def test_derive_streams_independent(self):
        root = Rng(10)
        a = root.derive("alpha").uniform((50,))
        b = root.derive("beta").uniform((50,))
        assert not np.array_equal(a, b)
        # deriving does not consume from the parent
        npt.assert_array_equal(root.uniform((10,)), Rng(10).uniform((10,)))
        npt.assert_array_equal(Rng(10).derive("alpha").uniform((50,)), a)
