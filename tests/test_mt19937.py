import hashlib
import random

import numpy as np
import pytest

from cubicorbit import (MT19937, generate_bits, load_recurrence_matrices,
                        recover_matrices, scan_conditions_ab, temper,
                        untemper, validate_triple, verify_recurrence)
from cubicorbit.gf2 import Gf2Matrix32
from cubicorbit.mt19937 import DEFAULT_SEED, RankDeficient, lag_pairs_csv
from conftest import gf2_mul

# first outputs of the reference implementation for the default seed
KNOWN_FIRST = [3499211612, 581869302, 3890346734, 3586334585, 545404204]


def reference_words(seed: int, count: int) -> np.ndarray:
    """numpy's legacy stream, drawn directly. MT19937 runs on the same
    generator, so this pins the draw call, not the algorithm: ScalarMT and
    KNOWN_FIRST are the independent references."""
    return np.random.RandomState(seed).randint(0, 2**32, size=count,
                                               dtype=np.uint32)


class ScalarMT:
    """The word-at-a-time MT19937 seeding and twist, written out in full."""

    def __init__(self, seed: int):
        self.mt = [seed & 0xFFFFFFFF]
        for i in range(1, 624):
            prev = self.mt[-1]
            self.mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
        self.index = 624

    def next_u32(self) -> int:
        if self.index >= 624:
            mt = self.mt
            for i in range(624):
                y = (mt[i] & 0x80000000) | (mt[(i + 1) % 624] & 0x7FFFFFFF)
                mt[i] = mt[(i + 397) % 624] ^ (y >> 1) ^ (0x9908B0DF if y & 1 else 0)
            self.index = 0
        y = self.mt[self.index]
        self.index += 1
        return temper(y)


class TestGenerator:
    def test_known_first_outputs(self):
        gen = MT19937(DEFAULT_SEED)
        assert gen.generate(5).tolist() == KNOWN_FIRST

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 1, 4357, 0xFFFFFFFF])
    def test_matches_independent_oracle(self, seed):
        ours = MT19937(seed).generate(1000)
        assert np.array_equal(ours, reference_words(seed, 1000))

    def test_deterministic_streams(self):
        a, b = MT19937(123), MT19937(123)
        assert np.array_equal(a.generate(2000), b.generate(2000))

    @pytest.mark.parametrize("count", [0, 1, 623, 624, 625, 1249])
    def test_generate_equals_word_loop(self, count):
        ref = ScalarMT(DEFAULT_SEED)
        words = MT19937(DEFAULT_SEED).generate(count)
        assert words.dtype == np.uint32
        assert words.tolist() == [ref.next_u32() for _ in range(count)]

    @pytest.mark.parametrize("seed", [0, 0xFFFFFFFF])
    def test_seed_range_ends_equal_word_loop(self, seed):
        ref = ScalarMT(seed)
        words = MT19937(seed).generate(1249)
        assert words.tolist() == [ref.next_u32() for _ in range(1249)]

    @pytest.mark.parametrize("seed", [-1, 1 << 32])
    def test_seed_outside_32_bits_rejected(self, seed):
        # these used to alias to seeds 2^32 - 1 and 0
        with pytest.raises(ValueError):
            MT19937(seed)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MT19937().generate(-1)

    def test_split_generation_is_one_stream(self):
        rng = random.Random(10)
        for seed in (0, 77, DEFAULT_SEED):
            whole = MT19937(seed).generate(4000)
            gen, parts = MT19937(seed), []
            while sum(map(len, parts)) < 4000:
                if rng.random() < 0.3:
                    parts.append(gen.generate(1))
                else:
                    parts.append(gen.generate(rng.choice([0, 1, 623, 624, 625, 700])))
            assert np.array_equal(np.concatenate(parts)[:4000], whole)

    def test_position_and_key_follow_the_word_loop(self):
        rng = random.Random(11)
        gen, ref = MT19937(4357), ScalarMT(4357)
        for _ in range(40):
            count = rng.choice([0, 1, 5, 623, 624, 625, 1249])
            if rng.random() < 0.5:
                assert gen.generate(count).tolist() == \
                    [ref.next_u32() for _ in range(count)]
            else:
                assert gen.generate(1).tolist() == [ref.next_u32()]

    def test_temper_on_arrays(self):
        words = np.array([0, 1, 0xFFFFFFFF, 0x12345678, 0x9908B0DF],
                         dtype=np.uint32)
        before = words.copy()
        tempered = temper(words)
        assert tempered.dtype == np.uint32
        assert tempered.tolist() == [temper(int(w)) for w in before]
        assert np.array_equal(words, before)

    def test_tempering_involution(self):
        rng = random.Random(9)
        for _ in range(1000):
            x = rng.getrandbits(32)
            assert untemper(temper(x)) == x
            assert temper(untemper(x)) == x


class TestMatrices:
    def test_load_and_shape(self):
        a, b = load_recurrence_matrices()
        assert isinstance(a, Gf2Matrix32) and isinstance(b, Gf2Matrix32)

    def test_built_once_per_process(self):
        # the cached pair is shared, which is safe as both are frozen
        assert load_recurrence_matrices() is load_recurrence_matrices()
        with pytest.raises(AttributeError):
            load_recurrence_matrices()[0].rows = ()

    def test_known_rows(self):
        a, b = load_recurrence_matrices()
        assert format(a.row(4), "032b") == "00000000000001000100100000000001"
        assert b.row(1) == 0
        assert format(b.row(2), "032b") == "10001001000100110000001000000100"

    def test_b_has_rank_one(self):
        _, b = load_recurrence_matrices()
        nonzero = {r for r in b.rows if r}
        assert nonzero == {b.row(2)}
        assert [i + 1 for i, r in enumerate(b.rows) if r] == [2, 6, 13, 20, 24, 31]

    def test_row_digests(self):
        # the sha256 of each matrix as 32 lines of 32 bits, row 1 first
        a, b = load_recurrence_matrices()
        digests = [hashlib.sha256("".join(format(r, "032b") + "\n"
                                          for r in m.rows).encode()).hexdigest()
                   for m in (a, b)]
        assert digests == [
            "02afc79c4bdb96ba17caa09b6bb1fc7d4c7cb6a602bb666551cf8fd221b59362",
            "b3732b1b94f51f6f81f5e2f99d3a96dbdf64303ebf7905fc044701884d1d0f39"]

    def test_structural_derivation_matches_data(self):
        # rebuild A and B from the generator's own update rule: conjugate
        # the raw state-transition contributions by the tempering map
        def raw_prev1(v):  # word one step before the output slot
            return ((v & 0x7FFFFFFF) >> 1) ^ (0x9908B0DF if v & 1 else 0)

        def raw_prev2(v):  # word two steps before: only its top bit matters
            return (v & 0x80000000) >> 1

        derived_a = Gf2Matrix32.from_function(lambda v: temper(raw_prev1(untemper(v))))
        derived_b = Gf2Matrix32.from_function(lambda v: temper(raw_prev2(untemper(v))))
        a, b = load_recurrence_matrices()
        assert derived_a == a
        assert derived_b == b


class TestMatvecBulk:
    """The byte-table product Gf2Matrix32.apply equals gf2_mul word by word."""

    @staticmethod
    def matrices():
        a, b = load_recurrence_matrices()
        rng = random.Random(19)
        yield from (a, b)
        yield Gf2Matrix32(tuple(1 << (31 - i) for i in range(32)))  # identity
        yield Gf2Matrix32((0,) * 32)
        for _ in range(8):
            yield Gf2Matrix32(tuple(rng.getrandbits(32) for _ in range(32)))

    @staticmethod
    def assert_products(m, words):
        got = m.apply(words)
        assert got.dtype == np.uint32
        assert got.tolist() == [gf2_mul(m, int(y)) for y in words]

    def test_edge_and_single_bit_words(self):
        words = np.array([0, 0xFFFFFFFF] + [1 << j for j in range(32)],
                         dtype=np.uint32)
        for m in self.matrices():
            self.assert_products(m, words)

    def test_offset_strided_and_big_endian_words(self):
        ys = MT19937().generate(3001)
        for m in self.matrices():
            for words in (ys, ys[1:], ys[3:-2:3], ys[1:].astype(">u4")):
                self.assert_products(m, words)


class TestRecurrence:
    def test_holds_on_mt_output(self):
        a, b = load_recurrence_matrices()
        words = MT19937().generate(10_000)
        check = verify_recurrence(words, a, b)
        assert check.ok
        assert check.checked == 10_000 - 624

    def test_flipped_bit_detected_at_index(self):
        a, b = load_recurrence_matrices()
        words = MT19937().generate(3000)
        words[1500] ^= 1 << 13
        check = verify_recurrence(words, a, b)
        assert not check.ok
        # the corrupted word first appears as the checked target at n=1500
        assert check.first_violation == 1500

    def test_fails_on_cubic_generator_words(self):
        a, b = load_recurrence_matrices()
        bits, _ = generate_bits(validate_triple(0, 1, -1), 650 * 32)
        words = bits.pack_words()
        check = verify_recurrence(words, a, b)
        assert not check.ok
        assert check.first_violation is not None

    def test_needs_one_dimensional_outputs(self):
        a, b = load_recurrence_matrices()
        words = MT19937().generate(2000).reshape(2, 1000)
        with pytest.raises(ValueError, match="outputs must be one-dimensional"):
            verify_recurrence(words, a, b)

    def test_needs_625_outputs(self):
        a, b = load_recurrence_matrices()
        with pytest.raises(ValueError):
            verify_recurrence(MT19937().generate(624), a, b)


class TestRecovery:
    def test_recovers_packaged_matrices(self):
        words = MT19937().generate(10_000)
        ra, rb = recover_matrices(words)
        a, b = load_recurrence_matrices()
        assert ra == a
        assert rb == b

    def test_recovered_matrices_hold_on_held_out_data(self):
        train = MT19937(777).generate(1500)
        ra, rb = recover_matrices(train)
        held_out = MT19937(777)
        held_out.generate(1500)
        more = np.concatenate([train[-624:], held_out.generate(2000)])
        assert verify_recurrence(more, ra, rb).ok

    def test_wrong_model_class_rejected(self):
        # a linear congruential stream either never reaches rank 64 or
        # yields matrices that fail on held-out data
        state = 12345
        words = []
        for _ in range(5000):
            state = (214013 * state + 2531011) & 0xFFFFFFFF
            words.append(state)
        try:
            ra, rb = recover_matrices(words[:2000])
        except RankDeficient:
            return
        assert not verify_recurrence(words[2000:], ra, rb).ok

    @pytest.mark.parametrize("bad", [1 << 40, 1 << 32, -1, 1 << 64])
    def test_rejects_words_wider_than_32_bits(self, bad):
        words = [int(w) for w in MT19937().generate(2000)] + [bad]
        a, b = load_recurrence_matrices()
        for check in (recover_matrices, lambda w: verify_recurrence(w, a, b),
                      lambda w: scan_conditions_ab(w, a, b)):
            with pytest.raises(ValueError, match="32-bit words") as exc:
                check(words)
            assert not isinstance(exc.value, RankDeficient)

    @pytest.mark.parametrize("cast", [
        lambda w: w.astype(float), lambda w: w.astype(float) + 0.5,
        lambda w: w % 2 == 1, lambda w: w.astype(object),
        lambda w: [float(x) for x in w]],
        ids=["float", "float-half", "bool", "object", "float-list"])
    def test_rejects_words_that_are_not_integers(self, cast):
        # float words + 0.5 were truncated and once read ok=True
        words = cast(MT19937().generate(2000))
        a, b = load_recurrence_matrices()
        for check in (recover_matrices, lambda w: verify_recurrence(w, a, b),
                      lambda w: scan_conditions_ab(w, a, b)):
            with pytest.raises(ValueError, match="32-bit words") as exc:
                check(words)
            assert not isinstance(exc.value, RankDeficient)

    def test_degenerate_input_rank_deficient(self):
        with pytest.raises(RankDeficient):
            recover_matrices([0] * 2000)
        with pytest.raises(RankDeficient):
            recover_matrices(MT19937().generate(600))


class TestScan:
    def test_mt_pairs_sit_on_the_diagonal(self):
        a, b = load_recurrence_matrices()
        words = MT19937().generate(50_000)
        pairs = scan_conditions_ab(words, a, b)
        assert pairs, "expected some matches in 50k words"
        for p in pairs:
            assert p.y_top8 == p.y_lag_top8
            assert 0 <= p.y_top8 <= 255
            assert p.n >= 624

    def test_match_rate_is_about_2_to_minus_9(self):
        a, b = load_recurrence_matrices()
        words = MT19937(42).generate(100_000)
        pairs = scan_conditions_ab(words, a, b)
        mu = (100_000 - 624) / 512
        sigma = (mu * (1 - 1 / 512)) ** 0.5
        assert abs(len(pairs) - mu) < 6 * sigma

    def test_all_zero_words_match_everywhere(self):
        a, b = load_recurrence_matrices()
        pairs = scan_conditions_ab(np.zeros(700, dtype=np.uint32), a, b)
        assert len(pairs) == 700 - 624
        assert all(p.y_top8 == 0 and p.y_lag_top8 == 0 for p in pairs)

    def test_csv_format(self):
        a, b = load_recurrence_matrices()
        words = MT19937().generate(5000)
        pairs = scan_conditions_ab(words, a, b)
        lines = lag_pairs_csv(pairs).strip().splitlines()
        assert lines[0] == "n,y_lag,y_n"
        assert len(lines) == len(pairs) + 1
        n, y_lag, y_n = map(int, lines[1].split(","))
        assert (n, y_lag, y_n) == (pairs[0].n, pairs[0].y_lag_top8, pairs[0].y_top8)
