import random

import numpy as np
import pytest

from cubicorbit import (BitStream, ConditionViolation, OrbitState,
                        generate_bits, inverse_step, isolate_root_bits,
                        pack_words, step, validate_triple)
from conftest import random_triple


class TestValidate:
    def test_known_good_triple(self):
        t = validate_triple(0, 1, -1)
        assert t.as_tuple() == (0, 1, -1)

    @pytest.mark.parametrize("triple,cond", [
        ((0, 1, 1), "ii"),    # d must be negative
        ((2, 1, -1), "i"),    # 4 - 3 > 0
        ((0, 1, -3), "iii"),  # 1 + 0 + 1 - 3 <= 0
    ])
    def test_condition_violations(self, triple, cond):
        with pytest.raises(ConditionViolation) as exc:
            validate_triple(*triple)
        assert exc.value.condition == cond

    def test_first_failed_condition_reported(self):
        # (2, 1, 1) violates both (i) and (ii); (i) is reported first
        with pytest.raises(ConditionViolation) as exc:
            validate_triple(2, 1, 1)
        assert exc.value.condition == "i"


class TestBranch:
    def test_branch_agrees_with_root_position(self):
        # the first expansion bit is 1 iff the half value is negative
        rng = random.Random(0xB1)
        for _ in range(200):
            t = random_triple(rng)
            first_bit, _ = isolate_root_bits(t, 1)
            assert int(t.half_value < 0) == int(first_bit)

    def test_half_value_is_always_odd(self):
        # 1 + 2b + 4c + 8d is odd for any integers, so 1/2 is never a root
        # and the branch is always decided; CoeffTriple needs no check for it
        rng = random.Random(0x0DD)
        for _ in range(500):
            t = random_triple(rng)
            assert t.half_value % 2 == 1


class TestStep:
    @pytest.mark.parametrize("triple,expected,bit", [
        ((0, 1, -1), (3, 7, -3), 1),
        ((3, 7, -3), (6, 28, -24), 0),
        ((6, 28, -24), (15, 139, -67), 1),
    ])
    def test_known_steps(self, triple, expected, bit):
        nxt, eps = step(validate_triple(*triple))
        assert nxt.as_tuple() == expected
        assert eps == bit

    def test_right_branch_d_is_half_value(self):
        t = validate_triple(6, 28, -24)
        nxt, eps = step(t)
        assert eps == 1
        assert nxt.d == t.half_value

    def test_closure_and_roundtrip_long_orbit(self):
        rng = random.Random(0xC10)
        for _ in range(5):
            t = random_triple(rng)
            disc_zero = t.b * t.b - 3 * t.c == 0
            for _ in range(2000):
                m_before = max(abs(t.b), abs(t.c), abs(t.d))
                nxt, eps = step(t)  # construction revalidates (i)-(iii)
                assert eps in (0, 1)
                # discriminant sign class is preserved
                assert (nxt.b * nxt.b - 3 * nxt.c == 0) == disc_zero
                # one-step growth bound
                m_after = max(abs(nxt.b), abs(nxt.c), abs(nxt.d))
                assert m_after <= 14 * m_before + 3
                # the step is invertible and the preimage is unique
                assert inverse_step(nxt) == t
                t = nxt


class TestInverse:
    def test_inverts_right_branch(self):
        assert inverse_step(validate_triple(3, 7, -3)) == validate_triple(0, 1, -1)

    def test_inverts_left_branch(self):
        assert inverse_step(validate_triple(0, 8, -8)) == validate_triple(0, 2, -1)

    def test_mixed_parity_has_no_preimage(self):
        assert inverse_step(validate_triple(0, 1001, -5)) is None

    def test_even_residue_has_no_preimage(self):
        # all even but c = 2 (mod 4)
        assert inverse_step(validate_triple(0, 2, -2)) is None


class TestGenerate:
    def test_known_prefixes(self):
        bits, _ = generate_bits(validate_triple(0, 1, -1), 8)
        assert bits.to01() == "10101110"
        bits, _ = generate_bits(validate_triple(0, 2, -1), 8)
        assert bits.to01() == "01110100"

    def test_zero_bits_leaves_state_alone(self):
        t = validate_triple(0, 1, -1)
        bits, state = generate_bits(t, 0)
        assert len(bits) == 0
        assert state.triple == t
        assert state.step_index == 0

    def test_determinism(self):
        t = validate_triple(3, 7, -3)
        a, _ = generate_bits(t, 400)
        b, _ = generate_bits(t, 400)
        assert a == b

    def test_resumability(self):
        rng = random.Random(0x5E)
        for _ in range(5):
            t = random_triple(rng)
            n_a, n_b = rng.randint(0, 200), rng.randint(0, 200)
            whole, end_whole = generate_bits(t, n_a + n_b)
            head, mid = generate_bits(t, n_a)
            tail, end_split = generate_bits(mid, n_b)
            assert head + tail == whole
            assert end_split == end_whole
            assert end_split.step_index == n_a + n_b

    def test_oracle_equivalence_512_bits(self):
        rng = random.Random(0x0AC1E)
        for _ in range(12):
            t = random_triple(rng, c_max=5000)
            k = rng.choice([1, 2, 63, 64, 65, 511, 512])
            bits, _ = generate_bits(t, k)
            expansion, interval = isolate_root_bits(t, k)
            assert bits.to01() == expansion
            assert interval.width().denominator == 1 << k

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_bits(validate_triple(0, 1, -1), -1)


class TestStateSerialization:
    def test_round_trip(self):
        _, state = generate_bits(validate_triple(0, 1, -1), 37)
        text = state.to_text()
        back = OrbitState.from_text(text)
        assert back == state
        assert back.step_index == 37

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            OrbitState.from_text("not-a-state 1\nb 0\nc 1\nd -1\nstep 0\n")

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            OrbitState.from_text("cubicorbit-orbit-state 1\nb 0\nc 1\nstep 0\n")

    def test_rejects_invalid_triple(self):
        with pytest.raises(ConditionViolation):
            OrbitState.from_text("cubicorbit-orbit-state 1\nb 0\nc 1\nd 1\nstep 0\n")


class TestPackWords:
    def test_all_ones_word(self):
        res = pack_words([1] * 32)
        assert list(res.words) == [0xFFFFFFFF]
        assert res.dropped_bits == 0

    def test_lsb_word(self):
        res = pack_words([0] * 31 + [1])
        assert list(res.words) == [1]

    def test_msb_first_prefix(self):
        res = pack_words(BitStream.from01("10101110" + "0" * 24))
        assert list(res.words) == [0xAE000000]

    def test_remainder_dropped_and_counted(self):
        res = pack_words([1] * 70)
        assert len(res.words) == 2
        assert res.dropped_bits == 6

    def test_words_round_trip(self):
        rng = np.random.default_rng(7)
        bits = BitStream(rng.integers(0, 2, size=320, dtype=np.uint8))
        res = bits.pack_words()
        assert BitStream.from_words(res.words) == bits


class TestBitStream:
    def test_from01_and_back(self):
        s = BitStream.from01("0110")
        assert s.to01() == "0110"
        assert len(s) == 4

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitStream([0, 1, 2])

    def test_bytes_round_trip_with_length(self):
        s = BitStream.from01("101011100")
        raw = s.to_bytes()
        assert raw[0] == 0xAE
        assert BitStream.from_bytes(raw, n_bits=9) == s

    def test_slicing_and_concat(self):
        s = BitStream.from01("11110000")
        assert (s[:4] + s[4:]) == s
        assert s[4] == 0
