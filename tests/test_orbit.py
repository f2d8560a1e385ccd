import copy
import pickle
import random

import numpy as np
import pytest

from cubicorbit import (BitStream, ConditionViolation, OrbitState,
                        OutputFormat, generate_bits, inverse_step,
                        isolate_root_bits, step, validate_triple)
from cubicorbit.bitstream import read_bits, write_bits
from conftest import bisect_prefix, one_shot_bytes, random_triple


def unpacked(s: BitStream) -> np.ndarray:
    """One 0/1 byte per bit of s."""
    return np.unpackbits(s.packed, count=len(s))


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


def fails_condition_i(b: int, c: int) -> bool:
    """Whether the triple (b, c, -1) is rejected for condition (i)."""
    try:
        validate_triple(b, c, -1)
    except ConditionViolation as exc:
        return exc.condition == "i"
    return False


class TestConditionI:
    """(i) is read off the top 64 bits of b; b * b > 3c is the reference."""

    @pytest.mark.parametrize("bits", [1, 2, 8, 33, 60, 64, 65, 70, 1000,
                                      100_000])
    def test_matches_the_full_square(self, bits):
        rng = random.Random(bits)
        for _ in range(20 if bits < 100_000 else 4):
            a = rng.getrandbits(bits) | (1 << (bits - 1))
            sq = a * a
            # 3c far from b^2 (one of the top-bit tests decides), near it
            # (the top bits tie), and at b^2 - 3c from -3 to 3
            sign = rng.choice((-1, 1))
            offsets = [rng.getrandbits(max(2 * bits - 8, 1)) * sign,
                       rng.getrandbits(bits) * rng.choice((-1, 1)),
                       *range(-3, 4)]
            for b in (a, -a):
                for off in offsets:
                    c = (sq + off) // 3
                    assert fails_condition_i(b, c) == (b * b > 3 * c), (bits, off)

    def test_nonpositive_3c(self):
        for b in (1 << 64, -(1 << 64), 3 << 1000, -(1 << 99_999) - 7):
            for c in (0, -1, -(1 << 5000), -(b * b)):
                assert fails_condition_i(b, c)

    @pytest.mark.parametrize("t", [0, 1, 31, 32, 33, 1000, 100_000])
    def test_square_equal_to_3c_holds(self, t):
        # b = 3 * 2^t and c = 3 * 4^t, as on every shift of (3, 3, d)
        b, c = 3 << t, 3 << (2 * t)
        for sign in (1, -1):
            assert not fails_condition_i(sign * b, c)
            assert not fails_condition_i(sign * b, c + 1)
            assert fails_condition_i(sign * b, c - 1)

    @pytest.mark.parametrize("b", [(1 << 64) - 1, 1 << 63, 1 << 64,
                                   (1 << 65) - 1, 2**64 + 1])
    def test_64_and_65_bit_b(self, b):
        sq = b * b
        for c in range(sq // 3 - 2, sq // 3 + 3):
            for sb in (b, -b):
                assert fails_condition_i(sb, c) == (sq > 3 * c), (sb, c)

    def test_wide_triple_one_above_the_bound_is_rejected(self):
        b = (1 << 100_000) + 1     # b^2 = 1 (mod 3), so b^2 - 3c = 1
        c = (b * b - 1) // 3
        assert b * b - 3 * c == 1
        for sb in (b, -b):
            with pytest.raises(ConditionViolation) as exc:
                validate_triple(sb, c, -1)
            assert exc.value.condition == "i"
        assert validate_triple(-b, c + 1, -1).b == -b


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
            expansion, m = isolate_root_bits(t, k)
            assert bits.to01() == expansion
            assert int(bits.to01(), 2) == bisect_prefix(t, k)  # no jump
            assert m == int(expansion, 2)

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

    @pytest.mark.parametrize("extra", ["b 5", "step 0", "e 1", "b1"])
    def test_rejects_repeated_or_unknown_fields(self, extra):
        text = f"cubicorbit-orbit-state 1\nb 0\nc 1\nd -1\n{extra}\nstep 0\n"
        with pytest.raises(ValueError, match="unknown or repeated field"):
            OrbitState.from_text(text)

    def test_rejects_invalid_triple(self):
        with pytest.raises(ConditionViolation):
            OrbitState.from_text("cubicorbit-orbit-state 1\nb 0\nc 1\nd 1\nstep 0\n")


class TestPackWords:
    def test_all_ones_word(self):
        res = BitStream.from_bits([1] * 32).pack_words()
        assert list(res) == [0xFFFFFFFF]

    def test_lsb_word(self):
        res = BitStream.from_bits([0] * 31 + [1]).pack_words()
        assert list(res) == [1]

    def test_msb_first_prefix(self):
        res = BitStream.from01("10101110" + "0" * 24).pack_words()
        assert list(res) == [0xAE000000]

    def test_remainder_dropped_and_counted(self):
        with pytest.raises(ValueError, match="70 bits is not a multiple of 32"):
            BitStream.from_bits([1] * 70).pack_words()

    def test_words_round_trip(self):
        rng = np.random.default_rng(7)
        bits = BitStream.from_bits(rng.integers(0, 2, size=320, dtype=np.uint8))
        res = bits.pack_words()
        assert BitStream.from_words(res) == bits

    @pytest.mark.parametrize("words", [
        [1.5], [1.0], [True], np.array([7], dtype=object), np.array([0.0]),
        [1 << 32], [-1], np.array([1 << 32]), np.array([-1], dtype=np.int8)],
        ids=["float", "float-whole", "bool", "object", "float-array",
             "wide", "negative", "wide-array", "negative-array"])
    def test_from_words_takes_only_32_bit_integers(self, words):
        with pytest.raises(ValueError, match="32-bit words"):
            BitStream.from_words(words)

    def test_from_words_takes_any_integer_dtype(self):
        for words in ([0xAE000000, 1], np.array([0xAE000000, 1], dtype=np.int64),
                      np.array([0xAE000000, 1], dtype=">u4"), iter([0xAE000000, 1])):
            assert BitStream.from_words(words).to01() == "10101110" + "0" * 55 + "1"
        assert BitStream.from_words([]) == BitStream.from_bits([])

    @pytest.mark.parametrize("n_bits", [31, 33, 70])
    def test_word_file_needs_whole_words(self, tmp_path, n_bits):
        path = tmp_path / "w.bin"
        with pytest.raises(ValueError, match=f"{n_bits} bits is not a multiple"):
            write_bits(path, [BitStream.from_bits([1] * n_bits)],
                       OutputFormat.WORDS32_LE, n_bits)
        assert not path.exists()


    def test_one_unit_per_format(self, tmp_path):
        # raw writes whole bytes, words32le whole words, the rest any count
        units = {OutputFormat.RAW_PACKED_BITS: 8, OutputFormat.WORDS32_LE: 32}
        for fmt in OutputFormat:
            unit = units.get(fmt, 1)
            for n in (1, 7, 8, 12, 24, 31, 32, 64, 70):
                path = tmp_path / f"{fmt.value}_{n}"
                if n % unit:
                    with pytest.raises(ValueError, match=f"{fmt.value} writes "
                                       f"whole .*, but {n} bits is not a "
                                       f"multiple of {unit}$"):
                        write_bits(path, [BitStream.from_bits([1] * n)], fmt, n)
                else:
                    write_bits(path, [BitStream.from_bits([1] * n)], fmt, n)
                assert path.exists() == (n % unit == 0)


    def test_streams_are_written_as_one(self, tmp_path):
        # pieces of every length from 0 to 40 bits, so the carry of raw and
        # words32le takes every size, then one piece that fills the last unit;
        # each file against the joined stream written at once
        rng = random.Random(5)
        lengths = list(range(41)) + [0, 1, 33, 0]
        rng.shuffle(lengths)
        pieces = [BitStream(rng.getrandbits(n), n) for n in lengths]
        units = {OutputFormat.RAW_PACKED_BITS: 8, OutputFormat.WORDS32_LE: 32}
        for fmt in OutputFormat:
            for count in range(len(pieces) + 1):
                part = pieces[:count]
                fill = -sum(map(len, part)) % units.get(fmt, 1)
                part.append(BitStream(rng.getrandbits(fill), fill))
                whole = BitStream.from_bits([])
                for piece in part:
                    whole = whole + piece
                path = tmp_path / f"{fmt.value}_{count}"
                write_bits(path, iter(part), fmt, len(whole))
                assert path.read_bytes() == one_shot_bytes(whole, fmt.value)

    @pytest.mark.parametrize("arrive", [16, 48])
    def test_writes_exactly_n_bits(self, tmp_path, arrive):
        for fmt in OutputFormat:
            path = tmp_path / fmt.value
            path.write_text("from before")
            with pytest.raises(ValueError, match=f"{arrive} bits arrived for "
                               f"a 32-bit {fmt.value} file"):
                write_bits(path, [BitStream.from_bits([1] * 16)] * (arrive // 16),
                           fmt, 32)
            assert path.read_text() == "from before"
        assert len(list(tmp_path.iterdir())) == len(OutputFormat)


class TestBitStream:
    def test_from01_and_back(self):
        s = BitStream.from01("0110")
        assert s.to01() == "0110"
        assert len(s) == 4

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitStream.from_bits([0, 1, 2])

    def test_bytes_round_trip_with_length(self):
        s = BitStream.from01("101011100")
        raw = s.to_bytes()
        assert raw[0] == 0xAE
        assert BitStream.from_bytes(raw, n_bits=9) == s

    def test_from_bytes_rejects_more_bits_than_the_data(self):
        with pytest.raises(ValueError, match="n_bits exceeds available data"):
            BitStream.from_bytes(b"\x00", 9)

    def test_repr_shows_at_most_64_bits(self):
        assert repr(BitStream.from01("10101110")) == "BitStream(8 bits: 10101110)"
        long = BitStream.from01("1" * 50 + "0" * 50)
        assert repr(long) == f"BitStream(100 bits: {'1' * 50}{'0' * 11}...)"

    def test_slicing_and_concat(self):
        s = BitStream.from01("11110000")
        assert (s[:4] + s[4:]) == s
        assert s[4] == 0

    @pytest.mark.parametrize("text", ["", "1011", "0" * 9 + "1" * 90],
                             ids=["0", "4", "99"])
    def test_pickles_and_copies(self, text):
        s = BitStream.from01(text)
        s.packed  # a cached view is not part of the value
        for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s),
                     copy.deepcopy(s)):
            assert type(twin) is BitStream
            assert (twin.value, twin.length) == (s.value, s.length)
            assert twin.to01() == text
            # the view never travels: each twin packs its own, read-only
            assert "packed" not in vars(twin)
            assert not twin.packed.flags.writeable

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            BitStream.from_bits(np.zeros((2, 4), dtype=np.uint8))

    @pytest.mark.parametrize("value, length", [
        (1 << 8, 8), (1, 0), (-1, 8), ((1 << 70) + 5, 70)])
    def test_from_int_checks_the_range(self, value, length):
        with pytest.raises(ValueError):
            BitStream(value, length)
        assert BitStream(value % (1 << length), length).value >= 0

    @pytest.mark.parametrize("text", ["1_0", "0b1", "+1", "-1", "12", "1 0"])
    def test_from01_rejects_what_int_would_take(self, text):
        with pytest.raises(ValueError):
            BitStream.from01(text)

    # every length up to 70 and a few long ones, each against a uint8
    # reference built with plain numpy
    LENGTHS = list(range(71)) + random.Random(11).sample(range(71, 5001), 12)

    @staticmethod
    def _ref(n: int) -> np.ndarray:
        return np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_formats_match_a_numpy_reference(self, n):
        ref = self._ref(n)
        s = BitStream.from_bits(ref)
        text = "".join(map(str, ref.tolist()))
        raw = np.packbits(ref).tobytes()
        assert len(s) == n and np.array_equal(unpacked(s), ref)
        assert s.value == (int(text, 2) if n else 0)
        assert s.to01() == text and BitStream.from01(text) == s
        assert s.to_bytes() == raw
        assert BitStream.from_bytes(raw, n) == s
        padded = BitStream.from_bytes(raw)
        assert np.array_equal(unpacked(padded),
                              np.unpackbits(np.frombuffer(raw, np.uint8)))
        if n % 32:
            with pytest.raises(ValueError, match=f"{n} bits is not a multiple"):
                s.pack_words()
        else:
            res = s.pack_words()
            assert np.array_equal(res, np.packbits(ref).view(">u4"))
            assert np.array_equal(unpacked(BitStream.from_words(res)), ref)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_slices_indexes_and_joins_match_a_numpy_reference(self, n):
        ref = self._ref(n)
        s = BitStream.from_bits(ref)
        cuts = {0, 1, 3, n // 3, n // 2 + 5, n - 7, n - 1, n, n + 9, -3, -n}
        for a in sorted(cuts):
            for b in (None, n - 5, n // 2 + 3, 13, -1):
                assert np.array_equal(unpacked(s[a:b]), ref[a:b]), (a, b)
            head = BitStream.from_bits(ref[:a])
            tail = BitStream.from_bits(ref[a:])
            assert head + tail == s
            assert np.array_equal(unpacked(tail + head),
                                  np.concatenate([ref[a:], ref[:a]]))
        assert np.array_equal(unpacked(s[1::3]), ref[1::3])
        for i in range(-n, n):
            assert s[i] == ref[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                s[i]

    @pytest.mark.parametrize("doc", ['{"length": 99, "bits": "1011"}',
                                     '{"length": 3, "bits": "1011"}',
                                     '{"bits": "1011"}'],
                             ids=["longer", "shorter", "missing"])
    def test_json_holds_the_length_it_claims(self, tmp_path, doc):
        path = tmp_path / "b.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="claims length"):
            read_bits(path, OutputFormat.JSON)
        path.write_text('{"length": 4, "bits": "1011"}')
        assert read_bits(path, OutputFormat.JSON) == BitStream.from01("1011")

    @pytest.mark.parametrize("doc", ['{"length": 4}', '[1]', '"01"',
                                     '{"length": 1, "bits": 5}',
                                     '{"length": true, "bits": "1"}',
                                     '{"length": 1.0, "bits": "1"}'],
                             ids=["no-bits", "list", "string", "int-bits",
                                  "bool-length", "float-length"])
    def test_json_of_the_wrong_shape_is_a_value_error(self, tmp_path, doc):
        path = tmp_path / "b.json"
        path.write_text(doc)
        with pytest.raises(ValueError):
            read_bits(path, OutputFormat.JSON)

    def test_equality_needs_the_same_length(self):
        s = BitStream.from01("0101")
        assert s == BitStream.from_bits([0, 1, 0, 1])
        assert s != BitStream.from01("101")      # same value, shorter
        assert s != BitStream.from01("00101")    # same value, longer
        assert s != BitStream.from01("0100")
        assert (BitStream.from_bits([]) == BitStream.from01("")
                != BitStream.from01("0"))
