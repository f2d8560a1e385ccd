"""The certified jump against independent references, and long checkpoints.

step_loop and bisect_prefix (conftest.py) are the references: one walks
the orbit a step at a time, the other bisects the original cubic. Neither
shares code with jump(). horner_shift is the reference for the shift that
certifies each step.
"""

import hashlib
import random
from decimal import Decimal

import pytest

from cubicorbit import (ConditionViolation, OrbitState, build_seed_set,
                        generate_bits, jump, shifted, validate_triple)
from cubicorbit import orbit
from cubicorbit.cli import main
from cubicorbit.orbit import _int_from_text
from conftest import bisect_prefix, horner_shift, random_triple, step_loop

LENGTHS = (0, 1, 7, 8, 9, 31, 32, 33, 64, 65)


@pytest.fixture(scope="module")
def resumed():
    """A triple 1200 steps on from (0, 1, -1), coefficients ~2400 bits."""
    return step_loop(validate_triple(0, 1, -1), 1200)[1]


class TestJump:
    def test_matches_references_on_random_triples(self):
        rng = random.Random(0x1A)
        for _ in range(40):
            t = random_triple(rng, c_max=rng.choice([60, 5000]))
            for n in LENGTHS:
                m, after = jump(t, n)
                assert (m, after) == step_loop(t, n), (t, n)
                assert m == bisect_prefix(t, n), (t, n)

    def test_matches_references_on_resumed_triple(self, resumed):
        for n in LENGTHS + (1000,):
            m, after = jump(resumed, n)
            assert (m, after) == step_loop(resumed, n), n
            assert m == bisect_prefix(resumed, n), n

    def test_paper_family_matches_the_bisection(self):
        # acceptance criterion 1 checks this family against isolate_root_bits,
        # which runs jump() as well; the bisection shares no code with it
        for member in build_seed_set(0, 1001).members:
            assert generate_bits(member, 256)[0].value == \
                bisect_prefix(member, 256), member

    def test_matches_references_on_small_triples(self):
        # every triple in the box whose first step has k = 1 and whose
        # first estimate 2 * (-d) / c is 2 or more, as for (6, 12, -18)
        # and (0, 1, -1): the estimate is clamped to one bit
        cases = []
        for b in range(7):
            for c in range(max(1, -(-b * b // 3)), 61):
                if c.bit_length() - (b + 1).bit_length() - 2 < 1:
                    cases += [validate_triple(b, c, d)
                              for d in range(-c, -(b + c) - 1, -1)]
        assert len(cases) == 603
        for t in cases:
            for n in range(1, 10):
                m, after = jump(t, n)
                assert (m, after) == step_loop(t, n), (t, n)
                assert m == bisect_prefix(t, n), (t, n)

    def test_jumps_compose(self, resumed):
        rng = random.Random(0x1B)
        for t in [random_triple(rng) for _ in range(20)] + [resumed]:
            a, b = rng.randint(0, 300), rng.randint(0, 300)
            m_a, mid = jump(t, a)
            m_b, end = jump(mid, b)
            assert ((m_a << b) | m_b, end) == jump(t, a + b)

    def test_neighbouring_prefixes_fail_the_certificate(self, resumed):
        rng = random.Random(0x1C)
        for t in [random_triple(rng) for _ in range(10)] + [resumed]:
            for n in (1, 8, 65, 500):
                m, after = jump(t, n)
                assert shifted(t, m, n) == after
                for wrong in (m - 1, m + 1):
                    with pytest.raises(ConditionViolation):
                        shifted(t, wrong, n)

    def test_out_of_corrections_raises(self, monkeypatch):
        # with no corrections allowed, every estimate that is off by one
        # must raise, and every result that comes back must be right
        monkeypatch.setattr(orbit, "_MAX_CORRECTIONS", 0)
        rng = random.Random(0x1E)
        raised = 0
        for _ in range(30):
            t = random_triple(rng)
            for n in (8, 65, 300):
                try:
                    got = jump(t, n)
                except ConditionViolation:
                    raised += 1
                else:
                    assert got == step_loop(t, n)
        assert raised > 0

    @pytest.mark.parametrize("triple, n, ks", [
        ((0, 1001, -500), 1056, [7, 14, 28, 56, 112, 224, 448, 167]),
        ((0, 1001, -500), 64, [7, 14, 28, 15]),
        ((0, 1, -1), 98304, [1, 1, 1, 1, 3, 5, 10, 20, 40, 80, 160, 320, 640,
                             1280, 2560, 5120, 10240, 20480, 40960, 16382])],
        ids=["member-1056", "member-64", "stream-98304"])
    def test_doubling_schedule_is_pinned(self, monkeypatch, triple, n, ks):
        # the k of every doubling, as _shift sees it: the certificate chain
        # of a family member and of the benchmark's stream
        seen = []
        shift = orbit._shift

        def counted(b, c, d, x, k):
            seen.append(k)
            return shift(b, c, d, x, k)

        monkeypatch.setattr(orbit, "_shift", counted)
        t = validate_triple(*triple)
        m, after = jump(t, n)
        assert seen == ks
        monkeypatch.undo()
        assert shifted(t, m, n) == after

    def test_generate_bits_is_the_jump(self, resumed):
        bits, state = generate_bits(OrbitState(resumed, 1200), 333)
        m, after = jump(resumed, 333)
        assert bits.to01() == format(m, "0333b")
        assert state == OrbitState(after, 1533)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            jump(validate_triple(0, 1, -1), -1)

    def test_violation_message_stays_short(self):
        with pytest.raises(ConditionViolation) as exc:
            validate_triple(0, 1 << 100_000, 1)
        assert "<100001-bit integer>" in str(exc.value)
        assert len(str(exc.value)) < 200


class TestShift:
    def test_matches_the_horner_form(self):
        rng = random.Random(0x1F)
        for k in (0, 1, 2, 7, 64, 65, 500, 4000, 5000):
            for _ in range(6):
                b, c, d = (rng.getrandbits(k + e) * rng.choice((-1, 1))
                           for e in (2, k + 4, 2 * k + 4))
                for x in (0, 1, (1 << k) - 1, rng.getrandbits(k) if k else 0):
                    for sb in (b, -b):
                        assert orbit._shift(sb, c, d, x, k) == \
                            horner_shift(sb, c, d, x, k), (k, x)

    def test_correction_step(self):
        # k = 0, x = +-1: the correction loop's move to the next interval
        rng = random.Random(0x20)
        for bits in (3, 100, 5000):
            b, c, d = (rng.getrandbits(bits) * rng.choice((-1, 1))
                       for _ in range(3))
            for e in (1, -1):
                assert orbit._shift(b, c, d, e, 0) == horner_shift(b, c, d, e, 0)

    def test_certificate_on_the_resumed_triple(self, resumed):
        t = resumed.as_tuple()
        for n in (1, 64, 1000, 5000):
            m = jump(resumed, n)[0]
            assert shifted(resumed, m, n).as_tuple() == horner_shift(*t, m, n)


CUTOFF = orbit._NEWTON_BITS


def _newton_calls(monkeypatch):
    """A list that grows by one each time _quotient takes Newton's path."""
    calls, real = [], orbit._near_quotient

    def counted(n, d):
        calls.append(d.bit_length())
        return real(n, d)
    monkeypatch.setattr(orbit, "_near_quotient", counted)
    return calls


class TestQuotient:
    """_quotient against `//`, and its Newton pieces against their bounds."""

    def test_matches_floor_division_on_random_inputs(self, monkeypatch):
        calls = _newton_calls(monkeypatch)
        rng = random.Random(0x21)
        for _ in range(40):
            d = rng.getrandbits(rng.randint(1, 3 * CUTOFF)) | 1
            n = rng.getrandbits(d.bit_length() + rng.randint(0, 2 * CUTOFF))
            assert orbit._quotient(n, d) == n // d, (n.bit_length(),
                                                     d.bit_length())
        assert len(calls) >= 5

    def test_edges(self, monkeypatch):
        calls = _newton_calls(monkeypatch)
        rng = random.Random(0x22)
        cases = []
        for bits in (1, 2, 17, CUTOFF - 1, CUTOFF, CUTOFF + 1, 2 * CUTOFF + 9):
            # a power of two, all ones, and a random divisor
            for d in (1 << (bits - 1), (1 << bits) - 1,
                      rng.getrandbits(bits) | (1 << (bits - 1))):
                cases += [(0, d), (d - 1, d), (d, d), (2 * d - 1, d)]  # q = 0, 1
                for qbits in (CUTOFF, CUTOFF + 1) if bits > 17 else ():
                    q = rng.getrandbits(qbits) | (1 << (qbits - 1))
                    # an exact multiple and its neighbour, and 2^j - 1
                    cases += [(q * d, d), (q * d - 1, d),
                              ((1 << (qbits + bits)) - 1, d)]
        for n, d in cases:
            assert orbit._quotient(n, d) == n // d, (n.bit_length(),
                                                     d.bit_length())
        assert len(calls) >= 20

    def test_reciprocal_bound(self):
        # 4^L / d - 2 < r <= 4^L / d, i.e. 0 <= 4^L - r d < 2d
        rng = random.Random(0x23)
        for bits in (1, 2, 3, 64, CUTOFF, CUTOFF + 1, CUTOFF + 9,
                     2 * CUTOFF + 7, 2 * CUTOFF + 9, 3 * CUTOFF, 5 * CUTOFF):
            for d in (1 << (bits - 1), (1 << bits) - 1,
                      *(rng.getrandbits(bits) | (1 << (bits - 1))
                        for _ in range(3))):
                r = orbit._reciprocal(d)
                assert 0 <= (1 << (2 * bits)) - r * d < 2 * d, (bits, d & 7)

    def test_near_quotient_is_off_by_at_most_one(self):
        rng = random.Random(0x24)
        for _ in range(30):
            d = rng.getrandbits(rng.randint(17, 3 * CUTOFF))
            d |= 1 << max(16, d.bit_length() - 1)
            n = rng.getrandbits(d.bit_length() + rng.randint(1, 2 * CUTOFF))
            n = max(n, d)
            assert abs(orbit._near_quotient(n, d) - n // d) <= 1

    def test_jump_across_a_lowered_cutoff(self, monkeypatch, resumed):
        # with the cutoff at 256 bits, the last doublings and the resumed
        # triple's first one divide by Newton's method, several levels deep
        monkeypatch.setattr(orbit, "_NEWTON_BITS", 256)
        calls = _newton_calls(monkeypatch)
        for t, n in ((validate_triple(0, 1, -1), 3000),
                     (validate_triple(-5, 9, -3), 1100), (resumed, 1500)):
            m, after = jump(t, n)
            assert (m, after) == step_loop(t, n), n
            assert m == bisect_prefix(t, n), n
        assert max(calls) > 4 * 256

    def test_jump_across_the_cutoff(self, monkeypatch):
        # the last two doublings of a 2^18-bit jump, k = 81920 and 98302,
        # divide above the cutoff; with the cutoff out of reach, all by `//`
        calls = _newton_calls(monkeypatch)
        t, n = validate_triple(0, 1, -1), 1 << 18
        m, after = jump(t, n)
        assert len(calls) == 2 and min(calls) > CUTOFF
        assert shifted(t, m, n) == after
        monkeypatch.setattr(orbit, "_NEWTON_BITS", 1 << 40)
        assert jump(t, n) == (m, after)
        assert len(calls) == 2


class TestStateText:
    def test_wide_integers_parse_exactly(self):
        # Decimal(int) is exact and exempt from the int/str digit limit
        rng = random.Random(0x1D)
        for bits in (0, 1, 100, 14_000, 40_000):
            v = rng.getrandbits(bits) if bits else 0
            for w in (v, -v, (1 << bits) - 1):
                assert _int_from_text(str(Decimal(w))) == w
        assert _int_from_text("+17") == 17
        for bad in ("", "1.5", "1e3", "NaN", "--1", "1_000"):
            with pytest.raises(ValueError):
                _int_from_text(bad)

    def test_long_checkpoint_round_trip(self, tmp_path):
        # 49152 steps from (0, 1, -1) give coefficients of ~29600 digits
        src = ["--b", "0", "--c", "1", "--d", "-1", "--format", "words32le"]
        whole, head, tail = (tmp_path / n for n in ("all", "head", "tail"))
        ck = tmp_path / "state.txt"
        assert main(["generate", *src, "--bits", "98304",
                     "--out", str(whole)]) == 0
        assert main(["generate", *src, "--bits", "49152", "--out", str(head),
                     "--checkpoint", str(ck)]) == 0
        assert main(["generate", "--resume", str(ck), "--bits", "49152",
                     "--format", "words32le", "--out", str(tail)]) == 0
        assert head.read_bytes() + tail.read_bytes() == whole.read_bytes()
        # the v1 text, byte for byte, as earlier releases wrote it
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == (
            "9b72fc0f84760a15d5acd4eef3e05302faddba7748cac2886aa32d98d7ff5677")
        _, direct = generate_bits(validate_triple(0, 1, -1), 49152)
        assert OrbitState.from_text(ck.read_text()) == direct
