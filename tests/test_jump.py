"""The certified jump against independent references, and long checkpoints.

step_loop and bisect_prefix (conftest.py) are the references: one walks
the orbit a step at a time, the other bisects the original cubic. Neither
shares code with jump().
"""

import hashlib
import random
from decimal import Decimal

import pytest

from cubicorbit import (ConditionViolation, OrbitState, generate_bits, jump,
                        shifted, validate_triple)
from cubicorbit import orbit
from cubicorbit.cli import main
from cubicorbit.orbit import _int_from_text
from conftest import bisect_prefix, random_triple, step_loop

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
