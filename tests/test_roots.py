"""orbit's certificate and root oracle.

shifted() must accept m exactly when f(m / 2^k) < 0 < f((m + 1) / 2^k),
checked against Fraction arithmetic on the cubic; isolate_root_bits()
and refine_to_resolution() must return that m. The roots module these
tests once covered is gone: the certificate and the oracle are in orbit.
"""

import random
from fractions import Fraction

import pytest

from cubicorbit import (BitStream, ConditionViolation, isolate_root_bits,
                        jump, orbit, refine_to_resolution, shifted,
                        validate_triple)
from conftest import random_triple


class TestCertificate:
    def test_accepted_exactly_when_the_ends_bracket_the_root(self):
        rng = random.Random(0x52)
        for _ in range(8):
            t = random_triple(rng)
            for k in range(11):
                # f at every j / 2^k, by Fraction arithmetic on the cubic
                xs = [Fraction(j, 1 << k) for j in range((1 << k) + 1)]
                f = [x**3 + t.b * x**2 + t.c * x + t.d for x in xs]
                for m in range(1 << k):
                    if f[m] < 0 < f[m + 1]:
                        shifted(t, m, k)
                        assert isolate_root_bits(t, k)[1] == m
                    else:
                        with pytest.raises(ConditionViolation):
                            shifted(t, m, k)

    def test_rejects_intervals_outside_the_unit_interval(self):
        t = validate_triple(0, 1, -1)
        for m, k in ((-1, 0), (1, 0), (-1, 3), (8, 3), (9, 3)):
            with pytest.raises(ConditionViolation):
                shifted(t, m, k)
        with pytest.raises(ValueError):
            shifted(t, 0, -1)


class TestBisection:
    def test_known_expansions(self):
        bits, m = isolate_root_bits(validate_triple(0, 1, -1), 8)
        assert bits == "10101110"
        assert m == 0b10101110
        bits, _ = isolate_root_bits(validate_triple(0, 2, -1), 8)
        assert bits == "01110100"

    def test_zero_depth(self):
        assert isolate_root_bits(validate_triple(0, 1, -1), 0) == ("", 0)

    def test_prefix_stability(self):
        rng = random.Random(0x53)
        for _ in range(10):
            t = random_triple(rng)
            long_bits, long_m = isolate_root_bits(t, 64)
            for k in (0, 1, 7, 32, 63):
                short_bits, short_m = isolate_root_bits(t, k)
                assert long_bits.startswith(short_bits)
                assert long_m >> (64 - k) == short_m

    def test_certificate_enforced(self):
        t = validate_triple(0, 1, -1)
        # the root is in [1/2, 1); an interval that misses it must be rejected
        with pytest.raises(ConditionViolation):
            shifted(t, 0, 1)


class TestRefine:
    def test_first_split(self):
        assert refine_to_resolution(validate_triple(0, 1, -1), 1) == 1
        assert refine_to_resolution(validate_triple(0, 2, -1), 1) == 0

    def test_deep_refinement_brackets_root(self):
        m = refine_to_resolution(validate_triple(0, 1, -1), 20)
        target = Fraction(6823278, 10**7)  # known to 7 places
        assert abs(Fraction(m, 1 << 20) - target) < Fraction(1, 10**6)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            refine_to_resolution(validate_triple(0, 1, -1), 0)

    def test_builds_no_text(self, monkeypatch):
        def no_text(self):
            raise AssertionError("0/1 text was built")
        monkeypatch.setattr(BitStream, "to01", no_text)
        t = validate_triple(0, 1001, -500)
        for e in (1, 64, 1056):
            assert refine_to_resolution(t, e) == jump(t, e)[0]
        with pytest.raises(AssertionError):  # the patch is in force
            isolate_root_bits(t, 64)

    def test_rechecks_what_the_jump_returns(self, monkeypatch):
        t = validate_triple(0, 1, -1)
        m, after = jump(t, 64)
        monkeypatch.setattr(orbit, "jump", lambda t, n: (m + 1, after))
        with pytest.raises(ConditionViolation):
            refine_to_resolution(t, 64)
