import random
from fractions import Fraction

import pytest

from cubicorbit import (Dyadic, RootInterval, isolate_root_bits,
                        poly_sign_at_dyadic, refine_to_resolution,
                        validate_triple)
from conftest import random_triple


class TestDyadic:
    def test_canonicalization(self):
        assert Dyadic(4, 3) == Dyadic(1, 1)
        assert Dyadic(0, 7) == Dyadic(0, 0)
        assert Dyadic(6, 0) == Dyadic(6, 0)

    def test_fraction_and_subtraction(self):
        assert Dyadic(3, 2).as_fraction() == Fraction(3, 4)
        assert (Dyadic(3, 2) - Dyadic(1, 3)).as_fraction() == Fraction(5, 8)
        assert Dyadic(1, 3) < Dyadic(3, 2)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_canonical_form_matches_halving_loop(self):
        def halve(n, e):
            while e > 0 and n % 2 == 0:
                n //= 2
                e -= 1
            return n, e

        rng = random.Random(0x54)
        cases = [(0, 0), (0, 9), (1, 0), (-8, 2), (-8, 5)]
        for _ in range(2000):
            e = rng.randint(0, 80)
            n = rng.randint(-1 << 40, 1 << 40) << rng.randint(0, 90)
            cases.append((n, e))
        for n, e in cases:
            d = Dyadic(n, e)
            assert (d.numerator, d.exponent) == halve(n, e), (n, e)


class TestSignEvaluation:
    def test_at_one_half(self):
        assert poly_sign_at_dyadic(validate_triple(0, 1, -1), Dyadic(1, 1)) == -1
        assert poly_sign_at_dyadic(validate_triple(0, 2, -1), Dyadic(1, 1)) == 1

    def test_endpoint_signs_for_random_triples(self):
        rng = random.Random(0x51)
        for _ in range(100):
            t = random_triple(rng)
            assert poly_sign_at_dyadic(t, Dyadic(0, 0)) == -1  # f(0) = d < 0
            assert poly_sign_at_dyadic(t, Dyadic(1, 0)) == 1   # f(1) > 0

    def test_sign_matches_fraction_arithmetic(self):
        rng = random.Random(0x52)
        for _ in range(100):
            t = random_triple(rng)
            p = rng.randint(0, 1 << 10)
            e = rng.randint(0, 10)
            x = Fraction(p, 1 << e)
            exact = x**3 + t.b * x**2 + t.c * x + t.d
            want = (exact > 0) - (exact < 0)
            assert poly_sign_at_dyadic(t, Dyadic(p, e)) == want


class TestBisection:
    def test_known_expansions(self):
        bits, interval = isolate_root_bits(validate_triple(0, 1, -1), 8)
        assert bits == "10101110"
        assert interval.width() == Fraction(1, 256)
        bits, _ = isolate_root_bits(validate_triple(0, 2, -1), 8)
        assert bits == "01110100"

    def test_zero_depth(self):
        bits, interval = isolate_root_bits(validate_triple(0, 1, -1), 0)
        assert bits == ""
        assert interval.lo.as_fraction() == 0
        assert interval.hi.as_fraction() == 1

    def test_prefix_stability(self):
        rng = random.Random(0x53)
        for _ in range(10):
            t = random_triple(rng)
            long_bits, _ = isolate_root_bits(t, 64)
            for k in (0, 1, 7, 32, 63):
                short_bits, _ = isolate_root_bits(t, k)
                assert long_bits.startswith(short_bits)

    def test_interval_width_halves(self):
        t = validate_triple(3, 7, -3)
        widths = [isolate_root_bits(t, k)[1].width() for k in range(6)]
        for w_prev, w_next in zip(widths, widths[1:]):
            assert w_next * 2 == w_prev

    def test_certificate_enforced(self):
        t = validate_triple(0, 1, -1)
        # the root is in [1/2, 1); an interval that misses it must be rejected
        with pytest.raises(ValueError):
            RootInterval(Dyadic(0, 1), Dyadic(1, 1), t)


class TestRefine:
    def test_first_split(self):
        iv = refine_to_resolution(validate_triple(0, 1, -1), 1)
        assert (iv.lo.as_fraction(), iv.hi.as_fraction()) == (Fraction(1, 2), 1)
        iv = refine_to_resolution(validate_triple(0, 2, -1), 1)
        assert (iv.lo.as_fraction(), iv.hi.as_fraction()) == (0, Fraction(1, 2))

    def test_deep_refinement_brackets_root(self):
        iv = refine_to_resolution(validate_triple(0, 1, -1), 20)
        assert iv.width() == Fraction(1, 1 << 20)
        target = Fraction(6823278, 10**7)  # known to 7 places
        assert abs(iv.lo.as_fraction() - target) < Fraction(1, 10**6)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            refine_to_resolution(validate_triple(0, 1, -1), 0)

    def test_str_mentions_width(self):
        iv = refine_to_resolution(validate_triple(0, 1, -1), 10)
        assert "+/-" in str(iv)

    def test_str_text_below_the_digit_limit(self):
        t = validate_triple(0, 1, -1)
        assert str(refine_to_resolution(t, 1)) == "0.8 +/- 2.500e-01 (width 1/2)"
        assert str(refine_to_resolution(t, 20)) == \
            "0.6823277 +/- 4.768e-07 (width 1/1048576)"
        assert str(refine_to_resolution(t, 57)) == (
            "0.68232780382801927 +/- 3.469e-18 (width 1/144115188075855872)")
        assert str(refine_to_resolution(validate_triple(3, 7, -3), 30)) == \
            "0.3646556078 +/- 4.657e-10 (width 1/1073741824)"
        # 2^14000 has 4215 digits, just below the default 4300-digit limit
        assert str(refine_to_resolution(t, 14000)) == (
            f"0.68232780382801927 +/- 1/2^14001 (width 1/{2**14000})")

    def test_str_half_width_below_the_smallest_float(self):
        # 2^-1074 is the smallest subnormal float; past it the half-width
        # is printed exactly instead of underflowing to 0.000e+00
        t = validate_triple(0, 1, -1)
        assert str(refine_to_resolution(t, 1073)) == (
            f"0.68232780382801927 +/- 4.941e-324 (width 1/{2**1073})")
        assert str(refine_to_resolution(t, 1074)) == (
            f"0.68232780382801927 +/- 1/2^1075 (width 1/{2**1074})")

    def test_str_past_the_digit_limit(self):
        iv = refine_to_resolution(validate_triple(0, 1, -1), 20000)
        assert str(iv) == "0.68232780382801927 +/- 1/2^20001 (width 1/2^20000)"
