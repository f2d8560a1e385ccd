"""Certified root enclosures for admissible cubics.

The first k binary digits of the root, read as an integer m, are
certified by f(m / 2^k) < 0 < f((m+1) / 2^k). Both values are read off
the shifted triple 8^k * f((x + m) / 2^k) that orbit.jump builds as its
own certificate: its d is 8^k * f(m / 2^k), and 1 + b + c + d is
8^k * f((m+1) / 2^k). Everything is exact integer arithmetic.
RootInterval checks the certificate against the original cubic. m itself
comes from orbit.jump; the certificate does not depend on how it was
found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .orbit import CoeffTriple, _shift, jump


class CorruptState(ArithmeticError):
    """A dyadic evaluation point is an exact root; the state is corrupt."""


@dataclass(frozen=True)
class RootInterval:
    """[m / 2^k, (m+1) / 2^k], certified to contain the real root.

    The certificate is f(lo) < 0 < f(hi), checked at construction.
    """

    m: int
    k: int
    triple: CoeffTriple

    def __post_init__(self) -> None:
        if not (self.k >= 0 and 0 <= self.m < 1 << self.k):
            raise ValueError("interval must sit inside [0, 1]")
        t = self.triple
        b, c, d = _shift(t.b, t.c, t.d, self.m, self.k)
        lo, hi = d, 1 + b + c + d  # 8^k f(lo), 8^k f(hi)
        if lo == 0 or hi == 0:
            raise CorruptState("an interval end is an exact root of the cubic")
        if lo > 0:
            raise ValueError("f(lo) must be negative")
        if hi < 0:
            raise ValueError("f(hi) must be positive")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.m, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.m + 1, 1 << self.k)

    def width(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    def __str__(self) -> str:
        k = self.k
        den = 1 << k
        # the midpoint gets one digit per digit of 2^k, at most 17; every
        # 2^k past 2^55 has 17 digits or more
        digits = len(str(den)) if k <= 55 else 17
        approx = f"{(2 * self.m + 1) / (den << 1):.{digits}f}"
        try:
            shown = str(den)
        except ValueError:  # past the int/str conversion digit limit
            shown = f"2^{k}"
        half = 1 / (den << 1)
        # below the smallest subnormal float: print it exactly
        spread = f"{half:.3e}" if half > 0 else f"1/2^{k + 1}"
        return f"{approx} +/- {spread} (width 1/{shown})"


def _enclose(t: CoeffTriple, k: int) -> Tuple[int, RootInterval]:
    m, _ = jump(t, k)
    return m, RootInterval(m, k, t)


def isolate_root_bits(t: CoeffTriple, k: int) -> Tuple[str, RootInterval]:
    """First k binary digits of the root, with the certifying interval.

    Bit i is 1 exactly when the root sits in the upper half of the depth-i
    interval, so the returned string is the root's binary expansion and the
    final interval has width 2**-k.
    """
    if k < 0:
        raise ValueError("bit count must be nonnegative")
    m, interval = _enclose(t, k)
    return (format(m, f"0{k}b") if k else ""), interval


def refine_to_resolution(t: CoeffTriple, eps_exponent: int) -> RootInterval:
    """Certified interval of width 2**-eps_exponent around the root."""
    if eps_exponent < 1:
        raise ValueError("eps_exponent must be at least 1")
    return _enclose(t, eps_exponent)[1]
