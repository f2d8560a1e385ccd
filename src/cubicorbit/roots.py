"""Certified root enclosures for admissible cubics.

The first k binary digits of the root, read as an integer m, are
certified by f(m / 2^k) < 0 < f((m+1) / 2^k): conditions (ii) and (iii)
on the shifted triple 8^k * f((x + m) / 2^k), whose (i) always holds.
RootInterval checks it by building orbit.shifted(triple, m, k), the
check orbit.jump certifies its bits with. No end is ever an exact root:
a monic integer cubic has only integer rational roots, and
f(0) < 0 < f(1). m comes from orbit.jump; the certificate does not
depend on how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .orbit import CoeffTriple, jump, shifted


@dataclass(frozen=True)
class RootInterval:
    """[m / 2^k, (m+1) / 2^k], certified to contain the real root.

    The certificate is f(lo) < 0 < f(hi), checked at construction by
    building the shifted triple; a wrong m raises ConditionViolation.
    """

    m: int
    k: int
    triple: CoeffTriple

    def __post_init__(self) -> None:
        if not (self.k >= 0 and 0 <= self.m < 1 << self.k):
            raise ValueError("interval must sit inside [0, 1]")
        shifted(self.triple, self.m, self.k)  # ends are never roots

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


def isolate_root_bits(t: CoeffTriple, k: int) -> Tuple[str, RootInterval]:
    """First k binary digits of the root, with the certifying interval.

    Bit i is 1 exactly when the root sits in the upper half of the depth-i
    interval, so the returned string is the root's binary expansion and the
    final interval has width 2**-k.
    """
    m, _ = jump(t, k)  # jump rejects a negative k
    return (format(m, f"0{k}b") if k else ""), RootInterval(m, k, t)


def refine_to_resolution(t: CoeffTriple, eps_exponent: int) -> RootInterval:
    """Certified interval of width 2**-eps_exponent around the root."""
    if eps_exponent < 1:
        raise ValueError("eps_exponent must be at least 1")
    return RootInterval(jump(t, eps_exponent)[0], eps_exponent, t)
