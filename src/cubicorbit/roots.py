"""Certified root isolation for admissible cubics on dyadic intervals.

Everything here is exact. Evaluation points are dyadic rationals
p / 2^e, and the cubic's sign there is read off the integer

    p^3 + b*p^2*2^e + c*p*4^e + d*8^e = 8^e * f(p / 2^e),

so no rounding enters anywhere. The first k binary digits of the root,
read as an integer m, are certified by f(m / 2^k) < 0 < f((m+1) / 2^k),
which RootInterval checks on the original cubic. m itself comes from
orbit.jump; the certificate does not depend on how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .orbit import CoeffTriple, jump


class CorruptState(ArithmeticError):
    """A dyadic evaluation point is an exact root; the state is corrupt."""


@dataclass(frozen=True)
class Dyadic:
    """numerator / 2**exponent, kept canonical (odd numerator or exponent 0)."""

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")
        n, e = self.numerator, self.exponent
        # n & -n is the lowest set bit of n; zero is 0/2^0
        shift = min(e, (n & -n).bit_length() - 1) if n else e
        n, e = n >> shift, e - shift
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "exponent", e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        return self.numerator / (1 << self.exponent)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exponent, other.exponent)
        n = (self.numerator << (e - self.exponent)) - \
            (other.numerator << (e - other.exponent))
        return Dyadic(n, e)

    def __lt__(self, other: "Dyadic") -> bool:
        e = max(self.exponent, other.exponent)
        return (self.numerator << (e - self.exponent)) < \
               (other.numerator << (e - other.exponent))

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}" if self.exponent else str(self.numerator)


def poly_sign_at_dyadic(t: CoeffTriple, x: Dyadic) -> int:
    """Exact sign (-1, 0, +1) of x^3 + b x^2 + c x + d at a dyadic point."""
    p, e = x.numerator, x.exponent
    # Horner on integers scaled by 8^e.
    v = ((p + (t.b << e)) * p + (t.c << (2 * e))) * p + (t.d << (3 * e))
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class RootInterval:
    """Half-open dyadic interval certified to contain the real root.

    The certificate is f(lo) < 0 < f(hi), checked at construction.
    """

    lo: Dyadic
    hi: Dyadic
    triple: CoeffTriple

    def __post_init__(self) -> None:
        if not (self.lo.numerator >= 0 and self.lo < self.hi
                and self.hi.numerator <= 1 << self.hi.exponent):
            raise ValueError("interval must sit inside [0, 1]")
        lo = poly_sign_at_dyadic(self.triple, self.lo)
        hi = poly_sign_at_dyadic(self.triple, self.hi)
        if lo == 0 or hi == 0:
            raise CorruptState("an interval end is an exact root of the cubic")
        if lo > 0:
            raise ValueError("f(lo) must be negative")
        if hi < 0:
            raise ValueError("f(hi) must be positive")

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    def __str__(self) -> str:
        w = self.width()
        den = w.denominator  # a power of two: both ends are dyadic
        # the midpoint gets one digit per digit of den, at most 17; every
        # denominator past 56 bits has 17 digits or more
        digits = len(str(den)) if den.bit_length() <= 56 else 17
        mid = self.lo.as_fraction() + w / 2
        approx = f"{float(mid):.{digits}f}"
        try:
            shown = str(den)
        except ValueError:  # past the int/str conversion digit limit
            shown = f"2^{den.bit_length() - 1}"
        half = float(w) / 2
        if half > 0:
            spread = f"{half:.3e}"
        else:  # below the smallest subnormal float: print it exactly
            spread = str(Dyadic(w.numerator, den.bit_length()))
        return f"{approx} +/- {spread} (width 1/{shown})"


def _enclose(t: CoeffTriple, k: int) -> Tuple[int, RootInterval]:
    m, _ = jump(t, k)
    return m, RootInterval(Dyadic(m, k), Dyadic(m + 1, k), t)


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
