"""Exact doubling-map dynamics on integer coefficient triples.

A triple (b, c, d) stands for the monic cubic x^3 + b*x^2 + c*x + d.
Under the admissibility conditions

    (i)   b^2 - 3c <= 0          (the cubic is strictly increasing)
    (ii)  d < 0                  (value at 0 is negative)
    (iii) 1 + b + c + d > 0      (value at 1 is positive)

the cubic has a unique real root alpha in (0, 1). Its rational roots
could only be integers, and f(0) < 0 < f(1), so alpha is irrational and
no dyadic point is a root; 8*f(1/2) = 1 + 2b + 4c + 8d is odd, never 0,
and its sign decides whether alpha lies below or above 1/2. Doubling
alpha modulo 1 maps to an integer-only update of the triple:

    alpha in (0, 1/2):  (b, c, d) -> (2b, 4c, 8d),             emit 0
    alpha in (1/2, 1):  (b, c, d) -> (2b+3, 4b+4c+3, t),       emit 1

where t = 1 + 2b + 4c + 8d (note t is exactly the new d). Both images
satisfy (i)-(iii) again, so iteration never leaves the admissible set,
and the emitted bits are the binary expansion of alpha.

After n steps with bits m = floor(2^n * alpha) (read as an integer) the
triple is the Taylor shift 8^n * f((x + m) / 2^n), i.e.

    (3m + b*2^n,  3m^2 + 2b*2^n*m + c*4^n,  8^n * f(m / 2^n)).

(ii), (iii) on it say exactly f(m/2^n) < 0 < f((m+1)/2^n), and (i)
holds on every shift, as b'^2 - 3c' = 4^n (b^2 - 3c), so building it,
shifted(t, m, n), certifies all n bits at once: the one certificate
check. jump() finds m by integer Newton steps with precision doubling,
certifying every step that way, at a few big multiplications and one
division per doubling against O(n^2) for n single steps. step() is the
one-bit reference the tests compare jump() with; seeds.merger_audit
confirms collisions with it and walks chains back with inverse_step().
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Tuple, Union

from .bitstream import BitStream

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is the optional "gmp" extra
    mpz = int


def _show(v: int) -> str:
    """v in decimal, or its size once it is too wide for a message."""
    return str(v) if v.bit_length() <= 256 else f"<{v.bit_length()}-bit integer>"


class ConditionViolation(ValueError):
    """An admissibility condition failed; .condition is 'i', 'ii' or 'iii'."""

    def __init__(self, condition: str, b: int, c: int, d: int):
        self.condition = condition
        super().__init__(f"condition ({condition}) fails for "
                         f"(b,c,d)=({_show(b)},{_show(c)},{_show(d)})")


@dataclass(frozen=True)
class CoeffTriple:
    """Admissible coefficient triple; constructing one validates it."""

    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        b, c, d = self.b, self.c, self.d
        if b * b - 3 * c > 0:
            raise ConditionViolation("i", b, c, d)
        if d >= 0:
            raise ConditionViolation("ii", b, c, d)
        if 1 + b + c + d <= 0:
            raise ConditionViolation("iii", b, c, d)
        # 1/2 is never a root: half_value = 1 + 2b + 4c + 8d is odd

    @property
    def half_value(self) -> int:
        """8 times the cubic evaluated at 1/2."""
        return 1 + 2 * self.b + 4 * self.c + 8 * self.d

    @property
    def discriminant(self) -> int:
        b, c, d = self.b, self.c, self.d
        return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.b, self.c, self.d)

    def max_coeff_bits(self) -> int:
        return max(abs(self.b).bit_length(), abs(self.c).bit_length(),
                   abs(self.d).bit_length())


def validate_triple(b: int, c: int, d: int) -> CoeffTriple:
    """Check conditions (i)-(iii) and return the validated triple."""
    return CoeffTriple(int(b), int(c), int(d))


def step(t: CoeffTriple) -> Tuple[CoeffTriple, int]:
    """One doubling-map step: the successor triple and the emitted bit."""
    b, c, d = t.b, t.c, t.d
    h = t.half_value
    if h > 0:
        return CoeffTriple(2 * b, 4 * c, 8 * d), 0
    return CoeffTriple(2 * b + 3, 4 * b + 4 * c + 3, h), 1


def inverse_step(t: CoeffTriple) -> CoeffTriple | None:
    """The unique predecessor triple, or None if t is a source point.

    The branch is read off the parity of b (images have b, c, d all even
    or all odd); the divisions must then be exact for a predecessor to
    exist. Its cubic is f(2x)/8 or f(2x - 1)/8, with its root in (0, 1/2)
    or (1/2, 1), so it is always admissible.
    """
    b, c, d = t.b, t.c, t.d
    if b % 2 == 0:
        if c % 4 or d % 8:
            return None
        return CoeffTriple(b // 2, c // 4, d // 8)
    b0 = (b - 3) // 2
    c0, r = divmod(c - 3 - 4 * b0, 4)
    if r:
        return None
    d0, r = divmod(d - 1 - 2 * b0 - 4 * c0, 8)
    if r:
        return None
    return CoeffTriple(b0, c0, d0)


STATE_FORMAT = "cubicorbit-orbit-state 1"
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int_from_text(s: str) -> int:
    # Decimal is exempt from the int/str digit limit (CPython >= 3.11)
    if not _INTEGER.fullmatch(s):
        raise ValueError(f"orbit state field is not an integer: {s[:40]!r}")
    return int(Decimal(s))


@dataclass(frozen=True)
class OrbitState:
    """A triple together with how many steps produced it."""

    triple: CoeffTriple
    step_index: int = 0

    def to_text(self) -> str:
        b, c, d = (Decimal(v) for v in self.triple.as_tuple())
        return (f"{STATE_FORMAT}\n"
                f"b {b}\nc {c}\nd {d}\nstep {self.step_index}\n")

    @classmethod
    def from_text(cls, text: str) -> "OrbitState":
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines or lines[0] != STATE_FORMAT:
            raise ValueError("unrecognized orbit state header")
        fields = {}
        for ln in lines[1:]:
            key, _, value = ln.partition(" ")
            fields[key] = _int_from_text(value)
        missing = {"b", "c", "d", "step"} - fields.keys()
        if missing:
            raise ValueError(f"orbit state missing fields: {sorted(missing)}")
        if fields["step"] < 0:
            raise ValueError("step index must be nonnegative")
        return cls(validate_triple(fields["b"], fields["c"], fields["d"]),
                   fields["step"])


def _shift(b, c, d, x, k):
    """8^k * f((y + x) / 2^k): the triple after k steps whose bits are x."""
    bk = b << k
    ck = c << (2 * k)
    return (3 * x + bk,
            (3 * x + 2 * bk) * x + ck,
            ((x + bk) * x + ck) * x + (d << (3 * k)))


def shifted(t: CoeffTriple, m: int, n: int) -> CoeffTriple:
    """The triple n steps on from t whose bits are m: the certificate.

    Raises ConditionViolation unless m = floor(2^n * alpha).
    """
    return CoeffTriple(*_shift(t.b, t.c, t.d, m, n))


# Each Newton estimate is off by at most one; more means corrupt input.
_MAX_CORRECTIONS = 2


def jump(t: CoeffTriple, n: int) -> Tuple[int, CoeffTriple]:
    """(m, shifted(t, m, n)) for m = floor(2^n * alpha): n steps at once.

    Every precision-doubling step is certified by its shifted triple
    before the next starts, so no uncertified bit is ever returned.
    """
    if n < 0:
        raise ValueError("bit count must be nonnegative")
    b, c, d = mpz(t.b), mpz(t.c), mpz(t.d)
    m = 0
    left = n
    while left:
        # -d/c is within (|b| + 1)/c of the root, so this k keeps the
        # estimate of the next k bits within 1/2 before rounding down;
        # keeping only the top k + 8 bits of c and d adds less than 1/16.
        # On a small triple k is 1 and x, clamped to [0, 2^k) (it is never
        # negative: -d, c > 0), is one bit off by at most one.
        k = max(1, min(left, c.bit_length() - (abs(b) + 1).bit_length() - 2))
        s = max(0, c.bit_length() - k - 8)
        x = min(((-d >> s) << k) // (c >> s), (1 << k) - 1)
        b1, c1, d1 = _shift(b, c, d, x, k)
        for _ in range(_MAX_CORRECTIONS):
            if d1 >= 0:                    # f(x / 2^k) >= 0: x too large
                x -= 1
                b1, c1, d1 = b1 - 3, c1 - 2 * b1 + 3, d1 - c1 + b1 - 1
            elif 1 + b1 + c1 + d1 <= 0:    # f((x + 1) / 2^k) <= 0: too small
                x += 1
                b1, c1, d1 = b1 + 3, c1 + 2 * b1 + 3, 1 + b1 + c1 + d1
            else:
                break
        else:  # out of corrections: raises ConditionViolation unless certified
            CoeffTriple(int(b1), int(c1), int(d1))
        m = (m << k) | x
        b, c, d = b1, c1, d1
        left -= k
    return int(m), CoeffTriple(int(b), int(c), int(d))


def generate_bits(seed: Union[CoeffTriple, OrbitState],
                  n: int) -> Tuple[BitStream, OrbitState]:
    """Emit n bits from seed and return them with the final resumable state.

    Deterministic: a given seed and n always produce the same output, and
    generating a+b bits equals generating a bits and then b more from the
    returned state.
    """
    state = seed if isinstance(seed, OrbitState) else OrbitState(seed, 0)
    m, triple = jump(state.triple, n)
    raw = (m << (-n % 8)).to_bytes((n + 7) // 8, "big")  # MSB-first
    return BitStream.from_bytes(raw, n), OrbitState(triple, state.step_index + n)
