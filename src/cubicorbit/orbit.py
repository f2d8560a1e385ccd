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
certifying every step that way, at one square, two products and one
exact quotient per doubling against O(n^2) for n single steps; above
_NEWTON_BITS the quotient comes from a Newton reciprocal and one
remainder product (_quotient), not from schoolbook `//`. Condition (i)
is read off the top 64 bits of b (_square_exceeds), so the certificate
takes no full square of a wide b. step() is the one-bit reference the
tests compare jump() with; seeds.merger_audit confirms collisions with
it and walks chains back with inverse_step().

The root oracle, isolate_root_bits() and refine_to_resolution(), returns
that m: alpha lies in [m / 2^k, (m+1) / 2^k]. Both re-check m with
shifted(), whatever found it; no end is ever an exact root. Only
isolate_root_bits() also spells m out as 0/1 text.
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


def _square_exceeds(a: int, v: int) -> bool:
    """a * a > v for a >= 0, decided from the top 64 bits of a if they can.

    An a of 64 bits or fewer takes a * a directly. Otherwise, with s =
    bitlen(a) - 64, ha = a >> s and hv = v >> 2s (a floor, also for v < 0):

        ha * 2^s <= a < (ha + 1) * 2^s,   hv * 4^s <= v < (hv + 1) * 4^s.

    If ha^2 > hv, that is ha^2 >= hv + 1, then a^2 >= ha^2 * 4^s >=
    (hv + 1) * 4^s > v. If (ha + 1)^2 <= hv, then a^2 < (ha + 1)^2 * 4^s
    <= hv * 4^s <= v. Otherwise ha^2 <= hv < (ha + 1)^2 and a * a is
    computed exactly. On a wide a the tie happens, for example, on every
    shift of a triple with b^2 = 3c, such as (3, 3, d), as the shift
    keeps b^2 - 3c = 0.
    """
    s = a.bit_length() - 64
    if s <= 0:
        return a * a > v
    ha, hv = a >> s, v >> (2 * s)
    if ha * ha > hv:
        return True
    if (ha + 1) * (ha + 1) <= hv:
        return False
    return a * a > v


@dataclass(frozen=True)
class CoeffTriple:
    """Admissible coefficient triple; constructing one validates it.

    Condition (i) is read off the top bits of b^2 and 3c
    (_square_exceeds), so a wide triple pays for no full square unless
    those bits tie.
    """

    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        b, c, d = self.b, self.c, self.d
        if _square_exceeds(abs(b), 3 * c):
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
        names, fields = {"b", "c", "d", "step"}, {}
        for ln in lines[1:]:
            key, _, value = ln.partition(" ")
            if key not in names or key in fields:
                raise ValueError(f"orbit state has an unknown or repeated "
                                 f"field {key[:40]!r}")
            fields[key] = _int_from_text(value)
        missing = names - fields.keys()
        if missing:
            raise ValueError(f"orbit state missing fields: {sorted(missing)}")
        if fields["step"] < 0:
            raise ValueError("step index must be nonnegative")
        return cls(validate_triple(fields["b"], fields["c"], fields["d"]),
                   fields["step"])


def _shift(b, c, d, x, k):
    """8^k * f((y + x) / 2^k): the triple after k steps whose bits are x.

    One square, x * x, and two products, b * x and the last one by x:
    b' = 3x + b 2^k, c' = 3x^2 + 2bx 2^k + c 4^k and
    d' = (x^2 + bx 2^k + c 4^k) x + d 8^k.
    """
    x2 = x * x
    bx = (b * x) << k
    ck = c << (2 * k)
    return (3 * x + (b << k),
            3 * x2 + 2 * bx + ck,
            (x2 + bx + ck) * x + (d << (3 * k)))


def shifted(t: CoeffTriple, m: int, n: int) -> CoeffTriple:
    """The triple n steps on from t whose bits are m: the certificate.

    Raises ConditionViolation unless m = floor(2^n * alpha).
    """
    return CoeffTriple(*_shift(t.b, t.c, t.d, m, n))


# Each Newton estimate is off by at most one; more means corrupt input.
_MAX_CORRECTIONS = 2

# Divisor and quotient width above which _quotient divides by Newton's
# method: `//` is schoolbook, and at about 44000 bits a 2L-by-L division
# took as long either way on CPython 3.11. A jump of n bits from small
# coefficients divides by at most about n/2 bits, so below 2^17 bits it
# stays on `//`.
_NEWTON_BITS = 1 << 16


def _reciprocal(d: int) -> int:
    """r with 4^L/d - 2 < r <= 4^L/d for d > 0 of L bits (MCA ch. 3).

    At or below _NEWTON_BITS, r = 4^L // d. Above, with h = L//2 + 4,
    rh = _reciprocal(d >> (L - h)) and r0 = rh * 2^(L-h): truncating d to
    dh = d >> (L - h) and rh's own error each move r0 by a factor in
    (1 - 2^(1-h), 1 + 2^(1-h)) on opposite sides, so r0 = X(1 - eps) with
    X = 4^L/d and |eps| < 2^(1-h). One Newton step with e = 4^L - d*r0 =
    4^L eps gives r0 + r0 e/4^L = X(1 - eps^2) > X - 1/4, as X <= 2^(L+1)
    and 2h >= L + 7. It is taken as rh * (e >> (L-4)) >> (h+4), an
    (h+1)-by-(L/2) product: dropping e's low L - 4 bits costs less than
    1/8, and the floor less than 1.
    """
    L = d.bit_length()
    if L <= _NEWTON_BITS:
        return (1 << (2 * L)) // d
    h = L // 2 + 4
    rh = _reciprocal(d >> (L - h))
    e = (1 << (2 * L)) - ((d * rh) << (L - h))
    return (rh << (L - h)) + ((rh * (e >> (L - 4))) >> (h + 4))


def _near_quotient(n: int, d: int) -> int:
    """q with |q - n // d| <= 1, for n >= d > 0 and d of 17 bits or more.

    With 2^(lq-1) <= n / d < 2^lq read off the bit lengths and p = lq +
    16, the top p bits nt of n and dt of d give n / d within 2^-14 as
    nt/dt * 2^(lq-1), and _reciprocal(dt) in place of 4^p / dt moves that
    by less than 2^-16, so the floor is off by at most one.
    """
    L, t = d.bit_length(), n.bit_length()
    lq = t - L + 1
    p = lq + 16
    dt = d >> (L - p) if L >= p else d << (p - L)
    return ((n >> (t - p)) * _reciprocal(dt)) >> (2 * p + 1 - lq)


def _quotient(n: int, d: int) -> int:
    """n // d for n >= 0 and d > 0, by Newton's method when both d and the
    quotient are wider than _NEWTON_BITS (two Karatsuba-size products and
    a reciprocal, against a schoolbook `//`). The remainder product makes
    it exact whatever the estimate; the estimate only sets the cost. gmpy2
    already divides in subquadratic time, so mpz takes `//`.
    """
    lq = n.bit_length() - d.bit_length() + 1
    if mpz is not int or min(d.bit_length(), lq) <= _NEWTON_BITS:
        return n // d
    q = _near_quotient(n, d)
    return q + (n - q * d) // d


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
        # negative: -d, c > 0), is one bit off by at most one. The quotient
        # is exact, by Newton's method above _NEWTON_BITS; below, `//` is
        # taken inline, as the call would cost more than the division.
        # Plain comparisons stand in for max() and min(): the doublings of
        # a short jump cost more in calls than in arithmetic.
        lc = c.bit_length()
        k = lc - (b + 1 if b >= 0 else 1 - b).bit_length() - 2
        if k > left:
            k = left
        if k < 1:
            k = 1
        s = lc - k - 8
        num, den = ((-d >> s) << k, c >> s) if s > 0 else (-d << k, c)
        x = num // den if k <= _NEWTON_BITS else _quotient(num, den)
        if x >> k:
            x = (1 << k) - 1
        b, c, d = _shift(b, c, d, x, k)
        # a correction is _shift(b, c, d, e, 0) for e = -1 or +1, written out
        fixes = _MAX_CORRECTIONS
        while d >= 0 or 1 + b + c + d <= 0:
            if not fixes:  # out of corrections: (ii) or (iii) fails
                raise ConditionViolation("ii" if d >= 0 else "iii",
                                         int(b), int(c), int(d))
            fixes -= 1
            if d >= 0:                     # f(x / 2^k) >= 0: x too large
                x -= 1
                b, c, d = b - 3, c - 2 * b + 3, d + b - c - 1
            else:                          # f((x + 1) / 2^k) <= 0: too small
                x += 1
                b, c, d = b + 3, c + 2 * b + 3, 1 + b + c + d
        m = (m << k) | x
        left -= k
    return int(m), CoeffTriple(int(b), int(c), int(d))


def isolate_root_bits(t: CoeffTriple, k: int) -> Tuple[str, int]:
    """The first k binary digits of alpha, as 0/1 text and as the integer m.

    alpha lies in [m / 2^k, (m+1) / 2^k]: shifted(t, m, k) certifies it.
    """
    m = jump(t, k)[0]  # jump rejects a negative k
    shifted(t, m, k)
    return BitStream(m, k).to01(), m


def refine_to_resolution(t: CoeffTriple, eps_exponent: int) -> int:
    """m with alpha in [m / 2^e, (m+1) / 2^e] for e = eps_exponent >= 1.

    The m of isolate_root_bits, re-checked the same way, without its text.
    """
    if eps_exponent < 1:
        raise ValueError("eps_exponent must be at least 1")
    m = jump(t, eps_exponent)[0]
    shifted(t, m, eps_exponent)
    return m


def generate_bits(seed: Union[CoeffTriple, OrbitState],
                  n: int) -> Tuple[BitStream, OrbitState]:
    """Emit n bits from seed and return them with the final resumable state.

    Deterministic: a given seed and n always produce the same output, and
    generating a+b bits equals generating a bits and then b more from the
    returned state.
    """
    state = seed if isinstance(seed, OrbitState) else OrbitState(seed, 0)
    m, triple = jump(state.triple, n)
    return BitStream(m, n), OrbitState(triple, state.step_index + n)
