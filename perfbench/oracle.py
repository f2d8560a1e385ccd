"""Reference computations the benchmark checks the CLI's outputs against.

None of this imports cubicorbit: a change to the package cannot move an
oracle along with the output it is compared to.

* root_bits: certified dyadic bisection of x^3 + b x^2 + c x + d on [0, 1),
  with the sign of the cubic at p / 2^e read off the integer
  8^e f(p / 2^e), so every bit is exact.
* is_root_prefix: the same sign test applied once to a whole claimed
  prefix: n bits are the first n binary digits of the root exactly when
  f(m / 2^n) < 0 < f((m + 1) / 2^n) for m the bits read as an integer,
  because f is increasing with a single irrational root in (0, 1).
* mt_words: numpy's legacy RandomState, the same MT19937 algorithm with the
  same integer seeding.
* lag_pairs_csv: the lag-coincidence scan derived from the MT19937 twist
  itself. In tempered space y_n = y_{n-227} ^ A y_{n-623} ^ B y_{n-624}
  with A y = T(twist(lower(T^-1 y))) and B y = T(twist(upper(T^-1 y))),
  T the tempering, so the scan's two conditions read: the top byte of
  A y_{n-623} is zero, and the top bit of T^-1 y_{n-624} is zero.
* file_bits: the bits of an output file, read without the package.
"""

from __future__ import annotations

import math

import numpy as np


def root_bits(b: int, c: int, d: int, k: int) -> tuple[np.ndarray, int]:
    """First k binary digits of the cubic's root in (0, 1), as 0/1 uint8.

    Also returns the numerator of the certified lower end lo / 2^k.
    """
    out = np.zeros(k, dtype=np.uint8)
    lo = 0
    for e in range(1, k + 1):
        p = 2 * lo + 1
        v = _scaled_value(b, c, d, p, e)
        if v < 0:
            out[e - 1] = 1
            lo = p
        elif v > 0:
            lo = 2 * lo
        else:
            raise ArithmeticError(f"rational root at {p}/2^{e}")
    return out, lo


def _scaled_value(b: int, c: int, d: int, p: int, e: int) -> int:
    """8^e f(p / 2^e), an integer with the sign of f at the dyadic point."""
    return ((p + (b << e)) * p + (c << (2 * e))) * p + (d << (3 * e))


def is_root_prefix(b: int, c: int, d: int, bits: np.ndarray) -> bool:
    n = int(bits.size)
    pad = -n % 8
    m = int.from_bytes(np.packbits(bits).tobytes(), "big") >> pad
    return (_scaled_value(b, c, d, m, n) < 0
            < _scaled_value(b, c, d, m + 1, n))


def mt_words(seed: int, count: int) -> np.ndarray:
    return np.random.RandomState(seed).randint(0, 2**32, size=count,
                                               dtype=np.uint32)


_U32 = np.uint32


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> _U32(11))
    y = y ^ ((y << _U32(7)) & _U32(0x9D2C5680))
    y = y ^ ((y << _U32(15)) & _U32(0xEFC60000))
    return y ^ (y >> _U32(18))


def _untemper(y: np.ndarray) -> np.ndarray:
    # each step x ^= shift(x) & mask is inverted by iterating to a fixed point
    for shift, mask, left in ((18, None, False), (15, 0xEFC60000, True),
                              (7, 0x9D2C5680, True), (11, None, False)):
        x = y
        for _ in range(32 // shift + 1):
            moved = (x << _U32(shift)) if left else (x >> _U32(shift))
            x = y ^ (moved & _U32(mask) if mask is not None else moved)
        y = x
    return y


def lag_pairs_csv(ys: np.ndarray) -> str:
    """The CSV `mt scan` must print for the uint32 words ys."""
    x = _untemper(ys.astype(np.uint32))
    n_words = ys.size
    lower = x[1:n_words - 623] & _U32(0x7FFFFFFF)
    twisted = (lower >> _U32(1)) ^ np.where(lower & _U32(1),
                                            _U32(0x9908B0DF), _U32(0))
    a_top = _temper(twisted.astype(np.uint32)) >> _U32(24)
    ok = (a_top == 0) & ((x[:n_words - 624] >> _U32(31)) == 0)
    lines = ["n,y_lag,y_n"]
    lines.extend(f"{n},{int(ys[n - 227]) >> 24},{int(ys[n]) >> 24}"
                 for n in (np.nonzero(ok)[0] + 624).tolist())
    return "\n".join(lines) + "\n"


def file_bits(path, fmt: str) -> np.ndarray:
    """Bits of a raw (MSB-first bytes) or words32le file as 0/1 uint8."""
    if fmt == "raw":
        return np.unpackbits(np.fromfile(path, dtype=np.uint8))
    if fmt == "words32le":
        words = np.fromfile(path, dtype="<u4")
        return np.unpackbits(words.astype(">u4").view(np.uint8))
    raise ValueError(f"unsupported format {fmt}")


def lag_pair_bounds(n_words: int) -> tuple[float, float]:
    """6-sigma window for the count of indices passing all nine parity
    conditions, each met with probability 1/2 by independent bits."""
    mu = (n_words - 624) / 512
    sigma = math.sqrt(mu * (1 - 1 / 512))
    return mu - 6 * sigma, mu + 6 * sigma
