"""MT19937, as numpy's legacy stream, and its tempered-output lag structure.

The tempered 32-bit outputs y_n of MT19937 satisfy a fixed linear
recurrence over GF(2),

    y_n = y_{n-227} ^ A y_{n-623} ^ B y_{n-624},    n >= 624,

for two constant 32x32 bit matrices A and B (B has rank one: its
nonzero rows are all copies of row 2). They follow from the untempered
state recurrence x_n = x_{n-227} ^ twist((x_{n-624} & upper) |
(x_{n-623} & lower)): tempering is linear, so A and B are the twist of
the low 31 bits and of the top bit, conjugated by the tempering map.
`recover_matrices` finds them independently, by solving the recurrence
on output samples as a linear system.

The lag-coincidence scan looks for indices n where the top 8 bits of
A y_{n-623} vanish (rows 1-8 orthogonal to the word) and B y_{n-624}
vanishes (row 2 orthogonal). At such n the recurrence forces the top
bytes of y_n and y_{n-227} to coincide, a correlation that a generator
without this linear structure does not show.

The matrices are built on Python ints; numpy is imported by the
generator and the array checks when they first run.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .bitstream import as_words32
from .gf2 import WORD_MASK, Gf2Matrix32, solve_linear_system

if TYPE_CHECKING:
    import numpy as np

N = 624
DEFAULT_SEED = 5489
LAG = 227  # N - M with M = 397, the tempered-output coincidence lag


class MT19937:
    """MT19937 as numpy's legacy RandomState runs it (NEP 19 freezes that
    stream). Seeds are ints in [0, 2^32); None does not draw OS entropy."""

    def __init__(self, seed: int = DEFAULT_SEED):
        import numpy as np
        self._rs = np.random.RandomState(operator.index(seed))

    def generate(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint32 array."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return self._rs.randint(0, 1 << 32, size=count, dtype="uint32")


def temper(y):
    """MT19937 output tempering of a 32-bit int or a uint32 array."""
    y = y ^ (y >> 11)
    y = y ^ ((y << 7) & 0x9D2C5680)
    y = y ^ ((y << 15) & 0xEFC60000)
    y = y ^ (y >> 18)
    return y & WORD_MASK


def untemper(y: int) -> int:
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & WORD_MASK


def _twist(x: int) -> int:
    """The state twist, as it acts on one 32-bit word."""
    return (x >> 1) ^ (0x9908B0DF if x & 1 else 0)


@functools.cache
def load_recurrence_matrices() -> Tuple[Gf2Matrix32, Gf2Matrix32]:
    """The recurrence matrices (A, B): the twist of the low 31 bits and of
    the top bit of a word, each conjugated by the tempering map. Built once
    per process; both are frozen."""
    return (
        Gf2Matrix32.from_function(
            lambda y: temper(_twist(untemper(y) & 0x7FFFFFFF))),
        Gf2Matrix32.from_function(
            lambda y: temper(_twist(untemper(y) & 0x80000000))),
    )


def _as_words(outputs: Sequence[int] | np.ndarray) -> np.ndarray:
    """At least N + 1 32-bit words as a uint32 array."""
    arr = as_words32(outputs)
    if arr.ndim != 1:
        raise ValueError("outputs must be one-dimensional")
    if arr.size < N + 1:
        raise ValueError(f"need at least {N + 1} outputs, got {arr.size}")
    return arr


@dataclass(frozen=True)
class RecurrenceCheck:
    ok: bool
    checked: int
    first_violation: Optional[int] = None


def verify_recurrence(outputs: Sequence[int] | np.ndarray,
                      a: Gf2Matrix32, b: Gf2Matrix32) -> RecurrenceCheck:
    """Check y_n = y_{n-227} ^ A y_{n-623} ^ B y_{n-624} for all n >= 624."""
    ys = _as_words(outputs)
    L = ys.size
    predicted = ys[N - LAG:L - LAG] ^ a.apply(ys[1:L - N + 1]) \
        ^ b.apply(ys[:L - N])
    mism = (predicted != ys[N:]).nonzero()[0]
    if mism.size:
        return RecurrenceCheck(False, L - N, int(mism[0]) + N)
    return RecurrenceCheck(True, L - N)


class RankDeficient(ValueError):
    """Not enough independent output data to pin down the matrices."""


def recover_matrices(outputs: Sequence[int] | np.ndarray
                     ) -> Tuple[Gf2Matrix32, Gf2Matrix32]:
    """Solve the lagged recurrence for (A, B) from raw output words.

    Consumes equations at successive n until the 64-unknown system per
    matrix row block reaches full rank; raises RankDeficient if the data
    never gets there. Validation against held-out data is the caller's
    job (compose with verify_recurrence).
    """
    if len(outputs) < N + 1:
        raise RankDeficient(f"need at least {N + 1} outputs, got {len(outputs)}")
    ys = _as_words(outputs).tolist()

    def equations() -> Iterable[Tuple[int, int]]:
        for n in range(N, len(ys)):
            coeffs = (ys[n - N + 1] << 32) | ys[n - N]
            yield coeffs, ys[n] ^ ys[n - LAG]

    sols = solve_linear_system(equations(), 64, 32)
    if sols is None:
        raise RankDeficient("output sample spans a rank-deficient system")
    # sols[k] packs column k + 1 of A, and sols[32 + k] that of B
    return Gf2Matrix32.from_columns(sols[:32]), Gf2Matrix32.from_columns(sols[32:])


@dataclass(frozen=True)
class LagPair:
    """Top bytes (Y_{n-227}, Y_n) at an index n passing both conditions."""

    n: int
    y_lag_top8: int
    y_top8: int


def scan_conditions_ab(outputs: Sequence[int] | np.ndarray,
                       a: Gf2Matrix32, b: Gf2Matrix32) -> List[LagPair]:
    """All (Y_{n-227}, Y_n) pairs at indices where the addends drop out.

    Condition (a): rows 1-8 of A are orthogonal to y_{n-623}; condition
    (b): row 2 of B is orthogonal to y_{n-624}, which for the rank-one B
    means B y_{n-624} = 0. Wherever both hold, the recurrence adds nothing
    to the top byte.
    """
    import numpy as np
    ys = _as_words(outputs)
    L = ys.size
    lag623 = ys[1:L - N + 1]
    lag624 = ys[:L - N]
    top_a = a.apply(lag623) >> 24  # rows 1-8: the top byte
    row2_b = np.bitwise_count(lag624 & np.uint32(b.row(2))) & 1
    ns = np.nonzero((top_a == 0) & (row2_b == 0))[0] + N
    return [LagPair(int(n),
                    int(ys[n - LAG]) >> 24,
                    int(ys[n]) >> 24) for n in ns]


def lag_pairs_csv(pairs: Iterable[LagPair]) -> str:
    lines = ["n,y_lag,y_n"]
    lines.extend(f"{p.n},{p.y_lag_top8},{p.y_top8}" for p in pairs)
    return "\n".join(lines) + "\n"
