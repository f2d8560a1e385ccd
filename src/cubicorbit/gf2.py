"""Small GF(2) linear algebra helpers using int bitsets.

A vector in F_2^32 is a plain Python int in [0, 2**32); bit position
31 (the most significant bit) is component 1. A 32x32 matrix is held
row-wise, row 1 first, each row an int under the same convention.

This module owns that layout: `_transpose` is its one transpose, on
Python ints, and `Gf2Matrix32.apply` its one product, on every word of a
uint32 array. Only the product and its byte tables import numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


def _transpose(words: Sequence[int]) -> List[int]:
    """The 32 words (MSB first) of a 32x32 bit matrix read down its columns.

    Five rounds of masked block swaps (Warren, Hacker's Delight, 7-3): the
    round at j = 16, 8, 4, 2, 1 swaps, in every 2j x 2j block, the top
    right j x j block with the bottom left one. The mask picks the low j
    bits of every 2j bits of a word, the columns of the top right block.
    """
    try:
        rows = [operator.index(w) for w in words]
    except TypeError:  # a float or another non-integer word: fails below
        rows = []
    if len(rows) != WORD_BITS or not all(0 <= r <= WORD_MASK for r in rows):
        raise ValueError("expected 32 words: integers in [0, 2^32)")
    j, mask = 16, 0x0000FFFF
    while j:
        for k in range(WORD_BITS):
            if not k & j:  # row k of a block's top half, row k + j below it
                t = (rows[k] ^ (rows[k + j] >> j)) & mask
                rows[k] ^= t
                rows[k + j] ^= t << j
        j >>= 1
        mask ^= mask << j
    return rows


@dataclass(frozen=True)
class Gf2Matrix32:
    """32x32 bit matrix, rows as ints with the MSB as column 1."""

    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != WORD_BITS:
            raise ValueError(f"expected 32 rows, got {len(self.rows)}")
        for r in self.rows:
            if not 0 <= r <= WORD_MASK:
                raise ValueError("row out of 32-bit range")

    def row(self, i: int) -> int:
        """Row by 1-based index (row 1 produces the result's MSB)."""
        return self.rows[i - 1]

    def _byte_tables(self) -> np.ndarray:
        """Four read-only 256-entry tables: table k maps byte v to M (v << 8k).

        They come from the matrix's columns, the images of the single-bit
        words. The first call builds them and keeps them in the instance
        dict (a frozen dataclass has no setter), so a matrix applied many
        times builds them once.
        """
        tables = self.__dict__.get("_tables")
        if tables is None:
            import numpy as np
            # M (1 << j) at index j
            cols = np.array(_transpose(self.rows)[::-1], dtype=np.uint32)
            bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                 bitorder="little").astype(bool)  # bit b of v
            tables = np.bitwise_xor.reduce(
                np.where(bits, cols.reshape(4, 1, 8), np.uint32(0)), axis=2)
            tables.flags.writeable = False
            self.__dict__["_tables"] = tables
        return tables

    def apply(self, words: np.ndarray) -> np.ndarray:
        """M y for every word y of a uint32 array, by byte tables.

        M y is linear in y, so it is the XOR of M applied to each of y's four
        bytes in place, read from _byte_tables(). The bytes are read
        little-endian whatever the host order.
        """
        import numpy as np
        tables = self._byte_tables()
        data = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4)
        acc = np.take(tables[0], data[:, 0])
        for k in (1, 2, 3):
            acc ^= np.take(tables[k], data[:, k])
        return acc

    @classmethod
    def from_columns(cls, columns: Sequence[int]) -> "Gf2Matrix32":
        """Matrix from its 32 columns, column 1 first, as 32-bit ints."""
        return cls(tuple(_transpose(columns)))

    @classmethod
    def from_function(cls, fn: Callable[[int], int]) -> "Gf2Matrix32":
        """Matrix of a linear map on 32-bit words, probed on basis vectors."""
        return cls.from_columns([fn(1 << (WORD_BITS - 1 - j)) & WORD_MASK
                                 for j in range(WORD_BITS)])


def solve_linear_system(
    equations: Iterable[Tuple[int, int]], n_unknowns: int, n_rhs: int
) -> List[int] | None:
    """Solve M x = y over GF(2) for several right-hand sides at once.

    Each equation is (coefficients, rhs_bits): the coefficient bitset spans
    n_unknowns columns (MSB = unknown 1) and rhs_bits packs n_rhs parallel
    right-hand sides (MSB = system 1). Equations are consumed in order just
    until the coefficient rank reaches n_unknowns; redundant equations are
    dropped without a consistency check, so callers wanting validation must
    test the solution against held-out data themselves.

    Returns a list x where x[k] packs the n_rhs solved values of unknown
    k+1, or None if the supplied equations never reach full rank.
    """
    rhs_mask = (1 << n_rhs) - 1
    basis: dict[int, int] = {}  # leading coeff bit position -> packed row
    for coeffs, rhs in equations:
        row = (coeffs << n_rhs) | (rhs & rhs_mask)
        while row >> n_rhs:
            lead = row.bit_length() - 1
            if lead in basis:
                row ^= basis[lead]
            else:
                basis[lead] = row
                break
        if len(basis) == n_unknowns:
            break
    if len(basis) < n_unknowns:
        return None
    # Back-substitute to reduced echelon form; with full rank, the row led
    # by column k+1 then carries the solution of unknown k+1 in its rhs.
    rows = [basis[k] for k in sorted(basis, reverse=True)]
    for i in range(n_unknowns - 1, 0, -1):
        leadbit = 1 << (rows[i].bit_length() - 1)
        for j in range(i):
            if rows[j] & leadbit:
                rows[j] ^= rows[i]
    return [rows[k] & rhs_mask for k in range(n_unknowns)]
