"""Small GF(2) linear algebra helpers using int bitsets.

A vector in F_2^32 is a plain Python int in [0, 2**32); bit position
31 (the most significant bit) is component 1. A 32x32 matrix is held
row-wise, row 1 first, each row an int under the same convention.

This module owns that layout. `_words32` is its one check of 32 words,
of every matrix's rows and every transpose's input; `_transpose` turns
columns into rows for `from_columns` by zipping 0/1 text; and
`Gf2Matrix32.apply` is its one product, by byte tables read straight off
the rows. Only the tables and the product import numpy.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Tuple

if TYPE_CHECKING:
    import numpy as np

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


def _words32(words: Iterable[int]) -> Tuple[int, ...]:
    """The words as 32 ints in [0, 2^32); ValueError for anything else."""
    try:
        rows = tuple(operator.index(w) for w in words)
    except TypeError:  # a float or another non-integer word
        rows = ()
    if len(rows) != WORD_BITS or not all(0 <= r <= WORD_MASK for r in rows):
        raise ValueError("expected 32 words: integers in [0, 2^32)")
    return rows


def _transpose(words: Iterable[int]) -> List[int]:
    """The 32 words (MSB first) of a 32x32 bit matrix read down its columns:
    bit 31 - i of word j becomes bit 31 - j of word i, by 0/1 text."""
    lines = map("{:032b}".format, _words32(words))
    return [int("".join(column), 2) for column in zip(*lines)]


@dataclass(frozen=True)
class Gf2Matrix32:
    """32x32 bit matrix, rows as ints with the MSB as column 1."""

    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _words32(self.rows))  # frozen

    def row(self, i: int) -> int:
        """Row by 1-based index (row 1 produces the result's MSB)."""
        return self.rows[i - 1]

    @functools.cached_property
    def _tables(self) -> np.ndarray:
        """Four read-only 256-entry tables: table k maps byte v to M (v << 8k).

        Bit 31 - i of M y is the parity of row i + 1 AND y, so an entry packs
        the parities of the rows with v << 8k, row 1 first. Built on first use.
        """
        import numpy as np
        shifts = np.array([[0], [8], [16], [24]], dtype=np.uint32)
        probes = np.arange(256, dtype=np.uint32) << shifts  # v << 8k at [k, v]
        rows = np.array(self.rows, dtype=np.uint32)
        parity = np.bitwise_count(probes[..., None] & rows) & 1  # at [k, v, i]
        tables = np.packbits(parity, axis=-1).view(">u4")[..., 0].astype(np.uint32)
        tables.flags.writeable = False
        return tables

    def apply(self, words: np.ndarray) -> np.ndarray:
        """M y for every word y of a uint32 array, by byte tables.

        M y is linear in y, so it is the XOR of M applied to each of y's four
        bytes in place, read from _tables, little-endian whatever the host order.
        """
        import numpy as np
        tables = self._tables
        data = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4)
        acc = np.take(tables[0], data[:, 0])
        for k in (1, 2, 3):
            acc ^= np.take(tables[k], data[:, k])
        return acc

    @classmethod
    def from_columns(cls, columns: Iterable[int]) -> "Gf2Matrix32":
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
