"""Small GF(2) linear algebra helpers using int bitsets.

A vector in F_2^32 is a plain Python int in [0, 2**32); bit position
31 (the most significant bit) is component 1. A 32x32 matrix is held
row-wise, row 1 first, each row an int under the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


def parity(x: int) -> int:
    return x.bit_count() & 1


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

    def mul(self, v: int) -> int:
        """Matrix-vector product over GF(2)."""
        acc = 0
        for r in self.rows:
            acc = (acc << 1) | parity(r & v)
        return acc

    @classmethod
    def from_columns(cls, columns: Sequence[int]) -> "Gf2Matrix32":
        """Matrix from its 32 columns, column 1 first, as 32-bit ints."""
        rows = []
        for i in range(WORD_BITS):
            r = 0
            for col in columns:
                r = (r << 1) | ((col >> (WORD_BITS - 1 - i)) & 1)
            rows.append(r)
        return cls(tuple(rows))

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
