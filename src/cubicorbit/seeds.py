"""Construction and auditing of initial-point families.

For a fixed (b, c) with b^2 <= 3c, the family takes every d from -1
down to -(b+c). The corresponding roots sweep the unit interval almost
equidistantly (gaps close to 1/c), which makes the family a natural
pool of seeds for generating many sequences at once. The audits here
check the three properties one wants from such a pool:

* no member's orbit can merge with another's within a horizon (each
  member's chain back through the inverse map meets no other member),
* the roots really are spread out (certified gap bounds), and
* as a stronger separation heuristic, the defining cubics' squarefree
  discriminant kernels are pairwise different, which already forces the
  members into pairwise different cubic fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .orbit import CoeffTriple, inverse_step, step, validate_triple
from .roots import refine_to_resolution


class InvalidShape(ValueError):
    """b^2 > 3c: no family exists for this (b, c)."""


class PrecisionTooLow(ValueError):
    """Root enclosures too wide to certify the gap structure."""


class SourceReason(Enum):
    MIXED_PARITY = "mixed_parity"
    EVEN_RESIDUE = "even_residue"
    ODD_RESIDUE = "odd_residue"
    NOT_SOURCE = "not_source"


@dataclass(frozen=True)
class SourceVerdict:
    is_source: bool
    reason: SourceReason


def is_source_point(t: CoeffTriple) -> SourceVerdict:
    """Whether t has no predecessor, decided purely by residue tests.

    A predecessor exists only for triples that are all even with
    c = 0 (mod 4) and d = 0 (mod 8), or all odd with -2b+c = 1 (mod 4)
    and b-c+d = 1 (mod 8). Everything else is a source point. This is
    deliberately independent of the division-based inverse so the two
    can cross-check each other.
    """
    b, c, d = t.b, t.c, t.d
    pb, pc, pd = b & 1, c & 1, d & 1
    if not (pb == pc == pd):
        return SourceVerdict(True, SourceReason.MIXED_PARITY)
    if pb == 0:
        if c % 4 != 0 or d % 8 != 0:
            return SourceVerdict(True, SourceReason.EVEN_RESIDUE)
    else:
        if (-2 * b + c) % 4 != 1 or (b - c + d) % 8 != 1:
            return SourceVerdict(True, SourceReason.ODD_RESIDUE)
    return SourceVerdict(False, SourceReason.NOT_SOURCE)


@dataclass(frozen=True)
class SeedSet:
    """The family for one (b, c), members ordered by descending d."""

    b: int
    c: int
    members: Tuple[CoeffTriple, ...]
    excluded: Tuple[Tuple[int, int, int], ...]  # always (): see build_seed_set
    parity_rule: bool  # b, c of opposite parity: guarantees all-source members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def records(self) -> str:
        """Line-oriented export: one 'b c d source_flag' record per member."""
        lines = []
        for m in self.members:
            flag = 1 if is_source_point(m).is_source else 0
            lines.append(f"{m.b} {m.c} {m.d} {flag}")
        return "\n".join(lines) + "\n"


def build_seed_set(b: int, c: int) -> SeedSet:
    """All (b, c, d) with d in {-1, ..., -(b+c)}, d descending.

    With b^2 <= 3c every one is admissible (d < 0, 1 + b + c + d >= 1),
    so none is excluded and the excluded field is always empty.
    """
    if c < 1:
        raise InvalidShape(f"c must be a positive integer, got {c}")
    if b * b > 3 * c:
        raise InvalidShape(f"b^2 = {b * b} exceeds 3c = {3 * c}")
    if b + c < 1:
        raise InvalidShape(f"b + c = {b + c} < 1 leaves no d values")
    members = tuple(validate_triple(b, c, d) for d in range(-1, -b - c - 1, -1))
    return SeedSet(b, c, members, (), (b + c) % 2 == 1)


@dataclass(frozen=True)
class GapEntry:
    """Gap between the roots of consecutive members, labeled by the upper d.

    With both roots enclosed to width 2**-p, delta = g / 2^p is the
    difference of the enclosures' left ends, and lo = (g - 1) / 2^p and
    hi = (g + 1) / 2^p bound the true gap rigorously.
    """

    d: int
    delta: Fraction
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class GapReport:
    gaps: Tuple[GapEntry, ...]
    max_deviation: Fraction  # max over gaps of |delta * c - 1|, certified

    def max_deviation_float(self) -> float:
        return float(self.max_deviation)


def gap_report(s: SeedSet, precision: int) -> GapReport:
    """Certified consecutive root gaps for a seed family.

    Each member's root is enclosed to width 2**-precision, and the gap
    between members with d and d-1 is bounded from the enclosures. The
    report also carries the worst certified deviation of gap * c from 1.
    """
    if precision < 32:
        raise ValueError("precision must be at least 32 bits")
    c, one = s.c, 1 << precision
    ms = [refine_to_resolution(t, precision).m for t in s.members]
    gaps: List[GapEntry] = []
    max_dev = 0  # in units of 2^-precision
    # upper member has d, lower member has d-1 and the larger root
    for upper, m_upper, m_lower in zip(s.members, ms, ms[1:]):
        g = m_lower - m_upper
        if g <= 1:
            raise PrecisionTooLow(
                f"cannot certify a positive gap at d={upper.d} "
                f"with 2^-{precision} enclosures")
        gaps.append(GapEntry(d=upper.d, delta=Fraction(g, one),
                             lo=Fraction(g - 1, one), hi=Fraction(g + 1, one)))
        max_dev = max(max_dev, abs((g - 1) * c - one), abs((g + 1) * c - one))
    return GapReport(tuple(gaps), Fraction(max_dev, one))


@dataclass(frozen=True)
class MergerCollision:
    member_a: int
    step_a: int
    member_b: int
    step_b: int
    triple: Tuple[int, int, int]


@dataclass(frozen=True)
class MergerAudit:
    passed: bool
    horizon: int
    states_checked: int
    collision: Optional[MergerCollision] = None


def merger_audit(s: SeedSet, horizon: int) -> MergerAudit:
    """Find the earliest merger of member orbits within the horizon.

    step is injective, so member i reaches member j's start at step k
    exactly when k inverse steps from member j give member i, and any
    merger leads back to such a hit no later. Each member's chain is
    walked back to a source point (about bit_length(c)/2 steps) or the
    horizon, and looked up among the starts. The least (step, member)
    hit, confirmed with step, is what a breadth-first walk meets first;
    states_checked counts the states within the horizon that walk
    visits, len(s) * (horizon + 1) on a pass, all covered by the proof.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    start = {t.as_tuple(): idx for idx, t in enumerate(s.members)}
    for idx, t in enumerate(s.members):
        owner = start[t.as_tuple()]  # the last copy of a triple owns it
        if owner != idx:  # duplicate members collide at step 0
            return MergerAudit(False, horizon, len(s),
                               MergerCollision(owner, 0, idx, 0, t.as_tuple()))
    hits = []  # (k, i, j): member i steps onto member j's start at step k
    for j, t in enumerate(s.members):
        for k in range(1, horizon + 1):
            t = inverse_step(t)
            if t is None:
                break
            if t.as_tuple() in start:
                hits.append((k, start[t.as_tuple()], j))
                break
    if not hits:
        return MergerAudit(True, horizon, len(s) * (horizon + 1))
    k, i, j = min(hits)
    t = s.members[i]
    for _ in range(k):
        t = step(t)[0]
    assert t == s.members[j], "inverse_step disagrees with step"
    return MergerAudit(False, horizon, len(s) * k + i,
                       MergerCollision(j, 0, i, k, t.as_tuple()))


class PairVerdict(Enum):
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class KernelInfo:
    discriminant: int
    kernel: Optional[int]  # signed squarefree part, None if not certified


@dataclass(frozen=True)
class DistinctnessReport:
    factor_bound: int
    kernels: Tuple[KernelInfo, ...]
    pairs: Tuple[Tuple[int, int, PairVerdict], ...]  # member indices i < j

    @property
    def all_distinct(self) -> bool:
        return all(v is PairVerdict.DISTINCT for _, _, v in self.pairs)

    def unknown_pairs(self) -> List[Tuple[int, int]]:
        return [(i, j) for i, j, v in self.pairs if v is PairVerdict.UNKNOWN]


def _squarefree_kernel(n: int, bound: int) -> Optional[int]:
    """Signed squarefree part of n via trial division, None if uncertified.

    After stripping primes up to bound, a remainder above bound**2 that is
    not a perfect square may hide square factors, so the kernel is only
    certified when the remainder is 1, a provable prime (< bound**2), or a
    perfect square.
    """
    if n == 0:
        return None
    sign = -1 if n < 0 else 1
    n = abs(n)
    kernel = 1
    p = 2
    while p <= bound and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                kernel *= p
        p += 1 if p == 2 else 2
    if n == 1:
        return sign * kernel
    if n <= bound * bound:  # no factor <= bound, so n is prime
        return sign * kernel * n
    r = math.isqrt(n)
    if r * r == n:
        return sign * kernel  # even multiplicities throughout the remainder
    return None


def field_distinctness_check(s: SeedSet, factor_bound: int) -> DistinctnessReport:
    """Pairwise necessary-condition check that members sit in distinct fields.

    Members whose defining cubics have different certified squarefree
    discriminant kernels must generate different cubic fields. Equal or
    uncertified kernels stay Unknown; this can never assert field equality.
    """
    if factor_bound < 2:
        raise ValueError("factor_bound must be at least 2")
    kernels = []
    for m in s.members:
        disc = m.discriminant
        kernels.append(KernelInfo(disc, _squarefree_kernel(disc, factor_bound)))
    pairs = []
    for i in range(len(kernels)):
        for j in range(i + 1, len(kernels)):
            ki, kj = kernels[i].kernel, kernels[j].kernel
            if ki is not None and kj is not None and ki != kj:
                verdict = PairVerdict.DISTINCT
            else:
                verdict = PairVerdict.UNKNOWN
            pairs.append((i, j, verdict))
    return DistinctnessReport(factor_bound, tuple(kernels), tuple(pairs))
