"""Desk-scale randomness tests with P-values.

Implements a small battery in the NIST SP 800-22 style: frequency
(monobit and per-block), runs, longest run of ones, serial,
cumulative sums, and approximate entropy. Each test returns the
conventional statistic and P-value; a sequence passes a test at
significance alpha when its P-value is at least alpha. P-value
special functions come from scipy (erfc, the regularized upper
incomplete gamma, the normal CDF), imported by each test so that bits
are generated without scipy; their error is far below 1e-10.

Inputs shorter than a test's documented minimum raise InputTooShort;
the suite is meant for sequences of 1e5 bits or more. Testing here is
single-level: each test judges one sequence against alpha. Second-level
procedures (proportions of passing sequences, uniformity of P-values
over many runs, SP 800-22 section 4.2) are not implemented yet. Every
function is pure, so callers may fan tests out over a shared sequence
freely.

The pattern tests (serial, approximate entropy) build one histogram of
overlapping windows and fold it to the shorter pattern lengths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List

import numpy as np

from .bitstream import BitsLike, BitStream

DEFAULT_ALPHA = 0.01


class InputTooShort(ValueError):
    """The bit sequence is below the test's documented minimum length."""


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float
    p_value: float
    passed: bool
    alpha: float
    parameters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name: str, statistic: float, p_value: float, alpha: float,
            **params: int) -> TestReport:
    p_value = float(min(max(p_value, 0.0), 1.0))
    return TestReport(name, float(statistic), p_value,
                      bool(p_value >= alpha), alpha, params)


def _as_bits(s: BitsLike, minimum: int, test: str) -> np.ndarray:
    bits = BitStream(s).bits
    if bits.size < minimum:
        raise InputTooShort(f"{test} needs at least {minimum} bits, got {bits.size}")
    return bits


def monobit(s, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Balance of ones and zeros over the whole sequence."""
    from scipy.special import erfc
    bits = _as_bits(s, 100, "monobit")
    n = bits.size
    s_n = 2 * int(np.count_nonzero(bits)) - n
    statistic = abs(s_n) / math.sqrt(n)
    p = erfc(statistic / math.sqrt(2))
    return _report("monobit", statistic, p, alpha)


def block_frequency(s, m: int = 128, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Balance of ones within disjoint m-bit blocks."""
    from scipy.special import gammaincc
    bits = _as_bits(s, 100, "block_frequency")
    if m < 2:
        raise ValueError("block length must be at least 2")
    n_blocks = bits.size // m
    if n_blocks < 1:
        raise InputTooShort(f"block_frequency needs at least one {m}-bit block")
    pi = bits[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _report("block_frequency", chi2, p, alpha, m=m, blocks=n_blocks)


def runs(s, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Total count of maximal same-bit runs versus its expectation."""
    from scipy.special import erfc
    bits = _as_bits(s, 100, "runs")
    n = bits.size
    pi = float(np.count_nonzero(bits)) / n
    v_n = 1 + int(np.count_nonzero(np.diff(bits)))
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency prerequisite failed; the run count is meaningless
        return _report("runs", float(v_n), 0.0, alpha)
    num = abs(v_n - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = erfc(num / den)
    return _report("runs", float(v_n), p, alpha)


# longest-run tables: block size -> (categories lo..hi, expected proportions)
_LONGEST_RUN_TABLES = {
    8: ((1, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    128: ((4, 9), (0.1174035788, 0.242955959, 0.249363483,
                   0.17517706, 0.102701071, 0.112398847)),
    10000: ((10, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}


def longest_run(s, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Distribution of the longest run of ones per block."""
    from scipy.special import gammaincc
    bits = _as_bits(s, 128, "longest_run")
    n = bits.size
    m = 10000 if n >= 750000 else 128 if n >= 6272 else 8
    (lo, hi), pis = _LONGEST_RUN_TABLES[m]
    n_blocks = n // m
    # each block behind a zero sentinel, plus one closing zero: every run
    # of ones is the gap between two consecutive zeros of one block, and
    # the gaps of block k start at the sentinel k * (m + 1)
    padded = np.zeros(n_blocks * (m + 1) + 1, dtype=np.uint8)
    padded[:-1].reshape(n_blocks, m + 1)[:, 1:] = \
        bits[: n_blocks * m].reshape(n_blocks, m)
    zeros = np.flatnonzero(padded == 0)
    sentinels = np.searchsorted(zeros, np.arange(n_blocks) * (m + 1))
    longest = np.maximum.reduceat(np.diff(zeros), sentinels) - 1
    cats = np.clip(longest, lo, hi) - lo
    v = np.bincount(cats, minlength=hi - lo + 1).astype(np.float64)
    expected = np.asarray(pis) * n_blocks
    chi2 = float(np.sum((v - expected) ** 2 / expected))
    p = gammaincc((hi - lo) / 2.0, chi2 / 2.0)
    return _report("longest_run", chi2, p, alpha, m=m, blocks=n_blocks)


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n overlapping m-bit windows, with wraparound padding.

    acc[i] holds the w-bit window at i, in the smallest unsigned type
    that holds it. A width w grows to any w' <= 2w in one pass,
    acc[i] << (w' - w) | the low w' - w bits of acc[i + w' - w], so m
    takes about log2(m) passes.
    """
    n = bits.size
    acc = np.resize(bits, n + m - 1)
    w = 1
    while w < m:
        step = min(w, m - w)
        wide = (np.uint8 if w + step <= 8 else
                np.uint16 if w + step <= 16 else np.uint32)
        wider = np.left_shift(acc[:acc.size - step], step, dtype=wide)
        wider |= acc[step:] & ((1 << step) - 1)
        acc, w = wider, w + step
    return np.bincount(acc, minlength=1 << m)


def _fold(counts: np.ndarray) -> np.ndarray:
    """The (m-1)-bit histogram from the m-bit one.

    With wraparound the (m-1)-bit prefix of window i is window i, so
    summing each pair of counts that share a prefix is exact.
    """
    return counts.reshape(-1, 2).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    return float(counts.size / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial(s, m: int = 16, alpha: float = DEFAULT_ALPHA) -> List[TestReport]:
    """Uniformity of overlapping m-bit patterns; two P-values per run."""
    from scipy.special import gammaincc
    bits = _as_bits(s, 16, "serial")
    if m < 2:
        raise ValueError("pattern length must be at least 2")
    if bits.size < 1 << (m + 2):
        raise InputTooShort(f"serial with m={m} needs at least {1 << (m + 2)} bits")
    n = bits.size
    counts = _pattern_counts(bits, m)
    psi_m = _psi_sq(counts, n)
    counts = _fold(counts)
    psi_m1 = _psi_sq(counts, n)
    psi_m2 = _psi_sq(_fold(counts), n) if m > 2 else 0.0
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = gammaincc(2 ** (m - 2), d1 / 2.0)
    p2 = gammaincc(2 ** (m - 3), d2 / 2.0)
    return [_report("serial_1", d1, p1, alpha, m=m),
            _report("serial_2", d2, p2, alpha, m=m)]


def cumulative_sums(s, alpha: float = DEFAULT_ALPHA) -> List[TestReport]:
    """Maximum excursion of the +1/-1 partial sums, forward and backward."""
    from scipy.special import ndtr
    bits = _as_bits(s, 100, "cumulative_sums")
    n = bits.size
    steps = bits.astype(np.int8)
    steps *= 2
    steps -= 1
    sums = np.cumsum(steps, dtype=np.int32 if n < 1 << 31 else np.int64)
    total = int(sums[-1])
    # the backward walk's partial sums are S_n - S_j for 0 <= j < n, S_0 = 0
    lo = min(0, int(sums[:-1].min()))
    hi = max(0, int(sums[:-1].max()))
    excursions = (("forward", max(-lo, hi, abs(total))),
                  ("backward", max(abs(total - lo), abs(total - hi))))
    reports = []
    for mode, z in excursions:
        sqrt_n = math.sqrt(n)
        term1 = sum(
            ndtr((4 * k + 1) * z / sqrt_n) - ndtr((4 * k - 1) * z / sqrt_n)
            for k in range((-n // z + 1) // 4, ((n // z) - 1) // 4 + 1))
        term2 = sum(
            ndtr((4 * k + 3) * z / sqrt_n) - ndtr((4 * k + 1) * z / sqrt_n)
            for k in range((-n // z - 3) // 4, ((n // z) - 1) // 4 + 1))
        p = 1.0 - term1 + term2
        reports.append(_report(f"cumulative_sums_{mode}", float(z), p, alpha))
    return reports


def approximate_entropy(s, m: int = 10, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Entropy gap between m- and (m+1)-bit overlapping pattern statistics."""
    from scipy.special import gammaincc
    bits = _as_bits(s, 16, "approximate_entropy")
    if m < 1:
        raise ValueError("pattern length must be at least 1")
    if bits.size < 1 << (m + 2):
        raise InputTooShort(
            f"approximate_entropy with m={m} needs at least {1 << (m + 2)} bits")
    n = bits.size

    def phi(counts: np.ndarray) -> float:
        probs = counts[counts > 0].astype(np.float64) / n
        return float(np.sum(probs * np.log(probs)))

    counts = _pattern_counts(bits, m + 1)
    apen = phi(_fold(counts)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = gammaincc(2 ** (m - 1), chi2 / 2.0)
    return _report("approximate_entropy", chi2, p, alpha, m=m)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    alpha: float

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.passed)

    @property
    def failed(self) -> int:
        return len(self.reports) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "passed": self.passed,
            "failed": self.failed,
            "all_passed": self.all_passed,
            "reports": [r.to_dict() for r in self.reports],
        }


# run_suite's block length and pattern lengths; the serial and approximate
# entropy lengths are capped further by the input length
SUITE_BLOCK_M = 128
SUITE_SERIAL_M = 16
SUITE_APEN_M = 10


def run_suite(s, alpha: float = DEFAULT_ALPHA) -> SuiteResult:
    """Run the whole battery with (length-capped) default parameters."""
    bits = BitStream(s)  # one stream, so one unpacked view for every test
    n = len(bits)
    if n < 1024:
        raise InputTooShort("run_suite needs at least 1024 bits")
    log2n = math.floor(math.log2(n))
    serial_m = min(SUITE_SERIAL_M, log2n - 3)
    apen_m = min(SUITE_APEN_M, log2n - 6)
    reports: List[TestReport] = [
        monobit(bits, alpha),
        block_frequency(bits, SUITE_BLOCK_M, alpha),
        runs(bits, alpha),
        longest_run(bits, alpha),
    ]
    reports.extend(serial(bits, serial_m, alpha))
    reports.extend(cumulative_sums(bits, alpha))
    reports.append(approximate_entropy(bits, apen_m, alpha))
    return SuiteResult(tuple(reports), alpha)
