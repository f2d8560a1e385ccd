"""Desk-scale randomness tests with P-values.

Implements a small battery in the NIST SP 800-22 style: frequency
(monobit and per-block), runs, longest run of ones, serial,
cumulative sums, and approximate entropy. Each test takes a BitStream
or a one-dimensional 0/1 sequence (packed with BitStream.from_bits) and
returns the conventional statistic and P-value; a sequence passes a
test at significance alpha when its P-value is at least alpha. P-value
special functions come from scipy (erfc, the regularized upper
incomplete gamma, the normal CDF), imported by each test so that bits
are generated without scipy; their error is far below 1e-10. numpy is
imported the same way, by the functions that build or read arrays.

Inputs shorter than a test's documented minimum raise InputTooShort;
the suite is meant for sequences of 1e5 bits or more. Testing here is
single-level: each test judges one sequence against alpha. Second-level
procedures (proportions of passing sequences, uniformity of P-values
over many runs, SP 800-22 section 4.2) are not implemented yet. Every
function is pure, so callers may fan tests out over a shared sequence
freely.

Every kernel reads the stream packed: popcounts of its integer `value`
for monobit and runs, popcounts of its big-endian 64-bit words (from
`BitStream.packed`) and a prefix sum over them for block frequency and
cumulative sums, and one set of run tables over its big-endian 16-bit
chunks for longest run, built on first use, not at import. Cumulative
sums takes the walk's sums at the word ends from those popcounts, and
unpacks to one byte per bit only the last 1 to 64 bits and the few words
inside which the walk may pass the extremes of those sums. The pattern
tests (serial, approximate entropy) count the cyclic overlapping m-bit
windows two at a time: one histogram of the (m+1)-bit windows at the
even bit offsets of the 64-bit word read at each byte gives the m-bit
windows at both that offset and the next. The words and windows are
built and counted in fixed pieces that stay in cache, not in
whole-stream arrays. That histogram folds to the shorter pattern
lengths. Each public test builds the histogram of the sequence it is
given; run_suite builds one at the serial length and passes it to both
tests' private kernels.

A pattern statistic that is exactly 0 is reported as 0 with P-value 1:
serial's differences are decided on integers, approximate entropy's by
comparing each pattern's two one-bit extensions. In floats such a 0 can
round to a tiny negative, for which the incomplete gamma returns NaN.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from functools import cache, reduce
from typing import TYPE_CHECKING, Dict, List

from .bitstream import BitStream

if TYPE_CHECKING:
    import numpy as np

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
    if math.isnan(p_value):  # the clamp below would let it through as a fail
        raise ValueError(f"{name}: P-value is NaN for statistic {statistic}")
    p_value = float(min(max(p_value, 0.0), 1.0))
    return TestReport(name, float(statistic), p_value,
                      bool(p_value >= alpha), alpha, params)


def _stream(s, minimum: int, test: str) -> BitStream:
    s = s if isinstance(s, BitStream) else BitStream.from_bits(s)
    if len(s) < minimum:
        raise InputTooShort(f"{test} needs at least {minimum} bits, got {len(s)}")
    return s


def _cumsum(x: np.ndarray, n: int) -> np.ndarray:
    """Running sum of x, in int32 while the n-bit input bounds every sum."""
    import numpy as np
    return np.cumsum(x, dtype=np.int32 if n < 1 << 31 else np.int64)


@cache
def _run_tables16() -> tuple:
    """(LEAD16, TRAIL16, INNER16): the leading, trailing and longest run of
    ones in each 16-bit chunk, its bits read MSB first. Built on first use,
    read-only, from the same three runs of each byte.
    """
    import numpy as np
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    last_zero = np.maximum.accumulate(np.where(bits, -1, np.arange(8)), axis=1)
    lead = bits.cumprod(axis=1).sum(axis=1).astype(np.uint8)
    trail = bits[:, ::-1].cumprod(axis=1).sum(axis=1).astype(np.uint8)
    inner = (np.arange(8) - last_zero).max(axis=1).astype(np.uint8)
    # axis 0 (hi) is the chunk's high byte, axis 1 (lo) its low byte
    hi, lo = np.ogrid[:256, :256]
    tables = (np.where(hi == 0xFF, 8 + lead[lo], lead[hi]).ravel(),
              np.where(lo == 0xFF, 8 + trail[hi], trail[lo]).ravel(),
              np.maximum(np.maximum(inner[hi], inner[lo]),
                         trail[hi] + lead[lo]).ravel())
    for t in tables:
        t.flags.writeable = False
    return tables


def monobit(s, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Balance of ones and zeros over the whole sequence."""
    from scipy.special import erfc
    s = _stream(s, 100, "monobit")
    n = len(s)
    s_n = 2 * s.value.bit_count() - n
    statistic = abs(s_n) / math.sqrt(n)
    p = erfc(statistic / math.sqrt(2))
    return _report("monobit", statistic, p, alpha)


def block_frequency(s, m: int = 128, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Balance of ones within disjoint m-bit blocks."""
    import numpy as np
    from scipy.special import gammaincc
    s = _stream(s, 100, "block_frequency")
    if m < 2:
        raise ValueError("block length must be at least 2")
    n_blocks = len(s) // m
    if n_blocks < 1:
        raise InputTooShort(f"block_frequency needs at least one {m}-bit block")
    # the ones before bit k: those of the big-endian 64-bit words before
    # word k // 64, plus those of its top k % 64 bits; a zero word closes
    # the data for k = n
    packed = s.packed
    buf = np.zeros((packed.size + 15) // 8 * 8, dtype=np.uint8)
    buf[:packed.size] = packed
    words = buf.view(">u8").astype(np.uint64)
    ones = np.bitwise_count(words)
    through = _cumsum(ones, len(s))
    word, r = np.divmod(np.arange(n_blocks + 1, dtype=np.int64) * m, 64)
    top = r.astype(np.uint64)  # becomes the mask of the top r bits, in place
    np.invert(np.right_shift(np.uint64(2**64 - 1), top, out=top), out=top)
    top &= words[word]
    before = through[word] - ones[word] + np.bitwise_count(top)
    pi = np.diff(before) / m
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _report("block_frequency", chi2, p, alpha, m=m, blocks=n_blocks)


def runs(s, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Total count of maximal same-bit runs versus its expectation."""
    from scipy.special import erfc
    s = _stream(s, 100, "runs")
    n, v = len(s), s.value
    pi = v.bit_count() / n
    # bit k of v ^ (v >> 1) is set where bits k and k + 1 differ, and its
    # bit n - 1 is the stream's first bit, v >> (n - 1), which is no change
    v_n = 1 + (v ^ (v >> 1)).bit_count() - (v >> (n - 1))
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
    import numpy as np
    from scipy.special import gammaincc
    s = _stream(s, 128, "longest_run")
    n = len(s)
    m = 10000 if n >= 750000 else 128 if n >= 6272 else 8
    (lo, hi), pis = _LONGEST_RUN_TABLES[m]
    n_blocks, width = n // m, m // 8  # every block size is whole bytes
    blocks = s.packed[: n_blocks * width].reshape(n_blocks, width)
    # a block's longest run lies inside one chunk or across two neighbours;
    # one across three or more holds an all-ones chunk, whose inner run is
    # 16 >= hi, so the clip below makes this exact. At m = 8 a block is one
    # chunk 0x00b, whose runs are those of its byte b
    chunks = blocks if m == 8 else blocks.view(">u2")
    lead, trail, inner = _run_tables16()
    across = np.take(trail, chunks[:, :-1]) + np.take(lead, chunks[:, 1:])
    longest = np.maximum(np.take(inner, chunks).max(axis=1),
                         across.max(axis=1, initial=0))
    cats = np.clip(longest, lo, hi) - lo
    v = np.bincount(cats, minlength=hi - lo + 1).astype(np.float64)
    expected = np.asarray(pis) * n_blocks
    chi2 = float(np.sum((v - expected) ** 2 / expected))
    p = gammaincc((hi - lo) / 2.0, chi2 / 2.0)
    return _report("longest_run", chi2, p, alpha, m=m, blocks=n_blocks)


# byte positions per piece of _paired_windows: a piece's words and windows
# (128 KB arrays) stay in cache while they are counted; of 2^12 to 2^17,
# 2^14 measured fastest on 1e6 and 1e7 bits
_WINDOW_PIECE = 1 << 14


def _paired_windows(s: BitStream, m: int):
    """The (m+1)-bit windows inside the stream at each even bit offset p.

    Yields, piece by piece of _WINDOW_PIECE bytes, one array per offset
    p = 0, 2, 4, 6: the piece's windows at bits p, p + 8, p + 16, ... that
    end by bit n - 1, read from the big-endian 64-bit word at each byte
    (m <= 57). The next array overwrites it.
    """
    import numpy as np
    n = len(s)
    if n <= m:
        return
    buf = np.append(s.packed, np.zeros(7, dtype=np.uint8))
    starts = (n - m - 1) // 8 + 1  # bytes that start a window at offset 0
    words = np.empty(min(starts, _WINDOW_PIECE), dtype=np.uint64)
    win = np.empty_like(words)
    for first in range(0, starts, _WINDOW_PIECE):
        piece = words[:min(starts - first, _WINDOW_PIECE)]
        piece[:] = np.ndarray(piece.size, dtype=">u8", buffer=buf,
                              offset=first, strides=(1,))
        for offset in range(0, min(8, n - m), 2):
            # windows at this bit offset in the piece
            k = min(piece.size, (n - m - 1 - offset) // 8 + 1 - first)
            np.right_shift(piece[:k], 63 - m - offset, out=win[:k])
            win[:k] &= (2 << m) - 1
            yield win[:k]


def _window_counts(s: BitStream, m: int) -> np.ndarray:
    """Counts of the n cyclic m-bit windows: window i is bits i..i+m-1 mod n.

    The windows inside the stream are counted in pairs: the (m+1)-bit
    window at an even bit position holds the m-bit window there in its top
    m bits and the one after it in its low m bits, so one histogram of the
    (m+1)-bit windows at the 4 even offsets (_paired_windows) folds both
    ways into the m-bit counts. The histogram is added to in place, piece
    by piece (a bincount would build a whole histogram per piece). The
    last in-stream window, at n - m, has no (m+1)-bit window of its own
    when n - m is even, and is counted alone. The at most m - 1 windows
    that wrap are read from the integer.
    """
    import numpy as np
    n, mask = len(s), (1 << m) - 1
    wide = np.zeros(2 << m, dtype=np.int64)
    for win in _paired_windows(s, m):
        np.add.at(wide, win.view(np.int64), 1)
    counts = wide[0::2] + wide[1::2] + wide[:1 << m] + wide[1 << m:]
    if n >= m and (n - m) % 2 == 0:
        counts[s.value & mask] += 1
    # the wrapping windows start in the last t bits and run on into the
    # first m - 1 bits of the cycle, which repeats the stream if n < m - 1
    t = min(n, m - 1)
    cycle, size = s.value, n
    while size < m - 1:
        cycle, size = (cycle << n) | s.value, size + n
    ext = ((s.value & ((1 << t) - 1)) << (m - 1)) | (cycle >> (size - m + 1))
    for i in range(t):
        counts[(ext >> (t - 1 - i)) & mask] += 1
    return counts


def _fold(counts: np.ndarray, m: int) -> np.ndarray:
    """The m-bit histogram from a longer one.

    With wraparound the m-bit prefix of window i is window i, so summing
    the counts that share a prefix is exact.
    """
    return counts.reshape(1 << m, -1).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    import numpy as np
    return float(counts.size / n * np.sum(counts.astype(np.float64) ** 2) - n)


def _n_psi_sq(counts: np.ndarray, n: int) -> int:
    """n * psi^2 = 2^k * sum(c^2) - n^2 of a k-bit histogram, exactly."""
    import numpy as np
    c = counts.astype(np.uint64 if n < 1 << 32 else object)  # sum(c^2) <= n^2
    return counts.size * int(c @ c) - n * n


def serial(s, m: int = 16, alpha: float = DEFAULT_ALPHA) -> List[TestReport]:
    """Uniformity of overlapping m-bit patterns; two P-values per run.

    A difference that is exactly 0 (decided on the integers n * psi^2) is
    reported as statistic 0 and P-value 1: in floats it can round to a tiny
    negative, for which gammaincc returns NaN.
    """
    s = _stream(s, 16, "serial")
    if m < 2:
        raise ValueError("pattern length must be at least 2")
    n = len(s)
    if n < 1 << (m + 2):
        raise InputTooShort(f"serial with m={m} needs at least {1 << (m + 2)} bits")
    return _serial(_window_counts(s, m), n, m, alpha)


def _serial(counts: np.ndarray, n: int, m: int, alpha: float) -> List[TestReport]:
    """serial from the n-bit stream's cyclic window histogram at m bits or more."""
    from scipy.special import gammaincc
    folds = [_fold(counts, k) for k in (m, m - 1, m - 2)]
    psi_m, psi_m1, psi_m2 = (_psi_sq(c, n) if c.size > 1 else 0.0 for c in folds)
    x_m, x_m1, x_m2 = (_n_psi_sq(c, n) for c in folds)
    d1 = psi_m - psi_m1 if x_m != x_m1 else 0.0
    d2 = psi_m - 2.0 * psi_m1 + psi_m2 if x_m - 2 * x_m1 + x_m2 else 0.0
    p1 = gammaincc(2 ** (m - 2), d1 / 2.0)
    p2 = gammaincc(2 ** (m - 3), d2 / 2.0)
    return [_report("serial_1", d1, p1, alpha, m=m),
            _report("serial_2", d2, p2, alpha, m=m)]


def _walk_extremes(s: BitStream) -> tuple:
    """(min, max, S_n) of the +1/-1 walk's partial sums S_0 = 0, ..., S_n.

    The whole big-endian 64-bit words before bit n - 1 give the sums at
    their ends from their popcounts. Inside a word with k ones that ends at
    sum e, the walk stays within [e - k, e + 64 - k]: all its zeros first,
    or all its ones. So besides the 1 to 64 bits left, only the words whose
    bound passes the extremes of the word ends and of those bits are walked
    bit by bit.
    """
    import numpy as np

    def walk(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
        # the sums after each bit of each row of packed bytes, from its start
        steps = 2 * np.unpackbits(rows, axis=1).astype(np.int64) - 1
        steps[:, 0] += start
        return np.cumsum(steps, axis=1)

    n = len(s)
    whole = (n - 1) // 64
    head = s.packed[:8 * whole]
    ones = np.bitwise_count(head.view(np.uint64))  # byte order keeps popcounts
    steps = 2 * ones.astype(np.int16) - 64
    ends = _cumsum(steps, n)
    tail = walk(s.packed[None, 8 * whole:], ends[-1] if whole else 0)[
        0, :n - 64 * whole]
    lo = min(int(ends.min(initial=0)), int(tail.min()))
    hi = max(int(ends.max(initial=0)), int(tail.max()))
    near = np.flatnonzero((ends + (64 - ones) > hi) | (ends - ones < lo))
    if near.size:
        inside = walk(head.reshape(whole, 8)[near], ends[near] - steps[near])
        lo, hi = min(lo, int(inside.min())), max(hi, int(inside.max()))
    return lo, hi, int(tail[-1])


def cumulative_sums(s, alpha: float = DEFAULT_ALPHA) -> List[TestReport]:
    """Maximum excursion of the +1/-1 partial sums, forward and backward."""
    import numpy as np
    from scipy.special import ndtr
    s = _stream(s, 100, "cumulative_sums")
    n = len(s)
    # the backward walk's partial sums are S_n - S_j for 0 <= j < n, S_0 = 0,
    # so both walks need only the extremes of S_0..S_n (S_n changes neither)
    lo, hi, total = _walk_extremes(s)
    excursions = (("forward", max(-lo, hi, abs(total))),
                  ("backward", max(abs(total - lo), abs(total - hi))))
    sqrt_n = math.sqrt(n)

    def term(z: int, first: int, a: int, b: int) -> float:
        # the sum over first <= k <= (n // z - 1) // 4 of
        # ndtr((4k + a) z / sqrt n) - ndtr((4k + b) z / sqrt n), added in
        # order of k as a loop would add it
        k = np.arange(first, (n // z - 1) // 4 + 1)
        diff = ndtr((4 * k + a) * z / sqrt_n) - ndtr((4 * k + b) * z / sqrt_n)
        return reduce(operator.add, diff.tolist(), 0)

    reports = []
    for mode, z in excursions:
        p = (1.0 - term(z, (-n // z + 1) // 4, 1, -1)
             + term(z, (-n // z - 3) // 4, 3, 1))
        reports.append(_report(f"cumulative_sums_{mode}", float(z), p, alpha))
    return reports


def approximate_entropy(s, m: int = 10, alpha: float = DEFAULT_ALPHA) -> TestReport:
    """Entropy gap between m- and (m+1)-bit overlapping pattern statistics.

    chi2 = 2 * sum_p c_p * (ln 2 - H(c_p0 / c_p)) over the m-bit patterns p,
    with H the binary entropy, so it is exactly 0 when each p's two (m+1)-bit
    extensions are equally frequent; that case is reported as statistic 0
    and P-value 1, where floats can round it to a tiny negative.
    """
    s = _stream(s, 16, "approximate_entropy")
    if m < 1:
        raise ValueError("pattern length must be at least 1")
    n = len(s)
    if n < 1 << (m + 2):
        raise InputTooShort(
            f"approximate_entropy with m={m} needs at least {1 << (m + 2)} bits")
    return _approximate_entropy(_window_counts(s, m + 1), n, m, alpha)


def _approximate_entropy(counts: np.ndarray, n: int, m: int,
                         alpha: float) -> TestReport:
    """approximate_entropy from the cyclic window histogram at m + 1 bits or more."""
    import numpy as np
    from scipy.special import gammaincc

    def phi(hist: np.ndarray) -> float:
        probs = hist[hist > 0].astype(np.float64) / n
        return float(np.sum(probs * np.log(probs)))

    wide = _fold(counts, m + 1)
    if np.array_equal(wide[0::2], wide[1::2]):
        chi2 = 0.0
    else:
        chi2 = 2.0 * n * (math.log(2.0) - (phi(_fold(counts, m)) - phi(wide)))
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
    # one stream, so one packed view for every test
    bits = s if isinstance(s, BitStream) else BitStream.from_bits(s)
    n = len(bits)
    if n < 1024:
        raise InputTooShort("run_suite needs at least 1024 bits")
    log2n = math.floor(math.log2(n))
    serial_m = min(SUITE_SERIAL_M, log2n - 3)
    apen_m = min(SUITE_APEN_M, log2n - 6)
    # one histogram for both pattern tests: apen_m + 1 <= serial_m here
    counts = _window_counts(bits, serial_m)
    reports: List[TestReport] = [
        monobit(bits, alpha),
        block_frequency(bits, SUITE_BLOCK_M, alpha),
        runs(bits, alpha),
        longest_run(bits, alpha),
    ]
    reports.extend(_serial(counts, n, serial_m, alpha))
    reports.extend(cumulative_sums(bits, alpha))
    reports.append(_approximate_entropy(counts, n, apen_m, alpha))
    return SuiteResult(tuple(reports), alpha)
