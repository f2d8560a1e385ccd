"""Reference statistics battery the `stats` command's report is checked by.

The tests and their parameters follow NIST SP 800-22 rev. 1a as the
package documents them (run_suite: block length 128, serial pattern
length min(16, log2 n - 3), approximate-entropy length min(10,
log2 n - 6), longest-run block length by sequence length). Nothing here
imports cubicorbit. Counts are exact integers, accumulated in chunks so a
1e7-bit check adds little to the benchmark's peak memory; P-values come
from scipy's special functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

CHUNK = 1 << 20
BLOCK_M = 128
LONGEST_RUN = {  # block length: ((lowest, highest) category, probabilities)
    8: ((1, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    128: ((4, 9), (0.1174035788, 0.242955959, 0.249363483,
                   0.17517706, 0.102701071, 0.112398847)),
    10000: ((10, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675,
                       0.0727)),
}


def _walk(bits: np.ndarray) -> dict:
    """Ones, run count and forward/backward cumulative-sum maxima."""
    n = int(bits.size)
    ones = changes = total = lo = hi = fwd = 0
    prev = None
    for start in range(0, n, CHUNK):
        part = bits[start:start + CHUNK]
        ones += int(np.count_nonzero(part))
        if prev is not None and part[0] != prev:
            changes += 1
        changes += int(np.count_nonzero(part[1:] != part[:-1]))
        prev = part[-1]
        sums = np.cumsum(2 * part.astype(np.int64) - 1) + total
        fwd = max(fwd, int(np.abs(sums).max()))
        # the backward walk's partial sums are S_n - S_j for j < n
        head = sums if start + part.size < n else sums[:-1]
        if head.size:
            lo = min(lo, int(head.min()))
            hi = max(hi, int(head.max()))
        total = int(sums[-1])
    return {"ones": ones, "runs": changes + 1, "forward": fwd,
            "backward": max(abs(total - lo), abs(total - hi))}


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n overlapping m-bit windows, wrapping at the end."""
    n = bits.size
    ext = np.concatenate([bits, bits[:m - 1]])
    counts = np.zeros(1 << m, dtype=np.int64)
    for start in range(0, n, CHUNK):
        stop = min(n, start + CHUNK)
        acc = np.zeros(stop - start, dtype=np.int64)
        for j in range(m):
            acc = (acc << 1) | ext[start + j:stop + j]
        counts += np.bincount(acc, minlength=1 << m)
    return counts


def _psi_sq(bits: np.ndarray, m: int) -> float:
    if m <= 0:
        return 0.0
    counts = _pattern_counts(bits, m).astype(np.float64)
    n = bits.size
    return float((1 << m) / n * np.sum(counts ** 2) - n)


def _phi(bits: np.ndarray, m: int) -> float:
    counts = _pattern_counts(bits, m)
    probs = counts[counts > 0].astype(np.float64) / bits.size
    return float(np.sum(probs * np.log(probs)))


def _longest_runs(bits: np.ndarray, m: int) -> np.ndarray:
    """Longest run of ones in each whole m-bit block."""
    n_blocks = bits.size // m
    longest = np.zeros(n_blocks, dtype=np.int64)
    for i in range(n_blocks):
        edges = np.diff(np.concatenate(([0], bits[i * m:(i + 1) * m], [0]))
                        .astype(np.int8))
        starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        if starts.size:
            longest[i] = int((ends - starts).max())
    return longest


def _cusum_p(n: int, z: int) -> float:
    sqrt_n = math.sqrt(n)
    term1 = sum(ndtr((4 * k + 1) * z / sqrt_n) - ndtr((4 * k - 1) * z / sqrt_n)
                for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1))
    term2 = sum(ndtr((4 * k + 3) * z / sqrt_n) - ndtr((4 * k + 1) * z / sqrt_n)
                for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1))
    return 1.0 - term1 + term2


def suite(bits: np.ndarray) -> list[tuple[str, float, float]]:
    """(test, statistic, P-value) for every report `stats` prints."""
    n = int(bits.size)
    log2n = math.floor(math.log2(n))
    walk = _walk(bits)
    out = []

    s_obs = abs(2 * walk["ones"] - n) / math.sqrt(n)
    out.append(("monobit", s_obs, erfc(s_obs / math.sqrt(2))))

    n_blocks = n // BLOCK_M
    ones = bits[:n_blocks * BLOCK_M].reshape(n_blocks, BLOCK_M).sum(
        axis=1, dtype=np.int64)
    chi2 = 4.0 * BLOCK_M * float(np.sum((ones / BLOCK_M - 0.5) ** 2))
    out.append(("block_frequency", chi2, gammaincc(n_blocks / 2, chi2 / 2)))

    pi = walk["ones"] / n
    v_n = walk["runs"]
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        p = 0.0
    else:
        p = erfc(abs(v_n - 2.0 * n * pi * (1 - pi))
                 / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    out.append(("runs", float(v_n), p))

    m = 10000 if n >= 750000 else 128 if n >= 6272 else 8
    (lo, hi), probs = LONGEST_RUN[m]
    longest = _longest_runs(bits, m)
    counts = np.bincount(np.clip(longest, lo, hi) - lo, minlength=hi - lo + 1)
    expected = np.asarray(probs) * longest.size
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    out.append(("longest_run", chi2, gammaincc((hi - lo) / 2, chi2 / 2)))

    m = min(16, log2n - 3)
    psi = [_psi_sq(bits, m - k) for k in range(3)]
    d1, d2 = psi[0] - psi[1], psi[0] - 2 * psi[1] + psi[2]
    out.append(("serial_1", d1, gammaincc(2 ** (m - 2), d1 / 2)))
    out.append(("serial_2", d2, gammaincc(2 ** (m - 3), d2 / 2)))

    for mode in ("forward", "backward"):
        z = walk[mode]
        out.append((f"cumulative_sums_{mode}", float(z), _cusum_p(n, z)))

    m = min(10, log2n - 6)
    chi2 = 2.0 * n * (math.log(2.0) - (_phi(bits, m) - _phi(bits, m + 1)))
    out.append(("approximate_entropy", chi2, gammaincc(2 ** (m - 1), chi2 / 2)))
    return [(name, float(stat), min(max(float(p), 0.0), 1.0))
            for name, stat, p in out]
