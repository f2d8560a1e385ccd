import inspect
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.special import erfc, gammaincc, ndtr

from cubicorbit import (MT19937, BitStream, InputTooShort,
                        approximate_entropy, block_frequency,
                        cumulative_sums, longest_run, monobit, run_suite,
                        runs, serial)
from cubicorbit import stats
from cubicorbit.stats import (_LONGEST_RUN_TABLES, _fold, _n_psi_sq,
                              _report, _window_counts)
from conftest import chunk_walk_extremes, de_bruijn, whole_array_window_counts

# first 100 bits of the binary expansion of pi, a standard worked example
PI_100 = ("11001001000011111101101010100010001000010110100011"
          "00001000110100110001001100011001100010100010111000")

# 128-bit worked example for the longest-run test
E_128 = ("11001100000101010110110001001100111000000000001001"
         "00110101010001000100111101011010000000110101111100"
         "1100111001101101100010110010")


class TestWorkedExamples:
    """P-values pinned to the published worked examples for each test."""

    def test_monobit(self):
        assert monobit(BitStream.from01(PI_100)).p_value == pytest.approx(
            0.109599, abs=1e-6)

    def test_block_frequency(self):
        rep = block_frequency(BitStream.from01(PI_100), 10)
        assert rep.p_value == pytest.approx(0.706438, abs=1e-6)

    def test_runs(self):
        assert runs(BitStream.from01(PI_100)).p_value == pytest.approx(
            0.500798, abs=1e-6)

    def test_longest_run(self):
        rep = longest_run(BitStream.from01(E_128))
        assert rep.statistic == pytest.approx(4.882457, abs=1e-6)
        assert rep.p_value == pytest.approx(0.180609, abs=1e-6)

    def test_cumulative_sums(self):
        fwd, bwd = cumulative_sums(BitStream.from01(PI_100))
        assert fwd.statistic == 16.0
        assert fwd.p_value == pytest.approx(0.219194, abs=1e-6)
        assert bwd.p_value == pytest.approx(0.114866, abs=1e-6)

    def test_approximate_entropy(self):
        rep = approximate_entropy(BitStream.from01(PI_100), 2)
        assert rep.p_value == pytest.approx(0.235301, abs=1e-6)


# the standard's P-values on the first 1,000,000 binary digits of e, to the
# six digits it prints
E_1E6_P_VALUES = {
    "monobit": 0.953749, "block_frequency": 0.211072, "runs": 0.561917,
    "longest_run": 0.718945, "serial_1": 0.843764, "serial_2": 0.561915,
    "approximate_entropy": 0.700073, "cumulative_sums_forward": 0.669886,
    "cumulative_sums_backward": 0.724265,
}


class TestWorkedExamplesOnE:
    """NIST SP 800-22's worked examples on e: an anchor outside this repo."""

    def test_digits_start_with_the_integer_part(self, e_bits):
        assert len(e_bits) == 1_000_000
        assert e_bits[:16].to01() == "1010110111111000"

    def test_p_values(self, e_bits):
        reports = [monobit(e_bits), block_frequency(e_bits, 128), runs(e_bits),
                   longest_run(e_bits), *serial(e_bits, 2),
                   approximate_entropy(e_bits, 10), *cumulative_sums(e_bits)]
        got = {r.name: r.p_value for r in reports}
        assert got == pytest.approx(E_1E6_P_VALUES, abs=1e-6)


def brute_psi_sq(bits: list, m: int) -> float:
    if m <= 0:
        return 0.0
    n = len(bits)
    ext = bits + bits[: m - 1]
    counts = Counter(tuple(ext[i: i + m]) for i in range(n))
    return (2**m / n) * sum(v * v for v in counts.values()) - n


class TestSerial:
    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        bits = BitStream.from_bits(rng.integers(0, 2, size=2048, dtype=np.uint8))
        raw = [int(b) for b in bits.to01()]
        for m in (2, 3, 5):
            p1, p2 = serial(bits, m)
            d1 = brute_psi_sq(raw, m) - brute_psi_sq(raw, m - 1)
            d2 = (brute_psi_sq(raw, m) - 2 * brute_psi_sq(raw, m - 1)
                  + brute_psi_sq(raw, m - 2))
            assert p1.statistic == pytest.approx(d1, abs=1e-9)
            assert p2.statistic == pytest.approx(d2, abs=1e-9)
            assert p1.p_value == pytest.approx(
                float(gammaincc(2 ** (m - 2), d1 / 2)), abs=1e-12)
            assert p2.p_value == pytest.approx(
                float(gammaincc(2 ** (m - 3), d2 / 2)), abs=1e-12)

    def test_length_guard(self):
        with pytest.raises(InputTooShort):
            serial(BitStream.from01("01" * 16), 4)

    @staticmethod
    def _last_draw(seed, lengths, dtype):
        rng = np.random.default_rng(seed)
        for n in lengths(rng):
            bits = rng.integers(0, 2, n, dtype=dtype)
        return bits

    @pytest.mark.parametrize("seed, lengths, dtype, n", [
        (0, lambda rng: (rng.integers(100, 300) for _ in range(66)), np.int64, 148),
        (1, lambda rng: range(1024, 1069), np.uint8, 1068)], ids=["148", "1068"])
    def test_second_difference_exactly_zero(self, seed, lengths, dtype, n):
        # the 2-bit window counts make n * (psi2_2 - 2 psi2_1 + psi2_0) == 0
        # in integers; in floats it rounds to a tiny negative, which gave a
        # NaN P-value and a fail
        bits = self._last_draw(seed, lengths, dtype).tolist()
        assert len(bits) == n
        ext = bits + bits[:1]
        pairs = Counter(tuple(ext[i:i + 2]) for i in range(n))
        ones = sum(bits)
        n_psi2 = 4 * sum(v * v for v in pairs.values()) - n * n
        n_psi1 = 2 * (ones ** 2 + (n - ones) ** 2) - n * n
        assert n_psi2 - 2 * n_psi1 == 0 and n_psi2 != n_psi1
        first, second = serial(BitStream.from_bits(bits), 2)
        assert (second.statistic, second.p_value, second.passed) == (0.0, 1.0, True)
        assert first.statistic == pytest.approx((n_psi2 - n_psi1) / n, abs=1e-9)
        assert first.p_value == pytest.approx(
            float(gammaincc(1, first.statistic / 2)), abs=1e-12)

    @pytest.mark.parametrize("n", [5, (1 << 32) - 1, 1 << 32, 3 << 40])
    def test_exact_psi_past_64_bit_sums(self, n):
        # sum(c^2) reaches about n^2, past 2^64 for n >= 2^32: no uint64 wrap
        counts = np.array([n - 2, 1, 0, 1], dtype=np.int64)
        assert _n_psi_sq(counts, n) == 4 * ((n - 2) ** 2 + 2) - n * n

    def test_nan_p_value_is_an_error(self):
        with pytest.raises(ValueError, match="serial_2: P-value is NaN"):
            _report("serial_2", -2.8e-14, float("nan"), 0.01, m=2)


class TestApproximateEntropy:
    def test_against_brute_force(self):
        rng = np.random.default_rng(12)
        bits = BitStream.from_bits(rng.integers(0, 2, size=2048, dtype=np.uint8))
        raw = [int(b) for b in bits.to01()]
        n = len(raw)

        def brute_phi(m):
            ext = raw + raw[: m - 1]
            counts = Counter(tuple(ext[i: i + m]) for i in range(n))
            return sum((v / n) * math.log(v / n) for v in counts.values())

        for m in (2, 4):
            rep = approximate_entropy(bits, m)
            apen = brute_phi(m) - brute_phi(m + 1)
            chi2 = 2 * n * (math.log(2) - apen)
            assert rep.statistic == pytest.approx(chi2, abs=1e-8)

    def test_constant_input_fails(self):
        ones = BitStream.from_bits(np.ones(4096, dtype=np.uint8))
        rep = approximate_entropy(ones, 3)
        assert rep.p_value < 1e-10

    def test_equally_frequent_extensions_give_exactly_zero(self):
        # every cyclic 4-bit window of a repeated order-4 de Bruijn sequence
        # is equally frequent, so each 3-bit pattern's two extensions are
        # too: chi2 is exactly 0, which floats rounded to a tiny negative
        # and a NaN P-value (the order-11 case runs through the CLI)
        s = BitStream.from01(de_bruijn(4) * 250)
        assert len(set(_window_counts(s, 4).tolist())) == 1
        rep = approximate_entropy(s, 3)
        assert (rep.statistic, rep.p_value, rep.passed) == (0.0, 1.0, True)

    def test_one_unequal_pair_keeps_the_float_statistic(self):
        # flipping one bit breaks the balance: chi2 is small but positive
        bits = list(de_bruijn(4) * 250)
        bits[0] = "1"
        rep = approximate_entropy(BitStream.from01("".join(bits)), 3)
        assert 0.0 < rep.statistic < 1.0 and rep.passed


def brute_windows(bits: list, m: int) -> list:
    """The n cyclic m-bit windows, one window at a time."""
    n = len(bits)
    windows = []
    for i in range(n):
        v = 0
        for j in range(m):
            v = 2 * v + bits[(i + j) % n]
        windows.append(v)
    return windows


def brute_pattern_counts(bits: list, m: int) -> list:
    """Histogram of the n cyclic m-bit windows."""
    counts = [0] * (1 << m)
    for v in brute_windows(bits, m):
        counts[v] += 1
    return counts


class TestPatternCounts:
    def test_against_window_loop(self):
        # n < m wraps the window round the stream more than once
        rng = np.random.default_rng(16)
        for m in range(1, 13):
            for n in (1, m - 1, m, m + 1, 2 * m - 1, 2 * m + 3, 97, 300):
                if n < 1:
                    continue
                bits = rng.integers(0, 2, size=n, dtype=np.uint8)
                got = _window_counts(BitStream.from_bits(bits), m)
                assert got.tolist() == brute_pattern_counts(bits.tolist(), m), \
                    (m, n)

    def test_long_windows_at_every_offset(self):
        # windows up to 20 bits, at every start position mod 8
        rng = np.random.default_rng(19)
        for m in (13, 17, 20):
            for n in (5, 19, 21, 64, 203, 1000, 1007):
                bits = rng.integers(0, 2, size=n, dtype=np.uint8)
                got = _window_counts(BitStream.from_bits(bits), m)
                want = Counter()
                for i in range(n):
                    want[int("".join(str(bits[(i + j) % n])
                                     for j in range(m)), 2)] += 1
                assert {int(k): int(got[k]) for k in np.flatnonzero(got)} == \
                    dict(want), (m, n)

    def test_every_offset_near_the_end(self):
        # n - m = 0..17: fewer than 8 offsets hold an in-stream window, and
        # when n - m is even, the last window, at n - m, has no odd window
        # after it to pair with, so it is counted alone
        rng = np.random.default_rng(20)
        for m in range(1, 21):
            for n in range(m, m + 18):
                bits = rng.integers(0, 2, size=n, dtype=np.uint8)
                got = _window_counts(BitStream.from_bits(bits), m)
                want = Counter(brute_windows(bits.tolist(), m))
                assert got.size == 1 << m
                assert {int(k): int(got[k]) for k in np.flatnonzero(got)} == \
                    dict(want), (m, n)

    def test_paired_windows_fill_the_word_at_m_57(self):
        # the 58-bit window at offset 6 ends on the word's last bit; the
        # histogram of 2^57 bins is never built, so the reader is checked
        m = 57
        rng = np.random.default_rng(57)
        for n in [*range(m, m + 18), 200, 1001]:
            bits = rng.integers(0, 2, size=n, dtype=np.uint8)
            raw = "".join(map(str, bits.tolist()))
            got = [w.tolist() for w in
                   stats._paired_windows(BitStream.from_bits(bits), m)]
            want = [[int(raw[i:i + m + 1], 2) for i in range(p, n - m, 8)]
                    for p in range(0, min(8, n - m), 2)]
            assert got == want, n

    def test_fold_equals_direct_histogram(self):
        rng = np.random.default_rng(17)
        for n in (5, 64, 1000, 4099):
            s = BitStream.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))
            for m in range(2, 18):
                counts = _window_counts(s, m)
                for k in (m - 1, m // 2, 1):
                    assert np.array_equal(_fold(counts, k),
                                          _window_counts(s, k)), (n, m, k)


def brute_longest_run_categories(bits: list, m: int) -> list:
    (lo, hi), _ = _LONGEST_RUN_TABLES[m]
    v = [0] * (hi - lo + 1)
    for start in range(0, len(bits) - m + 1, m):
        longest = run = 0
        for bit in bits[start:start + m]:
            run = run + 1 if bit else 0
            longest = max(longest, run)
        v[min(max(longest, lo), hi) - lo] += 1
    return v


def brute_excursions(bits: list) -> tuple:
    def walk(seq):
        total = peak = 0
        for bit in seq:
            total += 1 if bit else -1
            peak = max(peak, abs(total))
        return peak
    return walk(bits), walk(bits[::-1])


def brute_block_frequency(bits: list, m: int) -> float:
    blocks = [bits[i:i + m] for i in range(0, len(bits) - m + 1, m)]
    return 4.0 * m * sum((sum(b) / m - 0.5) ** 2 for b in blocks)


def ending(n: int, tail: str) -> np.ndarray:
    """n bits: alternating 1, 0 (every partial sum is 0 or 1), then tail."""
    body = ("10" * n)[: n - len(tail)] + tail
    return np.frombuffer(body.encode(), np.uint8) - ord("0")


def kernel_inputs():
    """Random bits with all-ones and all-zeros blocks, at each longest-run
    block size, with lengths that are not a multiple of the block; runs of
    ones across byte and block edges, and walks whose extreme partial sum
    lies in the last byte or at S_n, at every length mod 16."""
    rng = np.random.default_rng(18)
    for n, m in ((1000 + 5, 8), (7000 + 77, 128), (760_000 + 123, 10_000)):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        bits[:m] = 1
        bits[2 * m:3 * m] = 0
        bits[-(n % m) - m:] = 1  # last whole block and the tail
        yield bits
    yield np.ones(1000, dtype=np.uint8)
    yield np.zeros(1000, dtype=np.uint8)
    yield rng.integers(0, 2, size=777, dtype=np.uint8)
    for n in range(1000, 1016):  # every n - 1 mod 16: the walk's 16-bit chunks
        for size, m in ((n, 8), (8 * n, 128)):
            bits = rng.integers(0, 2, size=size, dtype=np.uint8)
            bits[m - 5:m + 3] = 1  # ends one block, starts the next
            bits[2 * m + 3:2 * m + m // 2] = 1  # inside a block, across bytes
            bits[4 * m:5 * m] = 1  # a whole block of ones
            bits[6 * m - 1:] = 1  # from one bit before a block to the end
            yield bits
        # the peak at S_(n-1), in the last byte, whole or not; the peak and
        # the trough at S_n
        for tail in ("110", "1110", "111", "000", "0001111111111"):
            yield ending(n, tail)


def assert_longest_run_matches_loop(bits: np.ndarray) -> None:
    rep = longest_run(BitStream.from_bits(bits))
    m = rep.parameters["m"]
    _, pis = _LONGEST_RUN_TABLES[m]
    v = brute_longest_run_categories(bits.tolist(), m)
    n_blocks = bits.size // m
    chi2 = sum((vi - n_blocks * p) ** 2 / (n_blocks * p)
               for vi, p in zip(v, pis))
    assert rep.parameters["blocks"] == n_blocks
    assert rep.statistic == pytest.approx(chi2, rel=1e-12)


def brute_chunk_tables() -> dict:
    """Run and walk quantities of every 16-bit chunk, MSB first, by a loop
    over its bits."""
    bits = (np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1
    run = inner = walk = np.zeros(1 << 16, dtype=np.int64)
    peak, trough = walk - 16, walk + 16
    for column in bits.T:
        run = (run + 1) * column
        inner = np.maximum(inner, run)
        walk = walk + 2 * column - 1
        peak, trough = np.maximum(peak, walk), np.minimum(trough, walk)
    lead = np.where(bits.all(axis=1), 16, bits.argmin(axis=1))
    return {"lead": lead, "trail": run, "inner": inner,
            "net": walk, "rise": peak - walk, "fall": walk - trough}


class TestChunkTables:
    def test_against_bit_loops(self):
        want = brute_chunk_tables()
        tables = stats._run_tables16() + stats._walk_tables16()
        for name, table in zip(want, tables):
            assert table.shape == (1 << 16,), name
            assert not table.flags.writeable, name
            assert np.array_equal(table, want[name]), name
        assert sum(t.nbytes for t in tables) < 512 * 1024

    def test_built_on_first_use_not_at_import(self):
        code = ("import cubicorbit.cli, cubicorbit.stats as s; "
                "print(s._run_tables16.cache_info().currsize, "
                "s._walk_tables16.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "0"]

    def test_byte_tables_built_on_first_use_not_at_import(self):
        # neither the byte tables nor numpy are loaded until a test runs
        code = ("import sys, cubicorbit.cli, cubicorbit.stats as s\n"
                "print(s._byte_tables.cache_info().currsize, "
                "'numpy' in sys.modules)\n"
                "s.longest_run(s.BitStream((1 << 1000) // 3, 1000))\n"
                "print(s._byte_tables.cache_info().currsize, "
                "'numpy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "False", "1", "True"]


class TestKernelsAgainstLoops:
    def test_longest_run(self):
        for bits in kernel_inputs():
            assert_longest_run_matches_loop(bits)

    @pytest.mark.parametrize("n", [6271, 6272, 749_999, 750_000])
    def test_longest_run_at_block_size_edges(self, n):
        # m = 8, 128, 128 and 10000; a third each of ones with p = 0.5 and
        # 0.6 fills the categories with runs across chunk edges, and one
        # with p = 0.97 has runs over many chunks
        rng = np.random.default_rng(n)
        p = np.array([0.5, 0.6, 0.97])[np.arange(n) * 3 // n]
        assert_longest_run_matches_loop((rng.random(n) < p).astype(np.uint8))

    @pytest.mark.parametrize("n", range(1000, 1008))
    def test_monobit_runs_and_block_frequency(self, n):
        bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
        bits[3:30] = 1  # a run of ones across three byte edges
        raw = bits.tolist()
        s = BitStream.from_bits(bits)
        assert monobit(s).statistic == abs(2 * sum(raw) - n) / math.sqrt(n)
        assert runs(s).statistic == 1 + sum(a != b for a, b in zip(raw, raw[1:]))
        for m in (10, 128, 7, 999, n):
            rep = block_frequency(s, m)
            assert rep.parameters["blocks"] == n // m
            assert rep.statistic == pytest.approx(brute_block_frequency(raw, m),
                                                  rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 7, 8, 63, 64, 65, 127, 128, 129])
    def test_block_frequency_at_every_length_mod_64(self, m):
        # n = 1000..1063 takes every n mod 64; at n = 1024 the last block
        # of m = 2, 8, 64 and 128 ends at bit n, in the zero pad word
        rng = np.random.default_rng(m)
        for n in range(1000, 1064):
            bits = rng.integers(0, 2, size=n, dtype=np.uint8)
            rep = block_frequency(BitStream.from_bits(bits), m)
            assert rep.parameters["blocks"] == n // m
            assert rep.statistic == pytest.approx(
                brute_block_frequency(bits.tolist(), m), rel=1e-12, abs=1e-12)

    def test_top_bits_table(self):
        want = [sum(1 << (63 - i) for i in range(r)) for r in range(64)]
        top_bits64 = stats._byte_tables().top_bits64
        assert top_bits64.dtype == np.uint64
        assert top_bits64.tolist() == want

    def test_cumulative_sums(self):
        for bits in kernel_inputs():
            fwd, bwd = cumulative_sums(BitStream.from_bits(bits))
            assert (fwd.statistic, bwd.statistic) == brute_excursions(
                bits.tolist())


def walk_sums(bits: np.ndarray) -> tuple:
    """(min, max, S_n) of the partial sums S_0 = 0, S_1, ..., S_n."""
    sums = np.cumsum(2 * bits.astype(np.int64) - 1)
    return min(0, int(sums.min())), max(0, int(sums.max())), int(sums[-1])


def walk_inputs():
    """Random, constant and alternating streams at n < 64, n = 1000..1063
    (every length mod 64) and multiples of 64; then alternating streams
    with one climb and descent whose extreme lies inside a 64-bit word, on
    a word's last bit, inside the 1 to 64 tail bits and at S_n; and one
    whose extreme is exactly the bound e + 64 - k (or e - k) of a word with
    k ones that ends at e, one step past the extremes of the word ends."""
    rng = np.random.default_rng(64)
    for n in (*range(1, 64), *range(1000, 1064), *range(64, 1025, 64)):
        yield rng.integers(0, 2, size=n, dtype=np.uint8)
        for bit in (0, 1):
            yield np.full(n, bit, dtype=np.uint8)
            yield ((np.arange(n) + bit) % 2).astype(np.uint8)
    for n in range(1000, 1064):
        tail = 64 * ((n - 1) // 64)  # where the bits after the whole words start
        for bit in (0, 1):
            for start, climb in ((3 * 64 + 8, 16), (5 * 64 + 40, 24),
                                 (tail, (n - tail) // 2), (tail, n - tail)):
                bits = ((np.arange(n) + 1) % 2).astype(np.uint8)
                bits[start:start + climb] = bit
                bits[start + climb:start + 2 * climb] = 1 - bit
                yield bits
            bits = ((np.arange(n) + 1) % 2).astype(np.uint8)
            bits[2 * 64:3 * 64 + 1] = bit  # word 2, then word 3's first bit
            bits[3 * 64 + 1:4 * 64] = 1 - bit
            yield bits


def piece_lengths(m: int) -> list:
    """Stream lengths over several window pieces for m-bit windows: about
    2.3e6 bits; two whole pieces and one byte more, whose last piece holds
    no window at offsets 2, 4 and 6 (r = 0) or one at each offset (r = 7);
    exactly two pieces."""
    piece = 8 * stats._WINDOW_PIECE  # bits of window starts per piece
    return [2_300_000 + m, *(m + 1 + 2 * piece + r for r in (0, 7)),
            m + 1 + 2 * piece - 8]


class TestWordWalkAndWindowPieces:
    def test_walk_extremes_against_chunk_tables(self):
        for bits in walk_inputs():
            s = BitStream.from_bits(bits)
            got = stats._walk_extremes(s)
            assert got == walk_sums(bits), bits.size
            if bits.size >= 17:  # the chunk reference needs a whole chunk
                assert got[:2] == chunk_walk_extremes(s), bits.size

    def test_walk_extremes_over_many_words(self):
        # random walks read few words through the tables; a drift and a
        # long alternating stretch read many
        rng = np.random.default_rng(7)
        for n in piece_lengths(16):
            p = np.array([0.5, 0.52, 0.5, 0.48])[np.arange(n) * 4 // n]
            for bits in ((rng.random(n) < p).astype(np.uint8),
                         (np.arange(n) % 2).astype(np.uint8)):
                s = BitStream.from_bits(bits)
                got = stats._walk_extremes(s)
                assert got == walk_sums(bits), n
                assert got[:2] == chunk_walk_extremes(s), n

    @pytest.mark.parametrize("m", [2, 3, 11, 16, 17])
    def test_window_counts_across_pieces(self, m):
        # the windows at a piece's last bytes read on into the next piece's
        rng = np.random.default_rng(m)
        for n in piece_lengths(m):
            s = BitStream.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))
            assert np.array_equal(_window_counts(s, m),
                                  whole_array_window_counts(s, m)), n

    def test_window_counts_at_short_lengths(self):
        rng = np.random.default_rng(1063)
        for n in (*range(1, 64), *range(1000, 1064), *range(64, 1025, 64)):
            s = BitStream.from_bits(rng.integers(0, 2, size=n, dtype=np.uint8))
            for m in (1, 3, 10, 16):
                assert np.array_equal(_window_counts(s, m),
                                      whole_array_window_counts(s, m)), (n, m)

    @pytest.mark.parametrize("n", [100, 1000, 1001, 1024])
    @pytest.mark.parametrize("head", ["00", "01", "10", "11"])
    def test_runs_with_the_first_bit_0_and_1(self, n, head):
        # the first bit is the top bit of the stream's value
        bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
        bits[:2] = [int(c) for c in head]
        raw = bits.tolist()
        assert runs(BitStream.from_bits(bits)).statistic == \
            1 + sum(a != b for a, b in zip(raw, raw[1:]))


class TestRunSuite:
    @pytest.mark.parametrize("n", [1024, 1500, 2047, 4096, 8191, 10_000, 1 << 14,
                                   40_000, 1 << 16, 100_003, 1 << 18, 1 << 20])
    def test_shared_histogram_equals_standalone_tests(self, n):
        # serial_m runs from 7 to 16 and apen_m from 4 to 10 over these n
        s = BitStream.from_bits(np.random.default_rng(n).integers(
            0, 2, size=n, dtype=np.uint8))
        reports = {r.name: r for r in run_suite(s).reports}
        serial_m = reports["serial_1"].parameters["m"]
        apen_m = reports["approximate_entropy"].parameters["m"]
        log2n = math.floor(math.log2(n))
        assert (serial_m, apen_m) == (min(16, log2n - 3), min(10, log2n - 6))
        assert [reports["serial_1"], reports["serial_2"]] == serial(s, serial_m)
        assert reports["approximate_entropy"] == approximate_entropy(s, apen_m)

    def test_builds_one_window_histogram(self, monkeypatch):
        s = BitStream.from_words(MT19937().generate(8192))
        calls = []
        window_counts = stats._window_counts
        monkeypatch.setattr(stats, "_window_counts", lambda s, m:
                            calls.append(m) or window_counts(s, m))
        run_suite(s)
        assert calls == [15]  # serial's m at 2^18 bits, shared by both

    def test_pattern_tests_take_only_their_sequence(self):
        for test in (serial, approximate_entropy):
            assert list(inspect.signature(test).parameters) == ["s", "m", "alpha"]
        for name, fn in inspect.getmembers(stats, inspect.isfunction):
            if fn.__module__ == stats.__name__ and not name.startswith("_"):
                assert not {"counts", "hist"} & set(
                    inspect.signature(fn).parameters), name

    def test_packs_once_and_never_unpacks(self, monkeypatch):
        s = BitStream.from_words(MT19937().generate(8192))
        calls = []
        to_bytes = BitStream.to_bytes
        monkeypatch.setattr(BitStream, "to_bytes",
                            lambda self: calls.append(1) or to_bytes(self))
        run_suite(s)
        assert len(calls) == 1
        assert "bits" not in vars(s)


class TestDegenerateInputs:
    def test_all_zeros_monobit(self):
        rep = monobit(BitStream.from_bits(np.zeros(100, dtype=np.uint8)))
        assert rep.p_value < 1e-20
        assert not rep.passed

    def test_alternating_monobit_is_perfectly_balanced(self):
        rep = monobit(BitStream.from01("01" * 50))
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.passed

    def test_alternating_runs_fails(self):
        rep = runs(BitStream.from01("01" * 50))
        assert rep.statistic == 100.0  # a run boundary at every position
        assert not rep.passed

    def test_all_ones_fails_frequency_family(self):
        ones = BitStream.from_bits(np.ones(100_000, dtype=np.uint8))
        assert not monobit(ones).passed
        assert not block_frequency(ones, 128).passed
        for rep in cumulative_sums(ones):
            assert not rep.passed

    def test_runs_prerequisite_shortcut(self):
        rep = runs(BitStream.from_bits(np.ones(100, dtype=np.uint8)))
        assert rep.p_value == 0.0


class TestReportContract:
    def test_symmetry_of_monobit(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=5000, dtype=np.uint8)
        a = monobit(BitStream.from_bits(bits))
        b = monobit(BitStream.from_bits(1 - bits))
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_determinism(self):
        rng = np.random.default_rng(14)
        bits = BitStream.from_bits(rng.integers(0, 2, size=40_000, dtype=np.uint8))
        first = run_suite(bits)
        second = run_suite(bits)
        for x, y in zip(first.reports, second.reports):
            assert x == y

    def test_p_values_in_range_and_pass_rule(self):
        rng = np.random.default_rng(15)
        bits = BitStream.from_bits(rng.integers(0, 2, size=40_000, dtype=np.uint8))
        res = run_suite(bits, alpha=0.01)
        assert len(res.reports) == 9
        for rep in res.reports:
            assert 0.0 <= rep.p_value <= 1.0
            assert rep.passed == (rep.p_value >= rep.alpha)

    def test_suite_on_reference_generator_words(self):
        bits = BitStream.from_words(MT19937().generate(8192))
        res = run_suite(bits)
        assert res.passed + res.failed == len(res.reports)
        payload = res.to_dict()
        assert payload["alpha"] == 0.01
        assert len(payload["reports"]) == len(res.reports)

    def test_report_dict_keys_in_order_and_copied(self):
        rep = block_frequency(BitStream.from01(PI_100), 10)
        payload = rep.to_dict()
        assert list(payload) == ["name", "statistic", "p_value", "passed",
                                 "alpha", "parameters"]
        assert payload["parameters"] == {"m": 10, "blocks": 10}
        payload["parameters"]["m"] = 3
        assert rep.parameters["m"] == 10

    def test_too_short_inputs_raise(self):
        with pytest.raises(InputTooShort):
            monobit(BitStream.from01("0101"))
        with pytest.raises(InputTooShort):
            run_suite(BitStream.from_bits(np.zeros(512, dtype=np.uint8)))

    @pytest.mark.parametrize("test, n, m, message", [
        (block_frequency, 200, 1, "block length must be at least 2"),
        (block_frequency, 200, 201, "needs at least one 201-bit block"),
        (serial, 200, 1, "pattern length must be at least 2"),
        (approximate_entropy, 200, 0, "pattern length must be at least 1"),
        (approximate_entropy, 31, 3, "with m=3 needs at least 32 bits")],
        ids=["block-m-1", "block-m-above-n", "serial-m-1", "apen-m-0",
             "apen-n-too-short"])
    def test_bad_block_or_pattern_length_raises(self, test, n, m, message):
        error = InputTooShort if "needs" in message else ValueError
        with pytest.raises(error, match=message):
            test(BitStream.from01(PI_100 * 2)[:n], m)


class TestSpecialFunctionAccuracy:
    """scipy's double precision against high-precision tabulated points."""

    ERFC_POINTS = [
        (0.0, 1.0),
        (0.1, 0.887537083981715),
        (0.5, 0.4795001221869535),
        (1.0, 0.15729920705028513),
        (2.0, 0.004677734981047266),
        (3.5, 7.430983723414128e-07),
        (5.0, 1.537459794428035e-12),
        (7.0, 4.183825607779414e-23),
    ]

    GAMMAINCC_POINTS = [
        ((0.5, 0.25), 0.4795001221869535),
        ((1.0, 2.0), 0.1353352832366127),
        ((2.0, 0.5), 0.9097959895689501),
        ((8.0, 9.5), 0.26866318178384363),
        ((128.0, 130.0), 0.4186710425453789),
        ((3906.0, 3900.0), 0.5361416872373738),
        ((16384.0, 16500.0), 0.18227674031392938),
        ((512.0, 480.0), 0.9236399391334299),
    ]

    NDTR_POINTS = [
        (-3.0, 0.0013498980316300946),
        (-1.0, 0.15865525393145705),
        (-0.5, 0.3085375387259869),
        (0.0, 0.5),
        (0.7, 0.758036347776927),
        (2.5, 0.9937903346742238),
    ]

    def test_erfc(self):
        for x, want in self.ERFC_POINTS:
            assert abs(float(erfc(x)) - want) < 1e-10

    def test_gammaincc(self):
        for (a, x), want in self.GAMMAINCC_POINTS:
            assert abs(float(gammaincc(a, x)) - want) < 1e-10

    def test_ndtr(self):
        for x, want in self.NDTR_POINTS:
            assert abs(float(ndtr(x)) - want) < 1e-10
