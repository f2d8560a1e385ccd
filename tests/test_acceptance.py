"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single `[criterion N] ... PASS/FAIL` line (visible
with `pytest -s`). The long comparison run (criterion 6) defaults to
the reduced CI scale of 1e6 generated bits with the same exactness
assertions and a count window recomputed for the smaller sample;
setting CUBICORBIT_ACCEPT_FULL=1 switches to the full 1e7-bit run and
the published 312500-word protocol end to end.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from cubicorbit import (MT19937, BitStream, build_seed_set, gap_report,
                        generate_bits, inverse_step, is_source_point,
                        isolate_root_bits, load_recurrence_matrices,
                        merger_audit, monobit, recover_matrices, run_suite,
                        runs, scan_conditions_ab, step, validate_triple,
                        verify_recurrence)
from conftest import ACCEPT_FULL, random_triple
from scipy.special import gammaincc

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_oracle_equivalence():
    """All 1001 family seeds: 256 generated bits equal the root expansion."""
    with criterion(1, "oracle equivalence over the 1001-member family"):
        fam = build_seed_set(0, 1001)
        assert len(fam) == 1001
        for member in fam:
            bits, _ = generate_bits(member, 256)
            expansion, _ = isolate_root_bits(member, 256)
            assert bits.to01() == expansion, f"mismatch at {member.as_tuple()}"


def test_criterion_2_closure_and_injectivity():
    """1e5 random steps: admissibility, exact inversion, discriminant class."""
    with criterion(2, "closure and injectivity over 1e5 random steps"):
        rng = random.Random(0xACC2)
        total = 0
        while total < 100_000:
            t = random_triple(rng, c_max=500)
            disc_zero = t.b * t.b - 3 * t.c == 0
            for _ in range(2000):
                nxt, _bit = step(t)  # construction re-checks (i)-(iii)
                assert (nxt.b * nxt.b - 3 * nxt.c == 0) == disc_zero
                assert inverse_step(nxt) == t
                t = nxt
                total += 1


def test_criterion_3_source_point_equivalence():
    """Residue rules match division-based inversion over the whole box."""
    with criterion(3, "source-point equivalence, exhaustive box"):
        mismatches = 0
        checked = 0
        for b in range(-6, 7):
            for c in range(1, 61):
                if b * b > 3 * c:
                    continue
                for d in range(-60, 0):
                    if 1 + b + c + d <= 0:
                        continue
                    t = validate_triple(b, c, d)
                    if is_source_point(t).is_source != (inverse_step(t) is None):
                        mismatches += 1
                    checked += 1
        assert checked > 10_000
        assert mismatches == 0


def test_criterion_4_gap_bounds():
    """Certified gaps of the 1001-member family obey the proof window."""
    with criterion(4, "quantitative equidistribution of the 1001 roots"):
        rep = gap_report(build_seed_set(0, 1001), 64)
        assert len(rep.gaps) == 1000
        lo_bound = Fraction(1001, 1004)
        for g in rep.gaps:
            assert lo_bound < g.lo * 1001, f"gap at d={g.d} too small"
            assert g.hi * 1001 < 1, f"gap at d={g.d} too large"
        assert rep.max_deviation < Fraction(3, 1001)


def test_criterion_5_mt_fidelity():
    """Reference outputs, recurrence, and matrix recovery all line up."""
    with criterion(5, "MT19937 fidelity and recurrence recovery"):
        words = MT19937(5489).generate(10_000)
        oracle = np.random.RandomState(5489).randint(0, 2**32, size=1000,
                                                     dtype=np.uint32)
        assert np.array_equal(words[:1000], oracle)
        assert list(words[:3]) == [3499211612, 581869302, 3890346734]
        a, b = load_recurrence_matrices()
        check = verify_recurrence(words, a, b)
        assert check.ok and check.checked == 10_000 - 624
        assert recover_matrices(words) == (a, b)


def _uniformity_chi2(pairs, grid: int = 4):
    counts = np.zeros((grid, grid), dtype=np.int64)
    cell = 256 // grid
    for p in pairs:
        counts[p.y_lag_top8 // cell, p.y_top8 // cell] += 1
    expected = len(pairs) / (grid * grid)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(gammaincc((grid * grid - 1) / 2.0, chi2 / 2.0))


def test_criterion_6_lag_coincidence_contrast(cubic_run):
    """MT matches sit on the diagonal; generator matches spread out."""
    scale = "full 1e7" if ACCEPT_FULL else "reduced 1e6"
    with criterion(6, f"lag-coincidence contrast ({scale} generator side)"):
        a, b = load_recurrence_matrices()

        mt_words = MT19937(5489).generate(312_500)
        pairs = scan_conditions_ab(mt_words, a, b)
        assert all(p.y_top8 == p.y_lag_top8 for p in pairs)  # exact
        mu = (312_500 - 624) / 512
        sigma = (mu * (1 - 1 / 512)) ** 0.5
        assert abs(len(pairs) - mu) <= 6 * sigma

        bits, _state = cubic_run
        words = bits.pack_words()
        assert len(words) == (312_500 if ACCEPT_FULL else 31_250)
        cpairs = scan_conditions_ab(words, a, b)
        mu_c = (len(words) - 624) / 512
        sigma_c = (mu_c * (1 - 1 / 512)) ** 0.5
        assert abs(len(cpairs) - mu_c) <= 6 * sigma_c
        # far off the diagonal: a linear-lag structure would pin these
        diag = sum(1 for p in cpairs if p.y_top8 == p.y_lag_top8)
        assert diag < len(cpairs) / 2
        assert _uniformity_chi2(cpairs) >= 0.001


def test_criterion_7_statistical_suite_golden(cubic_run):
    """Suite reproduces the recorded P-values exactly; all at least 0.01."""
    with criterion(7, "statistical battery against golden records"):
        bits, _ = cubic_run
        res = run_suite(bits[:1_000_000])
        golden = json.loads((DATA / "golden_stats_cubic_1e6.json").read_text())
        assert {r.name for r in res.reports} == set(golden)
        for r in res.reports:
            assert r.p_value == golden[r.name]["p_value"], r.name
            assert r.statistic == golden[r.name]["statistic"], r.name
            assert r.p_value >= 0.01, r.name

        mt_bits = BitStream.from_words(MT19937(5489).generate(31_250))
        res_mt = run_suite(mt_bits)
        golden_mt = json.loads((DATA / "golden_stats_mt_1e6.json").read_text())
        for r in res_mt.reports:
            assert r.p_value == golden_mt[r.name]["p_value"], r.name
            assert r.p_value >= 0.01, r.name

        zeros = BitStream.from_bits(np.zeros(100, dtype=np.uint8))
        assert not monobit(zeros).passed
        alternating = BitStream.from01("01" * 50)
        assert monobit(alternating).passed
        assert not runs(alternating).passed


def test_criterion_8_merger_audit():
    """Small families run 1e3 steps with all states pairwise distinct."""
    with criterion(8, "merger audit of the c=9 and c=8 families"):
        for c in (9, 8):
            audit = merger_audit(build_seed_set(0, c), 1000)
            assert audit.passed, f"collision in family c={c}: {audit.collision}"
