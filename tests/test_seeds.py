import random
from fractions import Fraction

import pytest

from cubicorbit import (InvalidShape, MergerCollision, PairVerdict,
                        PrecisionTooLow, SeedSet, SourceReason, build_seed_set,
                        field_distinctness_check, gap_report, inverse_step,
                        is_source_point, merger_audit, seeds, step,
                        validate_triple)
from conftest import merger_audit_all_states, random_triple


def _family(*members):
    return SeedSet(b=0, c=1, members=tuple(members), excluded=(),
                   parity_rule=False)


def _chain(t, n):
    """t and the n states after it on its orbit."""
    states = [t]
    for _ in range(n):
        states.append(step(states[-1])[0])
    return states


class TestSourcePoints:
    def test_mixed_parity_source(self):
        v = is_source_point(validate_triple(0, 1, -1))
        assert v.is_source and v.reason is SourceReason.MIXED_PARITY

    def test_known_non_source(self):
        v = is_source_point(validate_triple(0, 8, -8))
        assert not v.is_source and v.reason is SourceReason.NOT_SOURCE

    def test_odd_residue_source(self):
        # all odd, -2b + c = -1 = 3 (mod 4)
        v = is_source_point(validate_triple(1, 1, -1))
        assert v.is_source and v.reason is SourceReason.ODD_RESIDUE

    def test_even_residue_source(self):
        v = is_source_point(validate_triple(0, 2, -2))
        assert v.is_source and v.reason is SourceReason.EVEN_RESIDUE

    def test_agrees_with_inverse_over_exhaustive_box(self):
        # residue classification and division-based inversion are
        # independent routes; they must agree everywhere
        count = 0
        for b in range(-6, 7):
            for c in range(1, 61):
                if b * b > 3 * c:
                    continue
                for d in range(-60, 0):
                    if 1 + b + c + d <= 0:
                        continue
                    t = validate_triple(b, c, d)
                    assert is_source_point(t).is_source == (inverse_step(t) is None)
                    count += 1
        assert count > 10_000


class TestBuildSeedSet:
    def test_family_0_8(self):
        fam = build_seed_set(0, 8)
        assert len(fam) == 8
        assert not fam.parity_rule
        non_source = [m for m in fam if not is_source_point(m).is_source]
        assert [m.as_tuple() for m in non_source] == [(0, 8, -8)]

    def test_family_0_1001_all_source(self):
        fam = build_seed_set(0, 1001)
        assert len(fam) == 1001
        assert fam.parity_rule
        assert all(is_source_point(m).is_source for m in fam)

    def test_singleton_family(self):
        fam = build_seed_set(0, 1)
        assert [m.as_tuple() for m in fam] == [(0, 1, -1)]
        assert is_source_point(fam.members[0]).is_source

    def test_descending_d_order(self):
        fam = build_seed_set(2, 7)
        ds = [m.d for m in fam]
        assert ds == sorted(ds, reverse=True)
        assert ds[0] == -1 and ds[-1] == -(2 + 7)

    def test_parity_rule_guarantees_sources(self):
        for b, c in [(0, 9), (1, 4), (-2, 13), (3, 10)]:
            fam = build_seed_set(b, c)
            if fam.parity_rule:
                assert all(is_source_point(m).is_source for m in fam)

    def test_every_d_is_admissible(self):
        # b^2 <= 3c, d < 0 and 1 + b + c + d >= 1 leave nothing to exclude
        for b in range(-6, 7):
            for c in range(1, 61):
                if b * b <= 3 * c and b + c >= 1:
                    fam = build_seed_set(b, c)
                    assert len(fam) == b + c
                    assert [m.d for m in fam] == list(range(-1, -b - c - 1, -1))
                    assert fam.excluded == ()

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            build_seed_set(5, 2)  # 25 > 6
        with pytest.raises(InvalidShape):
            build_seed_set(0, 0)

    def test_records_format(self):
        lines = build_seed_set(0, 2).records().strip().splitlines()
        assert lines == ["0 2 -1 1", "0 2 -2 1"]


class TestGapReport:
    def test_single_member_has_no_gaps(self):
        rep = gap_report(build_seed_set(0, 1), 64)
        assert rep.gaps == ()
        assert rep.max_deviation == 0

    def test_family_0_8_gap_window(self):
        rep = gap_report(build_seed_set(0, 8), 64)
        assert len(rep.gaps) == 7
        for g in rep.gaps:
            assert Fraction(8, 11) < g.lo * 8
            assert g.hi * 8 < 1

    def test_gaps_monotone_and_labeled(self):
        rep = gap_report(build_seed_set(0, 12), 48)
        assert [g.d for g in rep.gaps] == list(range(-1, -12, -1))
        for g in rep.gaps:
            assert g.lo > 0

    def test_proof_window_holds_for_various_c(self):
        # for b = 0 and c >= 4 every gap obeys c/(c+3) < gap*c < 1
        for c in (4, 9, 40, 101):
            rep = gap_report(build_seed_set(0, c), 64)
            for g in rep.gaps:
                assert Fraction(c, c + 3) < g.lo * c
                assert g.hi * c < 1

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            gap_report(build_seed_set(0, 8), 16)

    def test_precision_too_low_for_tight_roots(self):
        huge_c = 1 << 40
        fam = SeedSet(
            b=0, c=huge_c,
            members=(validate_triple(0, huge_c, -1),
                     validate_triple(0, huge_c, -2)),
            excluded=(), parity_rule=False)
        with pytest.raises(PrecisionTooLow):
            gap_report(fam, 32)  # gaps near 2^-40, enclosures only 2^-32


class TestMergerAudit:
    def test_small_families_pass(self):
        assert merger_audit(build_seed_set(0, 9), 200).passed
        assert merger_audit(build_seed_set(0, 8), 200).passed

    def test_constructed_overlap_fails_at_offset_one(self):
        t = validate_triple(0, 1, -1)
        successor, _ = step(t)
        fam = SeedSet(b=0, c=1, members=(t, successor), excluded=(),
                      parity_rule=True)
        audit = merger_audit(fam, 5)
        assert not audit.passed
        col = audit.collision
        assert (col.member_a, col.step_a) == (1, 0)
        assert (col.member_b, col.step_b) == (0, 1)
        assert col.triple == successor.as_tuple()

    @pytest.mark.parametrize("c", [1, 2, 8, 9])
    @pytest.mark.parametrize("horizon", [1, 5, 200])
    def test_equals_all_states_scan_on_families(self, c, horizon):
        fam = build_seed_set(0, c)
        assert merger_audit(fam, horizon) == merger_audit_all_states(fam, horizon)

    @pytest.mark.parametrize("b, c", [(1, 7), (0, 64)])
    @pytest.mark.parametrize("horizon", [1, 5, 200])
    def test_equals_all_states_scan_on_non_source_families(self, b, c, horizon):
        # b + c even: some members have predecessors, so chains are walked
        fam = build_seed_set(b, c)
        assert any(inverse_step(m) is not None for m in fam)
        assert merger_audit(fam, horizon) == merger_audit_all_states(fam, horizon)

    def test_collision_at_the_horizon_is_reported(self):
        chain = _chain(validate_triple(1, 5, -2), 200)
        fam = _family(chain[0], chain[200])
        got = merger_audit(fam, 200)
        assert got == merger_audit_all_states(fam, 200)
        assert got.collision == MergerCollision(1, 0, 0, 200,
                                                chain[200].as_tuple())
        assert got.states_checked == 2 * 200

    def test_collision_past_the_horizon_passes(self):
        chain = _chain(validate_triple(1, 5, -2), 201)
        fam = _family(chain[0], chain[201])
        got = merger_audit(fam, 200)
        assert got == merger_audit_all_states(fam, 200)
        assert got.passed and got.states_checked == 2 * 201

    def test_least_step_then_least_member_wins(self):
        # members 1 and 2 collide at step 4, member 0 only at step 5; the
        # targets are listed so that the chain walked first has the worst hit
        x, a, b = (_chain(validate_triple(0, 9, d), 5) for d in (-1, -4, -7))
        fam = _family(x[0], a[0], b[0], x[5], b[4], a[4])
        got = merger_audit(fam, 10)
        assert got == merger_audit_all_states(fam, 10)
        assert got.collision == MergerCollision(5, 0, 1, 4, a[4].as_tuple())
        assert got.states_checked == 6 * 4 + 1

    def test_hit_is_confirmed_with_step(self, monkeypatch):
        chain = _chain(validate_triple(0, 1, -1), 3)
        monkeypatch.setattr(seeds, "step", lambda t: (t, 0))
        with pytest.raises(AssertionError):
            merger_audit(_family(chain[0], chain[3]), 5)

    def test_equals_all_states_scan_on_one_orbit_chain(self):
        rng = random.Random(0x3E6)
        for offset in range(1, 13):
            chain = _chain(random_triple(rng), 30)
            start = rng.randrange(0, 30 - offset)
            picks = [chain[start], chain[start + offset]]
            # more members from the same chain and from elsewhere
            picks += rng.sample(chain, rng.randrange(0, 4))
            picks += [random_triple(rng, c_max=5000)
                      for _ in range(rng.randrange(0, 3))]
            picks = list(dict.fromkeys(picks))  # no duplicates here
            rng.shuffle(picks)
            fam = _family(*picks)
            for horizon in (offset - 1 or 1, offset, offset + 3):
                got = merger_audit(fam, horizon)
                assert got == merger_audit_all_states(fam, horizon)
            assert not got.passed and got.collision.step_a == 0

    def test_equals_all_states_scan_on_duplicates(self):
        a, b, c = (validate_triple(0, 9, d) for d in (-1, -2, -3))
        succ_a = step(a)[0]
        for members in [(a, a), (a, b, a), (a, a, a), (b, a, c, a, b),
                        (a, b, b, a), (succ_a, a, succ_a), (c, b, a, c)]:
            fam = _family(*members)
            got = merger_audit(fam, 5)
            assert got == merger_audit_all_states(fam, 5)
            assert not got.passed and got.collision.step_b == 0

    def test_single_member(self):
        fam = _family(validate_triple(0, 1, -1))
        got = merger_audit(fam, 50)
        assert got == merger_audit_all_states(fam, 50)
        assert got.passed and got.states_checked == 51

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            merger_audit(build_seed_set(0, 2), 0)


class TestFieldDistinctness:
    def test_known_discriminants(self):
        assert validate_triple(0, 1, -1).discriminant == -31
        assert validate_triple(0, 2, -1).discriminant == -59

    def test_two_distinct_members(self):
        fam = SeedSet(b=0, c=0, members=(validate_triple(0, 1, -1),
                                         validate_triple(0, 2, -1)),
                      excluded=(), parity_rule=False)
        rep = field_distinctness_check(fam, 100)
        assert rep.pairs == ((0, 1, PairVerdict.DISTINCT),)

    def test_identical_members_unknown(self):
        t = validate_triple(0, 1, -1)
        fam = SeedSet(b=0, c=1, members=(t, t), excluded=(), parity_rule=True)
        rep = field_distinctness_check(fam, 100)
        assert rep.pairs[0][2] is PairVerdict.UNKNOWN
        assert rep.unknown_pairs() == [(0, 1)]

    def test_family_0_5_all_distinct(self):
        rep = field_distinctness_check(build_seed_set(0, 5), 100)
        assert rep.all_distinct
        kernels = [k.kernel for k in rep.kernels]
        assert kernels == [-527, -38, -743, -233, -47]

    def test_uncertified_kernel_stays_unknown(self):
        # discriminants here exceed bound**2 after stripping tiny primes,
        # so with a bound of 2 the kernels cannot be certified
        fam = build_seed_set(0, 5)
        rep = field_distinctness_check(fam, 2)
        assert not rep.all_distinct

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            field_distinctness_check(build_seed_set(0, 5), 1)
