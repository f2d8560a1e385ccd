"""Seed families: many well-separated starting points at once.

Generating many shorter sequences side by side is the cheap way to
produce large volumes (and parallelizes). That needs many seeds, and
two guarantees: the seeds' roots should cover (0, 1) evenly, and their
orbits must never merge. Fixing (b, c) and letting d run from -1 down
to -(b+c) gives both, and everything here is checkable.
"""

from fractions import Fraction

from cubicorbit import (build_seed_set, field_distinctness_check, gap_report,
                        is_source_point, merger_audit)

# --- the family for b=0, c=8 ------------------------------------------
fam = build_seed_set(0, 8)
print(f"family b={fam.b} c={fam.c}: {len(fam)} members")
print("records (b c d source_flag):")
print(fam.records())

# The parity trick: when b and c have opposite parity, every member is a
# source point (no predecessor exists), which alone rules out mergers.
# b=0, c=8 are both even, so one member fails the residue test:
for m in fam:
    v = is_source_point(m)
    if not v.is_source:
        print("non-source member:", m.as_tuple(), "->", v.value)

# --- roots spread almost equidistantly --------------------------------
# Consecutive root gaps, certified by exact dyadic enclosures. For
# b=0 every gap g obeys c/(c+3) < g*c < 1, at any c.
rep = gap_report(fam, precision=64)
print("\ncertified gaps (times c):")
for g in rep.gaps:
    print(f"  d={g.d}: {float(g.delta) * fam.c:.4f}")
print("max |gap*c - 1| =", float(rep.max_deviation))
print("window check   :", all(
    Fraction(8, 11) < g.lo * 8 and g.hi * 8 < 1 for g in rep.gaps))

# --- no mergers, by backward chains -----------------------------------
# step is injective, so a merger within the horizon means some member's
# chain of predecessors meets another member's start. Here every chain
# ends at a source point within a step, so 500 steps cost nothing.
audit = merger_audit(fam, horizon=500)
print(f"\nmerger audit over {audit.horizon} steps: "
      f"{'pass' if audit.passed else audit.collision} "
      f"({audit.states_checked} states)")

# --- a stronger separation heuristic ----------------------------------
# Different squarefree discriminant kernels put members in different
# cubic fields; then no rational-coefficient transformation can map one
# member's sequence onto another's.
small = build_seed_set(0, 5)
rep = field_distinctness_check(small, factor_bound=1000)
print("\ndiscriminant kernels for the c=5 family:")
for m, k in zip(small.members, rep.kernels):
    print(f"  {m.as_tuple()}: disc={k.discriminant} kernel={k.kernel}")
print("all pairs distinct:", rep.all_distinct)
