"""Generating bits from a coefficient triple, and checking them.

A triple (b, c, d) names the cubic x^3 + b x^2 + c x + d, and under the
admissibility conditions that cubic has exactly one real root alpha,
sitting in (0, 1). Doubling alpha modulo 1 over and over is the classic
bit-extraction dynamics, and the whole point of the package is that the
triple lets us do it with integers only: no rounding, ever. The emitted
bits are, provably, the binary expansion of alpha, and a dyadic interval
checked on the original cubic confirms that on demand.
"""

from cubicorbit import (OrbitState, generate_bits, isolate_root_bits,
                        refine_to_resolution, step, validate_triple)

# --- pick a seed ------------------------------------------------------
# x^3 + x - 1 has its real root at alpha = 0.6823278...
seed = validate_triple(0, 1, -1)
print("seed triple:", seed.as_tuple())
m = refine_to_resolution(seed, 40)  # alpha in [m/2^40, (m+1)/2^40], certified
print(f"root enclosure: [{m}/2^40, {m + 1}/2^40], alpha ~ {m / 2**40:.12f}")

# --- watch the first few exact steps ----------------------------------
# Each step shifts coefficients left by 1-3 bits (and adds small
# constants on the upper branch). Watch d: it carries the branch value.
t = seed
print("\n  n  bit   (b, c, d)")
for n in range(6):
    nxt, bit = step(t)
    print(f"  {n}   {bit}    {nxt.as_tuple()}")
    t = nxt

# --- bulk generation (one certified jump) and the cross-check ----------
bits, state = generate_bits(seed, 64)
expansion, _ = isolate_root_bits(seed, 64)
print("\ngenerated :", bits.to01())
print("root bits :", expansion)
print("agree     :", bits.to01() == expansion)

# --- resumable state ---------------------------------------------------
# The final state is a checkpoint: continuing from it is bit-identical
# to one long run. Coefficients grow ~2 bits per emitted bit, so the
# state of a long run is large; checkpoints make runs restartable.
more, _ = generate_bits(state, 16)
whole, _ = generate_bits(seed, 80)
print("\nresume matches one-shot:", (bits + more) == whole)

text = state.to_text()
print("checkpoint record:")
print(text, end="")
print("round-trips:", OrbitState.from_text(text) == state)
