"""The statistical battery, on good bits and on broken ones.

Nine desk-scale tests in the classic style: frequency (global and
per-block), runs, longest run of ones, serial (two P-values),
cumulative sums (both directions), and approximate entropy. A sequence
passes a test when its P-value clears the significance level, 0.01 by
default. Deliberately broken inputs show each test doing its job.
"""

import numpy as np

from cubicorbit import BitStream, generate_bits, run_suite, validate_triple


def show(result, label):
    print(f"\n{label}: {result.passed} passed, {result.failed} failed")
    for r in result.reports:
        flag = "pass" if r.passed else "FAIL"
        print(f"  {r.name:28s} p={r.p_value:<11.6g} {flag}")


# --- exact generator output --------------------------------------------
n = 200_000
print(f"generating {n} bits from (0, 1, -1)...")
bits, _ = generate_bits(validate_triple(0, 1, -1), n)
show(run_suite(bits), "doubling-map generator")

# --- biased coin --------------------------------------------------------
rng = np.random.default_rng(0)
biased = BitStream.from_bits((rng.random(n) < 0.51).astype(np.uint8))
show(run_suite(biased), "coin with a 51% bias")

# --- long-range structure ----------------------------------------------
# balanced and locally random, but the second half repeats the first
half = rng.integers(0, 2, size=n // 2, dtype=np.uint8)
echo = BitStream.from_bits(np.concatenate([half, half]))
show(run_suite(echo), "first half echoed twice")

# --- the classic degenerate cases --------------------------------------
show(run_suite(BitStream.from_bits(np.zeros(4096, dtype=np.uint8))), "all zeros")
show(run_suite(BitStream.from01("01" * 2048)), "strict alternation")
