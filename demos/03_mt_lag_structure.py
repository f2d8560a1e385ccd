"""Why exactness matters: a lag correlation MT19937 cannot escape.

Every word y_n out of MT19937 satisfies a fixed GF(2) recurrence
against the words 227, 623 and 624 steps earlier. Whenever the two
matrix addends happen to vanish (about once per 512 words), the top
byte of y_n must equal the top byte of y_{n-227}: plotted as points
(Y_lag, Y_n), everything lands on the diagonal. The doubling-map
generator has no linear structure over GF(2), so the same filter
scatters its points over the whole square.

Run with a bit budget if you want a denser picture:
    python demos/03_mt_lag_structure.py 1000000
"""

import sys

import numpy as np

from cubicorbit import (MT19937, generate_bits, load_recurrence_matrices,
                        scan_conditions_ab, validate_triple, verify_recurrence)

n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000

a, b = load_recurrence_matrices()

# --- the recurrence really does hold, word for word --------------------
words_mt = MT19937().generate(312_500)
print("recurrence on MT output:", verify_recurrence(words_mt, a, b).ok)

# matrix B has rank one; row 2 is the only distinct nonzero row
print("nonzero rows of B:", [i + 1 for i, r in enumerate(b.rows) if r])

# --- MT side: every filtered pair is diagonal ---------------------------
pairs_mt = scan_conditions_ab(words_mt, a, b)
diag = sum(1 for p in pairs_mt if p.y_top8 == p.y_lag_top8)
print(f"\nMT19937: {len(pairs_mt)} filtered pairs, {diag} on the diagonal")

# --- generator side: same filter, no structure --------------------------
print(f"\ngenerating {n_bits} exact bits...")
bits, _ = generate_bits(validate_triple(0, 1, -1), n_bits)
words_cubic = bits.pack_words()
pairs_cubic = scan_conditions_ab(words_cubic, a, b)
diag_c = sum(1 for p in pairs_cubic if p.y_top8 == p.y_lag_top8)
print(f"doubling-map generator: {len(pairs_cubic)} filtered pairs, "
      f"{diag_c} on the diagonal")

# a crude density picture: 8x8 occupancy of the (Y_lag, Y_n) square
grid = np.zeros((8, 8), dtype=int)
for p in pairs_cubic:
    grid[p.y_lag_top8 // 32, p.y_top8 // 32] += 1
print("\noccupancy of the square (8x8 cells, generator pairs):")
for row in grid:
    print("  " + " ".join(f"{v:2d}" for v in row))
print("\n(the MT pairs would fill only the main diagonal)")
