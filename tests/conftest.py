import functools
import json
import math
import os
import random

import numpy as np
import pytest

from cubicorbit import (BitStream, MergerAudit, MergerCollision,
                        generate_bits, step, validate_triple)
from cubicorbit.stats import _cumsum

# Full-scale acceptance (1e7-bit comparison run) is opt-in; the default
# CI-scale run uses 1e6 bits with the same exactness assertions.
ACCEPT_FULL = os.environ.get("CUBICORBIT_ACCEPT_FULL") == "1"
CUBIC_RUN_BITS = 10_000_000 if ACCEPT_FULL else 1_000_000


def random_triple(rng: random.Random, b_bound: int = 6, c_max: int = 60):
    """A uniformly-ish sampled admissible triple inside a small box."""
    b = rng.randint(-b_bound, b_bound)
    c_min = max((b * b + 2) // 3, 1 - b, 1)
    c = rng.randint(c_min, max(c_min, c_max))
    d = rng.randint(-(b + c), -1)
    return validate_triple(b, c, d)


def step_loop(t, n: int):
    """Reference for jump(): n single orbit.step calls.

    Returns the emitted bits read as one integer, and the final triple.
    """
    m = 0
    for _ in range(n):
        t, bit = step(t)
        m = 2 * m + bit
    return m, t


def parity(x: int) -> int:
    return x.bit_count() & 1


def gf2_mul(m, v: int) -> int:
    """Reference for Gf2Matrix32.apply: M v over GF(2), one row at a time.

    Row 1 of m gives the MSB of the product, as the parity of row & v.
    """
    acc = 0
    for r in m.rows:
        acc = (acc << 1) | parity(r & v)
    return acc


def numpy_transpose(words) -> list:
    """Reference for gf2._transpose: the 32x32 bit matrix unpacked to one
    byte per bit, transposed and packed again."""
    words = np.asarray(words, dtype=np.uint32).astype(">u4")
    bits = np.unpackbits(words.view(np.uint8)).reshape(32, 32)
    # bits[i, j] is bit j of word i, MSB first; read bits.T row by row
    return np.packbits(bits.T).view(">u4").astype(np.uint32).tolist()


def whole_array_window_counts(s, m: int) -> np.ndarray:
    """Reference for stats._window_counts: the 64-bit words at every byte,
    and the (m+1)-bit windows of each even offset, in whole-stream arrays.

    One bincount per offset gives the (m+1)-bit histogram, which folds both
    ways into the m-bit counts; the last window counted alone and the
    wrapping windows are added as in the kernel.
    """
    n, mask = len(s), (1 << m) - 1
    wide = np.zeros(2 << m, dtype=np.int64)
    if n > m:
        buf = np.append(s.packed, np.zeros(7, dtype=np.uint8))
        words = np.ndarray((n - m - 1) // 8 + 1, dtype=">u8", buffer=buf,
                           strides=(1,)).astype(np.uint64)
        for offset in range(0, min(8, n - m), 2):
            k = (n - m - 1 - offset) // 8 + 1  # windows at this bit offset
            win = (words[:k] >> np.uint64(63 - m - offset)) & np.uint64(
                (2 << m) - 1)
            wide += np.bincount(win.view(np.int64), minlength=2 << m)
    counts = wide[0::2] + wide[1::2] + wide[:1 << m] + wide[1 << m:]
    if n >= m and (n - m) % 2 == 0:
        counts[s.value & mask] += 1
    t = min(n, m - 1)
    cycle, size = s.value, n
    while size < m - 1:
        cycle, size = (cycle << n) | s.value, size + n
    ext = ((s.value & ((1 << t) - 1)) << (m - 1)) | (cycle >> (size - m + 1))
    for i in range(t):
        counts[(ext >> (t - 1 - i)) & mask] += 1
    return counts


@functools.cache
def chunk_walk_tables() -> tuple:
    """(NET16, RISE16, FALL16, WALK16) of every 16-bit chunk, its bits read
    MSB first: the +1/-1 walk's net step, how far it rises above and falls
    below its end inside the chunk, and its sums after each bit."""
    bits = (np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1
    walk = np.cumsum(2 * bits - 1, axis=1)
    net = walk[:, -1]
    return net, walk.max(axis=1) - net, net - walk.min(axis=1), walk


def chunk_walk_extremes(s) -> tuple:
    """Reference for stats._walk_extremes: (min, max) of the walk's partial
    sums S_0..S_n, n >= 17, with the 16-bit walk tables read for every
    chunk before bit n - 1 and the walk of the chunk holding the 1 to 16
    bits left.
    """
    n = len(s)
    whole = (n - 1) // 16
    net, rise, fall, walk = chunk_walk_tables()
    head = s.packed[:2 * whole].view(">u2")
    ends = _cumsum(np.take(net, head), n)
    lo = min(0, int((ends - np.take(fall, head)).min()))
    hi = max(0, int((ends + np.take(rise, head)).max()))
    last = int.from_bytes(s.packed[2 * whole:].tobytes().ljust(2, b"\0"), "big")
    tail = ends[-1] + walk[last, :n - 16 * whole]
    return min(lo, int(tail.min())), max(hi, int(tail.max()))


def e_binary_digits(n: int) -> BitStream:
    """The first n binary digits of e, its integer part 10 included.

    e = 1 + sum over k >= 1 of 1/k!, summed to the first K with K! > 2^(n+64)
    by binary splitting: P/Q over (a, b] is P(a, m) Q(m, b) + P(m, b) over
    Q(a, m) Q(m, b), with Q(a, b) = (a+1)...b. The terms left out add less
    than 2^-(n+62), so 32 guard bits decide the floor unless all are ones.
    """
    def split(a: int, b: int) -> tuple:
        if b - a == 1:
            return 1, b
        m = (a + b) // 2
        p1, q1 = split(a, m)
        p2, q2 = split(m, b)
        return p1 * q2 + p2, q1 * q2

    k, log2_factorial = 1, 0.0
    while log2_factorial < n + 64:
        k += 1
        log2_factorial += math.log2(k)
    p, q = split(0, k)
    x = ((p + q) << (n - 2 + 32)) // q  # e = 10.1011... in binary
    assert x & 0xFFFFFFFF != 0xFFFFFFFF, "guard bits too few to round"
    return BitStream(x >> 32, n)


def horner_shift(b, c, d, x, k):
    """Reference for orbit._shift: 8^k f((y + x) / 2^k) in Horner form.

    Three products by x, with b and c shifted first: the triple after k
    steps whose bits are x.
    """
    bk = b << k
    ck = c << (2 * k)
    return (3 * x + bk,
            (3 * x + 2 * bk) * x + ck,
            ((x + bk) * x + ck) * x + (d << (3 * k)))


def bisect_prefix(t, n: int) -> int:
    """Reference for jump(): floor(2^n * alpha) by n dyadic bisections.

    Each midpoint p / 2^e is decided by the sign of the exact integer
    8^e f(p / 2^e) of the original cubic.
    """
    lo = 0
    for e in range(1, n + 1):
        p = 2 * lo + 1
        v = ((p + (t.b << e)) * p + (t.c << (2 * e))) * p + (t.d << (3 * e))
        assert v != 0, "a dyadic point is a root: corrupt triple"
        lo = p if v < 0 else 2 * lo
    return lo


def one_shot_bytes(s, fmt: str) -> bytes:
    """Reference for write_bits: the whole stream s as format fmt, at once."""
    if fmt == "raw":
        return s.to_bytes()
    if fmt == "words32le":
        return s.pack_words().astype("<u4").tobytes()
    if fmt == "csv":
        return ("n,bit\n" + "".join(f"{i},{b}\n" for i, b in
                                     enumerate(s.to01()))).encode()
    if fmt == "json":
        return json.dumps({"length": len(s), "bits": s.to01()}).encode()
    return s.to01().encode()


def de_bruijn(k: int) -> str:
    """The lexicographically least binary de Bruijn sequence of order k.

    The Lyndon words whose length divides k, in order (Fredricksen, Kessler
    and Maiorana), generated by Duval's algorithm: its 2^k cyclic k-bit
    windows are every k-bit pattern once.
    """
    out, w = [], [0]
    while w:
        if k % len(w) == 0:
            out.extend(w)
        w = (w * (k // len(w) + 1))[:k]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] = 1
    return "".join(map(str, out))


def merger_audit_all_states(s, horizon: int) -> MergerAudit:
    """Reference for seeds.merger_audit: records every state it visits.

    A collision between different members at any pair of step offsets is
    a merger; advancing breadth-first makes the reported collision the
    earliest one by step index.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seen = {}
    current = list(s.members)
    checked = 0
    for idx, t in enumerate(current):
        seen[t.as_tuple()] = (idx, 0)
        checked += 1
    if len(seen) != len(current):
        # duplicate members collide at step 0
        for idx, t in enumerate(current):
            owner = seen[t.as_tuple()]
            if owner[0] != idx:
                return MergerAudit(False, horizon, checked,
                                   MergerCollision(owner[0], 0, idx, 0,
                                                   t.as_tuple()))
    for k in range(1, horizon + 1):
        for idx in range(len(current)):
            nxt, _bit = step(current[idx])
            current[idx] = nxt
            key = nxt.as_tuple()
            if key in seen:
                prev_idx, prev_step = seen[key]
                return MergerAudit(False, horizon, checked,
                                   MergerCollision(prev_idx, prev_step, idx,
                                                   k, key))
            seen[key] = (idx, k)
            checked += 1
    return MergerAudit(True, horizon, checked)


@pytest.fixture(scope="session")
def e_bits():
    """The first 1,000,000 binary digits of e: NIST SP 800-22's worked
    example sequence. Built once per session, in about 2 s."""
    return e_binary_digits(1_000_000)


@pytest.fixture(scope="session")
def cubic_run():
    """The shared long generator run from seed (0, 1, -1).

    1e6 bits by default; 1e7 when CUBICORBIT_ACCEPT_FULL=1. Generated once
    per session and shared by the acceptance tests; the certified jump
    produces the 1e6 bits in a few seconds.
    """
    bits, state = generate_bits(validate_triple(0, 1, -1), CUBIC_RUN_BITS)
    return bits, state
