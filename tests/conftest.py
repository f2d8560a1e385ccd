import json
import os
import random

import pytest

from cubicorbit import (MergerAudit, MergerCollision, generate_bits, step,
                        validate_triple)

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
def cubic_run():
    """The shared long generator run from seed (0, 1, -1).

    1e6 bits by default; 1e7 when CUBICORBIT_ACCEPT_FULL=1. Generated once
    per session and shared by the acceptance tests; the certified jump
    produces the 1e6 bits in a few seconds.
    """
    bits, state = generate_bits(validate_triple(0, 1, -1), CUBIC_RUN_BITS)
    return bits, state
