"""The three workloads: their inputs, CLI operations and output checks.

Every workload is one pass of CLI invocations, repeated as a closed loop.
The inputs come from the workload seed; seed 0 gives the paper's inputs
(triple (0,1,-1), family (0,1001), MT19937 seed 5489), for which every
output file is also pinned by digest in pins.json.

Why these three:
* stream: one long certified stream. The O(n^2) orbit loop and the roots
  bisection behind `verify` do nearly all the work, so a jump-ahead or a
  shared certified prefix shows here.
* family: 1001 short orbits, 64-bit bisections and the merger scan. The
  cost is per-call overhead and many small integers; the quadratic term
  hardly matters, so a change that slows short runs shows here.
* lag: MT19937 analysis at the paper's 312500-word scale. orbit and roots
  do no work; mt19937, gf2, stats and bitstream reads do all of it.

An operation ends "ok", "failed" (an exit code it may not return) or
"wrong" (an accepted exit code with output that differs from the
reference, or that is missing).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import refstats

DEFAULT_SEED = 0
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())
ALPHA = 0.01


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Op:
    name: str
    argv: list[str]
    outputs: tuple[str, ...]      # files the op writes, removed before it
    check: Callable[[int, str], bool]
    codes: tuple[int, ...] = (0,)  # exit codes the check decides on
    # the checkpoint round trip: its failures are counted, not fatal
    round_trip: bool = False


@dataclass
class Workload:
    seed: int
    work: Path
    ops: list[Op] = field(default_factory=list)
    _verified: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the default seed runs the paper's inputs, whose outputs are pinned
        self.paper = self.seed == DEFAULT_SEED
        self.pins = PINS[self.name] if self.paper else None

    def prepare(self) -> None:
        """Compute the references the checks need, before any timing."""

    def path(self, name: str) -> str:
        return str(self.work / name)

    def file(self, name: str) -> Path:
        return self.work / name

    def run_check(self, op: Op, rc: int, out: str) -> str:
        """Check an op's result; a result already verified passes again."""
        if rc not in op.codes:
            return "failed"
        files = tuple(sha256(self.file(f)) if self.file(f).exists() else None
                      for f in op.outputs)
        key = (rc, hashlib.sha256(out.encode()).hexdigest(), files)
        if self._verified.get(op.name) == key:
            return "ok"
        try:
            ok = op.check(rc, out)
        except (OSError, KeyError, TypeError, ValueError):
            ok = False  # missing or malformed output
        if ok:
            self._verified[op.name] = key
        return "ok" if ok else "wrong"

    def pin_ok(self, key: str, name: str) -> bool:
        return self.pins is None or sha256(self.file(name)) == self.pins[key]

    def check_stats(self, rc: int, out: str, bits_file: str,
                    fmt: str) -> bool:
        result = json.loads(out)
        reports = result["reports"]
        reference = refstats.suite(oracle.file_bits(self.file(bits_file), fmt))
        if [r["name"] for r in reports] != [name for name, _, _ in reference]:
            return False
        for r, (_, statistic, p_value) in zip(reports, reference):
            if not (math.isclose(r["statistic"], statistic, rel_tol=1e-9,
                                 abs_tol=1e-12)
                    and math.isclose(r["p_value"], p_value, rel_tol=1e-9,
                                     abs_tol=1e-12)
                    and r["alpha"] == ALPHA
                    and r["passed"] == (r["p_value"] >= ALPHA)):
                return False
        verdicts = [r["passed"] for r in reports]
        return (result["all_passed"] == all(verdicts)
                and result["passed"] == sum(verdicts)
                and rc == (0 if all(verdicts) else 1))

    def check_scan(self, csv_name: str, words: np.ndarray,
                   diagonal: bool) -> bool:
        text = self.file(csv_name).read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        lo, hi = oracle.lag_pair_bounds(words.size)
        return (text == oracle.lag_pairs_csv(words)
                and not (diagonal and any(y_lag != y_n
                                          for _, y_lag, y_n in rows))
                and lo <= len(rows) <= hi
                and self.pin_ok("scan_csv", csv_name))


def _random_triple(rng: random.Random) -> tuple[int, int, int]:
    """An admissible triple in a small box, so coefficient growth, and with
    it the cost of a run, is the same as from (0,1,-1)."""
    b = rng.randint(-6, 6)
    c = rng.randint(max((b * b + 2) // 3, 1 - b, 1), 60)
    d = rng.randint(-(b + c), -1)
    return b, c, d


class Stream(Workload):
    name = "stream"
    bits = 98304          # 3072 words, so both halves are whole words
    half = bits // 2
    verify_bits = 8192
    bits_written = bits

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.triple = (0, 1, -1) if self.paper else \
            _random_triple(random.Random(seed))
        self.inputs = {"triple": self.triple}
        b, c, d = (str(v) for v in self.triple)
        src = ["--b", b, "--c", c, "--d", d]
        fmt = ["--format", "words32le"]
        self.ops = [
            Op("generate", ["generate", *src, "--bits", str(self.bits), *fmt,
                            "--out", self.path("s.bin")],
               ("s.bin",), self._check_generate),
            Op("checkpoint", ["generate", *src, "--bits", str(self.half),
                              *fmt, "--out", self.path("h1.bin"),
                              "--checkpoint", self.path("ck.txt")],
               ("h1.bin", "ck.txt"), self._check_checkpoint,
               round_trip=True),
            Op("resume", ["generate", "--resume", self.path("ck.txt"),
                          "--bits", str(self.half), *fmt,
                          "--out", self.path("h2.bin")],
               ("h2.bin",), self._check_resume, round_trip=True),
            Op("verify", ["verify", *src, "--bits", str(self.verify_bits)],
               (), self._check_verify, codes=(0, 1)),
            Op("stats", ["stats", "--in", self.path("s.bin"), *fmt],
               (), self._check_stats, codes=(0, 1)),
            Op("mt_scan", ["mt", "scan", "--source", "file",
                           "--in", self.path("s.bin"),
                           "--out", self.path("sc.csv")],
               ("sc.csv",), self._check_scan),
        ]

    def _direct(self) -> bytes:
        return self.file("s.bin").read_bytes()

    def _check_generate(self, rc: int, out: str) -> bool:
        bits = oracle.file_bits(self.file("s.bin"), "words32le")
        return (bits.size == self.bits
                and oracle.is_root_prefix(*self.triple, bits)
                and self.pin_ok("stream_bin", "s.bin"))

    def _check_checkpoint(self, rc: int, out: str) -> bool:
        return (self.file("h1.bin").read_bytes()
                == self._direct()[:self.half // 8]
                and self.file("ck.txt").stat().st_size > 0
                and self.pin_ok("checkpoint_txt", "ck.txt"))

    def _check_resume(self, rc: int, out: str) -> bool:
        return self.file("h2.bin").read_bytes() == \
            self._direct()[self.half // 8:]

    def _check_verify(self, rc: int, out: str) -> bool:
        b, c, d = self.triple
        return rc == 0 and out == (f"pass: {self.verify_bits} bits of "
                                   f"({b},{c},{d}) match the root expansion\n")

    def _check_stats(self, rc: int, out: str) -> bool:
        return self.check_stats(rc, out, "s.bin", "words32le")

    def _check_scan(self, rc: int, out: str) -> bool:
        words = np.fromfile(self.file("s.bin"), dtype="<u4")
        return self.check_scan("sc.csv", words, diagonal=False)


class Family(Workload):
    name = "family"
    members = 1001
    per_seed_bits = 1056
    drop_bits = 32
    precision = 64
    horizon = 200
    bits_written = members * (per_seed_bits - drop_bits)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        # b + c = 1001 keeps 1001 members, all of them source points
        self.b = 0 if self.paper else random.Random(seed).randint(-40, 40)
        self.c = self.members - self.b
        self.inputs = {"family": (self.b, self.c)}
        b, c = str(self.b), str(self.c)
        self.ops = [
            Op("seeds", ["seeds", "--b", b, "--c", c, "--gaps",
                         "--precision", str(self.precision),
                         "--audit-mergers", str(self.horizon)],
               (), self._check_seeds),
            Op("generate", ["generate", f"--seed-set={b},{c}",
                            "--per-seed-bits", str(self.per_seed_bits),
                            "--drop-prefix-bits", str(self.drop_bits),
                            "--out", self.path("f.raw")],
               ("f.raw",), self._check_generate),
            Op("stats", ["stats", "--in", self.path("f.raw")],
               (), self._check_stats, codes=(0, 1)),
        ]

    @property
    def ds(self) -> range:
        return range(-1, -self.members - 1, -1)

    def prepare(self) -> None:
        # the bits each member drops, which its certificate check needs
        self.dropped = [oracle.root_bits(self.b, self.c, d, self.drop_bits)[0]
                        for d in self.ds]
        self.expected_seeds = self._expected_seeds()

    @staticmethod
    def _source_reason(b: int, c: int, d: int) -> str:
        """The residue rule for triples without a predecessor."""
        if not (b & 1) == (c & 1) == (d & 1):
            return "mixed_parity"
        if b & 1 == 0:
            if c % 4 or d % 8:
                return "even_residue"
        elif (-2 * b + c) % 4 != 1 or (b - c + d) % 8 != 1:
            return "odd_residue"
        return "not_source"

    def _expected_seeds(self) -> dict:
        b, c = self.b, self.c
        members = []
        for d in self.ds:
            reason = self._source_reason(b, c, d)
            members.append({"b": b, "c": c, "d": d,
                            "source": reason != "not_source",
                            "reason": reason})
        scale = 1 << self.precision
        los = [oracle.root_bits(b, c, d, self.precision)[1] for d in self.ds]
        eps = Fraction(1, scale)
        entries, worst = [], Fraction(0)
        for d, upper, lower in zip(self.ds, los, los[1:]):
            gap = Fraction(lower - upper, scale)
            entries.append({"d": d, "delta": float(gap)})
            worst = max(worst, abs((gap - eps) * c - 1),
                        abs((gap + eps) * c - 1))
        return {
            "b": b, "c": c, "count": self.members,
            "parity_rule": (b + c) % 2 == 1,
            "members": members, "excluded": [],
            "gaps": {"precision": self.precision, "count": len(entries),
                     "max_deviation": float(worst), "entries": entries},
            # all members are source points and the step is injective, so
            # no two orbits can meet
            "merger_audit": {"horizon": self.horizon, "passed": True,
                             "states_checked":
                                 self.members * (self.horizon + 1)},
        }

    def _check_seeds(self, rc: int, out: str) -> bool:
        return json.loads(out) == self.expected_seeds

    def _check_generate(self, rc: int, out: str) -> bool:
        bits = oracle.file_bits(self.file("f.raw"), "raw")
        per = self.per_seed_bits - self.drop_bits
        if bits.size != self.members * per:
            return False
        return all(
            oracle.is_root_prefix(self.b, self.c, d, np.concatenate(
                [head, bits[i * per:(i + 1) * per]]))
            for i, (d, head) in enumerate(zip(self.ds, self.dropped))
        ) and self.pin_ok("family_raw", "f.raw")

    def _check_stats(self, rc: int, out: str) -> bool:
        return self.check_stats(rc, out, "f.raw", "raw")


class Lag(Workload):
    name = "lag"
    count = 312500
    recover_count = 10000
    bits_written = 0      # no certified bits

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.mt_seed = 5489 if self.paper else \
            random.Random(seed).getrandbits(32)
        self.inputs = {"mt_seed": self.mt_seed}
        n, s = str(self.count), str(self.mt_seed)
        self.ops = [
            Op("mt_gen", ["mt", "gen", "--count", n, "--seed", s,
                          "--out", self.path("mt.bin")],
               ("mt.bin",), self._check_gen),
            Op("stats", ["stats", "--in", self.path("mt.bin"),
                         "--format", "words32le"],
               (), self._check_stats, codes=(0, 1)),
            Op("mt_verify", ["mt", "verify", "--count", n, "--seed", s],
               (), self._check_verify, codes=(0, 1)),
            Op("mt_recover", ["mt", "recover", "--count",
                              str(self.recover_count), "--seed", s],
               (), self._check_recover, codes=(0, 1)),
            Op("mt_scan", ["mt", "scan", "--count", n, "--seed", s,
                           "--out", self.path("lag.csv")],
               ("lag.csv",), self._check_scan),
        ]

    def prepare(self) -> None:
        self.words = oracle.mt_words(self.mt_seed, self.count)

    def _check_gen(self, rc: int, out: str) -> bool:
        return (self.file("mt.bin").read_bytes()
                == self.words.astype("<u4").tobytes()
                and self.pin_ok("mt_bin", "mt.bin"))

    def _check_stats(self, rc: int, out: str) -> bool:
        return self.check_stats(rc, out, "mt.bin", "words32le")

    def _check_verify(self, rc: int, out: str) -> bool:
        return rc == 0 and out == (f"pass: recurrence holds at all "
                                   f"{self.count - 624} checkable indices\n")

    def _check_recover(self, rc: int, out: str) -> bool:
        return rc == 0 and \
            out == "pass: recovered matrices match the packaged data\n"

    def _check_scan(self, rc: int, out: str) -> bool:
        return self.check_scan("lag.csv", self.words, diagonal=True)


WORKLOADS = {w.name: w for w in (Stream, Family, Lag)}
