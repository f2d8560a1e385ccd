"""Span tracing of cubicorbit from outside the package.

Each public function is wrapped where its caller looks it up (a module
global of the caller, or an attribute of the class whose method is
called), so no file under src/ changes. A span records its name, its
parent's name, start, end and the time its child spans took; self time is
the span minus its children. Spans stay in memory until the benchmark
reads them at the end of a pass.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "orbit", "roots", "seeds", "bitstream", "stats",
           "mt19937", "gf2")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (name, parent, start, end, child_s)
        self.counts: Counter = Counter()
        self.root: str | None = None
        self._stack: list[list] = []   # [name, child seconds]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(tracer, args, result) runs after it.

        Kept lean: orbit.step runs 200k times a family pass.
        """
        calls = name + ".calls"
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.root = name
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((name, parent and parent[0], start, end,
                              frame[1]))
            counts[calls] += 1
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def totals(self) -> tuple[dict, dict]:
        """Seconds per span name, in total and net of child spans."""
        total: Counter = Counter()
        self_s: Counter = Counter()
        for name, _parent, start, end, child in self.spans:
            total[name] += end - start
            self_s[name] += end - start - child
        return dict(total), dict(self_s)


def _count_generate(tr, args, result):
    tr.counts["orbit.bits"] += args[1]
    bits = result[1].triple.max_coeff_bits()
    tr.counts["orbit.final_coeff_bits"] = max(
        tr.counts["orbit.final_coeff_bits"], bits)


def _count_isolate(tr, args, result):
    tr.counts["roots.bits"] += args[1]


def _count_seed_set(tr, args, result):
    if tr.root == "cli.seeds":
        tr.counts["seeds.members_reported"] += len(result)


def _count_merger(tr, args, result):
    tr.counts["seeds.merger_audit.states_checked"] += result.states_checked


def _count_mt_generate(tr, args, result):
    tr.counts["mt19937.words_generated"] += args[1]
    tr.counts["mt19937.words_needed"] = max(
        tr.counts["mt19937.words_needed"], args[1])


def _count_scan(tr, args, result):
    tr.counts["mt19937.lag_pairs"] += len(result)


def _count_written(tr, args, result):
    tr.counts["bitstream.bytes_written"] += os.path.getsize(args[0])


def _count_read(tr, args, result):
    tr.counts["bitstream.bytes_read"] += os.path.getsize(args[0])


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's public functions for the duration of the block."""
    from cubicorbit import bitstream, cli, mt19937, orbit, seeds, stats

    patches = []  # (owner, attribute, wrapped value)

    def fn(owner, attr, name, count=None):
        patches.append((owner, attr,
                        tracer.wrap(name, getattr(owner, attr), count)))

    def method(cls, attr, name, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patches.append((cls, attr,
                            classmethod(tracer.wrap(name, raw.__func__, count))))
        else:
            patches.append((cls, attr, tracer.wrap(name, raw, count)))

    # orbit
    fn(cli, "generate_bits", "orbit.generate_bits", _count_generate)
    fn(seeds, "step", "orbit.step")
    method(orbit.OrbitState, "to_text", "orbit.OrbitState.to_text")
    method(orbit.OrbitState, "from_text", "orbit.OrbitState.from_text")
    # roots
    fn(cli, "isolate_root_bits", "roots.isolate_root_bits", _count_isolate)
    fn(seeds, "refine_to_resolution", "roots.refine_to_resolution")
    # seeds
    fn(cli, "build_seed_set", "seeds.build_seed_set", _count_seed_set)
    fn(cli, "is_source_point", "seeds.is_source_point")
    fn(cli, "gap_report", "seeds.gap_report")
    fn(cli, "merger_audit", "seeds.merger_audit", _count_merger)
    # bitstream
    fn(cli, "write_bits", "bitstream.write_bits", _count_written)
    fn(cli, "read_bits", "bitstream.read_bits", _count_read)
    fn(cli, "write_words_le", "bitstream.write_words_le", _count_written)
    fn(cli, "read_words_le", "bitstream.read_words_le", _count_read)
    method(bitstream.BitStream, "pack_words", "bitstream.pack_words")
    # stats: run_suite looks its tests up as globals of the stats module
    fn(cli, "run_suite", "stats.run_suite")
    for test in ("monobit", "block_frequency", "runs", "longest_run",
                 "serial", "cumulative_sums", "approximate_entropy"):
        fn(stats, test, f"stats.{test}")
    # mt19937, and gf2 under it
    method(mt19937.MT19937, "generate", "mt19937.generate", _count_mt_generate)
    fn(cli, "load_recurrence_matrices", "mt19937.load_recurrence_matrices")
    fn(cli, "verify_recurrence", "mt19937.verify_recurrence")
    fn(cli, "recover_matrices", "mt19937.recover_matrices")
    fn(cli, "scan_conditions_ab", "mt19937.scan_conditions_ab", _count_scan)
    fn(cli, "lag_pairs_csv", "mt19937.lag_pairs_csv")
    fn(mt19937, "solve_linear_system", "gf2.solve_linear_system")

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
