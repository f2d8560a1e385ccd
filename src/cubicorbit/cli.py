"""Batch command line front end.

Subcommands:
    generate   emit bits from one triple or a whole seed family
    verify     compare generator output against the root oracle
    seeds      build a seed family and run its audits, JSON out
    mt         reference-generator tooling: gen / verify / recover / scan
    stats      run the randomness test battery over a bit file

Exit codes: 0 success or analytic pass, 1 analytic failure, 2 usage or
I/O error. All commands are deterministic given their flags and input
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bitstream import (BitStream, OutputFormat, read_bits, read_words_le,
                        write_bits, write_words_le)
from .mt19937 import (MT19937, DEFAULT_SEED, lag_pairs_csv,
                      load_recurrence_matrices, recover_matrices,
                      scan_conditions_ab, verify_recurrence)
from .orbit import CoeffTriple, OrbitState, generate_bits, validate_triple
from .roots import isolate_root_bits
from .seeds import (build_seed_set, field_distinctness_check, gap_report,
                    is_source_point, merger_audit)
from .stats import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _triple_from_args(args) -> CoeffTriple:
    if args.b is None or args.c is None or args.d is None:
        raise ValueError("generate: --b, --c and --d are required "
                         "unless --resume or --seed-set is given")
    return validate_triple(args.b, args.c, args.d)


def _worker_generate(job) -> bytes:
    (b, c, d), n_bits, drop = job
    bits, _ = generate_bits(validate_triple(b, c, d), n_bits)
    return bits.bits[drop:].tobytes()


def _check_whole_words(fmt: OutputFormat, n_bits: int) -> None:
    """Whole words only: a padded last word would hold uncertified bits."""
    if fmt is OutputFormat.WORDS32_LE and n_bits % 32:
        raise ValueError(f"generate: --format words32le writes whole 32-bit "
                         f"words, but {n_bits} bits is not a multiple of 32")


def cmd_generate(args) -> int:
    out_path = args.out or "-"
    fmt = OutputFormat(args.format)
    if out_path == "-" and fmt is not OutputFormat.ASCII_BITS:
        raise ValueError("generate: only --format ascii can write to stdout")
    if args.jobs < 1:
        raise ValueError("generate: --jobs must be at least 1")
    if args.seed_set:
        given = [k for k in ("b", "c", "d", "bits", "resume", "checkpoint")
                 if getattr(args, k) is not None]
        if given:
            raise ValueError("generate: --seed-set does not take --"
                             + ", --".join(given))
        try:
            b_str, c_str = args.seed_set.split(",")
            b_val, c_val = int(b_str), int(c_str)
        except ValueError:
            raise ValueError(f"generate: --seed-set wants 'B,C', "
                             f"got {args.seed_set!r}") from None
        if not 0 <= args.drop_prefix_bits < args.per_seed_bits:
            raise ValueError("generate: --drop-prefix-bits must be at least 0 "
                             "and less than --per-seed-bits")
        fam = build_seed_set(b_val, c_val)
        _check_whole_words(
            fmt, len(fam) * (args.per_seed_bits - args.drop_prefix_bits))
        jobs = [(m.as_tuple(), args.per_seed_bits, args.drop_prefix_bits)
                for m in fam.members]
        if args.jobs > 1:
            # a few contiguous runs of members per worker, not one pickle
            # round trip per member
            per_chunk = -(-len(jobs) // (4 * args.jobs))
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                chunks = list(pool.map(_worker_generate, jobs,
                                       chunksize=per_chunk))
        else:
            chunks = [_worker_generate(j) for j in jobs]
        stream = BitStream(np.frombuffer(b"".join(chunks), dtype=np.uint8))
    else:
        if args.bits is None or args.bits < 1:
            raise ValueError("generate: --bits must be at least 1")
        _check_whole_words(fmt, args.bits)
        if args.resume:
            with open(args.resume) as fh:
                state: OrbitState | CoeffTriple = OrbitState.from_text(fh.read())
        else:
            state = _triple_from_args(args)
        stream, final = generate_bits(state, args.bits)
    if out_path == "-":
        sys.stdout.write(stream.to01() + "\n")
    else:
        write_bits(out_path, stream, fmt)
    # after the output, so it never claims unwritten bits (not in --seed-set)
    if args.checkpoint:
        text = final.to_text()
        with open(args.checkpoint, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.bits < 1:
        raise ValueError("verify: --bits must be at least 1")
    triple = _triple_from_args(args)
    generated, _ = generate_bits(triple, args.bits)
    expected, _ = isolate_root_bits(triple, args.bits)
    got = generated.to01()
    if got == expected:
        print(f"pass: {args.bits} bits of ({triple.b},{triple.c},{triple.d}) "
              f"match the root expansion")
        return EXIT_OK
    first = next(i for i, (x, y) in enumerate(zip(got, expected)) if x != y)
    print(f"fail: first mismatch at bit {first}")
    return EXIT_FAIL


def cmd_seeds(args) -> int:
    # the audits' own range checks, made before any of them runs
    if args.gaps and args.precision < 32:
        raise ValueError("precision must be at least 32 bits")
    if args.audit_mergers is not None and args.audit_mergers < 1:
        raise ValueError("horizon must be at least 1")
    if args.distinctness is not None and args.distinctness < 2:
        raise ValueError("factor_bound must be at least 2")
    fam = build_seed_set(args.b, args.c)
    verdicts = [(m, is_source_point(m)) for m in fam.members]
    payload = {
        "b": fam.b,
        "c": fam.c,
        "count": len(fam),
        "parity_rule": fam.parity_rule,
        "members": [
            {"b": m.b, "c": m.c, "d": m.d,
             "source": v.is_source, "reason": v.reason.value}
            for m, v in verdicts
        ],
        "excluded": [list(t) for t in fam.excluded],
    }
    failed = False
    if args.gaps:
        rep = gap_report(fam, args.precision)
        payload["gaps"] = {
            "precision": args.precision,
            "count": len(rep.gaps),
            "max_deviation": rep.max_deviation_float(),
            "entries": [{"d": g.d, "delta": float(g.delta)} for g in rep.gaps],
        }
    if args.audit_mergers is not None:
        audit = merger_audit(fam, args.audit_mergers)
        payload["merger_audit"] = {
            "horizon": audit.horizon,
            "passed": audit.passed,
            "states_checked": audit.states_checked,
        }
        if audit.collision:
            c = audit.collision
            payload["merger_audit"]["collision"] = {
                "member_a": c.member_a, "step_a": c.step_a,
                "member_b": c.member_b, "step_b": c.step_b,
            }
            failed = True
    if args.distinctness is not None:
        rep = field_distinctness_check(fam, args.distinctness)
        unknown = rep.unknown_pairs()
        payload["distinctness"] = {
            "factor_bound": rep.factor_bound,
            "pairs": len(rep.pairs),
            "distinct": len(rep.pairs) - len(unknown),
            "unknown": [[i, j] for i, j in unknown],
        }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_FAIL if failed else EXIT_OK


def _load_scan_words(args) -> np.ndarray:
    if args.source == "mt":
        return MT19937(args.seed).generate(args.count)
    if not getattr(args, "infile", None):
        raise ValueError("mt scan: --source file requires --in")
    return read_words_le(args.infile)


def cmd_mt(args) -> int:
    if args.mt_cmd == "gen":
        if args.count == 0:
            raise ValueError("mt gen: --count must be at least 1")
        words = MT19937(args.seed).generate(args.count)
        write_words_le(args.out, words)
        return EXIT_OK
    a, b = load_recurrence_matrices()
    if args.mt_cmd == "verify":
        words = MT19937(args.seed).generate(args.count)
        check = verify_recurrence(words, a, b)
        if check.ok:
            print(f"pass: recurrence holds at all {check.checked} checkable indices")
            return EXIT_OK
        print(f"fail: first violation at n={check.first_violation}")
        return EXIT_FAIL
    if args.mt_cmd == "recover":
        words = MT19937(args.seed).generate(args.count)
        ra, rb = recover_matrices(words)
        held_out = verify_recurrence(words, ra, rb)
        if (ra, rb) == (a, b) and held_out.ok:
            print("pass: recovered matrices match the packaged data")
            return EXIT_OK
        print("fail: recovered matrices differ from the packaged data")
        return EXIT_FAIL
    # scan: argparse admits no fifth subcommand
    words = _load_scan_words(args)
    pairs = scan_conditions_ab(words, a, b)
    text = lag_pairs_csv(pairs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    fmt = OutputFormat(args.format)
    bits = read_bits(args.infile, fmt)
    result = run_suite(bits, alpha=args.alpha)
    json.dump(result.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if result.all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicorbit",
        description="exact doubling-map bit generation on cubic integer triples")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit pseudorandom bits")
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--bits", type=int, help="number of bits to emit")
    p.add_argument("--format", choices=sorted(f.value for f in OutputFormat),
                   default="raw")
    p.add_argument("--out", help="output path (default stdout, ascii only)")
    p.add_argument("--resume", help="orbit state file to continue from")
    p.add_argument("--checkpoint", help="write the final orbit state here")
    p.add_argument("--seed-set", metavar="B,C",
                   help="generate from every member of the (B,C) family, "
                        "concatenated in descending d order")
    p.add_argument("--per-seed-bits", type=int, default=1000032,
                   help="bits per family member in --seed-set mode")
    p.add_argument("--drop-prefix-bits", type=int, default=32,
                   help="bits dropped from the head of each member's output")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for --seed-set mode")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="check bits against the root expansion")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bits", type=int, default=256)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("seeds", help="build and audit a seed family")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--gaps", action="store_true", help="include the gap report")
    p.add_argument("--precision", type=int, default=64,
                   help="root enclosure precision in bits")
    p.add_argument("--audit-mergers", type=int, metavar="H",
                   help="check that no two member orbits merge "
                        "within H steps")
    p.add_argument("--distinctness", type=int, metavar="BOUND",
                   help="discriminant-kernel check, trial division bound")
    p.set_defaults(fn=cmd_seeds)

    p = sub.add_parser("mt", help="reference generator analysis")
    msub = p.add_subparsers(dest="mt_cmd", required=True)
    for name, helptext in [("gen", "write raw output words"),
                           ("verify", "check the lagged recurrence"),
                           ("recover", "re-derive the matrices from output"),
                           ("scan", "emit lag-coincidence pairs as CSV")]:
        mp = msub.add_parser(name, help=helptext)
        mp.add_argument("--count", type=int, default=10000,
                        help="number of 32-bit outputs")
        mp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "gen":
            mp.add_argument("--out", required=True)
        if name == "scan":
            mp.add_argument("--source", choices=["mt", "file"], default="mt")
            mp.add_argument("--in", dest="infile",
                            help="little-endian 32-bit word file to scan")
            mp.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_mt)

    p = sub.add_parser("stats", help="run the randomness test battery")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["raw", "ascii", "words32le"],
                   default="raw")
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
