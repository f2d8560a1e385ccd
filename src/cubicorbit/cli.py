"""Batch command line front end.

Subcommands:
    generate   emit bits from one triple or a whole seed family
    verify     certify the generator's bits with the shifted triple
    seeds      build a seed family and run its audits, JSON out
    mt         reference-generator tooling: gen / verify / recover / scan
    stats      run the randomness test battery over a bit file

Exit codes: 0 success or analytic pass, 1 analytic failure, 2 usage or
I/O error. All commands are deterministic given their flags and input
files.

main() builds the parser once per process and reuses it: parse_args
keeps no state between calls, and each cmd_* function looks its helpers
up as module globals when it runs. build_parser() returns a fresh one.

`seeds` and `stats` print the text of json.dumps(payload, indent=2), but
through _indented_json, not indent=: given an indent, CPython 3.11 drops
its C encoder for the pure-Python one, which took 40% of a 1001-member
`seeds` run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, orbit
from .bitstream import (BitStream, OutputFormat, check_whole_units, read_bits,
                        read_text, read_words_le, replace_on_success,
                        write_bits, write_words_le)
from .mt19937 import (MT19937, DEFAULT_SEED, N, RankDeficient, lag_pairs_csv,
                      load_recurrence_matrices, recover_matrices,
                      scan_conditions_ab, verify_recurrence)
# isolate_root_bits is not called here: it stays a cli name for perfbench's spans
from .orbit import (CoeffTriple, ConditionViolation, OrbitState,
                    generate_bits, isolate_root_bits, shifted, validate_triple)
from .seeds import (build_seed_set, field_distinctness_check, gap_report,
                    is_source_point, merger_audit)
from .stats import run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# options some modes do not read (None when not given), with their defaults
_FAMILY_DEFAULTS = {"per_seed_bits": 1000032, "drop_prefix_bits": 32, "jobs": 1}
_MT_DEFAULTS = {"seed": DEFAULT_SEED, "count": 10000}


def _triple_from_args(args) -> CoeffTriple:
    if args.b is None or args.c is None or args.d is None:
        raise ValueError("generate: --b, --c and --d are required "
                         "unless --resume or --seed-set is given")
    return validate_triple(args.b, args.c, args.d)


def _worker_generate(job) -> BitStream:
    triple, n_bits, drop = job
    bits, n = generate_bits(triple, n_bits)[0], n_bits - drop
    return BitStream(bits.value & ((1 << n) - 1), n)  # the last n bits


# what json writes as a container; all else is a scalar to it
_CONTAINERS = (dict, list, tuple)


def _indented_json(obj, pad: str = "\n") -> str:
    """Exactly json.dumps(obj, indent=2), from the C encoder; pad is a
    newline and obj's own indent.

    Each container is one encoder call whose item separator holds the
    newline and indent of its items, and Python adds the brackets. A
    nested value stands in that call as 0, and its own text replaces the
    0. Splitting at the separator is exact, as the encoder escapes every
    newline inside a string. A list of non-empty dicts of scalars (a
    table) is a single call, its rows split at "},<newline and indent>{".
    """
    if not isinstance(obj, _CONTAINERS):
        return json.dumps(obj)
    is_dict = isinstance(obj, dict)
    start, end = "{}" if is_dict else "[]"
    if not obj:
        return start + end
    inner = pad + "  "
    sep = "," + inner
    if not is_dict and all(isinstance(r, dict) and r for r in obj) and not any(
            issubclass(t, _CONTAINERS)
            for t in {type(v) for r in obj for v in r.values()}):
        row = inner + "  "
        flat = json.JSONEncoder(separators=("," + row, ": ")).encode(obj)
        rows = flat[2:-2].replace("}," + row + "{",
                                  inner + "}" + sep + "{" + row)
        return "[" + inner + "{" + row + rows + inner + "}" + pad + "]"
    values = obj.values() if is_dict else obj
    nested = [isinstance(v, _CONTAINERS) for v in values]
    encode = json.JSONEncoder(separators=(sep, ": ")).encode
    if not any(nested):
        return start + inner + encode(obj)[1:-1] + pad + end
    stub = ({k: 0 if n else v for (k, v), n in zip(obj.items(), nested)}
            if is_dict else [0 if n else v for v, n in zip(obj, nested)])
    items = encode(stub)[1:-1].split(sep)
    return start + inner + sep.join(
        item[:-1] + _indented_json(v, inner) if n else item
        for item, v, n in zip(items, values, nested)) + pad + end


def _reject_given(args, message: str, keys: Sequence[str]) -> None:
    given = [k.replace("_", "-") for k in keys if getattr(args, k) is not None]
    if given:
        raise ValueError(f"{message} --" + ", --".join(given))


def cmd_generate(args) -> int:
    if not args.seed_set:
        _reject_given(args, "generate: only --seed-set takes", _FAMILY_DEFAULTS)
    out_path = args.out or "-"
    if (args.checkpoint and out_path != "-"
            and Path(args.checkpoint).resolve() == Path(out_path).resolve()):
        raise ValueError("generate: --out and --checkpoint name the same file")
    fmt = OutputFormat(args.format)
    if out_path == "-" and fmt is not OutputFormat.ASCII_BITS:
        raise ValueError("generate: only --format ascii can write to stdout")
    per_seed, drop, n_jobs = (  # the defaults, unless in --seed-set mode
        default if getattr(args, k) is None else getattr(args, k)
        for k, default in _FAMILY_DEFAULTS.items())
    if n_jobs < 1:
        raise ValueError("generate: --jobs must be at least 1")
    # the pool forks all its workers at once: no more than there are CPUs
    n_jobs = min(n_jobs, os.cpu_count() or 1)
    if args.seed_set:
        _reject_given(args, "generate: --seed-set does not take",
                      ("b", "c", "d", "bits", "resume", "checkpoint"))
        try:
            b_val, c_val = map(int, args.seed_set.split(","))
        except ValueError:
            raise ValueError(f"generate: --seed-set wants 'B,C', "
                             f"got {args.seed_set!r}") from None
        if not 0 <= drop < per_seed:
            raise ValueError("generate: --drop-prefix-bits must be at least 0 "
                             "and less than --per-seed-bits")
        fam = build_seed_set(b_val, c_val)
    elif args.bits is None or args.bits < 1:
        raise ValueError("generate: --bits must be at least 1")
    n_bits = len(fam) * (per_seed - drop) if args.seed_set else args.bits
    try:  # before any work: a padded last unit would hold uncertified bits
        check_whole_units(fmt, n_bits)
    except ValueError as exc:
        raise ValueError(f"generate: --format {exc}") from None
    if n_jobs > 1:  # only a pool needs multiprocessing: import it here
        from concurrent.futures import ProcessPoolExecutor
    # the checkpoint's temp file is made before the work, so a path that
    # cannot be written fails first; it takes the checkpoint's place only
    # after the output, so it never claims unwritten bits (not in --seed-set)
    ck_file = (replace_on_success(args.checkpoint) if args.checkpoint
               else nullcontext())
    with ck_file as checkpoint, (ProcessPoolExecutor(n_jobs) if n_jobs > 1
                                 else nullcontext()) as pool:
        if args.seed_set:
            # members are CoeffTriples already validated by build_seed_set
            jobs = [(m, per_seed, drop) for m in fam.members]
            # a worker takes a few contiguous members per pickle round trip
            streams = map(_worker_generate, jobs) if pool is None else pool.map(
                _worker_generate, jobs, chunksize=-(-len(jobs) // (4 * n_jobs)))
        else:
            if args.resume:
                _reject_given(args, "generate: --resume does not take", "bcd")
                origin = OrbitState.from_text(
                    read_text(args.resume, "an orbit state (--resume)"))
            else:
                origin = _triple_from_args(args)
            stream, final = generate_bits(origin, n_bits)
            streams = [stream]
        if out_path == "-":
            sys.stdout.writelines(s.to01() for s in streams)
            sys.stdout.write("\n")
        else:
            write_bits(out_path, streams, fmt, n_bits)
        if checkpoint:
            checkpoint.write(final.to_text().encode())
    return EXIT_OK


def _first_wrong_bit(triple: CoeffTriple, got: int, n: int) -> int:
    """Index of the first wrong bit of n bits got that fail the certificate.

    The first j bits certify exactly when they are right, so this bisects
    on j with shifted() alone, each try shifting on from the last prefix
    that certified: no second jump, and about one certificate's work.
    """
    good, bad, t = 0, n, triple  # t: the triple after the first `good` bits
    while bad - good > 1:
        j = (good + bad) // 2
        try:
            t = shifted(t, (got >> (n - j)) & ((1 << (j - good)) - 1), j - good)
            good = j
        except ConditionViolation:
            bad = j
    return good


def cmd_verify(args) -> int:
    if args.bits < 1:
        raise ValueError("verify: --bits must be at least 1")
    triple = _triple_from_args(args)
    got = generate_bits(triple, args.bits)[0].value
    try:  # the shifted-triple certificate, independent of how got was found
        shifted(triple, got, args.bits)
    except ConditionViolation:
        print(f"fail: first mismatch at bit {_first_wrong_bit(triple, got, args.bits)}")
        return EXIT_FAIL
    print(f"pass: {args.bits} bits of ({triple.b},{triple.c},{triple.d}) "
          f"match the root expansion")
    return EXIT_OK


def cmd_seeds(args) -> int:
    # the audits' own range checks, made before any of them runs
    if args.precision is not None and not args.gaps:
        raise ValueError("seeds: --precision needs --gaps")
    precision = 64 if args.precision is None else args.precision
    if precision < 32:
        raise ValueError("precision must be at least 32 bits")
    if args.audit_mergers is not None and args.audit_mergers < 1:
        raise ValueError("horizon must be at least 1")
    if args.distinctness is not None and args.distinctness < 2:
        raise ValueError("factor_bound must be at least 2")
    fam = build_seed_set(args.b, args.c)
    reasons = [(m, is_source_point(m)) for m in fam.members]
    payload = {
        "b": fam.b, "c": fam.c, "count": len(fam), "parity_rule": fam.parity_rule,
        "members": [
            {"b": m.b, "c": m.c, "d": m.d,
             "source": r.is_source, "reason": r.value}
            for m, r in reasons
        ],
        "excluded": [],  # every d is admissible: see build_seed_set
    }
    failed = False
    if args.gaps:
        rep, one = gap_report(fam, precision), 1 << precision
        payload["gaps"] = {
            "precision": precision,
            "count": len(rep.gaps),
            "max_deviation": float(rep.max_deviation),
            # g / 2^p is correctly rounded, so it equals float(g.delta)
            "entries": [{"d": g.d, "delta": g.g / one} for g in rep.gaps],
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
        payload["distinctness"] = {
            "factor_bound": rep.factor_bound,
            "pairs": len(fam) * (len(fam) - 1) // 2,
            "distinct": rep.distinct_pairs(),
            "uncertified": rep.uncertified(),
            "equal_kernels": rep.equal_kernels(),
        }
    sys.stdout.write(_indented_json(payload) + "\n")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_mt(args) -> int:
    if args.mt_cmd == "scan" and args.source == "file":
        _reject_given(args, "mt scan: --source file does not take", _MT_DEFAULTS)
        if not args.infile:
            raise ValueError("mt scan: --source file requires --in")
        words = read_words_le(args.infile)
        if words.size < N + 1:
            raise ValueError(f"mt scan: {args.infile} holds {words.size} "
                             f"32-bit words; the scan needs at least {N + 1}")
    elif args.mt_cmd == "scan" and args.infile:
        raise ValueError("mt scan: --in needs --source file")
    else:
        seed, count = (v if getattr(args, k) is None else getattr(args, k)
                       for k, v in _MT_DEFAULTS.items())
        # the analyses check the recurrence at n >= N, so need N + 1 words
        least = 1 if args.mt_cmd == "gen" else N + 1
        if count < least:
            raise ValueError(f"mt {args.mt_cmd}: --count must be at least {least}")
        words = MT19937(seed).generate(count)
    if args.mt_cmd == "gen":
        write_words_le(args.out, words)
        return EXIT_OK
    a, b = load_recurrence_matrices()
    if args.mt_cmd == "verify":
        check = verify_recurrence(words, a, b)
        if check.ok:
            print(f"pass: recurrence holds at all {check.checked} checkable indices")
            return EXIT_OK
        print(f"fail: first violation at n={check.first_violation}")
        return EXIT_FAIL
    if args.mt_cmd == "recover":
        try:
            ra, rb = recover_matrices(words)
        except RankDeficient:
            raise ValueError(f"mt recover: --count {count} gives a "
                             "rank-deficient system; more words are needed"
                             ) from None
        if (ra, rb) != (a, b):
            print("fail: recovered matrices differ from the packaged data")
            return EXIT_FAIL
        held_out = verify_recurrence(words, a, b)
        if not held_out.ok:
            print("fail: recovered matrices match the packaged data but the "
                  f"recurrence fails at n={held_out.first_violation}")
            return EXIT_FAIL
        print("pass: recovered matrices match the packaged data")
        return EXIT_OK
    # scan: argparse admits no fifth subcommand
    text = lag_pairs_csv(scan_conditions_ab(words, a, b))
    if args.out:
        with replace_on_success(args.out) as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:  # false for NaN too
        raise ValueError("stats: --alpha must be between 0 and 1")
    result = run_suite(read_bits(args.infile, OutputFormat(args.format)),
                       alpha=args.alpha)
    sys.stdout.write(_indented_json(result.to_dict()) + "\n")
    return EXIT_OK if result.all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicorbit",
        description="exact doubling-map bit generation on cubic integer triples")
    # the version, then the big-integer type the jump runs on
    backend = "int" if orbit.mpz is int else "gmpy2.mpz"
    parser.add_argument("--version", action="version",
                        version=f"{__version__} ({backend})")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit pseudorandom bits")
    for k in "bcd":
        p.add_argument("--" + k, type=int)
    p.add_argument("--bits", type=int, help="number of bits to emit")
    p.add_argument("--format", choices=sorted(f.value for f in OutputFormat),
                   default="raw")
    p.add_argument("--out", help="output path (default stdout, ascii only)")
    p.add_argument("--resume", help="orbit state file to continue from")
    p.add_argument("--checkpoint", help="write the final orbit state here")
    p.add_argument("--seed-set", metavar="B,C",
                   help="generate from every member of the (B,C) family, "
                        "concatenated in descending d order")
    for k, what in [("per_seed_bits", "bits per family member"),
                    ("drop_prefix_bits", "bits dropped from each member's head"),
                    ("jobs", "parallel workers")]:
        p.add_argument("--" + k.replace("_", "-"), type=int, help=(
            f"{what} in --seed-set mode (default {_FAMILY_DEFAULTS[k]})"))
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="check bits against the root expansion")
    for k in "bcd":
        p.add_argument("--" + k, type=int, required=True)
    p.add_argument("--bits", type=int, default=256)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("seeds", help="build and audit a seed family")
    for k in "bc":
        p.add_argument("--" + k, type=int, required=True)
    p.add_argument("--gaps", action="store_true", help="include the gap report")
    p.add_argument("--precision", type=int,
                   help="--gaps root enclosure precision in bits (default 64)")
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
        for k, what in [("count", "number of 32-bit outputs"),
                        ("seed", "MT19937 seed")]:
            mp.add_argument("--" + k, type=int,
                            help=f"{what} (default {_MT_DEFAULTS[k]})")
        if name == "gen":
            mp.add_argument("--out", required=True)
        if name == "scan":
            mp.add_argument("--source", choices=["mt", "file"], default="mt",
                            help="mt: --count words from --seed; file: --in")
            mp.add_argument("--in", dest="infile",
                            help="little-endian 32-bit word file to scan")
            mp.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_mt)

    p = sub.add_parser("stats", help="run the randomness test battery")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["ascii", "json", "raw", "words32le"],
                   default="raw")
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(fn=cmd_stats)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a request too large: numpy refuses it up front
        command = " ".join(filter(None, (args.cmd, getattr(args, "mt_cmd", None))))
        print(f"error: {command}: out of memory" + (f" ({exc})" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
