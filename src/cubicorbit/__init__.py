"""Pseudorandom bits from exact doubling-map orbits on cubic integer triples.

The package has three legs:

* the generator itself: the doubling map on coefficient triples, one
  step or a certified jump at a time, plus seed-family construction and
  audits,
* an exact root oracle: certified dyadic intervals that recover the same
  bits as the binary expansion of the represented cubic irrational,
* analysis tooling: a reference MT19937 with its GF(2) lag recurrence,
  and a small statistical test battery.
"""

from .bitstream import BitStream, OutputFormat, PackResult, pack_words
from .gf2 import Gf2Matrix32, Gf2Vector32
from .mt19937 import (MT19937, DataCorrupt, LagPair, RankDeficient,
                      RecurrenceCheck, load_recurrence_matrices,
                      recover_matrices, scan_conditions_ab, temper,
                      untemper, verify_recurrence)
from .orbit import (CoeffTriple, ConditionViolation, OrbitState,
                    generate_bits, inverse_step, jump, shifted, step,
                    validate_triple)
from .roots import RootInterval, isolate_root_bits, refine_to_resolution
from .seeds import (DistinctnessReport, GapEntry, GapReport, InvalidShape,
                    KernelInfo, MergerAudit, MergerCollision, PairVerdict,
                    PrecisionTooLow, SeedSet, SourceReason, SourceVerdict,
                    build_seed_set, field_distinctness_check, gap_report,
                    is_source_point, merger_audit)
from .stats import (InputTooShort, SuiteResult, TestReport,
                    approximate_entropy, block_frequency, cumulative_sums,
                    longest_run, monobit, run_suite, runs, serial)

__version__ = "0.1.0"

__all__ = [
    "BitStream", "OutputFormat", "PackResult", "pack_words",
    "Gf2Matrix32", "Gf2Vector32",
    "MT19937", "DataCorrupt", "LagPair", "RankDeficient", "RecurrenceCheck",
    "load_recurrence_matrices", "recover_matrices", "scan_conditions_ab",
    "temper", "untemper", "verify_recurrence",
    "CoeffTriple", "ConditionViolation", "OrbitState", "generate_bits",
    "inverse_step", "jump", "shifted", "step", "validate_triple",
    "RootInterval", "isolate_root_bits", "refine_to_resolution",
    "DistinctnessReport", "GapEntry", "GapReport", "InvalidShape",
    "KernelInfo", "MergerAudit", "MergerCollision", "PairVerdict",
    "PrecisionTooLow", "SeedSet", "SourceReason", "SourceVerdict",
    "build_seed_set", "field_distinctness_check", "gap_report",
    "is_source_point", "merger_audit",
    "InputTooShort", "SuiteResult", "TestReport", "approximate_entropy",
    "block_frequency", "cumulative_sums", "longest_run", "monobit",
    "run_suite", "runs", "serial",
    "__version__",
]
