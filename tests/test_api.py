"""The public API surface, and the names the benchmark harness looks up.

perfbench/ wraps the package from outside: it swaps module globals and
class attributes for traced versions and reads a few attributes of the
results. A rename or deletion there fails the benchmark, not the tests,
so the names it uses are pinned here.
"""

import pytest

import cubicorbit
from cubicorbit import bitstream, cli, mt19937, orbit, seeds, stats


def test_every_export_resolves():
    assert len(set(cubicorbit.__all__)) == len(cubicorbit.__all__)
    for name in cubicorbit.__all__:
        assert hasattr(cubicorbit, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cubicorbit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cubicorbit.__all__)


# perfbench/spans.py: installed() wraps these module globals
SPAN_GLOBALS = [
    (cli, "generate_bits"), (cli, "isolate_root_bits"),
    (cli, "build_seed_set"), (cli, "is_source_point"), (cli, "gap_report"),
    (cli, "merger_audit"), (cli, "write_bits"), (cli, "read_bits"),
    (cli, "write_words_le"), (cli, "read_words_le"), (cli, "run_suite"),
    (cli, "load_recurrence_matrices"), (cli, "verify_recurrence"),
    (cli, "recover_matrices"), (cli, "scan_conditions_ab"),
    (cli, "lag_pairs_csv"),
    (seeds, "step"), (seeds, "refine_to_resolution"),
    (stats, "monobit"), (stats, "block_frequency"), (stats, "runs"),
    (stats, "longest_run"), (stats, "serial"), (stats, "cumulative_sums"),
    (stats, "approximate_entropy"),
    (mt19937, "solve_linear_system"),
]

# perfbench/spans.py: installed() wraps these methods in the class dict
SPAN_METHODS = [
    (orbit.OrbitState, "to_text"), (orbit.OrbitState, "from_text"),
    (bitstream.BitStream, "pack_words"), (mt19937.MT19937, "generate"),
]


@pytest.mark.parametrize("owner, attr", SPAN_GLOBALS,
                         ids=[f"{o.__name__}.{a}" for o, a in SPAN_GLOBALS])
def test_spans_module_globals(owner, attr):
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("cls, attr", SPAN_METHODS,
                         ids=[f"{c.__name__}.{a}" for c, a in SPAN_METHODS])
def test_spans_class_methods(cls, attr):
    assert attr in cls.__dict__


def test_spans_counters_read_these_results():
    # perfbench/spans.py: _count_generate and _count_merger
    _, state = cli.generate_bits(orbit.validate_triple(0, 1, -1), 8)
    assert state.triple.max_coeff_bits() > 0
    fam = cli.build_seed_set(0, 4)
    assert len(fam) == 4
    assert cli.merger_audit(fam, 5).states_checked > 0


def test_run_looks_up():
    # perfbench/run.py: its set-up code, the command entry point and the
    # big-integer backend it reports
    assert callable(cli.build_parser) and callable(cli.main)
    assert callable(mt19937.load_recurrence_matrices)
    assert orbit.mpz.__module__ and orbit.mpz.__name__
