"""cubicorbit benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload stream|family|lag --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory and nothing is installed. One process runs one CLI
invocation at a time through cubicorbit.cli.main(argv), with --jobs 1,
repeating the workload's pass until --seconds have elapsed. Every output
is checked against references that do not use the package (oracle.py).

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced passes and reports the per-layer metrics:
per-command latencies from the untraced passes, per-function span times
and exact counts from the traced ones, and the difference between the
two as the tracing overhead.

Standard output ends with one JSON line: correct, attempted, failed and
metrics. The line before it records the environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import MODULES, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "from cubicorbit import cli, mt19937; "
              "cli.build_parser(); mt19937.load_recurrence_matrices()")

# per-command latencies reported by the traced run: metric -> op name
COMMAND_METRICS = {
    "generate_s": "generate",
    "stats_s": "stats",
    "verify_s": "verify",
    "seeds_s": "seeds",
    "mt_gen_s": "mt_gen",
    "mt_verify_s": "mt_verify",
    "mt_recover_s": "mt_recover",
    "mt_scan_s": "mt_scan",
}
SPAN_TOTALS = [
    "orbit.generate_bits", "orbit.OrbitState.to_text",
    "orbit.OrbitState.from_text", "orbit.step",
    "roots.isolate_root_bits", "roots.refine_to_resolution",
    "seeds.build_seed_set",
    "bitstream.write_bits", "bitstream.read_bits", "bitstream.write_words_le",
    "bitstream.read_words_le", "bitstream.pack_words",
    "stats.monobit", "stats.block_frequency", "stats.runs",
    "stats.longest_run", "stats.serial", "stats.cumulative_sums",
    "stats.approximate_entropy", "stats.run_suite",
    "mt19937.generate", "mt19937.load_recurrence_matrices",
    "mt19937.verify_recurrence", "mt19937.recover_matrices",
    "mt19937.scan_conditions_ab", "mt19937.lag_pairs_csv",
    "gf2.solve_linear_system",
]
SPAN_SELF = [
    "cli.generate", "cli.verify", "cli.seeds", "cli.stats", "cli.mt.gen",
    "cli.mt.verify", "cli.mt.recover", "cli.mt.scan",
    "seeds.gap_report", "seeds.merger_audit",
]
SPAN_CALLS = ["orbit.generate_bits", "orbit.step",
              "roots.refine_to_resolution"]
COUNTS = ["orbit.bits", "orbit.final_coeff_bits", "roots.bits",
          "seeds.merger_audit.states_checked", "bitstream.bytes_written",
          "bitstream.bytes_read", "mt19937.words_generated",
          "mt19937.words_needed", "mt19937.lag_pairs"]


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in COMMAND_METRICS}
    units.update({"bits_per_s": "bit/s", "resume_s": "s",
                  "fail_frac": "ratio"})
    units.update({f"{n}.s": "s" for n in SPAN_TOTALS})
    units.update({f"{n}.self_s": "s" for n in SPAN_SELF})
    units.update({f"{n}.calls": "count" for n in SPAN_CALLS})
    units.update({n: "count" for n in COUNTS})
    units["seeds.is_source_point.calls_per_member"] = "calls/member"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio",
                  "trace.spans": "count"})
    return units


def environment(orbit_module, workload) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "bigint_backend": ("int" if orbit_module.mpz is int
                           else f"{orbit_module.mpz.__module__}."
                                f"{orbit_module.mpz.__name__}"),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "workload": workload.name,
        "seed": workload.seed,
        "inputs": workload.inputs,
    }


def setup_sample() -> float:
    """Wall time for a fresh interpreter to import the package, build the
    CLI parser and load the recurrence matrices."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error fails the operation
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue()


def root_span(argv: list[str]) -> str:
    return "cli." + ".".join(argv[:2] if argv[0] == "mt" else argv[:1])


def run_pass(cli, wl, tracer=None) -> list[tuple]:
    """One closed-loop pass: (op, seconds, status) per operation."""
    records = []
    for op in wl.ops:
        for name in op.outputs:
            (wl.work / name).unlink(missing_ok=True)
        call = tracer.wrap(root_span(op.argv), invoke) if tracer else invoke
        start = perf_counter()
        rc, out = call(cli, op.argv)
        elapsed = perf_counter() - start
        records.append((op, elapsed, wl.run_check(op, rc, out)))
    return records


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def op_times(passes: list[list[tuple]]) -> dict[str, list[float]]:
    """Latencies of the operations that succeeded, by op name."""
    times: dict[str, list[float]] = {}
    for records in passes:
        for op, elapsed, status in records:
            if status == "ok":
                times.setdefault(op.name, []).append(elapsed)
    return times


def end_to_end(wl, passes, setup: list[float]) -> dict:
    times = op_times(passes)
    # the checkpoint round trip fails today; leaving it out means a fix
    # adds its own number (resume_s) instead of raising this one
    core = [op.name for op in wl.ops if not op.round_trip]
    return {
        "pass_s": (sum(median_or_zero(times.get(n, [])) for n in core), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def layer_values(tracer) -> dict[str, float]:
    total, self_s = tracer.totals()
    counts = tracer.counts
    values = {f"{n}.s": total.get(n, 0.0) for n in SPAN_TOTALS}
    values.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SPAN_SELF})
    values.update({f"{n}.calls": counts[f"{n}.calls"] for n in SPAN_CALLS})
    values.update({n: counts[n] for n in COUNTS})
    reported = counts["seeds.members_reported"]
    values["seeds.is_source_point.calls_per_member"] = (
        counts["seeds.is_source_point.calls"] / reported if reported else 0.0)
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            v for n, v in self_s.items() if n.startswith(module + "."))
    values["trace.spans"] = len(tracer.spans)
    return values


def per_layer(wl, untraced, traced, layer_passes) -> dict:
    times = op_times(untraced)
    values = {name: median_or_zero(times.get(op, []))
              for name, op in COMMAND_METRICS.items()}
    gen = values["generate_s"]
    values["bits_per_s"] = wl.bits_written / gen if gen else 0.0
    # the checkpointed half plus the resumed half, when both succeeded
    round_trips = []
    for records in untraced:
        trip = [(elapsed, status) for op, elapsed, status in records
                if op.round_trip]
        if trip and all(status == "ok" for _, status in trip):
            round_trips.append(sum(elapsed for elapsed, _ in trip))
    values["resume_s"] = median_or_zero(round_trips)
    ops = [r for recs in untraced + traced for r in recs]
    values["fail_frac"] = sum(s != "ok" for _, _, s in ops) / len(ops)
    for name in layer_passes[0]:
        values[name] = statistics.median(p[name] for p in layer_passes)
    wall = [sum(e for _, e, _ in recs) for recs in untraced]
    wall_traced = [sum(e for _, e, _ in recs) for recs in traced]
    overhead = statistics.median(wall_traced) - statistics.median(wall)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / statistics.median(wall)
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream", "family", "lag"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubicorbit" / "__init__.py").is_file():
        print(f"error: no cubicorbit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cubicorbit
    from cubicorbit import cli, orbit
    if Path(cubicorbit.__file__).resolve().parent != SRC / "cubicorbit":
        print(f"error: imported cubicorbit from {cubicorbit.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        untraced, traced, layer_passes, setup = [], [], [], []
        tracer = Tracer()
        deadline = perf_counter() + args.seconds
        while True:
            # set-up samples are spread over the run, between passes, so
            # their median sees the same machine as the passes do
            if not args.trace and len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample())
            start = perf_counter()
            if args.trace and len(traced) < len(untraced):
                tracer.reset()
                with installed(tracer):
                    traced.append(run_pass(cli, wl, tracer))
                layer_passes.append(layer_values(tracer))
            else:
                untraced.append(run_pass(cli, wl))
            # stop when another pass would mostly fall past the deadline
            end = perf_counter()
            if end + (end - start) / 2 >= deadline and \
                    (not args.trace or traced):
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    ops = [r for recs in untraced + traced for r in recs]
    failed = sum(status != "ok" for _, _, status in ops)
    correct = all(status == "ok" or (op.round_trip and status == "failed")
                  for op, _, status in ops)
    if args.trace:
        metrics = per_layer(wl, untraced, traced, layer_passes)
    else:
        metrics = end_to_end(wl, untraced, setup)
    summary = {op.name: {"ok": 0, "failed": 0, "wrong": 0} for op in wl.ops}
    for op, _, status in ops:
        summary[op.name][status] += 1
    print(json.dumps({"operations": summary}))
    print(json.dumps({"environment": environment(orbit, wl)}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
