"""Seeded, single-process benchmark of braidtwist; one workload per run.

Usage:
    python3 bench/run.py --workload fdtc_small_n --seed 1 --seconds 55 --trace 0

The library is imported from src/ next to this directory, never from an
installed copy.  With --trace 0 the run measures the end-to-end metrics;
with --trace 1 it runs every unit twice, untraced and traced, and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is the result object; the line before it holds the
environment, the input properties and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer, layer_metrics, p90
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MODULES = ("braid", "ordering", "fdtc", "genus_bounds", "cli", "families", "murasugi")
STEP_CAP_ENV = "BRAIDTWIST_STEP_CAP"

# Set-ups are spread evenly over the timed loop, so that their median sees
# the machine over the whole run, as the operations do, and not only
# during its first second.
SETUP_REPEATS = 15
MIN_SAMPLES = 150  # at least 15 latency samples beyond p90


def _library_modules() -> list[str]:
    return [n for n in sys.modules if n == "braidtwist" or n.startswith("braidtwist.")]


def import_library() -> SimpleNamespace:
    """Import braidtwist afresh from this checkout's src/ (so set-up can time it)."""
    if not (SRC / "braidtwist" / "__init__.py").is_file():
        raise SystemExit(f"bench: library source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _library_modules():
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"braidtwist.{m}") for m in MODULES})
    if SRC.resolve() not in Path(lib.braid.__file__).resolve().parents:
        raise SystemExit(f"bench: imported braidtwist from {lib.braid.__file__}, not {SRC}")
    return lib


def set_up(workload, seed: int, workdir: Path):
    """Import, input generation and oracle precomputation; returns them and the time taken."""
    start = time.perf_counter()
    lib = import_library()
    units = workload.generate(lib, random.Random(seed), workdir)
    return lib, units, time.perf_counter() - start


def time_set_up(workload, seed: int, workdir: Path) -> float:
    """Time one more set-up, then put back the modules the run is using."""
    kept = {name: sys.modules[name] for name in _library_modules()}
    try:
        return set_up(workload, seed, workdir)[2]
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def measure(workload, lib, units, seconds: int, tracer: Tracer | None, set_up_again) -> tuple[dict, int]:
    """Closed loop over the units, one caller waiting for each result.

    Untraced, the loop runs for `seconds` and until MIN_SAMPLES operations
    have returned, but never past 1.5 * `seconds`.  Traced, each unit runs
    both untraced and traced, so the two phases time the same inputs.
    Oracle checks and the repeated set-ups run between units, outside the
    timed calls.
    """
    runs = [("untraced", None)] + ([("traced", tracer)] if tracer is not None else [])
    phases = {phase: {"ops": [], "busy": 0.0} for phase, _ in runs}
    clock = time.perf_counter
    start = clock()
    deadline, hard = start + seconds, start + 1.5 * seconds
    setup_every, setups_done = seconds / SETUP_REPEATS, 1
    returned = i = 0
    while True:
        now = clock()
        if now >= hard or (now >= deadline and (tracer is not None or returned >= MIN_SAMPLES)):
            break
        if setups_done < SETUP_REPEATS and now >= start + setups_done * setup_every:
            set_up_again()
            setups_done += 1
        unit = units[i % len(units)]
        i += 1
        # Alternate which phase goes first, so neither gets a warmer heap.
        for phase, active in (runs if i % 2 else runs[::-1]):
            if active is not None:
                active.resume()
            t0 = clock()
            ops = workload.run_unit(lib, unit, active)
            phases[phase]["busy"] += clock() - t0
            if active is not None:
                active.pause()
            check(workload, lib, unit, ops)
            phases[phase]["ops"].extend(ops)
            if active is None:
                returned += sum(op.seconds is not None for op in ops)
    while setups_done < SETUP_REPEATS:  # a run cut short still reports every set-up
        set_up_again()
        setups_done += 1
    return phases, i


def check(workload, lib, unit, ops) -> None:
    """Run the oracle, then drop the outputs, so that memory stays flat over a run."""
    workload.check(lib, unit, ops)
    for op in ops:
        op.value = None


def heap_phase(workload, lib, units) -> list:
    """Run the workload's first memory units again with tracemalloc on.

    Each operation records the peak of the Python heap while it ran, above
    the heap at its start: the working memory of the library call.  This
    phase is part of the traced run only: tracemalloc slows every
    allocation about sixteenfold, and the median over the few operations
    it can afford varies too much from seed to seed to carry a bound.
    """
    ops = []
    tracemalloc.start()
    try:
        for unit in units[: workload.MEMORY_UNITS]:
            unit_ops = workload.run_unit(lib, unit, None)
            check(workload, lib, unit, unit_ops)
            for op in unit_ops:
                op.seconds = None  # slowed by tracemalloc: not a latency
            ops.extend(unit_ops)
    finally:
        tracemalloc.stop()
    return ops


def git_commit() -> str | None:
    """The commit checked out, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(lib, step_cap_env: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "step_cap_env": step_cap_env,
        "step_cap": lib.ordering.DEFAULT_STEP_CAP,
        "verify_reductions": lib.ordering.VERIFY_REDUCTIONS,
        "git_commit": git_commit(),
    }


def ops_summary(ops) -> dict:
    by_class: dict[str, dict] = {}
    for op in ops:
        entry = by_class.setdefault(op.cls, {"attempted": 0, "failed": 0, "latencies": []})
        entry["attempted"] += 1
        entry["failed"] += not op.ok
        if op.seconds is not None:
            entry["latencies"].append(op.seconds)
    for entry in by_class.values():
        lat = entry.pop("latencies")
        entry["p50_ms"] = statistics.median(lat) * 1e3 if lat else None
    return by_class


def end_to_end(phase: dict, setup_times: list[float]) -> tuple[dict, dict]:
    ops = phase["ops"]
    latencies = [op.seconds for op in ops if op.seconds is not None]
    returned = len(latencies)
    latencies = latencies or [0.0]  # nothing returned: the run is reported, and not correct
    p90_s = p90(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (returned / phase["busy"], "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90_s * 1e3, "ms"),
        "ok_share": (sum(op.ok for op in ops) / len(ops), "ratio"),
    }
    samples = {"returned": returned, "beyond_p90": sum(x > p90_s for x in latencies),
               "busy_s": phase["busy"],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, samples


def per_layer(phases: dict, tracer: Tracer, heap_ops: list) -> dict:
    traced, untraced = phases["traced"], phases["untraced"]

    def rate(phase):
        return sum(op.seconds is not None for op in phase["ops"]) / phase["busy"]

    untraced_rate, traced_rate = rate(untraced), rate(traced)
    metrics = layer_metrics(tracer.spans, traced["busy"])
    lines = [op for op in traced["ops"] if op.rejected is not None]
    metrics["cli.lines"] = (len(lines), "count")
    metrics["cli.rejected_lines"] = (sum(op.rejected for op in lines), "count")
    metrics["trace.ops"] = (len(traced["ops"]), "count")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    metrics["trace.overhead_share"] = (1 - traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    peaks = [op.heap_peak for op in heap_ops if op.heap_peak is not None] or [0]
    metrics["heap.op_peak_kib"] = (statistics.median(peaks) / 1024, "KiB")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # Measure the configuration users get: no step-cap override.
    step_cap_env = os.environ.pop(STEP_CAP_ENV, None)
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib, units, first_setup = set_up(workload, args.seed, workdir)
        setup_times = [first_setup]

        def set_up_again() -> None:
            setup_times.append(time_set_up(workload, args.seed, workdir))

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(lib)
        phases, units_run = measure(workload, lib, units, args.seconds, tracer, set_up_again)
        heap_ops = heap_phase(workload, lib, units) if args.trace else []
        try:
            problems = workload.sample_check(lib, units[:units_run])
        except Exception as exc:  # an oracle that cannot finish is a failed check
            problems = [f"sample check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = [op for phase in phases.values() for op in phase["ops"]] + heap_ops
    failed = sum(not op.ok for op in all_ops)
    unexpected = sum(not op.ok and not op.known_defect for op in all_ops)
    metrics, samples = end_to_end(phases["untraced"], setup_times)
    if tracer is not None:
        metrics = per_layer(phases, tracer, heap_ops)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        samples["spans_file"] = str(spans_path.relative_to(ROOT))

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(lib, step_cap_env),
        "inputs": workload.properties(units),
        "setup_runs_s": setup_times,
        "samples": samples,
        "units_run": units_run,
        "ops_by_class": ops_summary(all_ops),
        "known_defect_failures": failed - unexpected,
        "oracle_problems": problems,
        "failures": sorted({op.error or "wrong output" for op in all_ops
                            if not op.ok and not op.known_defect})[:10],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": unexpected == 0 and not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
