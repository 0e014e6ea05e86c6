"""Benchmark: the parallel experiment harness versus the serial path.

``run_all_experiments`` fans the union of every experiment's work items out
over the shared engine (:mod:`repro.engine`) with single-item dispatch.
This benchmark runs the harness both ways and asserts

1. the parallel run produces **row-identical** results to the serial run
   (the engine's determinism contract, also pinned in
   ``tests/test_experiments.py``); and
2. on machines with enough cores, the parallel run is at least **2x**
   faster than the serial run.

The speedup is measured over every experiment except ``table4``, whose
dataset-statistics items are one-shot dataset generation rather than engine
work, and a single item cannot be split across workers.  Its PubMed item was
once ~half the fast suite's wall clock; with the linear-time Holme–Kim
generator it takes ~0.1s of a ~0.9s serial fast suite on a 2-vCPU host, and
the exclusion stays so the gate keeps measuring what its baseline measured.  The
remaining ten experiments decompose into ~58 items whose largest is ~7% of
their total, giving a ~4x ceiling on four cores.  Row identity is still
asserted on exactly what is benchmarked.

The committed baseline (``benchmarks/baselines/BENCH_experiments.json``)
was recorded on a single-core container, where the speedup gate cannot
bite.  The benchmark therefore also declares ``gate_min_cpus`` alongside
``gate_floor``: on any runner with at least that many cores,
``compare_to_baseline.py`` holds the measured speedup to the absolute
>=2x floor even when the baseline's core count differs, so the gate has
real regression bite without a multi-core re-record.  The in-test floor
below additionally gates every CI runner directly.
"""

import json
import os
import time

from repro.eval import EXPERIMENT_NAMES, run_all_experiments

#: Everything but the Amdahl-bound dataset-statistics experiment.
PARALLEL_NAMES = [name for name in EXPERIMENT_NAMES if name != "table4"]

#: Hardware-independent cap for the CI gate (see compare_to_baseline.py).
SPEEDUP_FLOOR = 2.0

#: Core count from which the absolute >=2x floor applies (the ~58 work
#: items give a ~4x ceiling on four cores; below that Amdahl + pool
#: overhead dominate).
GATE_MIN_CPUS = 4

#: Engine transport under benchmark.  Every executor is row-identical, so
#: the executor is a measurement condition, not a correctness knob; it is
#: recorded in ``extra_info`` so a baseline recorded under one transport is
#: never silently compared against a run under another.
EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "pool")


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _rows(results):
    return {
        name: json.loads(json.dumps(result.rows, default=str))
        for name, result in results.items()
    }


def test_experiment_harness_parallel_identical_and_2x(benchmark):
    cpus = _available_cpus()
    workers = max(2, min(cpus, 8))  # always exercise a real pool

    serial_started = time.perf_counter()
    serial = run_all_experiments(fast=True, names=PARALLEL_NAMES, workers=1)
    serial_elapsed = time.perf_counter() - serial_started

    parallel_times = []

    def parallel_run():
        started = time.perf_counter()
        results = run_all_experiments(
            fast=True, names=PARALLEL_NAMES, workers=workers, executor=EXECUTOR
        )
        parallel_times.append(time.perf_counter() - started)
        return results

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)

    # Row identity first: a fast-but-wrong harness is worthless.
    assert _rows(parallel) == _rows(serial)
    assert list(parallel) == list(serial) == PARALLEL_NAMES

    # The parallel window is short; a scheduler hiccup on a noisy runner
    # could distort a single measurement, so take the best of two before
    # holding it to the floor.
    parallel_run()
    parallel_elapsed = min(parallel_times)

    speedup = serial_elapsed / parallel_elapsed
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["gate_floor"] = SPEEDUP_FLOOR
    benchmark.extra_info["gate_min_cpus"] = GATE_MIN_CPUS
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["serial_s"] = round(serial_elapsed, 4)
    benchmark.extra_info["executor"] = EXECUTOR
    print(
        f"\nserial harness: {serial_elapsed:.3f}s | {workers}-worker "
        f"({EXECUTOR}): {parallel_elapsed:.3f}s | speedup: {speedup:.2f}x "
        f"on {cpus} cpu(s)"
    )

    # The floor scales with what the machine can deliver: >=2x needs at
    # least four cores; two/three cores still must show real overlap; a
    # single-core container can only verify identity (the pool costs more
    # than it buys there).
    if cpus >= GATE_MIN_CPUS:
        floor = SPEEDUP_FLOOR
    elif cpus >= 2:
        floor = 1.2
    else:
        floor = None
    if floor is not None:
        assert speedup >= floor, (
            f"parallel harness only {speedup:.2f}x faster than serial "
            f"(serial {serial_elapsed:.3f}s, parallel {parallel_elapsed:.3f}s, "
            f"{cpus} cpus)"
        )


def test_full_suite_fanout_matches_serial():
    """Identity over the *full* suite (table4 included), parallel vs serial."""
    serial = run_all_experiments(fast=True, workers=1)
    fanned = run_all_experiments(fast=True, workers=4)
    assert _rows(fanned) == _rows(serial)
