"""One process of a benchmark run: set a workload up, then (optionally) measure it.

``run.py`` starts this script several times per run, one process at a time:

* ``--mode setup`` processes only build the inputs and report how long that
  took from the moment ``run.py`` spawned them (``setup_s``);
* the ``--mode measure`` process builds the inputs too, then repeats the
  workload's operation for ``--seconds``, checking every output.  With
  ``--trace 1`` it alternates untraced and traced operations, so the tracing
  overhead is measured on the same host moments as the traced numbers;
* the ``--mode accuracy`` process computes ``paper_err_pct`` for workloads
  whose operation does not (``workloads.paper_accuracy``).

The result is one JSON object written to ``--out``.  Everything runs in this
single process with the serial engine (``workers=0``), so nothing else
competes for the CPUs.

The end-to-end times it reports are scaled to a reference host speed by
:class:`SpeedProbe`, with the raw host times beside them; per-layer times
are raw.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fewest operations a measured phase runs, however long each one takes.
MIN_OPS = 3

#: How often the speed probe samples the host while something is timed.
PROBE_INTERVAL_S = 0.005
#: The probe loop's duration on the reference host (2-vCPU Intel Xeon, the
#: host of STEADINESS.md) in its fast phases: a scaled time is what the work
#: would have taken at that speed.
PROBE_REF_S = 55e-6


def _probe_loop() -> int:
    """Fixed work shaped like the simulators' event loops: heap pushes and
    pops of small tuples.  Of the loops tried (pure arithmetic, large-dict
    lookups, method calls), this one's slowdown tracked the workloads' best."""
    heap: List[tuple] = []
    total = 0
    for i in range(150):
        heapq.heappush(heap, ((i * 7919) % 101, i))
        if len(heap) > 16:
            total += heapq.heappop(heap)[1]
    return total


class SpeedProbe:
    """Samples the host's speed while the benchmark times a piece of work.

    On a shared 2-vCPU host the same pure-Python loop takes anywhere from
    0.12 s to 0.18 s depending on what the neighbours do, and a slow or fast
    phase lasts from seconds to minutes: long enough to shift whole runs by
    20-30%.  The probe is a ``SIGALRM`` timer that interrupts the timed work
    every :data:`PROBE_INTERVAL_S` and runs :func:`_probe_loop`; the
    mean of ``PROBE_REF_S / loop time`` over the work is the host's relative
    speed while it ran, and

        scaled = (elapsed - time spent in the probe) x relative speed

    is the time the work would have taken at the reference speed.  Sampling
    inside the work, not before and after it, is what makes this track the
    host: a loop run between operations misses phase changes within one.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self) -> float:
        """Mean relative speed over the samples (1.0 without any)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(PROBE_REF_S / sample for sample in self.samples)

    def scale(self, elapsed: float) -> float:
        return (elapsed - sum(self.samples)) * self.speed()


def _percentile(samples: List[float], q: float) -> float:
    """``numpy.percentile``'s default (linear) estimate, without numpy."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced set-up phase and traced operations
# ---------------------------------------------------------------------------
#: Layers of the traced frames: the ``repro`` packages, the benchmark's own
#: remainder (``bench``) and the tracer's bookkeeping (``trace``).
LAYERS = ("bench", "datasets", "graph", "nn", "arch", "dse", "api", "serve", "plan", "engine", "eval", "results", "trace")


def _is_evaluate(name: str) -> bool:
    return name in ("dse.point", "plan.scenario") or (name.startswith("eval.") and name != "eval.suite")


def _raw(tracer) -> Dict[str, float]:
    """Additive totals of one tracer (one set-up phase or one operation)."""
    spans_by_id = {span[0]: span for span in tracer.spans}
    evaluate_in_engine = sum(
        end - start
        for _, name, start, end, parent, _ in tracer.spans
        if _is_evaluate(name) and parent is not None and spans_by_id[parent][1] == "engine.run"
    )
    schedule_caches = tracer.caches["schedule"]
    measurement_caches = tracer.caches["measurement"]
    raw = {
        "load_calls": len(tracer.durations("datasets.load_dataset")),
        "load_s": tracer.total_s("datasets.load_dataset"),
        "edges": tracer.values.get("datasets.edges", 0.0),
        "build_model_s": tracer.total_s("nn.build_model"),
        "simulate_calls": tracer.calls("arch.simulate_inference"),
        "simulate_s": tracer.total_s("arch.simulate_inference"),
        "schedule_calls": tracer.calls("arch.schedule_layer") + tracer.calls("dse.fast_schedule_layer"),
        "schedule_s": tracer.total_s("arch.schedule_layer") + tracer.total_s("dse.fast_schedule_layer"),
        "fast_schedule_calls": tracer.calls("dse.fast_schedule_layer"),
        "simulations": tracer.values.get("arch.simulations", 0.0),
        "nt_util": tracer.values.get("arch.nt_util", 0.0),
        "mp_util": tracer.values.get("arch.mp_util", 0.0),
        "cache_hits": sum(cache.hits for cache in schedule_caches),
        "cache_misses": sum(cache.misses for cache in schedule_caches),
        "backend_runs": len(tracer.durations("api.backend")),
        "backend_run_s": tracer.total_s("api.backend"),
        "measure_hits": sum(cache.hits for cache in measurement_caches),
        "measure_misses": sum(cache.misses for cache in measurement_caches),
        "arrivals_s": tracer.total_s("serve.arrivals") + tracer.total_s("serve.arrivals_eager"),
        "loop_s": sum(span[5] for span in tracer.spans if span[1] == "serve.loop"),
        "reports": tracer.values.get("serve.reports", 0.0),
        "requests": tracer.values.get("serve.requests", 0.0),
        "completed": tracer.values.get("serve.completed", 0.0),
        "dropped": tracer.values.get("serve.dropped", 0.0),
        "misses": tracer.values.get("serve.misses", 0.0),
        "util": tracer.values.get("serve.util", 0.0),
        "p99_ms": tracer.values.get("serve.p99_ms", 0.0),
        "block_requests": tracer.values.get("serve.block_requests", 0.0),
        "scalar_folds": tracer.calls("serve.sketch_update"),
        "block_folds": tracer.calls("serve.sketch_update_many"),
        "block_values": tracer.values.get("serve.block_values", 0.0),
        "sketch_s": sum(
            tracer.counters[name][2]
            for name in ("serve.sketch_update", "serve.sketch_update_many", "serve.sketch_observe", "serve.sketch_observe_block")
            if name in tracer.counters
        ),
        "scenarios": len(tracer.durations("plan.scenario")),
        "engine_items": sum(1 for span in tracer.spans if _is_evaluate(span[1])),
        "engine_overhead_s": tracer.total_s("engine.run") - evaluate_in_engine,
        "record_s": sum(
            tracer.total_s(name) for name in ("results.open", "results.begin", "results.record", "results.close")
        ),
    }
    for name in {span[1] for span in tracer.spans if span[1].startswith("eval.") and span[1] != "eval.suite"}:
        raw[name + "_s"] = tracer.total_s(name)
    for layer, self_s in tracer.self_by_layer().items():
        raw[layer + ".self_s"] = self_s
    return raw


def layer_metrics(setup_tracer, op_tracers, import_s: float) -> Dict[str, float]:
    """Per-layer values: the traced set-up phase plus one mean traced operation.

    Ratios are formed from the combined totals.  Every workload reports every
    metric: a ratio whose denominator is zero on it (no dataset loaded, no
    cache consulted) and a percentile of spans it never enters read 0.
    """
    count = len(op_tracers)
    # Self times account for one operation's wall time, so set-up adds none.
    totals = {key: value for key, value in _raw(setup_tracer).items() if not key.endswith(".self_s")}
    for tracer in op_tracers:
        for key, value in _raw(tracer).items():
            totals[key] = totals.get(key, 0.0) + value / count

    totals["cache_lookups"] = totals["cache_hits"] + totals["cache_misses"]
    totals["measure_lookups"] = totals["measure_hits"] + totals["measure_misses"]
    totals["sketch_values"] = totals["block_values"] + totals["scalar_folds"]

    def ratio(numerator: str, denominator: str, scale: float = 1.0) -> float:
        return scale * totals[numerator] / totals[denominator] if totals[denominator] else 0.0

    samples = {
        name: [1e3 * duration for tracer in op_tracers for duration in tracer.durations(name)]
        for name in ("dse.point", "plan.scenario", "results.append")
    }
    metrics: Dict[str, float] = {
        "startup.import_s": import_s,
        "datasets.load_calls": totals["load_calls"],
        "datasets.load_s": totals["load_s"],
        "datasets.edges_per_s": ratio("edges", "load_s"),
        "nn.build_model_s": totals["build_model_s"],
        "arch.simulate_calls": totals["simulate_calls"],
        "arch.simulate_s": totals["simulate_s"],
        "arch.schedule_calls": totals["schedule_calls"],
        "arch.schedule_s": totals["schedule_s"],
        "arch.sim_nt_util": ratio("nt_util", "simulations"),
        "arch.sim_mp_util": ratio("mp_util", "simulations"),
        "dse.cache_lookups": totals["cache_lookups"],
        "dse.cache_hit_rate": ratio("cache_hits", "cache_lookups"),
        "dse.fast_schedule_calls": totals["fast_schedule_calls"],
        "api.backend_runs": totals["backend_runs"],
        "api.backend_run_s": totals["backend_run_s"],
        "api.measure_cache_hit_rate": ratio("measure_hits", "measure_lookups"),
        "serve.arrivals_s": totals["arrivals_s"],
        "serve.loop_s": totals["loop_s"],
        "serve.requests": totals["requests"],
        "serve.sketch_updates": totals["scalar_folds"] + totals["block_folds"],
        "serve.sketch_block_share": ratio("block_values", "sketch_values"),
        "serve.sketch_s": totals["sketch_s"],
        "serve.vector_share": ratio("block_requests", "requests"),
        "serve.sim_util": ratio("util", "reports"),
        "serve.sim_p99_ms": ratio("p99_ms", "reports"),
        "serve.sim_miss_pct": ratio("misses", "completed", 100.0),
        "serve.sim_drop_pct": ratio("dropped", "requests", 100.0),
        "plan.scenarios": totals["scenarios"],
        "engine.items": totals["engine_items"],
        "engine.overhead_s": totals["engine_overhead_s"],
        "results.record_s": totals["record_s"],
    }
    for name, q, key in (
        ("dse.point", 0.5, "dse.point_ms_p50"),
        ("dse.point", 0.99, "dse.point_ms_p99"),
        ("plan.scenario", 0.5, "plan.scenario_ms_p50"),
        ("plan.scenario", 0.9, "plan.scenario_ms_p90"),
        ("results.append", 0.5, "results.append_ms_p50"),
        ("results.append", 0.99, "results.append_ms_p99"),
    ):
        metrics[key] = _percentile(samples[name], q) if samples[name] else 0.0
    from repro.eval import EXPERIMENT_NAMES

    for name in EXPERIMENT_NAMES:
        metrics[f"eval.{name}_s"] = totals.get(f"eval.{name}_s", 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0)
    return metrics


def self_check_gap(tracer, wall_s: float) -> float:
    """|layer self times + remainder - wall| / wall for one traced operation.

    The remainder is the self time of the ``bench.op`` root frame: the
    benchmark's own code between calls into ``repro``.
    """
    if tracer.nesting_errors:
        return float("inf")
    accounted = sum(tracer.self_by_layer().values())
    return abs(accounted - wall_s) / wall_s


# ---------------------------------------------------------------------------
# The process
# ---------------------------------------------------------------------------
def _parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "accuracy"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    return parser.parse_args(argv)


def _measure(workload, state, args, pins, probe: SpeedProbe) -> Dict:
    """The measured phase: repeat the operation, check every output."""
    import tracer as tracing

    raw: List[float] = []
    scaled: List[float] = []
    traced_scaled: List[float] = []
    speeds: List[float] = []
    sim_rate: List[float] = []
    extra: Dict[str, float] = {}
    op_tracers = []
    gaps: List[float] = []
    attempted = failed = 0
    # A traced run alternates untraced and traced operations, two of each at least.
    min_attempts = 4 if args.trace else MIN_OPS
    deadline = time.perf_counter() + args.seconds
    while attempted < min_attempts or time.perf_counter() < deadline:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        tracer = installation = root = None
        # Every operation starts from the same heap: garbage left by the
        # previous one would otherwise move the peak resident set between runs.
        gc.collect()
        try:
            if traced:
                tracer = tracing.Tracer()
                installation = tracing.install(tracer)
                root = tracer.push("bench.op", True)
            try:
                probe.start()
                started = time.perf_counter()
                output = workload.run(state)
                elapsed = time.perf_counter() - started
            finally:
                probe.stop()
                if traced:
                    tracer.pop(root)
                    installation.undo()
            summary = workload.summarise(state, output)
            del output
            problems = workload.check(state, summary, pins, args.seed)
            if traced:
                gap = self_check_gap(tracer, elapsed)
                gaps.append(gap)
                if gap > 0.1:
                    problems.append(f"traced self-check: layer self times miss wall time by {gap:.1%}")
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        if problems:
            failed += 1
            print(f"{workload.name} operation {attempted} failed its output check:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            continue
        if traced:
            traced_scaled.append(probe.scale(elapsed))
            op_tracers.append(tracer)
            continue
        raw.append(elapsed)
        speeds.append(probe.speed())
        scaled.append(probe.scale(elapsed))
        sim_rate.append(workload.simulated_requests(summary) / scaled[-1])
        if hasattr(workload, "paper_err_pct"):
            extra["paper_err_pct"] = workload.paper_err_pct(summary)

    result: Dict = {"attempted": attempted, "failed": failed, "op_raw_s": raw, "op_speed": speeds}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if scaled:
        result["wall_s"] = statistics.median(scaled)
    if sim_rate:
        result["sim_req_per_s"] = statistics.median(sim_rate)
    result.update(extra)
    if traced_scaled and scaled:
        result["overhead_pct"] = 100.0 * (statistics.median(traced_scaled) / statistics.median(scaled) - 1.0)
        result["selfcheck_gap_pct"] = 100.0 * max(gaps)
        result["op_tracers"] = op_tracers
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    probe = SpeedProbe()
    probe.start()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - started
    import tracer as tracing
    from workloads import WORKLOADS, load_pins, paper_accuracy

    if args.mode == "accuracy":
        probe.stop()
        try:
            result = paper_accuracy()
        except Exception as error:
            traceback.print_exc()
            result = {"problems": [repr(error)], "paper_err_pct": None}
        with open(args.out, "w") as handle:
            json.dump(result, handle)
        return 0

    workload = WORKLOADS[args.workload]
    setup_tracer = None
    if args.trace and args.mode == "measure":
        setup_tracer = tracing.Tracer()
        installation = tracing.install(setup_tracer)
        root = setup_tracer.push("bench.setup", True)
        try:
            state = workload.setup(args.seed, args.work_dir)
        finally:
            setup_tracer.pop(root)
            installation.undo()
    else:
        state = workload.setup(args.seed, args.work_dir)
    setup_raw_s = time.monotonic() - args.spawned_at
    probe.stop()
    result = {
        "setup_s": probe.scale(setup_raw_s),
        "setup_raw_s": setup_raw_s,
        "import_s": import_s,
        "numpy": sys.modules["numpy"].__version__,
    }

    if args.mode == "measure":
        try:
            pins = load_pins()
        except (OSError, ValueError) as error:
            print(f"cannot read pinned outputs: {error}", file=sys.stderr)
            pins = {}
        result.update(_measure(workload, state, args, pins, probe))
        op_tracers = result.pop("op_tracers", None)
        if op_tracers:
            result["layers"] = layer_metrics(setup_tracer, op_tracers, import_s)
            if args.trace_out:
                with open(args.trace_out, "w") as handle:
                    json.dump(
                        {"setup": setup_tracer.dump(), "operations": [tracer.dump() for tracer in op_tracers]},
                        handle,
                    )
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
