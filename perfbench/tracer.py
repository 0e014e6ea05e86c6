"""In-memory span tracer for the benchmark's traced runs.

The benchmark never edits the program: :func:`install` swaps public
functions and methods of the ``repro`` package for timing wrappers, and
:meth:`Installation.undo` puts the originals back, so an untraced operation runs the
unmodified code.  A module-level function is rebound in every ``repro``
module that imported it by name (``from .simulator import
simulate_inference`` copies the reference), which is why wrappers replace
references by identity instead of patching one module.

Two kinds of frame share one stack:

* a **span** records its name, start, end and parent span id, and is kept in
  :attr:`Tracer.spans` until the run writes them out;
* a **counter** is a per-call hot spot (a histogram fold, one arrival drawn,
  one layer scheduled): only its call count and summed time are kept.

Every frame adds its duration to its parent's child time when it closes, so a
frame's self time is its duration minus the time its children cover, and the
self times of all frames below a root add up to the root's duration.  The
layer of a frame is the first dot-separated part of its name.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Frame names whose layer is the tracer itself: bookkeeping done only in
#: traced runs (reading simulated statistics off a result).
TRACE_EXTRAS = "trace.extras"


class Tracer:
    """Spans and counters for one root: the set-up phase or one operation."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent_id, self_s)`` per closed span.
        self.spans: List[Tuple[int, str, float, float, Optional[int], float]] = []
        #: name -> ``[calls, total_s, self_s]``.
        self.counters: Dict[str, List[float]] = {}
        #: name -> accumulated number (edges generated, requests served, ...).
        self.values: Dict[str, float] = {}
        #: Instances of cache classes created while this tracer was installed.
        self.caches: Dict[str, list] = {"schedule": [], "measurement": []}
        #: Frames closed out of order (a wrapper bug); the self-check fails on any.
        self.nesting_errors = 0
        self._stack: List[list] = []
        self._next_id = 0

    # -- frames ---------------------------------------------------------------
    def push(self, name: str, span: bool) -> list:
        span_id = None
        parent_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
            for frame in reversed(self._stack):
                if frame[3] is not None:
                    parent_id = frame[3]
                    break
        frame = [name, 0.0, 0.0, span_id, parent_id]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def pop(self, frame: list) -> None:
        end = _clock()
        if not self._stack or self._stack[-1] is not frame:
            self.nesting_errors += 1
            if frame in self._stack:
                while self._stack[-1] is not frame:
                    self._stack.pop()
            else:
                return
        self._stack.pop()
        name, start, child_s, span_id, parent_id = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent_id, duration - child_s))
        else:
            counter = self.counters.get(name)
            if counter is None:
                counter = self.counters[name] = [0, 0.0, 0.0]
            counter[0] += 1
            counter[1] += duration
            counter[2] += duration - child_s

    def top_name(self, skip: int = 0) -> Optional[str]:
        """Name of the innermost open frame, or of the ``skip``-th one out."""
        return self._stack[-1 - skip][0] if len(self._stack) > skip else None

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    # -- aggregates -----------------------------------------------------------
    def self_by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for _, name, _, _, _, self_s in self.spans:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        for name, (_, _, self_s) in self.counters.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def durations(self, name: str) -> List[float]:
        return [end - start for _, span_name, start, end, _, _ in self.spans if span_name == name]

    def calls(self, name: str) -> int:
        return int(self.counters.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        """Summed duration of every span or counter call named ``name``."""
        counter = self.counters.get(name)
        if counter is not None:
            return counter[1]
        return sum(self.durations(name))

    def dump(self) -> Dict:
        return {
            "spans": [list(span) for span in self.spans],
            "counters": {name: list(value) for name, value in self.counters.items()},
            "values": dict(self.values),
            "nesting_errors": self.nesting_errors,
        }


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _timed(tracer: Tracer, fn: Callable, name, span: bool, after=None) -> Callable:
    """``fn`` inside one frame.  ``name`` is a string or ``name(args)``;
    ``after(result, args)`` runs outside the frame, under :data:`TRACE_EXTRAS`."""

    def wrapper(*args, **kwargs):
        frame = tracer.push(name if isinstance(name, str) else name(args), span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if after is not None:
            extras = tracer.push(TRACE_EXTRAS, False)
            try:
                after(result, args)
            finally:
                tracer.pop(extras)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_iter(tracer: Tracer, fn: Callable, name: str, per_item=None) -> Callable:
    """A generator-returning ``fn`` whose every ``next`` is one counter call."""

    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))

        def drawn():
            while True:
                frame = tracer.push(name, False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.pop(frame)
                if per_item is not None:
                    per_item(item)
                yield item

        return drawn()

    wrapper.__wrapped__ = fn
    return wrapper


class _TimedExit:
    """A context manager whose ``__exit__`` (the commit) is one span."""

    def __init__(self, tracer: Tracer, manager, name: str) -> None:
        self._tracer = tracer
        self._manager = manager
        self._name = name

    def __enter__(self):
        return self._manager.__enter__()

    def __exit__(self, *exc_info):
        frame = self._tracer.push(self._name, True)
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            self._tracer.pop(frame)


def _timed_exit(tracer: Tracer, fn: Callable, name: str) -> Callable:
    def wrapper(*args, **kwargs):
        return _TimedExit(tracer, fn(*args, **kwargs), name)

    wrapper.__wrapped__ = fn
    return wrapper


def _registering_init(tracer: Tracer, fn: Callable, kind: str) -> Callable:
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        tracer.caches[kind].append(self)

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------
def _after_load(tracer: Tracer):
    def after(dataset, _args):
        tracer.add("datasets.edges", sum(graph.num_edges for graph in dataset))

    return after


def _after_simulate(tracer: Tracer):
    def after(result, _args):
        tracer.add("arch.simulations", 1)
        tracer.add("arch.nt_util", result.nt_utilisation())
        tracer.add("arch.mp_util", result.mp_utilisation())

    return after


def _after_serve(tracer: Tracer):
    def after(report, _args):
        # serve_stream(mode="exact") calls serve; count the outer report only.
        if tracer.top_name(skip=1) == "serve.loop":
            return
        submitted = report.submitted
        misses = sum(outcome.report.deadline_miss_count for outcome in report.tenants.values())
        tracer.add("serve.reports", 1)
        tracer.add("serve.requests", submitted)
        tracer.add("serve.completed", report.completed)
        tracer.add("serve.dropped", report.dropped)
        tracer.add("serve.misses", misses)
        tracer.add("serve.util", report.cluster_utilisation)
        tracer.add(
            "serve.p99_ms",
            max(outcome.report.p99_latency_ms for outcome in report.tenants.values()),
        )

    return after


def _count_block(tracer: Tracer):
    def per_item(block):
        tracer.add("serve.block_requests", len(block))

    return per_item


def _after_update_many(tracer: Tracer):
    def after(_result, args):
        tracer.add("serve.block_values", len(args[1]))

    return after


def _schedule_name(tracer: Tracer):
    # The vectorised scheduler falls back to the reference one for baseline
    # pipelines; naming that call apart keeps arch.schedule_calls one per layer.
    def name(_args):
        if tracer.top_name() == "dse.fast_schedule_layer":
            return "dse.schedule_fallback"
        return "arch.schedule_layer"

    return name


def _experiment_name(args) -> str:
    suite, (job_index, _item) = args[0], args[1]
    return "eval." + suite.jobs[job_index].name


def _targets(tracer: Tracer):
    """``(owner, attribute, replacement factory)`` for everything traced.

    ``owner`` is a module (the function is rebound wherever ``repro``
    imported it) or a class (the method is replaced on the class).
    """
    from repro.api import MeasurementCache, backends
    from repro.arch import pipeline, simulator
    from repro.datasets import registry
    from repro.dse import cache, fastpath
    from repro.dse.runner import SweepJob, SweepRunner
    from repro.engine import Engine
    from repro.eval import harness
    from repro.graph import generators
    from repro.nn import model_zoo
    from repro.plan.runner import PlanJob, PlanRunner
    from repro.results.store import ResultStore, StoreCheckpoint
    from repro.serve import Cluster, LatencySketch, LoadGenerator, StreamingHistogram

    def span(name, after=None):
        return lambda fn: _timed(tracer, fn, name, True, after)

    def counter(name, after=None):
        return lambda fn: _timed(tracer, fn, name, False, after)

    targets = [
        (registry, "load_dataset", span("datasets.load_dataset", _after_load(tracer))),
        (generators, "powerlaw_cluster_graph", counter("graph.powerlaw_cluster_graph")),
        (generators, "molecule_like_graph", counter("graph.molecule_like_graph")),
        (generators, "knn_point_cloud_graph", counter("graph.knn_point_cloud_graph")),
        (model_zoo, "build_model", span("nn.build_model")),
        (simulator, "simulate_inference", counter("arch.simulate_inference", _after_simulate(tracer))),
        (pipeline, "schedule_layer", lambda fn: _timed(tracer, fn, _schedule_name(tracer), False)),
        (fastpath, "fast_schedule_layer", counter("dse.fast_schedule_layer")),
        (cache.ScheduleCache, "__init__", lambda fn: _registering_init(tracer, fn, "schedule")),
        (SweepRunner, "run", span("dse.sweep")),
        (SweepJob, "evaluate", span("dse.point")),
        # Every registered backend inherits the public run/run_stream/measure
        # from this base class, so one replacement covers them all.
        (backends._BackendBase, "run", span("api.backend")),
        (backends._BackendBase, "run_stream", span("api.backend")),
        (backends._BackendBase, "measure", span("api.backend")),
        (MeasurementCache, "__init__", lambda fn: _registering_init(tracer, fn, "measurement")),
        (LoadGenerator, "generate", span("serve.arrivals_eager")),
        (LoadGenerator, "iter_requests", lambda fn: _timed_iter(tracer, fn, "serve.arrivals")),
        (
            LoadGenerator,
            "iter_request_blocks",
            lambda fn: _timed_iter(tracer, fn, "serve.arrivals", _count_block(tracer)),
        ),
        (Cluster, "serve", span("serve.loop", _after_serve(tracer))),
        (Cluster, "serve_stream", span("serve.loop", _after_serve(tracer))),
        (StreamingHistogram, "update", counter("serve.sketch_update")),
        (StreamingHistogram, "update_many", counter("serve.sketch_update_many", _after_update_many(tracer))),
        (LatencySketch, "observe", counter("serve.sketch_observe")),
        (LatencySketch, "observe_block", counter("serve.sketch_observe_block")),
        (PlanRunner, "run", span("plan.run")),
        (PlanJob, "evaluate", span("plan.scenario")),
        (Engine, "run", span("engine.run")),
        (harness, "run_all_experiments", span("eval.suite")),
        (harness.ExperimentSuiteJob, "evaluate", span(_experiment_name)),
        (ResultStore, "__init__", span("results.open")),
        (ResultStore, "begin_checkpoint", span("results.begin")),
        (ResultStore, "record", lambda fn: _timed_exit(tracer, fn, "results.record")),
        (ResultStore, "close", span("results.close")),
        (StoreCheckpoint, "append", span("results.append")),
    ]
    return targets


class Installation:
    """The replaced references of one :func:`install`, for :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Route the traced functions of ``repro`` through ``tracer``."""
    installation = Installation()
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for owner, attribute, factory in _targets(tracer):
        original = owner.__dict__[attribute]
        wrapper = factory(original)
        if isinstance(owner, type):
            installation.replace(owner, attribute, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    installation.replace(module, name, wrapper)
    return installation
