"""The benchmark's own tests: its output checks catch perturbed outputs, its
tracer accounts for time exactly, and it refuses to run without the program.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


def _problems(name, summary, pins, seed=5, state=None):
    return workloads.WORKLOADS[name].check(state, summary, pins, seed)


class TestOutputChecks:
    def test_stream_edf_pins_accept_the_pinned_summary(self, pins):
        summary = copy.deepcopy(pins["stream_edf"]["5"])
        assert _problems("stream_edf", summary, pins) == []
        # Seeds wrap onto the pinned arrival seeds.
        assert _problems("stream_edf", summary, pins, seed=5 + workloads.INPUT_SEEDS) == []

    @pytest.mark.parametrize(
        "field, tenant, factor",
        [
            ("completed", "gin", None),
            ("deadline_misses", "gcn", None),
            ("p99_latency_ms", "gin", 1.05),
            ("p50_latency_ms", "gcn", 0.95),
            ("mean_latency_ms", "gin", 1 + 1e-6),
        ],
    )
    def test_stream_edf_perturbed_output_is_caught(self, pins, field, tenant, factor):
        summary = copy.deepcopy(pins["stream_edf"]["5"])
        value = summary[field][tenant]
        summary[field][tenant] = value + 1 if factor is None else value * factor
        assert _problems("stream_edf", summary, pins)

    def test_stream_edf_perturbed_utilisation_is_caught(self, pins):
        summary = copy.deepcopy(pins["stream_edf"]["5"])
        summary["utilisation"] *= 1 + 1e-12
        assert _problems("stream_edf", summary, pins)

    def test_stream_edf_percentiles_within_the_sketch_band_pass(self, pins):
        summary = copy.deepcopy(pins["stream_edf"]["5"])
        summary["p99_latency_ms"]["gin"] *= 1 + 0.5 * workloads.SKETCH_REL_ERR
        assert _problems("stream_edf", summary, pins) == []

    def test_plan_grid_perturbed_rows_are_caught(self, pins):
        summary = dict(pins["plan_grid"], stored_payload_identical=True, stored_rows_identical=True)
        assert _problems("plan_grid", summary, pins) == []
        assert _problems("plan_grid", dict(summary, rows_sha256=workloads.digest([{"dropped": 1}])), pins)
        assert _problems("plan_grid", dict(summary, dropped=summary["dropped"] + 1), pins)
        assert _problems("plan_grid", dict(summary, stored_payload_identical=False), pins)

    def test_dse_sweep_perturbed_rows_are_caught(self, pins):
        summary = dict(pins["dse_sweep"])
        assert _problems("dse_sweep", summary, pins) == []
        assert _problems("dse_sweep", dict(summary, cache_hits=summary["cache_hits"] - 1), pins)
        assert _problems("dse_sweep", dict(summary, rows_sha256=workloads.digest([])), pins)

    def test_paper_suite_perturbed_rows_are_caught(self):
        with open(os.path.join(ROOT, workloads.FIXTURE)) as handle:
            fixture = json.load(handle)
        state = {"fixture": fixture}
        summary = copy.deepcopy(fixture)
        assert _problems("paper_suite", summary, {}, state=state) == []
        summary["table5"][0]["flowgnn_ms"] *= 1.001
        assert _problems("paper_suite", summary, {}, state=state)
        del summary["fig9"]
        assert len(_problems("paper_suite", summary, {}, state=state)) == 2

    def test_paper_err_pct_reads_41_7_on_the_fixture(self):
        with open(os.path.join(ROOT, workloads.FIXTURE)) as handle:
            fixture = json.load(handle)
        assert round(workloads.PaperSuite.paper_err_pct(fixture), 1) == 41.7


class TestManifest:
    """Every workload prints every metric of ``BENCHMARK.json``."""

    @pytest.fixture(scope="class")
    def manifest(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)

    def test_every_layer_metric_is_reported_on_an_empty_trace(self, manifest):
        import worker

        metrics = worker.layer_metrics(tracing.Tracer(), [tracing.Tracer()], import_s=0.1)
        # run.py adds the tracer's own two metrics.
        expected = {metric["name"] for metric in manifest["per_layer"]} - {"trace.overhead_pct", "trace.selfcheck_gap_pct"}
        assert set(metrics) == expected

    def test_every_workload_counts_its_simulated_requests(self, pins):
        summaries = {
            "paper_suite": {},
            "stream_edf": pins["stream_edf"]["0"],
            "plan_grid": pins["plan_grid"],
            "dse_sweep": pins["dse_sweep"],
        }
        assert set(summaries) == set(workloads.WORKLOADS)
        for name, summary in summaries.items():
            assert workloads.WORKLOADS[name].simulated_requests(summary) > 0


class TestTracer:
    def test_self_times_add_up_to_the_root(self):
        tracer = tracing.Tracer()
        root = tracer.push("bench.op", True)
        outer = tracer.push("serve.loop", True)
        for _ in range(3):
            inner = tracer.push("serve.sketch_update", False)
            sum(range(1000))
            tracer.pop(inner)
        tracer.pop(outer)
        tracer.pop(root)
        spans = {span[1]: span for span in tracer.spans}
        assert spans["serve.loop"][4] == spans["bench.op"][0]
        assert tracer.calls("serve.sketch_update") == 3
        _, _, start, end, _, _ = spans["bench.op"]
        assert sum(tracer.self_by_layer().values()) == pytest.approx(end - start, rel=1e-9)
        assert tracer.nesting_errors == 0

    def test_install_traces_and_undo_restores(self):
        import repro
        from repro.arch import simulator

        originals = (repro.load_dataset, simulator.simulate_inference, repro.Cluster.serve)
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            assert repro.load_dataset is not originals[0]
            dataset = repro.load_dataset("MolHIV", num_graphs=2)
        finally:
            installation.undo()
        assert (repro.load_dataset, simulator.simulate_inference, repro.Cluster.serve) == originals
        assert len(tracer.durations("datasets.load_dataset")) == 1
        assert tracer.values["datasets.edges"] == sum(graph.num_edges for graph in dataset)


def test_run_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
