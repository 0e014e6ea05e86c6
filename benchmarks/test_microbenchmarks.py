"""Microbenchmarks of the simulator's hot paths (not tied to a paper artifact).

These time the per-graph cycle simulation and the reference-library forward
pass so that performance regressions in the library itself are visible.
"""

import numpy as np
import pytest

from repro.arch import ArchitectureConfig, FlowGNNAccelerator, simulate_inference
from repro.datasets import make_hep_like, make_molhiv_like, make_pubmed_like
from repro.nn import build_model, segment_sum


@pytest.fixture(scope="module")
def molhiv_graph():
    return make_molhiv_like(num_graphs=1, seed=1)[0]


@pytest.fixture(scope="module")
def hep_graph():
    return make_hep_like(num_graphs=1, seed=2)[0]


def test_simulate_gin_molhiv(benchmark, molhiv_graph):
    model = build_model("GIN", input_dim=9, edge_input_dim=3)
    benchmark(simulate_inference, model, molhiv_graph, ArchitectureConfig())


def test_simulate_gat_hep(benchmark, hep_graph):
    model = build_model("GAT", input_dim=7)
    benchmark(simulate_inference, model, hep_graph, ArchitectureConfig())


def test_reference_forward_gin_molhiv(benchmark, molhiv_graph):
    model = build_model("GIN", input_dim=9, edge_input_dim=3)
    benchmark(model.forward, molhiv_graph)


def test_accelerator_functional_run(benchmark, molhiv_graph):
    model = build_model("GCN", input_dim=9)
    accelerator = FlowGNNAccelerator(model)
    benchmark(accelerator.run, molhiv_graph, True)


def test_powerlaw_cluster_pubmed_like(benchmark):
    # Holme–Kim generation of the fast suite's largest citation graph.
    benchmark(make_pubmed_like, scale=0.25)


def test_segment_sum_throughput(benchmark):
    rng = np.random.default_rng(0)
    messages = rng.standard_normal((100_000, 64))
    destinations = rng.integers(0, 10_000, size=100_000)
    benchmark(segment_sum, messages, destinations, 10_000)
