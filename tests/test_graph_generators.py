"""Tests for the random graph generators."""

import hashlib

import numpy as np
import pytest

from repro.datasets import citation
from repro.graph import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    knn_point_cloud_graph,
    molecule_like_graph,
    powerlaw_cluster_graph,
)
from repro.graph.generators import (
    _SetPlacement,
    _attach_features,
    _undirected_to_directed,
)


def _set_scan_powerlaw_cluster_graph(
    num_nodes, attachment, triangle_probability, rng, node_feature_dim=0, name="powerlaw_cluster"
):
    """Oracle: the original Holme–Kim generator, which rescans a ``set`` of edges.

    Its output depends on CPython's set iteration order; the production
    generator must reproduce it edge for edge and draw for draw.
    """
    if not 0.0 <= triangle_probability <= 1.0:
        raise ValueError("triangle_probability must lie in [0, 1]")
    if num_nodes <= attachment:
        raise ValueError("num_nodes must exceed attachment")

    repeated: list[int] = list(range(attachment))
    edges = set()
    for source in range(attachment, num_nodes):
        # First link by preferential attachment.
        target = int(repeated[rng.integers(0, len(repeated))])
        added = 0
        last_target = target
        while added < attachment:
            if target != source and (source, target) not in edges:
                edges.add((source, target))
                repeated.append(source)
                repeated.append(target)
                last_target = target
                added += 1
            if added >= attachment:
                break
            if rng.random() < triangle_probability:
                # Triangle closure: connect to a neighbour of the last target.
                neighbours = [b for (a, b) in edges if a == last_target] + [
                    a for (a, b) in edges if b == last_target
                ]
                if neighbours:
                    target = int(neighbours[rng.integers(0, len(neighbours))])
                else:
                    target = int(repeated[rng.integers(0, len(repeated))])
            else:
                target = int(repeated[rng.integers(0, len(repeated))])
    pairs = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
    edge_index = _undirected_to_directed(pairs)
    return _attach_features(num_nodes, edge_index, node_feature_dim, 0, rng, name)


def _assert_same_as_oracle(num_nodes, attachment, triangle_probability, seed):
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = _set_scan_powerlaw_cluster_graph(
        num_nodes, attachment, triangle_probability, oracle_rng
    )
    graph = powerlaw_cluster_graph(num_nodes, attachment, triangle_probability, rng)
    np.testing.assert_array_equal(graph.edge_index, expected.edge_index)
    # Same draw sequence: both generators leave the RNG in the same state.
    assert rng.random() == oracle_rng.random()
    return graph


class TestErdosRenyi:
    def test_shape_and_symmetry(self, rng):
        graph = erdos_renyi_graph(40, 0.2, rng, node_feature_dim=5, edge_feature_dim=2)
        assert graph.num_nodes == 40
        assert graph.node_features.shape == (40, 5)
        assert graph.edge_features.shape == (graph.num_edges, 2)
        # Both directions exist for every undirected pair.
        pairs = set(map(tuple, graph.edge_index.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    def test_edge_probability_extremes(self, rng):
        empty = erdos_renyi_graph(10, 0.0, rng)
        full = erdos_renyi_graph(10, 1.0, rng)
        assert empty.num_edges == 0
        assert full.num_edges == 10 * 9  # both directions of every pair

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5, rng)

    def test_determinism(self):
        a = erdos_renyi_graph(20, 0.3, np.random.default_rng(5))
        b = erdos_renyi_graph(20, 0.3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.edge_index, b.edge_index)


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self, rng):
        graph = barabasi_albert_graph(50, 3, rng)
        assert graph.num_nodes == 50
        # Each of the (50 - 3) added nodes contributes at most 3 undirected edges.
        assert graph.num_edges <= 2 * 3 * 47
        assert graph.num_edges > 0

    def test_heavy_tail(self, rng):
        graph = barabasi_albert_graph(300, 2, rng)
        degrees = graph.in_degrees() + graph.out_degrees()
        # Hubs exist: the max degree should be far above the mean.
        assert degrees.max() > 4 * degrees.mean()

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            barabasi_albert_graph(5, 0, rng)
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, 5, rng)


class TestPowerlawCluster:
    def test_counts(self, rng):
        graph = powerlaw_cluster_graph(100, 2, 0.4, rng, node_feature_dim=6)
        assert graph.num_nodes == 100
        assert graph.node_features.shape == (100, 6)
        assert graph.num_edges > 0

    def test_invalid_triangle_probability(self, rng):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(10, 2, 1.5, rng)

    def test_triangle_probability_one_rejected(self, rng):
        # At p = 1 a node whose neighbours are all taken is redrawn forever.
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            powerlaw_cluster_graph(20, 3, 1.0, rng)


class TestPowerlawClusterMatchesSetScan:
    """The linear-time generator against the original set-scan oracle."""

    @pytest.mark.parametrize("triangle_probability", [0.0, 0.3, 0.6, 0.95])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_draws(self, triangle_probability, seed):
        draw = np.random.default_rng([seed, int(triangle_probability * 100)])
        attachment = seed + 1
        num_nodes = int(draw.integers(attachment + 1, 401))
        _assert_same_as_oracle(num_nodes, attachment, triangle_probability, int(draw.integers(2**31)))

    @pytest.mark.parametrize(
        "maker, scale",
        [
            (citation.make_cora_like, 0.5),
            (citation.make_cora_like, 0.3),
            (citation.make_citeseer_like, 0.5),
            (citation.make_citeseer_like, 0.3),
            (citation.make_pubmed_like, 0.25),
            (citation.make_pubmed_like, 0.1),
        ],
    )
    def test_fast_suite_citation_recipes(self, monkeypatch, maker, scale):
        graph = maker(scale=scale).graphs[0]
        monkeypatch.setattr(citation, "powerlaw_cluster_graph", _set_scan_powerlaw_cluster_graph)
        expected = maker(scale=scale).graphs[0]
        np.testing.assert_array_equal(graph.edge_index, expected.edge_index)
        # The recipe draws node features after the graph: same RNG state, same features.
        np.testing.assert_array_equal(graph.node_features, expected.node_features)

    def test_above_fifty_thousand_edges(self):
        graph = _assert_same_as_oracle(10_600, 5, 0.01, seed=7)
        assert graph.num_edges // 2 > 50_000

    def test_placement_matches_cpython_set_order(self):
        # An insert-only set resizes at 5, 19, 77, 307, 1229, 4915, 19661 and
        # 78643 keys; the last is the first to grow by 2x (used > 50,000)
        # rather than 4x, so the keys run well past it.
        rng = np.random.default_rng(0)
        keys = [tuple(pair) for pair in rng.integers(-(10**6), 10**6, size=(100_000, 2)).tolist()]
        real = set()
        placement = _SetPlacement()
        checkpoints = {1, 4, 5, 6, 19, 1_229, 19_661, 78_000, 90_000, len(keys)}
        for count, key in enumerate(keys, start=1):
            if key not in real:
                real.add(key)
                placement.add(key)
            if count in checkpoints:
                assert sorted(placement.slot, key=placement.slot.get) == list(real)

    @pytest.mark.parametrize(
        "maker, digest",
        [
            (citation.make_cora_like, "ffd0fcaddf2eafea4e5ad06bb31b807f85bb04f669cbeccded7be115d5c393f6"),
            (citation.make_citeseer_like, "abab9a0165f98d94b2a99466441d1bc59371f8e57c74e627961d3b33d44b1754"),
            (citation.make_pubmed_like, "0bd4c7955b272210825bb50f148e439f93892f27daa6bfe3f78fd69b80079606"),
        ],
        ids=["Cora", "CiteSeer", "PubMed"],
    )
    def test_full_scale_edge_index_digest(self, maker, digest):
        # Digests of the set-scan generator's full-scale output, which
        # ``repro experiments`` without ``--fast`` uses.
        edge_index = np.ascontiguousarray(maker().graphs[0].edge_index, dtype=np.int64)
        assert hashlib.sha256(edge_index.tobytes()).hexdigest() == digest


class TestKNNPointCloud:
    def test_every_node_has_k_in_edges(self, rng):
        graph = knn_point_cloud_graph(30, 5, rng)
        np.testing.assert_array_equal(graph.in_degrees(), np.full(30, 5))
        assert graph.num_edges == 30 * 5

    def test_k_clamped_to_population(self, rng):
        graph = knn_point_cloud_graph(4, 10, rng)
        np.testing.assert_array_equal(graph.in_degrees(), np.full(4, 3))

    def test_no_self_loops(self, rng):
        graph = knn_point_cloud_graph(25, 6, rng)
        assert np.all(graph.sources != graph.destinations)

    def test_edge_features_are_relative_positions(self, rng):
        graph = knn_point_cloud_graph(20, 4, rng, node_feature_dim=3, edge_feature_dim=3)
        # Edge feature = source position - destination position.
        expected = graph.node_features[graph.sources] - graph.node_features[graph.destinations]
        np.testing.assert_allclose(graph.edge_features, expected, atol=1e-9)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            knn_point_cloud_graph(1, 3, rng)
        with pytest.raises(ValueError):
            knn_point_cloud_graph(10, 0, rng)


class TestMoleculeLike:
    def test_connected_tree_backbone(self, rng):
        graph = molecule_like_graph(30, rng)
        # A tree plus extra bonds has at least 2*(n-1) directed edges.
        assert graph.num_edges >= 2 * 29
        # One-hot feature rows sum to exactly 1.
        assert np.all(graph.node_features.sum(axis=1) == 1.0)
        assert np.all(graph.edge_features.sum(axis=1) == 1.0)

    def test_single_atom(self, rng):
        graph = molecule_like_graph(1, rng)
        assert graph.num_nodes == 1
        assert graph.num_edges == 0

    def test_invalid_num_atoms(self, rng):
        with pytest.raises(ValueError):
            molecule_like_graph(0, rng)

    def test_sparsity(self, rng):
        graph = molecule_like_graph(50, rng, extra_bond_probability=0.1)
        # Molecules stay sparse: average directed degree below 4.
        assert graph.average_degree() < 4.0
