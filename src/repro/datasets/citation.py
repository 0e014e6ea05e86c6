"""Citation-network datasets: Cora-, CiteSeer- and PubMed-like single graphs.

The paper evaluates four single-graph node-classification benchmarks; their
Table IV statistics are:

=========  ========  ==========
Dataset    Nodes     Edges
=========  ========  ==========
Cora       2,708     5,429
CiteSeer   3,327     4,732
PubMed     19,717    44,338
=========  ========  ==========

(Reddit, the fourth, lives in :mod:`repro.datasets.social` because its
structure is a social graph rather than a citation graph.)

Citation networks have power-law degree distributions and moderate
clustering, which we reproduce with a Holme–Kim power-law-cluster generator
sized to hit the node and undirected-edge counts above.  Node features are
sparse bag-of-words-style binary vectors.
"""

from __future__ import annotations

import numpy as np

from ..graph import powerlaw_cluster_graph
from .base import GraphDataset

__all__ = [
    "make_cora_like",
    "make_citeseer_like",
    "make_pubmed_like",
    "CITATION_REFERENCE",
]

# name -> (nodes, undirected edges, node feature dim) from Table IV / the
# original dataset descriptions.
CITATION_REFERENCE = {
    "Cora": (2708, 5429, 1433),
    "CiteSeer": (3327, 4732, 3703),
    "PubMed": (19717, 44338, 500),
}


def _bag_of_words_features(
    rng: np.random.Generator, num_nodes: int, dim: int, density: float = 0.02
) -> np.ndarray:
    """Sparse binary features mimicking bag-of-words citation features."""
    features = (rng.random((num_nodes, dim)) < density).astype(np.float64)
    # Guarantee every node has at least one active word.
    empty = np.nonzero(features.sum(axis=1) == 0)[0]
    if empty.size:
        features[empty, rng.integers(0, dim, size=empty.size)] = 1.0
    return features


def _make_citation_graph(
    name: str,
    num_nodes: int,
    undirected_edges: int,
    feature_dim: int,
    seed: int,
    scale: float,
) -> GraphDataset:
    rng = np.random.default_rng(seed)
    num_nodes = max(int(round(num_nodes * scale)), 16)
    undirected_edges = max(int(round(undirected_edges * scale)), num_nodes)
    # A Holme–Kim graph with attachment m has about m * (n - m) undirected
    # edges; pick m to land near the target edge count.
    attachment = max(int(round(undirected_edges / max(num_nodes - 1, 1))), 1)
    graph = powerlaw_cluster_graph(
        num_nodes=num_nodes,
        attachment=attachment,
        triangle_probability=0.3,
        rng=rng,
        node_feature_dim=0,
        name=name,
    )
    features = _bag_of_words_features(rng, num_nodes, feature_dim)
    graph = graph.with_node_features(features)
    return GraphDataset(
        name=name,
        graphs=[graph],
        node_feature_dim=feature_dim,
        edge_feature_dim=0,
        task="node_classification",
    )


def make_cora_like(seed: int = 11, scale: float = 1.0) -> GraphDataset:
    """Cora-like citation graph (2,708 nodes at scale 1.0)."""
    nodes, edges, dim = CITATION_REFERENCE["Cora"]
    return _make_citation_graph("Cora", nodes, edges, dim, seed, scale)


def make_citeseer_like(seed: int = 12, scale: float = 1.0) -> GraphDataset:
    """CiteSeer-like citation graph (3,327 nodes at scale 1.0)."""
    nodes, edges, dim = CITATION_REFERENCE["CiteSeer"]
    return _make_citation_graph("CiteSeer", nodes, edges, dim, seed, scale)


def make_pubmed_like(seed: int = 13, scale: float = 1.0) -> GraphDataset:
    """PubMed-like citation graph (19,717 nodes at scale 1.0).

    The full-scale graph generates in well under a second, but simulating
    inference over 19,717 nodes is slow; pass ``scale < 1`` for faster
    simulations — the experiment harness records the scale used so reported
    numbers stay comparable.
    """
    nodes, edges, dim = CITATION_REFERENCE["PubMed"]
    return _make_citation_graph("PubMed", nodes, edges, dim, seed, scale)
