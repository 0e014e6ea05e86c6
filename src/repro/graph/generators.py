"""Random graph generators used to synthesise the paper's workloads.

Four families cover every dataset in Table IV:

* **Erdős–Rényi** graphs — generic sparse random graphs, used in tests.
* **Barabási–Albert / power-law** graphs — citation networks (Cora,
  CiteSeer, PubMed) and the Reddit social graph, which have heavy-tailed
  degree distributions.
* **k-nearest-neighbour point clouds** — the High Energy Physics jets are
  built with the EdgeConv recipe (k = 16) over particle coordinates.
* **Molecule-like graphs** — small, nearly-planar graphs with low maximum
  degree and categorical bond (edge) features, standing in for MolHIV and
  MolPCBA.

Every generator takes an explicit ``numpy.random.Generator`` so that each
dataset, test and benchmark is reproducible bit-for-bit.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from .graph import Graph

__all__ = [
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "powerlaw_cluster_graph",
    "knn_point_cloud_graph",
    "molecule_like_graph",
    "random_features",
]


def random_features(
    rng: np.random.Generator, rows: int, dim: int, scale: float = 1.0
) -> np.ndarray:
    """Dense standard-normal feature matrix, the common case for inputs."""
    return rng.standard_normal((rows, dim)) * scale


def _undirected_to_directed(pairs: np.ndarray) -> np.ndarray:
    """Expand undirected edge pairs to both directed orientations."""
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0).astype(np.int64)


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    rng: np.random.Generator,
    node_feature_dim: int = 0,
    edge_feature_dim: int = 0,
    name: str = "erdos_renyi",
) -> Graph:
    """G(n, p) random graph, returned with both edge directions."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rows, cols = np.triu_indices(num_nodes, k=1)
    mask = rng.random(rows.shape[0]) < edge_probability
    pairs = np.stack([rows[mask], cols[mask]], axis=1)
    edge_index = _undirected_to_directed(pairs)
    return _attach_features(
        num_nodes, edge_index, node_feature_dim, edge_feature_dim, rng, name
    )


def barabasi_albert_graph(
    num_nodes: int,
    attachment: int,
    rng: np.random.Generator,
    node_feature_dim: int = 0,
    edge_feature_dim: int = 0,
    name: str = "barabasi_albert",
) -> Graph:
    """Preferential-attachment graph with ``attachment`` edges per new node.

    Produces the heavy-tailed degree distribution characteristic of citation
    and social networks.
    """
    if attachment < 1:
        raise ValueError("attachment must be >= 1")
    if num_nodes <= attachment:
        raise ValueError("num_nodes must exceed attachment")

    targets = list(range(attachment))
    repeated: list[int] = []
    pairs = []
    for source in range(attachment, num_nodes):
        chosen = set()
        for target in targets:
            chosen.add(target)
        for target in sorted(chosen):
            pairs.append((source, target))
        repeated.extend(chosen)
        repeated.extend([source] * len(chosen))
        # Preferential attachment: sample next targets proportionally to degree.
        if len(repeated) > 0:
            idx = rng.integers(0, len(repeated), size=attachment)
            targets = [repeated[i] for i in idx]
        else:  # pragma: no cover - only reachable with attachment == 0
            targets = list(range(attachment))
    edge_index = _undirected_to_directed(np.asarray(pairs, dtype=np.int64))
    return _attach_features(
        num_nodes, edge_index, node_feature_dim, edge_feature_dim, rng, name
    )


# CPython's set table (Objects/setobject.c); ``tests/test_graph_generators.py``
# pins the mirror against real sets on every supported Python.
_LINEAR_PROBES = 9
_PERTURB_SHIFT = 5
_SIZE_T_MASK = sys.maxsize * 2 + 1


def _free_slot(occupied: bytearray, key_hash: int) -> int:
    """First empty slot on ``key_hash``'s probe path, as ``set_insert_clean``."""
    mask = len(occupied) - 1
    i = key_hash & mask
    perturb = key_hash & _SIZE_T_MASK
    while True:
        if not occupied[i]:
            return i
        if i + _LINEAR_PROBES <= mask:
            for j in range(i + 1, i + _LINEAR_PROBES + 1):
                if not occupied[j]:
                    return j
        perturb >>= _PERTURB_SHIFT
        i = (i * 5 + 1 + perturb) & mask


class _SetPlacement:
    """The slot CPython's ``set`` gives each key of an insert-only set.

    A set iterates in slot order, so ``sorted(slot, key=slot.get)`` equals
    ``list(s)`` for the set ``s`` that received the same ``add`` calls.
    ``slot`` doubles as the membership test.  Nothing is deleted, so
    CPython's ``fill`` equals ``used``.
    """

    __slots__ = ("slot", "_occupied")

    def __init__(self) -> None:
        self.slot: dict = {}
        self._occupied = bytearray(8)

    def add(self, key) -> None:
        """Insert a key that is not yet present (``set_add_entry``)."""
        self.slot[key] = index = _free_slot(self._occupied, hash(key))
        self._occupied[index] = 1
        used = len(self.slot)
        if used * 5 >= (len(self._occupied) - 1) * 3:
            self._resize(used * 2 if used > 50000 else used * 4)

    def _resize(self, min_used: int) -> None:
        """``set_table_resize``: reinsert every key in old-slot order."""
        size = 8
        while size <= min_used:
            size <<= 1
        self._occupied = bytearray(size)
        for key in sorted(self.slot, key=self.slot.get):
            self.slot[key] = index = _free_slot(self._occupied, hash(key))
            self._occupied[index] = 1


def powerlaw_cluster_graph(
    num_nodes: int,
    attachment: int,
    triangle_probability: float,
    rng: np.random.Generator,
    node_feature_dim: int = 0,
    name: str = "powerlaw_cluster",
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Citation networks have both a power-law degree distribution and high
    clustering; the triangle-closing step reproduces the latter.

    A triangle step picks among the last target's neighbours in the order a
    Python ``set`` of the ``(source, target)`` edges would list them, which
    :class:`_SetPlacement` reproduces without scanning the edges.
    """
    if not 0.0 <= triangle_probability < 1.0:
        raise ValueError("triangle_probability must lie in [0, 1)")
    if num_nodes <= attachment:
        raise ValueError("num_nodes must exceed attachment")

    repeated: list[int] = list(range(attachment))
    edges = _SetPlacement()
    slot = edges.slot
    # Every source links exactly ``attachment`` targets, so node v's
    # (v, b) edges are the ``attachment`` entries of ``chosen`` from
    # ``(v - attachment) * attachment``; its (a, v) edges are ``in_adj[v]``.
    chosen: list[int] = []
    in_adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for source in range(attachment, num_nodes):
        # First link by preferential attachment.
        target = int(repeated[rng.integers(0, len(repeated))])
        added = 0
        last_target = target
        while added < attachment:
            if target != source and (source, target) not in slot:
                edges.add((source, target))
                chosen.append(target)
                in_adj[target].append(source)
                repeated.append(source)
                repeated.append(target)
                last_target = target
                added += 1
            if added >= attachment:
                break
            if rng.random() < triangle_probability:
                # Triangle closure: connect to a neighbour of the last target,
                # listed as (last_target, b) edges then (a, last_target) edges.
                start = (last_target - attachment) * attachment
                outs = chosen[start : start + attachment] if start >= 0 else []
                ins = in_adj[last_target]
                if outs or ins:
                    k = int(rng.integers(0, len(outs) + len(ins)))
                    if k < len(outs):
                        ordered = sorted(outs, key=lambda b: slot[(last_target, b)])
                        target = ordered[k]
                    else:
                        ordered = sorted(ins, key=lambda a: slot[(a, last_target)])
                        target = ordered[k - len(outs)]
                else:
                    target = int(repeated[rng.integers(0, len(repeated))])
            else:
                target = int(repeated[rng.integers(0, len(repeated))])
    # Free the adjacency before the output arrays are built: together they
    # would set the peak memory of a dataset load.
    del repeated, chosen, in_adj
    pairs = np.asarray(sorted(slot), dtype=np.int64).reshape(-1, 2)
    edge_index = _undirected_to_directed(pairs)
    return _attach_features(num_nodes, edge_index, node_feature_dim, 0, rng, name)


def knn_point_cloud_graph(
    num_points: int,
    k: int,
    rng: np.random.Generator,
    spatial_dim: int = 3,
    node_feature_dim: int = 0,
    edge_feature_dim: int = 0,
    name: str = "knn_point_cloud",
) -> Graph:
    """k-nearest-neighbour graph over random points (EdgeConv construction).

    Each point receives directed edges from its ``k`` nearest neighbours,
    mirroring how the HEP jet graphs in the paper are built (k = 16).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if num_points <= 1:
        raise ValueError("num_points must be >= 2")
    k = min(k, num_points - 1)

    points = rng.standard_normal((num_points, spatial_dim))
    # Pairwise squared distances; num_points is small (tens to hundreds).
    deltas = points[:, None, :] - points[None, :, :]
    distances = np.einsum("ijk,ijk->ij", deltas, deltas)
    np.fill_diagonal(distances, np.inf)
    neighbour_ids = np.argsort(distances, axis=1)[:, :k]

    destinations = np.repeat(np.arange(num_points, dtype=np.int64), k)
    sources = neighbour_ids.reshape(-1).astype(np.int64)
    edge_index = np.stack([sources, destinations], axis=1)

    node_features = None
    if node_feature_dim:
        # Point coordinates become the leading node features (physical inputs).
        extra = max(node_feature_dim - spatial_dim, 0)
        pad = rng.standard_normal((num_points, extra)) if extra else np.zeros(
            (num_points, 0)
        )
        node_features = np.concatenate([points, pad], axis=1)[:, :node_feature_dim]
    edge_features = None
    if edge_feature_dim:
        # EdgeConv edge features are relative displacements.
        rel = points[sources] - points[destinations]
        extra = max(edge_feature_dim - spatial_dim, 0)
        pad = (
            rng.standard_normal((edge_index.shape[0], extra))
            if extra
            else np.zeros((edge_index.shape[0], 0))
        )
        edge_features = np.concatenate([rel, pad], axis=1)[:, :edge_feature_dim]

    return Graph(
        num_nodes=num_points,
        edge_index=edge_index,
        node_features=node_features,
        edge_features=edge_features,
        name=name,
    )


def molecule_like_graph(
    num_atoms: int,
    rng: np.random.Generator,
    node_feature_dim: int = 9,
    edge_feature_dim: int = 3,
    extra_bond_probability: float = 0.15,
    name: str = "molecule",
) -> Graph:
    """Small molecule-like graph: a random tree plus a few ring-closing bonds.

    Real molecules are connected, sparse (average degree ≈ 2.2) and have a
    small number of rings.  A uniform random spanning tree plus a handful of
    extra bonds reproduces those statistics, and categorical "bond type"
    features are attached to every edge.
    """
    if num_atoms < 1:
        raise ValueError("num_atoms must be >= 1")

    pairs = []
    for node in range(1, num_atoms):
        parent = int(rng.integers(0, node))
        pairs.append((parent, node))
    # Ring closures: extra bonds between non-adjacent atoms.
    num_extra = int(np.floor(extra_bond_probability * num_atoms))
    existing = set(pairs)
    attempts = 0
    while num_extra > 0 and attempts < 20 * num_atoms and num_atoms > 2:
        a, b = rng.integers(0, num_atoms, size=2)
        attempts += 1
        if a == b:
            continue
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if key in existing:
            continue
        existing.add(key)
        pairs.append(key)
        num_extra -= 1

    edge_index = _undirected_to_directed(np.asarray(pairs, dtype=np.int64))

    node_features = None
    if node_feature_dim:
        # Categorical atom types one-hot encoded into the leading columns.
        atom_types = rng.integers(0, min(node_feature_dim, 8), size=num_atoms)
        node_features = np.zeros((num_atoms, node_feature_dim))
        node_features[np.arange(num_atoms), atom_types] = 1.0
    edge_features = None
    if edge_feature_dim:
        bond_types = rng.integers(0, edge_feature_dim, size=edge_index.shape[0])
        edge_features = np.zeros((edge_index.shape[0], edge_feature_dim))
        edge_features[np.arange(edge_index.shape[0]), bond_types] = 1.0

    return Graph(
        num_nodes=num_atoms,
        edge_index=edge_index,
        node_features=node_features,
        edge_features=edge_features,
        name=name,
    )


def _attach_features(
    num_nodes: int,
    edge_index: np.ndarray,
    node_feature_dim: int,
    edge_feature_dim: int,
    rng: np.random.Generator,
    name: str,
) -> Graph:
    node_features: Optional[np.ndarray] = None
    edge_features: Optional[np.ndarray] = None
    if node_feature_dim:
        node_features = random_features(rng, num_nodes, node_feature_dim)
    if edge_feature_dim:
        edge_features = random_features(rng, edge_index.shape[0], edge_feature_dim)
    return Graph(
        num_nodes=num_nodes,
        edge_index=edge_index,
        node_features=node_features,
        edge_features=edge_features,
        name=name,
    )
