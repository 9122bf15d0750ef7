"""Density-based clustering of caches into edge-nodes (from-scratch DBSCAN)."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .ingest import text_output

DEFAULT_EPSILON = 0.04
DEFAULT_MIN_PTS = 5

CORE = "core"
BORDER = "border"
NOISE = "noise"


@dataclass(frozen=True)
class ClusterParams:
    epsilon: float = DEFAULT_EPSILON
    min_pts: int = DEFAULT_MIN_PTS

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive: {self.epsilon}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1: {self.min_pts}")


@dataclass(frozen=True)
class Cluster:
    """One cluster: members in input order, with the core subset annotated."""

    members: tuple[str, ...]
    core: frozenset[str]

    @property
    def border(self) -> frozenset[str]:
        return frozenset(self.members) - self.core

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Clustering:
    """Partition of the input caches into clusters plus a noise set."""

    clusters: tuple[Cluster, ...]
    noise: tuple[str, ...]
    params: ClusterParams

    def labels(self) -> dict[str, int]:
        """cache_id -> cluster index, with -1 for noise."""
        out = {c: -1 for c in self.noise}
        for idx, cluster in enumerate(self.clusters):
            for c in cluster.members:
                out[c] = idx
        return out

    def roles(self) -> dict[str, str]:
        out = {c: NOISE for c in self.noise}
        for cluster in self.clusters:
            for c in cluster.members:
                out[c] = CORE if c in cluster.core else BORDER
        return out

    @property
    def n_points(self) -> int:
        return len(self.noise) + sum(len(c) for c in self.clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def region_query(points: np.ndarray, index: int, epsilon: float) -> np.ndarray:
    """Indices (own index included) within Euclidean distance <= epsilon.

    ``points`` is an (N, d) array; returned indices are ascending.
    """
    deltas = points - points[index]
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    return np.flatnonzero(dist2 <= epsilon * epsilon)


def _neighborhoods(points: np.ndarray, epsilon: float) -> list[np.ndarray]:
    """All epsilon-neighborhoods via an exhaustive O(N^2) scan."""
    return [region_query(points, i, epsilon) for i in range(points.shape[0])]


def dbscan(points: np.ndarray, cache_ids: Sequence[str], params: ClusterParams) -> Clustering:
    """Classic DBSCAN with Euclidean distance, deterministic for a fixed order.

    ``points`` is an (N, d) float array whose row i is cache ``cache_ids[i]``.
    A point is core iff its epsilon-neighborhood (itself included) holds at
    least ``min_pts`` points. Core points within epsilon of each other are
    density-connected into one cluster; a non-core point joins the cluster of
    its lowest-index core neighbor (the deterministic border tie-break) or
    falls into the noise set. Clusters are ordered by their smallest core
    index and members keep input order.
    """
    n = len(points)
    if len(cache_ids) != n:
        raise ValueError(f"{len(cache_ids)} cache ids for {n} points")
    if not n:
        return Clustering(clusters=(), noise=(), params=params)
    neighborhoods = _neighborhoods(points, params.epsilon)
    is_core = np.fromiter(
        (len(nb) >= params.min_pts for nb in neighborhoods), dtype=bool, count=n
    )

    labels = np.full(n, -1, dtype=int)
    n_clusters = 0
    for seed in range(n):
        if not is_core[seed] or labels[seed] != -1:
            continue
        cid = n_clusters
        n_clusters += 1
        labels[seed] = cid
        queue = [seed]
        while queue:
            i = queue.pop()
            for j in neighborhoods[i]:
                if is_core[j] and labels[j] == -1:
                    labels[j] = cid
                    queue.append(j)

    for i in range(n):
        if is_core[i]:
            continue
        core_neighbors = neighborhoods[i][is_core[neighborhoods[i]]]
        if core_neighbors.size:
            labels[i] = labels[core_neighbors[0]]  # lowest index, already sorted

    clusters = []
    for cid in range(n_clusters):
        member_idx = np.flatnonzero(labels == cid)
        clusters.append(
            Cluster(
                members=tuple(cache_ids[i] for i in member_idx),
                core=frozenset(cache_ids[i] for i in member_idx if is_core[i]),
            )
        )
    noise = tuple(cache_ids[i] for i in range(n) if labels[i] == -1)
    return Clustering(clusters=tuple(clusters), noise=noise, params=params)


def write_clustering_csv(target: IO[str] | str | Path, clustering: Clustering) -> None:
    """CSV dump: cache_id,cluster_id,role with cluster_id=-1 for noise."""
    labels = clustering.labels()
    roles = clustering.roles()
    with text_output(target) as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["cache_id", "cluster_id", "role"])
        for cache_id in sorted(labels):
            writer.writerow([cache_id, labels[cache_id], roles[cache_id]])
