"""Density-based clustering of caches into edge-nodes (from-scratch DBSCAN)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .ingest import write_csv

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
        if not self.epsilon > 0:  # NaN too
            raise ValueError(f"epsilon must be positive: {self.epsilon}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1: {self.min_pts}")


@dataclass(frozen=True)
class Cluster:
    """One cluster: members in input order, with the core subset annotated."""

    members: tuple[str, ...]
    core: frozenset[str]

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


# Candidate pairs tested per block: bounds the neighborhood scan's working set
# however many rows a band holds (all of them when coordinate 0 is constant).
PAIR_BUDGET = 1 << 13


def neighborhoods(points: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighborhoods (own index included) as one CSR ``(indptr, indices)``.

    Row i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``, ascending: the
    rows j whose ``deltas = points[j] - points[i]`` give
    ``einsum("ij,ij->i", deltas, deltas) <= epsilon**2``. A pair is tested only
    when, in coordinate-0 order, the later row lies in a band above the
    earlier one. The band drops no neighbor: ``dist2`` sums non-negative
    terms, so a passing pair has ``dx * dx <= epsilon**2`` in floats and
    ``|dx| < sqrt(nextafter(epsilon**2, inf))``, even where ``epsilon**2``
    underflows; the band pads that by a relative 1e-9, more than rounding
    takes away. ``dist2`` is symmetric bit for bit, so each pair is tested once.
    """
    n, dims = points.shape
    eps2 = epsilon * epsilon
    x = points[:, 0] if dims else np.zeros(n)
    order = np.argsort(x, kind="stable")
    x = x[order]
    half_width = np.sqrt(np.nextafter(eps2, np.inf)) * (1 + 1e-9)
    # A NaN band edge (x is NaN, or -inf + inf) takes every later row.
    widths = np.searchsorted(x, x + half_width, "right") - np.arange(n)
    ends = np.cumsum(widths)
    shift = np.arange(n) - (ends - widths)  # pair number -> partner's position in x
    keys = [np.empty(0, dtype=np.intp)]
    for first in range(0, int(widths.sum()), PAIR_BUDGET):
        pair = np.arange(first, min(first + PAIR_BUDGET, ends[-1]))
        at = np.searchsorted(ends, pair, "right")
        row, col = order[at], order[pair + shift[at]]
        deltas = points[col]
        deltas -= points[row]
        kept = np.einsum("ij,ij->i", deltas, deltas) <= eps2
        keys += [(row * n + col)[kept], (col * n + row)[kept & (row != col)]]
    keys = np.sort(np.concatenate(keys))
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


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
    indptr, indices = neighborhoods(points, params.epsilon)
    counts = np.diff(indptr)
    is_core = counts >= params.min_pts
    rows = np.repeat(np.arange(n), counts)

    # Min-label hooking with pointer jumping: a core point's root ends as the
    # smallest core index of its component. A core row holds itself.
    core_idx = np.flatnonzero(is_core)
    core_pair = is_core[rows] & is_core[indices]
    segments = np.searchsorted(rows[core_pair], core_idx)
    root, hooked = None, np.arange(n)
    while not np.array_equal(root, hooked):
        root, hooked = hooked, hooked.copy()
        np.minimum.at(hooked, root[core_idx], np.minimum.reduceat(root[indices[core_pair]], segments))
        while not np.array_equal(hooked, jumped := hooked[hooked]):
            hooked = jumped
    labels = np.full(n, -1, dtype=np.intp)
    labels[core_idx] = (np.cumsum(is_core & (root == np.arange(n))) - 1)[root[core_idx]]

    # A border point takes the cluster of the first core entry in its row.
    border_pair = ~is_core[rows] & is_core[indices]
    border_rows, first = np.unique(rows[border_pair], return_index=True)
    labels[border_rows] = labels[indices[border_pair][first]]

    ids = np.array(cache_ids, dtype=object)
    by_label = np.argsort(labels, kind="stable")
    noise, *groups = np.split(by_label, np.searchsorted(labels[by_label], np.arange(labels.max() + 1)))
    return Clustering(
        clusters=tuple(Cluster(tuple(ids[g]), frozenset(ids[g[is_core[g]]])) for g in groups),
        noise=tuple(ids[noise]),
        params=params,
    )


def write_clustering_csv(target: IO[str] | str | Path, clustering: Clustering) -> None:
    """CSV dump: cache_id,cluster_id,role with cluster_id=-1 for noise."""
    labels = clustering.labels()
    roles = clustering.roles()
    rows = ([cache_id, labels[cache_id], roles[cache_id]] for cache_id in sorted(labels))
    write_csv(target, "cache_id,cluster_id,role".split(","), rows)
