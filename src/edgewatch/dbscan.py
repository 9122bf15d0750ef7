"""Density-based clustering of caches into edge-nodes (from-scratch DBSCAN)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class Clustering:
    """Row i of ``labels`` is cache ``cache_ids[i]``'s cluster, -1 for noise; ``is_core`` marks core rows.

    Clusters are numbered 0..k-1 by their smallest core row, as ``dbscan`` numbers them.
    """

    cache_ids: tuple[str, ...]
    labels: np.ndarray  # intp
    is_core: np.ndarray  # bool

    @cached_property
    def members(self) -> tuple[tuple[str, ...], ...]:
        """Cluster k's cache ids, in row order, at index k: one stable sort of ``labels``."""
        by_label = np.argsort(self.labels, kind="stable")
        starts = np.searchsorted(self.labels[by_label], np.arange(self.n_clusters))
        return tuple(map(tuple, np.split(np.array(self.cache_ids, dtype=object)[by_label], starts)[1:]))

    @property
    def noise(self) -> tuple[str, ...]:
        return tuple(self.cache_ids[i] for i in np.flatnonzero(self.labels < 0).tolist())

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max(initial=-1)) + 1


# Candidate pairs tested per block: bounds the neighborhood scan's working set
# however many rows share a cell (all of them when coordinates 0 and -1 are constant).
PAIR_BUDGET = 1 << 13


def neighborhoods(points: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighborhoods (own index included) as one CSR ``(indptr, indices)``.

    Row i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``, ascending: the
    rows j whose ``deltas = points[j] - points[i]`` give
    ``einsum("ij,ij->i", deltas, deltas) <= epsilon**2``. Each row falls in a
    cell of a grid on coordinate 0 and the last coordinate, and a pair is
    tested only when both rows share a cell or lie in adjacent ones. The grid
    drops no neighbor: ``dist2`` sums non-negative terms, so a passing pair has
    ``dx * dx <= epsilon**2`` in floats and
    ``|dx| < sqrt(nextafter(epsilon**2, inf))``, even where ``epsilon**2``
    underflows, and a cell's side is at least that, padded by a relative 1e-9,
    more than rounding takes away. At most 2**16 cells span each axis, so a
    cell number neither overflows nor rounds by as much as that padding. A row
    with a non-finite grid coordinate passes no test unless ``epsilon**2`` is
    infinite, and is left out.
    ``dist2`` is symmetric bit for bit, so each pair is tested once.
    """
    n, dims = points.shape
    eps2 = epsilon * epsilon
    half_width = np.sqrt(np.nextafter(eps2, np.inf)) * (1 + 1e-9)
    grid = points[:, [0, -1]] if dims else np.zeros((n, 2))
    live = np.flatnonzero(np.isfinite(grid).all(axis=1) | np.isinf(half_width))
    grid = grid[live]
    low = grid.min(axis=0, initial=np.inf)
    side = np.maximum(half_width, (grid.max(axis=0, initial=-np.inf) - low) * 2.0**-16)
    # A NaN quotient (an infinite or NaN side or coordinate) puts the row in cell 0 with all the others.
    cell = np.nan_to_num((grid - low) / side, nan=0.0).astype(np.intp)
    stride = cell[:, 1].max(initial=0) + 2  # row-major with a spare column: no neighbor wraps
    cell = cell[:, 0] * stride + cell[:, 1]
    by_cell = np.argsort(cell, kind="stable")
    order, cell, at = live[by_cell], cell[by_cell], np.arange(len(live))
    # The row at position p is paired with the rest of its cell and the cell
    # above it, then with the three cells of the next column: two runs of cells.
    starts = np.concatenate([at, np.searchsorted(cell, cell + (stride - 1))])
    widths = np.searchsorted(cell, np.concatenate([cell + 2, cell + (stride + 2)])) - starts
    ends = np.cumsum(widths)
    shift = starts - (ends - widths)  # pair number -> partner's position in order
    keys = [np.empty(0, dtype=np.intp)]
    for first in range(0, int(widths.sum()), PAIR_BUDGET):
        pair = np.arange(first, min(first + PAIR_BUDGET, ends[-1]))
        run = np.searchsorted(ends, pair, "right")
        row, col = order[run % len(order)], order[pair + shift[run]]
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
    its lowest-index core neighbor (the deterministic border tie-break) or is
    noise. The result holds the intp ``labels`` (-1 for noise, clusters
    numbered 0..k-1 by their smallest core row) and the bool ``is_core`` mask,
    row for row with ``cache_ids``.
    """
    n = len(points)
    if len(cache_ids) != n:
        raise ValueError(f"{len(cache_ids)} cache ids for {n} points")
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
    return Clustering(tuple(cache_ids), labels, is_core)


def write_clustering_csv(target: IO[str] | str | Path, clustering: Clustering) -> None:
    """CSV dump: cache_id,cluster_id,role with cluster_id=-1 for noise, by cache_id."""
    labels = clustering.labels
    roles = np.where(clustering.is_core, CORE, np.where(labels < 0, NOISE, BORDER))
    rows = sorted(zip(clustering.cache_ids, labels.tolist(), roles.tolist()))
    write_csv(target, "cache_id,cluster_id,role".split(","), rows)
