"""Independent reference implementations the tests check the package against.

These deliberately take different routes from the library code: scipy's
distance matrix and connected-components instead of the hand-rolled
neighborhood scan and BFS, and a literal rank-interpolation percentile.
The windowing and per-cache feature oracles are the per-record loops the
library used before its columnar flow table, the astral-distance oracle is
the per-star-pair norm loop it used before its distance matrix, and the
normalization and centroid oracles are the per-cache, per-metric loops it
used before its feature matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist


def reference_percentile(samples, q):
    """Sorted-array rank interpolation, written independently of the package."""
    s = sorted(float(x) for x in samples)
    n = len(s)
    if n == 0:
        raise ValueError("empty")
    h = (n - 1) * q / 100.0
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def reference_dbscan(points: np.ndarray, epsilon: float, min_pts: int):
    """Neighbor graph + connected components over core points.

    Returns (labels, core_mask) with labels[i] = cluster id or -1 for noise.
    Border points attach to the cluster of their lowest-index core neighbor.
    Cluster ids are renumbered by the smallest core index they contain.
    """
    n = points.shape[0]
    dist = cdist(points, points)
    adjacency = dist <= epsilon
    core = adjacency.sum(axis=1) >= min_pts

    labels = np.full(n, -1, dtype=int)
    core_idx = np.flatnonzero(core)
    if core_idx.size:
        sub = csr_matrix(adjacency[np.ix_(core_idx, core_idx)])
        n_comp, comp = connected_components(sub, directed=False)
        # Renumber components by their smallest core index.
        order = {}
        for local, point in enumerate(core_idx):
            c = comp[local]
            if c not in order:
                order[c] = len(order)
            labels[point] = order[c]
        remap = np.full(n_comp, -1)
        for c, new in order.items():
            remap[c] = new
        for local, point in enumerate(core_idx):
            labels[point] = remap[comp[local]]
    for i in range(n):
        if core[i]:
            continue
        neighbors = np.flatnonzero(adjacency[i])
        core_neighbors = neighbors[core[neighbors]]
        if core_neighbors.size:
            labels[i] = labels[core_neighbors[0]]
    return labels, core


def clusters_as_sets(labels: np.ndarray) -> set[frozenset[int]]:
    out: dict[int, set[int]] = {}
    for i, lab in enumerate(labels):
        if lab >= 0:
            out.setdefault(int(lab), set()).add(i)
    return {frozenset(v) for v in out.values()}


def reference_window_flows(records, window_seconds, step_seconds, utc_offset_hours=0.0, origin=None):
    """The per-record bucket loop that windowed flow lists before the columnar table.

    Returns (window_start, window_end, {cache_id: [records in input order]})
    per window.
    """
    day = 86_400.0
    shift = utc_offset_hours * 3600.0
    records = list(records)
    if not records:
        return []
    t_min = min(r.start_time for r in records)
    t_max = max(r.start_time for r in records)
    t0 = math.floor((t_min + shift) / day) * day - shift if origin is None else float(origin)
    t_end = math.floor((t_max + shift) / day) * day - shift + day
    count = 0
    while t0 + count * step_seconds + window_seconds <= t_end:
        count += 1
    buckets = [{} for _ in range(count)]
    for record in records:
        t = record.start_time
        if t < t0:
            continue
        lo = max(0, math.floor((t - t0 - window_seconds) / step_seconds))
        hi = min(count - 1, math.floor((t - t0) / step_seconds))
        for n in range(lo, hi + 1):
            start = t0 + n * step_seconds
            if start <= t < start + window_seconds:
                buckets[n].setdefault(record.server_ip, []).append(record)
    return [
        (t0 + n * step_seconds, t0 + n * step_seconds + window_seconds, buckets[n])
        for n in range(count)
    ]


def reference_percentile_vector(samples, qs):
    """The scalar percentile loop of the per-cache extractor, one rank at a time."""
    s = np.sort(np.asarray(samples, dtype=float))
    out = np.full(len(qs), math.nan)
    for i, q in enumerate(qs):
        h = (s.size - 1) * q / 100.0
        lo = math.floor(h)
        out[i] = s[-1] if lo >= s.size - 1 else s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    return out


def reference_cache_features(groups, min_flow, summarize):
    """The per-cache extractor loop: (cache_id, flow_count, {metric: summary}) per
    cache with >= min_flow flows, sorted by cache_id; ``summarize`` maps one
    cache's samples, in input order, to its summary vector."""
    out = []
    for cache_id in sorted(groups):
        flows = groups[cache_id]
        if len(flows) < min_flow:
            continue
        rtt = np.fromiter((r.min_rtt for r in flows), dtype=float, count=len(flows))
        ttl = np.fromiter((r.ttl for r in flows), dtype=float, count=len(flows))
        out.append((cache_id, len(flows), {"rtt": summarize(rtt), "ttl": summarize(ttl)}))
    return out


def reference_astral_distance(position, others):
    """(distance, index) of the nearest of ``others`` by a per-pair ``np.linalg.norm``
    loop, lowest index on ties; (sqrt(dim), None) when ``others`` is empty."""
    if not len(others):
        return math.sqrt(position.size), None
    best = math.inf
    best_idx = None
    for idx, other in enumerate(others):
        d = float(np.linalg.norm(position - other))
        if d < best:
            best = d
            best_idx = idx
    return best, best_idx


def _reference_normalize(bounds, metric, values):
    """(values - lo) / (hi - lo) with one metric's bounds; 0 for a degenerate span."""
    lo, hi = bounds[metric]
    values = np.asarray(values, dtype=float)
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def reference_normalize_snapshot(features):
    """({metric: (lo, hi)}, {cache_id: normalized vector}) of ``features``, a
    {cache_id: {"rtt": raw vector, "ttl": raw vector}} dict, by the per-cache loop."""
    bounds = {}
    for metric in ("rtt", "ttl"):
        stacked = np.concatenate([f[metric] for f in features.values()])
        bounds[metric] = (float(stacked.min()), float(stacked.max()))
    vectors = {
        cache_id: np.concatenate([_reference_normalize(bounds, m, f[m]) for m in ("rtt", "ttl")])
        for cache_id, f in features.items()
    }
    return bounds, vectors


def reference_centroids(clusters, features, bounds):
    """One star position per list of member ids: per metric, the mean of the
    members' raw vectors taken from a Python list, then normalized."""
    return [
        np.concatenate(
            [
                _reference_normalize(bounds, m, np.mean([features[c][m] for c in members], axis=0))
                for m in ("rtt", "ttl")
            ]
        )
        for members in clusters
    ]
