"""Independent reference implementations the tests check the package against.

These deliberately take different routes from the library code: scipy's
distance matrix and connected-components instead of the band-limited
neighborhood scan and label propagation, and a literal rank-interpolation
percentile. ``region_query`` is the library's former all-rows scan, kept as
the per-row oracle for its neighborhoods.
The windowing and per-cache feature oracles are the per-record loops the
library used before its columnar flow table, the astral-distance oracle is
the per-star-pair norm loop it used before its distance matrix, the
normalization and centroid oracles are the per-cache, per-metric loops it
used before its feature matrix, and the ball sampler is the one-vector-per-call
sampler it used before drawing all of a constellation's offsets at once.
The star-label oracle is the per-star vote the timeline used before it counted
(cache, airport code) pairs: a set-membership mask and a ``Counter`` vote per
member cache and per star. That vote, ``majority_label``, is also the
per-cluster ground-truth vote the evaluation used before its array plurality.
The line oracle ``reference_parse_line`` is the per-line parser the package
used to word each rejected line: scalar checks in the order a line's first
fault is named, where the package now checks whole columns at once.

Flows for the oracles are ``Flow`` rows; ``flow_table`` turns rows into a
table through the public TSV parser and ``flow_rows`` turns a table back.
"""

from __future__ import annotations

import io
import math
from collections import Counter, namedtuple
from dataclasses import fields
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from edgewatch.ingest import (
    FLOW_LOG_COLUMNS,
    FLOW_LOG_HEADER,
    Codes,
    FlowLineError,
    FlowTable,
    parse_cache_hostname,
    parse_flow_log,
)

# One flow as a plain row, with the table's column names in column order.
Flow = namedtuple("Flow", [f.name for f in fields(FlowTable)])
_TSV_LINE = "{!r}\t{}\t{}\t{}\t{!r}\t{}\t{}\t{}\t{!r}\n"


def flow_table(rows) -> FlowTable:
    """The rows (Flow or plain tuples), written as TSV and read back by ``parse_flow_log``."""
    lines = [_TSV_LINE.format(float(r[0]), *r[1:4], float(r[4]), *r[5:8], float(r[8])) for r in rows]
    return parse_flow_log(io.StringIO(FLOW_LOG_HEADER + "\n" + "".join(lines)))


def flow_rows(table: FlowTable) -> list[Flow]:
    """The table's rows in order, as Flow tuples of Python values."""
    columns = (getattr(table, name) for name in Flow._fields)
    return list(map(Flow, *(c.decode() if isinstance(c, Codes) else c.tolist() for c in columns)))


def reference_parse_line(line_number: int, line: str) -> tuple:
    """The line's converted values in column order, or FlowLineError naming its first fault."""
    parts = line.split("\t")
    if len(parts) != len(FLOW_LOG_COLUMNS):
        raise FlowLineError(
            line_number, f"expected {len(FLOW_LOG_COLUMNS)} fields, got {len(parts)}"
        )
    (raw_start, client_id, server_ip, hostname, raw_rtt, raw_ttl, raw_up, raw_down, raw_thr) = parts
    try:
        start_time = float(raw_start)
        min_rtt = float(raw_rtt)
        ttl = int(raw_ttl)
        bytes_up = int(raw_up)
        bytes_down = int(raw_down)
        avg_throughput = float(raw_thr)
    except ValueError as exc:
        raise FlowLineError(line_number, f"bad numeric field: {exc}") from None
    if not server_ip:
        raise FlowLineError(line_number, "empty server_ip")
    if min_rtt < 0 or not math.isfinite(min_rtt):
        raise FlowLineError(line_number, f"min_rtt out of range: {min_rtt}")
    if not 0 <= ttl <= 255:
        raise FlowLineError(line_number, f"ttl out of range: {ttl}")
    if bytes_up < 0 or bytes_down < 0:
        raise FlowLineError(line_number, "negative byte count")
    if max(bytes_up, bytes_down) >= 2**63:  # the columns are int64
        raise FlowLineError(line_number, "byte count above 2**63 - 1")
    if avg_throughput < 0 or not math.isfinite(avg_throughput):
        raise FlowLineError(line_number, f"throughput out of range: {avg_throughput}")
    if not math.isfinite(start_time):
        raise FlowLineError(line_number, f"non-finite start_time: {raw_start}")
    return start_time, client_id, server_ip, hostname, min_rtt, ttl, bytes_up, bytes_down, avg_throughput


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


def region_query(points: np.ndarray, index: int, epsilon: float) -> np.ndarray:
    """Indices (own index included) within Euclidean distance <= epsilon, ascending.

    Scans all N rows of the (N, d) ``points``.
    """
    deltas = points - points[index]
    dist2 = np.einsum("ij,ij->i", deltas, deltas)
    return np.flatnonzero(dist2 <= epsilon * epsilon)


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


def reference_window_flows(records, window_seconds, step_seconds, utc_offset_hours=0.0):
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
    t0 = math.floor((t_min + shift) / day) * day - shift
    t_end = math.floor((t_max + shift) / day) * day - shift + day
    count = 0
    while t0 + count * step_seconds + window_seconds <= t_end:
        count += 1
    buckets = [{} for _ in range(count)]
    for record in records:
        t = record.start_time
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


def sample_in_ball(rng, dim, radius):
    """One uniform sample from the ball of the given radius about the origin:
    a nonzero standard-normal direction over its ``np.linalg.norm``, times
    radius * u^(1/dim); radius 0 draws nothing."""
    if radius == 0.0:
        return np.zeros(dim)
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    r = radius * rng.uniform() ** (1.0 / dim)
    return direction / norm * r


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


def majority_label(labels: Iterable[str | None]) -> str | None:
    """The most frequent label, ties to the lexicographically smallest.

    None entries cast no vote; with no votes at all the result is None.
    """
    votes = Counter(labels)
    votes.pop(None, None)
    if not votes:
        return None
    top = max(votes.values())
    return min(label for label, count in votes.items() if count == top)


def reference_star_label(snapshot, members):
    """Each member cache votes its flows' majority airport code; the star takes the majority of those votes."""
    table = snapshot.table
    is_member = np.isin(table.server_ip.names, list(members))
    rows = snapshot.rows[is_member[table.server_ip.codes[snapshot.rows]]]
    caches = table.server_ip.codes[rows]
    labels = np.array([parse_cache_hostname(h) for h in table.hostname[rows].decode()], dtype=object)
    return majority_label(majority_label(labels[caches == c].tolist()) for c in np.unique(caches))
