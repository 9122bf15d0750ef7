"""Independent reference implementations the tests check the package against.

These deliberately take different routes from the library code: scipy's
distance matrix and connected-components instead of the grid-limited
neighborhood scan and label propagation, and a literal rank-interpolation
percentile. ``region_query`` is the library's former all-rows scan, kept as
the per-row oracle for its neighborhoods, and ``reference_band_neighborhoods``
is its former band scan, which tested every pair within epsilon in coordinate 0
where the library now tests the pairs of adjacent cells of a 2-D grid.
The windowing and per-cache feature oracles are the per-record loops the
library used before its columnar flow table, the astral-distance oracle is
the per-star-pair norm loop it used before its distance matrix, the
normalization and centroid oracles are the per-cache, per-metric loops it
used before its feature matrix, and the ball sampler is the one-vector-per-call
sampler it used before drawing all of a constellation's offsets at once.
``ball_offsets`` is the package's former public ``(n, dim)`` sampler, kept here
over the package's row-draw helper ``_ball_rows`` so that the tests can check
that helper against ``sample_in_ball``.
The star-label oracle is the per-star vote the timeline used before it counted
(cache, airport code) pairs: a set-membership mask and a ``Counter`` vote per
member cache and per star. That vote, ``majority_label``, is also the
per-cluster ground-truth vote the evaluation used before its array plurality.
The line oracle ``reference_parse_line`` is the per-line parser the package
used to word each rejected line: scalar checks in the order a line's first
fault is named, where the package now checks whole columns at once.
The trace oracle ``reference_generate_trace`` is the generator's former
per-bucket loop, which did a bucket's arithmetic right after its draws, where
the package now draws per bucket and computes per (day, node). Its event rules
are the generator's former three per-kind scans (``_node_active``,
``_rtt_shift`` and ``_congestion_factor``), where the package now decides a
node's day in one pass. The writer oracle ``reference_write_flow_log`` is the
former row-by-row ``str.format`` writer, which checked no range and wrote
tables the parser rejects. The calibration oracle ``reference_cd_calibration``
is the former per-radius calibration, which redrew every trial's stars and ball
draws for each radius and summed each CD through its per-star couplings. It
draws each star's offset through ``sample_in_ball``, so it shares no sampling
code with the package. ``seeded_rng`` is the package's former way to seed one stream: numpy's own
``default_rng`` of the key's 32-bit words, where the package now hashes a whole batch of keys itself.
The star-position oracle ``reference_star_positions`` is the former one ``.mean(axis=0)`` call per star, where
the package now adds every clustered row onto its star in one ``np.add.at``, and ``reference_value_rank`` is the
former int64 rank built from one whole-trace ``arange``, where the package now fills int32 ranks in blocks.

Flows for the oracles are ``Flow`` rows; ``flow_table`` turns rows into a
table through the TSV parser and ``flow_rows`` turns a table back.
``parse_flow_log`` is the package's former public stream parser: the reader
``read_flow_log`` runs over each of its files, applied to one stream, with
skip-and-count mode (``errors=[]``) as well as strict mode.
``table_columns`` gives a table's columns in a form that compares bit for bit,
and ``transient_bytes`` measures a call's working memory with ``tracemalloc``.
"""

from __future__ import annotations

import io
import math
import tracemalloc
from collections import Counter, namedtuple
from dataclasses import fields
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from edgewatch.constellation import Constellation, constellation_distance
from edgewatch.dbscan import PAIR_BUDGET
from edgewatch.evaluation import GroundTruth, _ball_rows
from edgewatch.ingest import (
    DAY_SECONDS,
    FLOW_LOG_COLUMNS,
    FLOW_LOG_HEADER,
    Codes,
    FlowLineError,
    FlowTable,
    _fields_of,
    _Reader,
    parse_cache_hostname,
    text_output,
)
from edgewatch.synth import (
    _STREAM_CACHE_ALLOC,
    _STREAM_CACHE_BASE,
    _STREAM_DAY_WEIGHTS,
    _STREAM_FLOWS,
    _STREAM_NODE_ALLOC,
    BASELINE_THROUGHPUT_KBPS,
    CHURN_LOG_SIGMA,
    MIN_RTT_FLOOR_MS,
    THROUGHPUT_LOG_SIGMA,
    EdgeNodeSpec,
    EventSpec,
    SynthConfig,
    cache_identity,
)

# One flow as a plain row, with the table's column names in column order.
Flow = namedtuple("Flow", [f.name for f in fields(FlowTable)])
_TSV_LINE = "{!r}\t{}\t{}\t{}\t{!r}\t{}\t{}\t{}\t{!r}\n"


def parse_flow_log(source: IO[str], errors: list[FlowLineError] | None = None) -> FlowTable:
    """One flow log read from a text stream, as ``read_flow_log`` reads each of its files; see ``_Reader.read``."""
    reader = _Reader()
    reader.read(source, errors)
    return reader.table()


def flow_log_text(rows) -> str:
    """The rows (Flow or plain tuples) as a TSV flow log, header first."""
    lines = [_TSV_LINE.format(float(r[0]), *r[1:4], float(r[4]), *r[5:8], float(r[8])) for r in rows]
    return FLOW_LOG_HEADER + "\n" + "".join(lines)


def flow_table(rows) -> FlowTable:
    """The rows (Flow or plain tuples), written as TSV and read back by ``parse_flow_log``."""
    return parse_flow_log(io.StringIO(flow_log_text(rows)))


def flow_rows(table: FlowTable) -> list[Flow]:
    """The table's rows in order, as Flow tuples of Python values."""
    columns = (getattr(table, name) for name in Flow._fields)
    return list(map(Flow, *(c.decode() if isinstance(c, Codes) else c.tolist() for c in columns)))


def table_columns(table: FlowTable) -> list[tuple]:
    """Each column's dtype and bytes, a str column's values, and a Codes column's codes and names.

    A str column, object or StringDType, compares by value: StringDType's bytes hold offsets into its own
    string storage."""
    columns = [getattr(table, f.name) for f in fields(FlowTable)]
    return [(c.codes.dtype, c.codes.tobytes(), c.names.tolist()) if isinstance(c, Codes)
            else (c.dtype, c.tolist() if c.dtype.kind in "OT" else c.tobytes()) for c in columns]


def transient_bytes(function, *args):
    """(result, peak traced bytes during the call minus the bytes still held once it returns)."""
    tracemalloc.start()
    try:
        result = function(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


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


def reference_band_neighborhoods(points: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """``neighborhoods`` as the CSR of a band scan in coordinate-0 order.

    A pair is tested when, in coordinate-0 order, the later row lies within
    ``sqrt(nextafter(epsilon**2, inf))``, padded by a relative 1e-9, of the
    earlier one; a NaN band edge takes every later row. Pairs are tested in
    blocks of ``PAIR_BUDGET``, with the library's ``deltas`` and ``einsum``.
    """
    n, dims = points.shape
    eps2 = epsilon * epsilon
    x = points[:, 0] if dims else np.zeros(n)
    order = np.argsort(x, kind="stable")
    x = x[order]
    half_width = np.sqrt(np.nextafter(eps2, np.inf)) * (1 + 1e-9)
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


def ball_offsets(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """``(n, dim)`` uniform samples from the ball of the given radius centered at the origin.

    Row by row, the direction is a nonzero standard-normal draw, then u scales
    its length to radius * u^(1/dim). Radius 0 draws nothing.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1: {dim}")
    if radius == 0.0:
        return np.zeros((n, dim))
    units, upows = _ball_rows(rng, n, dim)
    return units * (radius * upows)[:, None]


def reference_cd_calibration(n_stars, e, trials, extra_stars=0, *, seed=0, dim=None):
    """Mean CD over ``trials`` trials at one radius ``e``, each trial drawn afresh from (seed, trial)."""
    if n_stars < 1:
        raise ValueError("n_stars must be >= 1")
    if e < 0 or trials < 1 or extra_stars < 0:
        raise ValueError("invalid calibration parameters")
    space_dim = n_stars if dim is None else dim
    total = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        base = rng.uniform(size=(n_stars, space_dim))
        offsets = np.array([sample_in_ball(rng, space_dim, e) for _ in range(n_stars)])
        displaced = np.vstack([base + offsets, rng.uniform(size=(extra_stars, space_dim))])
        total += constellation_distance(Constellation(base), Constellation(displaced)).cd_value
    return total / trials


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


def _node_active(spec: EdgeNodeSpec, day: int, events: Sequence[EventSpec]) -> bool:
    births = [ev for ev in events if ev.kind == "node_birth" and ev.target == spec.label]
    if births and not any(ev.active(day) for ev in births):
        return False
    for ev in events:
        if ev.kind == "node_death" and ev.target == spec.label and ev.active(day):
            return False
    return True


def _rtt_shift(label: str, day: int, events: Sequence[EventSpec]) -> float:
    return sum(
        ev.magnitude
        for ev in events
        if ev.kind == "path_shift" and ev.target == label and ev.active(day)
    )


def _congestion_factor(label: str, day: int, events: Sequence[EventSpec]) -> float:
    factor = 1.0
    for ev in events:
        if ev.kind == "congestion" and ev.target == label and ev.active(day):
            factor *= ev.magnitude
    return factor


def seeded_rng(*key: int) -> np.random.Generator:
    """``np.random.default_rng(list(key))``'s generator, from the values' 32-bit words as SeedSequence splits them."""
    words = []
    for value in key:
        if value < 0:  # -1 >> 32 is -1: the loop below would never end
            raise ValueError(f"expected non-negative integer: {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, np.uint32))


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The stream of one synthetic key, built by numpy's SeedSequence from the Python ints."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def reference_generate_trace(config: SynthConfig) -> tuple[FlowTable, GroundTruth]:
    """Draw the whole trace day by day; identical config+seed gives identical output.

    Per day: flows are split across active nodes by load weight, then across a
    node's caches by a per-day weight vector (re-perturbed with strength
    rank_churn); each (day, node, cache) bucket then samples its flows from
    an independent derived stream. Each day's flows are in start-time order.
    Ground truth maps every cache that emitted at least one flow to its node
    label.
    """
    identities = [
        [cache_identity(i, spec, j) for j in range(spec.cache_count)]
        for i, spec in enumerate(config.nodes)
    ]
    base_weights = []
    for i, spec in enumerate(config.nodes):
        # Heavy-tailed but floored: the busiest caches dominate, yet no cache
        # starves to the point of never clearing a MinFlow cut.
        w = _rng(config.seed, _STREAM_CACHE_BASE, i).exponential(1.0, spec.cache_count) + 0.5
        base_weights.append(w / w.sum())

    # start, cache, client, rtt, ttl, up, down, throughput; rows [0, end) are filled.
    dtypes = (np.float64, np.intp, np.int64, np.float64, np.int64, np.int64, np.int64, np.float64)
    columns = [np.empty(config.days * config.flows_per_day, dtype) for dtype in dtypes]
    end = 0
    gt_labels: dict[str, str] = {}
    first_cache = np.cumsum([0, *(spec.cache_count for spec in config.nodes)])
    for day in range(config.days):
        day_start = config.start_epoch + day * DAY_SECONDS
        node_weights = np.array(
            [
                spec.load_weight if _node_active(spec, day, config.events) else 0.0
                for spec in config.nodes
            ]
        )
        total = node_weights.sum()
        if total <= 0:
            continue
        node_counts = _rng(config.seed, _STREAM_NODE_ALLOC, day).multinomial(
            config.flows_per_day, node_weights / total
        )
        day_begin = end
        for i, spec in enumerate(config.nodes):
            if node_counts[i] == 0:
                continue
            weights = base_weights[i]
            if config.rank_churn > 0:
                noise = _rng(config.seed, _STREAM_DAY_WEIGHTS, day, i).standard_normal(
                    spec.cache_count
                )
                weights = weights * np.exp(CHURN_LOG_SIGMA * config.rank_churn * noise)
                weights = weights / weights.sum()
            cache_counts = _rng(config.seed, _STREAM_CACHE_ALLOC, day, i).multinomial(
                int(node_counts[i]), weights
            )
            shift = _rtt_shift(spec.label, day, config.events)
            congestion = _congestion_factor(spec.label, day, config.events)
            sigma = (spec.rtt_spread / spec.rtt_median) * congestion
            for j in range(spec.cache_count):
                count = int(cache_counts[j])
                if count == 0:
                    continue
                server_ip, hostname = identities[i][j]
                gt_labels[server_ip] = spec.label
                rng = _rng(config.seed, _STREAM_FLOWS, day, i, j)
                offsets = rng.uniform(0.0, DAY_SECONDS, count)
                jitter = spec.rtt_median * (np.exp(sigma * rng.standard_normal(count)) - 1.0)
                rtt = np.maximum(MIN_RTT_FLOOR_MS, spec.rtt_median + shift + jitter)
                throughput = (
                    BASELINE_THROUGHPUT_KBPS
                    * np.exp(THROUGHPUT_LOG_SIGMA * rng.standard_normal(count))
                    / congestion
                )
                duration = rng.lognormal(math.log(45.0), 0.5, count)
                bytes_down = (throughput * 125.0 * duration).astype(np.int64)
                bytes_up = (bytes_down * 0.012).astype(np.int64)
                clients = rng.integers(0, 1_000_000, count)
                values = (day_start + offsets, first_cache[i] + j, clients, rtt, spec.ttl_value, bytes_up,
                          bytes_down, throughput)
                for column, v in zip(columns, values):
                    column[end : end + count] = v
                end += count
        order = day_begin + np.argsort(columns[0][day_begin:end], kind="stable")
        for column in columns:
            column[day_begin:end] = column[order]
    start, cache, client, *numbers = (column[:end] for column in columns)
    seen, codes = np.unique(cache, return_inverse=True)  # names only the caches that have flows
    servers, hostnames = np.array([i for node in identities for i in node], dtype=object)[seen].T
    client_ids = np.fromiter(map("u{:06d}".format, client.tolist()), object, len(client))
    return FlowTable(
        start, client_ids, Codes(codes, servers), Codes(codes, hostnames), *numbers
    ), GroundTruth(gt_labels)


def reference_write_flow_log(target: IO[str] | str | Path, table: FlowTable) -> None:
    """Write a table in the TSV format; floats use repr so parsing round-trips."""
    names = (c.names[np.unique(c.codes)].tolist() for c in (table.server_ip, table.hostname))
    for values in (table.client_id.tolist(), *names):
        if any(map("".join(values).__contains__, "\t\n\r")):  # one scan of the joined text each
            field = next(v for v in values if any(map(v.__contains__, "\t\n\r")))
            raise ValueError(f"field not serializable to TSV: {field!r}")
    line = "{!r}\t{}\t{}\t{}\t{!r}\t{}\t{}\t{}\t{!r}\n"
    with text_output(target) as fp:
        fp.write(FLOW_LOG_HEADER + "\n")
        for chunk in (table[lo : lo + 4096] for lo in range(0, len(table), 4096)):
            values = (c.decode() if isinstance(c, Codes) else c.tolist() for c in _fields_of(chunk))
            fp.write("".join(map(line.format, *values)))


def reference_star_positions(clustering, features, bounds):
    """Each cluster's star: its rows' ``.mean(axis=0)``, one call per star, normalized with ``bounds``."""
    means = [features.raw[rows].mean(axis=0) for rows in clustering.cluster_rows]
    return bounds.normalize(np.array(means)) if means else np.empty((0, features.raw.shape[1]))


def reference_value_rank(table: FlowTable) -> np.ndarray:
    """``FlowTable.value_rank`` as int64, each metric's ranks from one ``arange`` over the whole table."""
    rank = np.empty((2, len(table)), np.int64)
    for metric_rank, column in zip(rank, (table.min_rtt, table.ttl)):
        metric_rank[np.argsort(column)] = np.arange(len(table))
    return rank
