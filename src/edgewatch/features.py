"""Per-cache percentile features and per-snapshot min-max normalization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .ingest import Snapshot, text_output

METRICS = ("rtt", "ttl")
DEFAULT_PERCENTILES = (20.0, 35.0, 50.0, 65.0, 80.0)
DEFAULT_MIN_FLOW = 50


@dataclass(frozen=True)
class CacheFeatures:
    """Raw (unnormalized) percentile vectors of one cache, per metric."""

    cache_id: str
    flow_count: int
    raw_percentiles: dict[str, np.ndarray]

    def metrics(self) -> tuple[str, ...]:
        return tuple(self.raw_percentiles)


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-metric (min, max) used for the affine map onto [0, 1]."""

    bounds: dict[str, tuple[float, float]]

    def metrics(self) -> tuple[str, ...]:
        return tuple(self.bounds)

    def normalize(self, metric: str, values: np.ndarray | float) -> np.ndarray:
        lo, hi = self.bounds[metric]
        values = np.asarray(values, dtype=float)
        if hi <= lo:
            # Degenerate span: every value of the metric maps to 0.
            return np.zeros_like(values)
        return (values - lo) / (hi - lo)

    def denormalize(self, metric: str, values: np.ndarray | float) -> np.ndarray:
        lo, hi = self.bounds[metric]
        values = np.asarray(values, dtype=float)
        if hi <= lo:
            return np.full_like(values, lo)
        return values * (hi - lo) + lo


@dataclass(frozen=True)
class FeatureVector:
    """Concatenated normalized percentile blocks (metric order is fixed)."""

    cache_id: str
    values: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.values.size)


def percentile_vector(
    samples: Sequence[float] | np.ndarray, qs: Sequence[float], sizes: Sequence[int] | None = None
) -> np.ndarray:
    """Linear-interpolation percentiles on (N-1)-scaled ranks, one sort for all ranks.

    With sorted samples s_0..s_{N-1} and rank h = (N-1) * q / 100, each value
    is s_{floor(h)} + (h - floor(h)) * (s_{floor(h)+1} - s_{floor(h)}), the
    fractional term vanishing at h = N-1. This is the library's only
    percentile arithmetic; np.percentile differs from it in the last ulp.
    Without ``sizes`` the samples are one set, in any order, and the result
    has one value per rank (NaN if the set is empty). With ``sizes`` they are
    consecutive non-empty groups of those sizes, each sorted ascending, and
    the result has one row per group.
    """
    if not all(0.0 <= q <= 100.0 for q in qs):
        raise ValueError(f"percentile rank out of [0, 100]: {qs}")
    if sizes is None:
        s = np.sort(np.asarray(samples, dtype=float))
        return percentile_vector(s, qs, [s.size])[0] if s.size else np.full(len(qs), math.nan)
    s, n = np.asarray(samples, dtype=float), np.asarray(sizes).reshape(-1, 1)
    h = (n - 1) * np.asarray(qs, dtype=float) / 100.0
    lo = np.floor(h)
    top = lo >= n - 1
    # Position of s_{floor(h)} in ``samples``, or of s_{N-1} where the fractional term vanishes.
    i = np.cumsum(n).reshape(-1, 1) - n + np.where(top, n - 1, lo).astype(np.intp)
    return np.where(top, s[i], s[i] + (h - lo) * (s[np.minimum(i + 1, s.size - 1)] - s[i]))


def percentile(samples: Sequence[float] | np.ndarray, q: float) -> float:
    """One percentile of ``samples``; see percentile_vector for the definition."""
    if np.size(samples) == 0:
        raise ValueError("percentile of an empty sample set")
    return float(percentile_vector(samples, (q,))[0])


def _validate_percentiles(percentiles: Sequence[float]) -> tuple[float, ...]:
    ps = tuple(float(q) for q in percentiles)
    if not ps:
        raise ValueError("percentile list is empty")
    if any(not 0.0 < q < 100.0 for q in ps):
        raise ValueError(f"percentile list values must lie in (0, 100): {ps}")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError(f"percentile list must be strictly increasing: {ps}")
    return ps


def extract_cache_features(
    snapshot: Snapshot,
    min_flow: int = DEFAULT_MIN_FLOW,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> list[CacheFeatures]:
    """Percentile vectors of RTT and TTL for every cache with enough flows.

    Caches with fewer than ``min_flow`` flows are dropped (the caller can
    count them as ``len(snapshot.records) - len(result)``). Output is sorted
    by cache_id so downstream clustering is deterministic.
    """
    ps = _validate_percentiles(percentiles)
    return _summarize_caches(
        snapshot, min_flow, lambda samples, sizes: percentile_vector(samples, ps, sizes), by_value=True
    )


def extract_cache_features_mean_std(
    snapshot: Snapshot,
    min_flow: int = DEFAULT_MIN_FLOW,
) -> list[CacheFeatures]:
    """Mean/stddev variant of the feature extractor (sweep harness only).

    Same CacheFeatures shape with a 2-vector (mean, std) per metric, so the
    normalization and clustering stages apply unchanged.
    """

    def mean_std(samples: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return np.array([[g.mean(), g.std()] for g in np.split(samples, np.cumsum(sizes))[:-1]])

    return _summarize_caches(snapshot, min_flow, mean_std, by_value=False)


def _summarize_caches(
    snapshot: Snapshot,
    min_flow: int,
    summarize: Callable[[np.ndarray, np.ndarray], np.ndarray],
    by_value: bool,
) -> list[CacheFeatures]:
    """``summarize(samples, sizes)`` of the RTT and TTL samples of each cache with >= min_flow flows.

    ``samples`` holds one metric's samples grouped by cache, each group
    ascending if ``by_value``, else in input order; the result has one row
    per group.
    """
    table = snapshot.table
    caches = table.server_ip.codes[snapshot.rows]
    sizes = np.bincount(caches, minlength=len(table.server_ip.names))
    min_flow = max(min_flow, 1)
    kept = np.flatnonzero(sizes >= min_flow)  # codes of the kept caches, ascending
    in_kept = sizes[caches] >= min_flow
    rows, caches = snapshot.rows[in_kept], caches[in_kept]
    summaries = {}
    for metric, column in (("rtt", table.min_rtt), ("ttl", table.ttl)):
        values = column[rows].astype(float)
        rank = rows  # a row's input position, or its value's rank
        if by_value:
            rank = np.empty_like(rows)
            rank[np.argsort(values)] = np.arange(len(rows))
        # One argsort of the unique key sorts like lexsort((rank, caches)), several times faster.
        summaries[metric] = summarize(values[np.argsort(caches * len(table) + rank)], sizes[kept])
    names = table.server_ip.names[kept]
    return [CacheFeatures(names[g], int(sizes[kept[g]]), {m: s[g] for m, s in summaries.items()})
            for g in sorted(range(len(kept)), key=names.__getitem__)]


def snapshot_bounds(features: Sequence[CacheFeatures]) -> NormalizationBounds:
    """Per-metric min/max over all caches and all percentile indices jointly."""
    if not features:
        raise ValueError("cannot compute bounds of an empty feature set")
    metrics = features[0].metrics()
    bounds: dict[str, tuple[float, float]] = {}
    for metric in metrics:
        stacked = np.concatenate([f.raw_percentiles[metric] for f in features])
        bounds[metric] = (float(stacked.min()), float(stacked.max()))
    return NormalizationBounds(bounds)


def normalize_snapshot(
    features: Sequence[CacheFeatures],
) -> tuple[list[FeatureVector], NormalizationBounds]:
    """Map raw percentiles onto [0, 1] with the snapshot's own bounds.

    The same (min, max) pair is shared by every percentile index of a metric;
    the bounds are returned so that a later comparison can renormalize.
    """
    bounds = snapshot_bounds(features)
    metrics = features[0].metrics()
    vectors = [
        FeatureVector(
            cache_id=f.cache_id,
            values=np.concatenate(
                [bounds.normalize(m, f.raw_percentiles[m]) for m in metrics]
            ),
        )
        for f in features
    ]
    return vectors, bounds


def write_feature_dump(
    target: IO[str] | str | Path,
    features: Iterable[CacheFeatures],
    percentiles: Sequence[float],
    bounds: NormalizationBounds,
) -> None:
    """Optional CSV dump: cache_id,metric,percentile,raw_value,normalized_value."""
    with text_output(target) as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["cache_id", "metric", "percentile", "raw_value", "normalized_value"])
        for f in features:
            for metric in f.metrics():
                raw = f.raw_percentiles[metric]
                norm = bounds.normalize(metric, raw)
                for q, rv, nv in zip(percentiles, raw, norm):
                    writer.writerow(
                        [f.cache_id, metric, repr(float(q)), repr(float(rv)), repr(float(nv))]
                    )
