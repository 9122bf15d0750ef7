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


def percentile_vector(samples: Sequence[float] | np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """Linear-interpolation percentiles on (N-1)-scaled ranks, one sort for all ranks.

    With sorted samples s_0..s_{N-1} and rank h = (N-1) * q / 100, each value
    is s_{floor(h)} + (h - floor(h)) * (s_{floor(h)+1} - s_{floor(h)}), the
    fractional term vanishing at h = N-1. This is the library's only
    percentile arithmetic; np.percentile differs from it in the last ulp.
    An empty sample set gives NaN at every rank.
    """
    if not all(0.0 <= q <= 100.0 for q in qs):
        raise ValueError(f"percentile rank out of [0, 100]: {qs}")
    s = np.sort(np.asarray(samples, dtype=float))
    out = np.full(len(qs), math.nan)
    if s.size == 0:
        return out
    for i, q in enumerate(qs):
        h = (s.size - 1) * q / 100.0
        lo = math.floor(h)
        out[i] = s[-1] if lo >= s.size - 1 else s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    return out


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
    return _summarize_caches(snapshot, min_flow, lambda values: percentile_vector(values, ps))


def extract_cache_features_mean_std(
    snapshot: Snapshot,
    min_flow: int = DEFAULT_MIN_FLOW,
) -> list[CacheFeatures]:
    """Mean/stddev variant of the feature extractor (sweep harness only).

    Same CacheFeatures shape with a 2-vector (mean, std) per metric, so the
    normalization and clustering stages apply unchanged.
    """
    return _summarize_caches(
        snapshot, min_flow, lambda values: np.array([values.mean(), values.std()])
    )


def _summarize_caches(
    snapshot: Snapshot, min_flow: int, summarize: Callable[[np.ndarray], np.ndarray]
) -> list[CacheFeatures]:
    """Apply ``summarize`` to the RTT and TTL samples of each cache with >= min_flow flows."""
    out: list[CacheFeatures] = []
    for cache_id in snapshot.cache_ids():
        flows = snapshot.records[cache_id]
        if len(flows) < min_flow:
            continue
        rtt = np.fromiter((r.min_rtt for r in flows), dtype=float, count=len(flows))
        ttl = np.fromiter((r.ttl for r in flows), dtype=float, count=len(flows))
        out.append(
            CacheFeatures(
                cache_id=cache_id,
                flow_count=len(flows),
                raw_percentiles={"rtt": summarize(rtt), "ttl": summarize(ttl)},
            )
        )
    return out


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
