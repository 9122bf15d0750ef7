"""Per-cache percentile features and per-snapshot min-max normalization."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

from .ingest import Snapshot, write_csv

METRICS = ("rtt", "ttl")
DEFAULT_PERCENTILES = (20.0, 35.0, 50.0, 65.0, 80.0)
DEFAULT_MIN_FLOW = 50


@dataclass(frozen=True, eq=False)
class CacheFeatures:
    """Raw (unnormalized) features of one snapshot's kept caches, one row per cache.

    ``cache_ids`` ascend and ``flow_counts`` follow them. ``raw`` is a float64
    (caches x dims) matrix of equal-width column blocks, one per metric of METRICS.
    """

    cache_ids: tuple[str, ...]
    flow_counts: np.ndarray
    raw: np.ndarray

    def __len__(self) -> int:
        return len(self.cache_ids)


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-metric (min, max) used for the affine map onto [0, 1]; fields follow METRICS."""

    rtt: tuple[float, float]
    ttl: tuple[float, float]

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        """``raw`` (one feature row, or a matrix of them) mapped onto [0, 1] block by block.

        A degenerate span maps every value of its metric to 0.
        """
        blocks = zip(np.split(np.asarray(raw, dtype=float), len(METRICS), axis=-1), astuple(self))
        normalized = [np.zeros_like(b) if hi <= lo else (b - lo) / (hi - lo) for b, (lo, hi) in blocks]
        return np.concatenate(normalized, axis=-1)


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
) -> CacheFeatures:
    """Percentile vectors of RTT and TTL for every cache with enough flows.

    Caches with fewer than ``min_flow`` flows are dropped (the caller can count
    them as the window's distinct caches less ``len(result)``). Rows are
    sorted by cache_id so downstream clustering is deterministic.
    """
    ps = _validate_percentiles(percentiles)
    return _summarize_caches(
        snapshot, min_flow, lambda samples, sizes: percentile_vector(samples, ps, sizes), by_value=True
    )


def extract_cache_features_mean_std(
    snapshot: Snapshot,
    min_flow: int = DEFAULT_MIN_FLOW,
) -> CacheFeatures:
    """Mean/stddev variant of the feature extractor (sweep harness only).

    Same CacheFeatures shape with a 2-column (mean, std) block per metric, so
    the normalization and clustering stages apply unchanged.
    """

    def mean_std(samples: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        groups = np.split(samples, np.cumsum(sizes))[:-1]
        return np.array([[g.mean(), g.std()] for g in groups]).reshape(-1, 2)  # (0, 2) if no group

    return _summarize_caches(snapshot, min_flow, mean_std, by_value=False)


def _summarize_caches(
    snapshot: Snapshot,
    min_flow: int,
    summarize: Callable[[np.ndarray, np.ndarray], np.ndarray],
    by_value: bool,
) -> CacheFeatures:
    """``summarize(samples, sizes)`` of the RTT and TTL samples of each cache with >= min_flow flows.

    ``samples`` holds one metric's samples grouped by cache, each group
    ascending if ``by_value``, else in start-time order; the result has one
    row per group.
    """
    flows = snapshot.flows
    caches = flows.server_ip.codes
    sizes = np.bincount(caches, minlength=len(flows.server_ip.names))
    min_flow = max(min_flow, 1)
    kept = np.flatnonzero(sizes >= min_flow)  # codes of the kept caches, ascending
    in_kept = sizes[caches] >= min_flow
    caches = caches[in_kept].astype(np.min_scalar_type(len(sizes) - 1))  # 8- or 16-bit codes stable-sort by radix
    blocks = []
    for column in (flows.min_rtt, flows.ttl):  # the order of METRICS
        values = column[in_kept].astype(float)
        order = np.argsort(values) if by_value else np.arange(len(values))  # ascending values, or start-time order
        order = order[np.argsort(caches[order], kind="stable")]
        blocks.append(summarize(values[order], sizes[kept]))
    names = flows.server_ip.names[kept]
    order = np.argsort(names, kind="stable")
    return CacheFeatures(tuple(names[order].tolist()), sizes[kept][order], np.hstack(blocks)[order])


def snapshot_bounds(features: CacheFeatures) -> NormalizationBounds:
    """Per-metric min/max over all caches and all columns of the metric's block jointly; (inf, -inf) without caches."""
    blocks = np.split(features.raw, len(METRICS), axis=1)
    return NormalizationBounds(*((float(b.min(initial=np.inf)), float(b.max(initial=-np.inf))) for b in blocks))


def normalize_snapshot(features: CacheFeatures) -> tuple[np.ndarray, NormalizationBounds]:
    """Map the raw matrix onto [0, 1] with the snapshot's own bounds.

    The same (min, max) pair is shared by every column of a metric's block;
    the bounds are returned so that a later comparison can renormalize.
    """
    bounds = snapshot_bounds(features)
    return bounds.normalize(features.raw), bounds


def write_feature_dump(
    target: IO[str] | str | Path,
    features: CacheFeatures,
    percentiles: Sequence[float],
    bounds: NormalizationBounds,
) -> None:
    """Optional CSV dump: cache_id,metric,percentile,raw_value,normalized_value."""
    shape = (-1, len(METRICS), features.raw.shape[1] // len(METRICS))
    raw = features.raw.reshape(shape).tolist()
    normalized = bounds.normalize(features.raw).reshape(shape).tolist()
    rows = (
        [cache_id, metric, repr(float(q)), repr(rv), repr(nv)]
        for cache_id, raw_blocks, norm_blocks in zip(features.cache_ids, raw, normalized)
        for metric, raw_block, norm_block in zip(METRICS, raw_blocks, norm_blocks)
        for q, rv, nv in zip(percentiles, raw_block, norm_block)
    )
    write_csv(target, "cache_id,metric,percentile,raw_value,normalized_value".split(","), rows)
