"""Ground-truth quality indices, the epsilon sweep harness, and CD calibration."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .constellation import Constellation, Star, constellation_distance
from .dbscan import Clustering, ClusterParams, DEFAULT_MIN_PTS, dbscan
from .errors import InputError
from .features import (
    DEFAULT_MIN_FLOW,
    DEFAULT_PERCENTILES,
    extract_cache_features,
    extract_cache_features_mean_std,
    normalize_snapshot,
)
from .ingest import Snapshot, text_output


@dataclass(frozen=True)
class GroundTruth:
    """cache_id -> edge-node label; the label universe defines N_GT."""

    labels: dict[str, str]

    def __post_init__(self):
        bad = [c for c, lab in self.labels.items() if not lab]
        if bad:
            raise ValueError(f"empty ground-truth labels for: {bad[:5]}")

    @property
    def n_gt_labels(self) -> int:
        return len(set(self.labels.values()))

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (UnicodeDecodeError, IsADirectoryError) as exc:
            raise InputError(f"{path}: {exc}") from None
        labels = {}
        for number, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{number}: expected cache_id<TAB>label")
            labels[parts[0]] = parts[1]
        try:
            return cls(labels)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None

    def save(self, target: IO[str] | str | Path) -> None:
        with text_output(target) as fp:
            for cache_id in sorted(self.labels):
                fp.write(f"{cache_id}\t{self.labels[cache_id]}\n")


@dataclass(frozen=True)
class QualityIndices:
    """TPR, fragmentation (N_C/N_L) and pureness (N_L/N_GT) plus raw counts.

    ``fragmentation`` is None when no cluster received a label (N_L = 0).
    """

    tpr: float
    fragmentation: float | None
    pureness: float
    noise_count: int
    n_tp: int
    n_fp: int
    n_clusters: int
    n_labels: int


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


def majority_vote_labels(
    clustering: Clustering, ground_truth: GroundTruth
) -> tuple[dict[str, str], int, int]:
    """Assign every cluster its most frequent GT label; count TP and FP.

    Ties go to the lexicographically smallest label. Noise caches stay
    unlabeled: they count toward neither TP nor FP (they lower TPR only
    through the denominator |X|).
    """
    assigned: dict[str, str] = {}
    n_tp = 0
    n_fp = 0
    for cluster in clustering.clusters:
        missing = [c for c in cluster.members if c not in ground_truth.labels]
        if missing:
            raise ValueError(f"clustered caches without a GT label: {missing[:5]}")
        winner = majority_label(ground_truth.labels[c] for c in cluster.members)
        for c in cluster.members:
            assigned[c] = winner
            if ground_truth.labels[c] == winner:
                n_tp += 1
            else:
                n_fp += 1
    return assigned, n_tp, n_fp


def clustering_indices(clustering: Clustering, ground_truth: GroundTruth) -> QualityIndices:
    assigned, n_tp, n_fp = majority_vote_labels(clustering, ground_truth)
    n_x = clustering.n_points
    n_clusters = clustering.n_clusters
    cluster_labels = set()
    for cluster in clustering.clusters:
        # Every member of a cluster carries the same majority label.
        cluster_labels.add(assigned[cluster.members[0]])
    n_labels = len(cluster_labels)
    return QualityIndices(
        tpr=n_tp / n_x if n_x else 0.0,
        fragmentation=n_clusters / n_labels if n_labels else None,
        pureness=n_labels / ground_truth.n_gt_labels,
        noise_count=len(clustering.noise),
        n_tp=n_tp,
        n_fp=n_fp,
        n_clusters=n_clusters,
        n_labels=n_labels,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    tpr: float
    fragmentation: float | None
    pureness: float
    noise_count: int


def epsilon_sweep(
    snapshot: Snapshot,
    ground_truth: GroundTruth,
    eps_grid: Sequence[float],
    *,
    feature_mode: str = "percentiles",
    min_flow: int = DEFAULT_MIN_FLOW,
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    min_pts: int = DEFAULT_MIN_PTS,
) -> list[SweepRow]:
    """Quality indices for each epsilon on the grid, min_pts held fixed.

    ``feature_mode`` selects the percentile features or the mean/std variant
    used for the feature-choice comparison experiment.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    if feature_mode == "percentiles":
        features = extract_cache_features(snapshot, min_flow, percentiles)
    elif feature_mode == "mean_std":
        features = extract_cache_features_mean_std(snapshot, min_flow)
    else:
        raise ValueError(f"unknown feature_mode: {feature_mode!r}")
    if not len(features):
        return [SweepRow(e, 0.0, None, 0.0, 0) for e in grid]
    points, _ = normalize_snapshot(features)
    rows = []
    for eps in grid:
        clustering = dbscan(points, features.cache_ids, ClusterParams(epsilon=eps, min_pts=min_pts))
        q = clustering_indices(clustering, ground_truth)
        rows.append(SweepRow(eps, q.tpr, q.fragmentation, q.pureness, q.noise_count))
    return rows


def write_sweep_csv(target: IO[str] | str | Path, rows: Sequence[SweepRow]) -> None:
    with text_output(target) as fp:
        fp.write("epsilon,tpr,fragmentation,pureness,noise_count\n")
        for r in rows:
            frag = "" if r.fragmentation is None else repr(r.fragmentation)
            fp.write(f"{r.epsilon!r},{r.tpr!r},{frag},{r.pureness!r},{r.noise_count}\n")


def sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform sample from the ball of the given radius centered at the origin.

    Direction uniform on the sphere, radius scaled by u^(1/dim).
    """
    if radius == 0.0:
        return np.zeros(dim)
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    r = radius * rng.uniform() ** (1.0 / dim)
    return direction / norm * r


def _synthetic_constellation(positions: np.ndarray) -> Constellation:
    stars = tuple(
        Star(position=row, members=(), cluster_id=i) for i, row in enumerate(positions)
    )
    return Constellation(stars=stars)


def cd_calibration(
    n_stars: int,
    e: float,
    trials: int,
    extra_stars: int = 0,
    *,
    seed: int = 0,
    dim: int | None = None,
) -> float:
    """Mean CD between random constellations and displaced/augmented copies.

    Each trial places ``n_stars`` uniform stars in the unit hypercube of
    dimension ``n_stars`` (override with ``dim``), displaces every star
    inside a random ball of radius ``e``, optionally adds ``extra_stars``
    fresh uniform stars, and measures the CD. Per-trial generators derive
    from (seed, trial) so trials are reproducible and independent.
    """
    if n_stars < 1:
        raise ValueError("n_stars must be >= 1")
    if e < 0 or trials < 1 or extra_stars < 0:
        raise ValueError("invalid calibration parameters")
    space_dim = n_stars if dim is None else dim
    total = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        base = rng.uniform(size=(n_stars, space_dim))
        displaced = base + np.stack([sample_in_ball(rng, space_dim, e) for _ in range(n_stars)])
        if extra_stars:
            displaced = np.vstack([displaced, rng.uniform(size=(extra_stars, space_dim))])
        report = constellation_distance(
            _synthetic_constellation(base), _synthetic_constellation(displaced)
        )
        total += report.cd_value
    return total / trials
