"""Ground-truth quality indices, the epsilon sweep harness, and CD calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .constellation import _nearest_stars
from .dbscan import Clustering, ClusterParams, DEFAULT_MIN_PTS, dbscan
from .errors import InputError
from .features import CacheFeatures, normalize_snapshot
from .ingest import text_output, write_csv
from .pipeline import plurality

TRIAL_BLOCK = 4096  # calibration trials seeded in one pass


@dataclass(frozen=True)
class GroundTruth:
    """cache_id -> edge-node label; the label universe defines N_GT."""

    labels: dict[str, str]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("no ground-truth labels")
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


def majority_vote_labels(
    clustering: Clustering, ground_truth: GroundTruth
) -> tuple[dict[str, str], int, int]:
    """Assign every cluster its most frequent GT label; count TP and FP.

    Ties go to the lexicographically smallest label. Noise caches stay
    unlabeled: they count toward neither TP nor FP (they lower TPR only
    through the denominator |X|).
    """
    names = sorted(set(ground_truth.labels.values()))
    number = {name: i for i, name in enumerate(names)}
    truth = np.array([number.get(ground_truth.labels.get(c), -1) for c in clustering.cache_ids], dtype=np.intp)
    rows = np.flatnonzero(clustering.labels >= 0)
    cluster, truth = clustering.labels[rows], truth[rows]
    if (truth < 0).any():
        members = clustering.members[cluster[truth < 0].min()]
        missing = [c for c in members if c not in ground_truth.labels]
        raise ValueError(f"clustered caches without a GT label: {missing[:5]}")
    winner = plurality(cluster, truth, clustering.n_clusters, len(names))
    assigned = {c: names[winner[k]] for k, members in enumerate(clustering.members) for c in members}
    n_tp = int(np.count_nonzero(winner[cluster] == truth))
    return assigned, n_tp, len(rows) - n_tp


def clustering_indices(clustering: Clustering, ground_truth: GroundTruth) -> QualityIndices:
    assigned, n_tp, n_fp = majority_vote_labels(clustering, ground_truth)
    n_x = len(clustering.cache_ids)
    n_clusters = clustering.n_clusters
    # Every member of a cluster carries the same majority label.
    n_labels = len({assigned[members[0]] for members in clustering.members})
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
    features: CacheFeatures, ground_truth: GroundTruth, eps_grid: Sequence[float], min_pts: int = DEFAULT_MIN_PTS
) -> list[SweepRow]:
    """Quality indices of the features' clustering for each epsilon on the grid, min_pts held fixed."""
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("epsilon grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be ascending")
    points, _ = normalize_snapshot(features)
    rows = []
    for eps in grid:
        clustering = dbscan(points, features.cache_ids, ClusterParams(epsilon=eps, min_pts=min_pts))
        q = clustering_indices(clustering, ground_truth)
        rows.append(SweepRow(eps, q.tpr, q.fragmentation, q.pureness, q.noise_count))
    return rows


def write_sweep_csv(target: IO[str] | str | Path, rows: Sequence[SweepRow]) -> None:
    cells = (
        [
            repr(r.epsilon),
            repr(r.tpr),
            "" if r.fragmentation is None else repr(r.fragmentation),
            repr(r.pureness),
            r.noise_count,
        ]
        for r in rows
    )
    write_csv(target, "epsilon,tpr,fragmentation,pureness,noise_count".split(","), cells)


def _ball_rows(rng: np.random.Generator, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` ball draws: unit directions, each a nonzero standard-normal draw over its length, and u ** (1/dim)."""
    units, upows = np.empty((n, dim)), np.empty(n)
    for i in range(n):
        norm = 0.0
        while norm == 0.0:
            direction = rng.standard_normal(dim)
            norm = math.sqrt(direction.dot(direction))
        units[i] = direction / norm
        upows[i] = rng.random() ** (1.0 / dim)
    return units, upows


def cd_calibration_curve(
    n_stars: int, e_grid: Sequence[float], trials: int, extra_stars: int = 0, *, seed: int = 0, dim: int | None = None
) -> list[float]:
    """Mean CD between random constellations and displaced/augmented copies, for each radius e of ``e_grid``.

    Each trial places ``n_stars`` uniform stars in the unit hypercube of dimension ``n_stars`` (override
    with ``dim``), displaces every star inside a random ball of radius ``e``, optionally adds ``extra_stars``
    fresh uniform stars, and measures the CD. Each trial draws from numpy's PCG64 stream seeded with the key
    (seed, trial), so trials are reproducible and independent. A radius only scales the ball draws, so one
    trial's draws serve every radius; the extra stars of e = 0 are drawn where the ball draws would start.
    """
    if n_stars < 1:
        raise ValueError("n_stars must be >= 1")
    if not len(e_grid) or min(e_grid) < 0 or trials < 1 or extra_stars < 0 or (dim is not None and dim < 1):
        raise ValueError("invalid calibration parameters")
    from .streams import reseed, stream_seeds  # imported here, so that a run over a trace never loads it

    space_dim = n_stars if dim is None else dim
    totals = [0.0] * len(e_grid)
    order = sorted(enumerate(e_grid), key=lambda ke: bool(ke[1]))  # e = 0 before e > 0 overwrites its extra stars
    rng = np.random.Generator(np.random.PCG64(0))
    for trial in range(trials):
        if trial % TRIAL_BLOCK == 0:  # the next block's seeds, so that no more than a block's are held at once
            seeds = stream_seeds(seed, np.arange(trial, min(trial + TRIAL_BLOCK, trials)))
        trial_seed = seeds[trial % TRIAL_BLOCK]
        base = reseed(rng, trial_seed).random((n_stars, space_dim))  # the doubles of uniform(0.0, 1.0)
        displaced, units = np.vstack([base, rng.random((extra_stars, space_dim))]), None
        for k, e in order:
            if e and units is None:  # the first e > 0 draws the ball rows from where e = 0 drew its extras
                reseed(rng, trial_seed).random((n_stars, space_dim))  # back to the end of the base draws
                units, upows = _ball_rows(rng, n_stars, space_dim)
                displaced[n_stars:] = rng.random((extra_stars, space_dim))
            if e:  # base + units * (e * upows)[:, None], written in place
                np.add(base, np.multiply(units, (e * upows)[:, None], out=displaced[:n_stars]), out=displaced[:n_stars])
            (_, ab), (_, ba) = _nearest_stars(base, displaced)
            totals[k] += sum(ab.tolist()) + sum(ba.tolist())
    return [total / trials for total in totals]
