"""Constellations of cluster centroids and the Constellation Distance.

Two snapshots normalize their features independently, so before comparing
them the raw percentile space is re-normalized with joint per-metric bounds.
Each cluster collapses to a single centroid ("star"); a star's astral
distance is the Euclidean distance to the nearest star of the other
constellation, and the Constellation Distance is the symmetric sum of all
astral distances. Because it is a plain sum, the stars responsible for a
change can be read directly off the coupling lists.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .dbscan import Clustering
from .features import CacheFeatures, NormalizationBounds
from .ingest import text_output


@dataclass(frozen=True)
class Star:
    """Cluster centroid in the jointly renormalized feature space.

    ``members`` is empty only for synthetic stars (e.g. calibration
    experiments); pipeline-built stars always carry their member caches.
    """

    position: np.ndarray
    members: tuple[str, ...]
    cluster_id: int


@dataclass(frozen=True)
class Constellation:
    stars: tuple[Star, ...]
    bounds: NormalizationBounds | None = None

    @property
    def dimension(self) -> int | None:
        return int(self.stars[0].position.size) if self.stars else None

    def __len__(self) -> int:
        return len(self.stars)


def joint_bounds(a: NormalizationBounds, b: NormalizationBounds) -> NormalizationBounds:
    """Elementwise union of two normalization ranges (min of mins, max of maxes)."""
    if a.metrics() != b.metrics():
        raise ValueError(f"metric sets differ: {a.metrics()} vs {b.metrics()}")
    return NormalizationBounds(
        {
            m: (min(a.bounds[m][0], b.bounds[m][0]), max(a.bounds[m][1], b.bounds[m][1]))
            for m in a.metrics()
        }
    )


def build_constellation(
    clustering: Clustering,
    raw_features: Mapping[str, CacheFeatures],
    bounds: NormalizationBounds,
) -> Constellation:
    """One star per cluster at the mean of its members' renormalized percentiles.

    The renormalization is affine, so the mean of renormalized raw vectors is
    computed as renorm(mean of raw vectors); the equivalence is asserted by a
    property test rather than assumed. Noise caches contribute nothing.
    """
    stars = []
    for cid, cluster in enumerate(clustering.clusters):
        missing = [c for c in cluster.members if c not in raw_features]
        if missing:
            raise ValueError(f"cluster {cid} members missing from raw features: {missing}")
        feats = [raw_features[c] for c in cluster.members]
        metrics = feats[0].metrics()
        position = np.concatenate(
            [
                bounds.normalize(m, np.mean([f.raw_percentiles[m] for f in feats], axis=0))
                for m in metrics
            ]
        )
        stars.append(Star(position=position, members=tuple(cluster.members), cluster_id=cid))
    return Constellation(stars=tuple(stars), bounds=bounds)


def astral_distance(star: Star, constellation: Constellation) -> tuple[float, int | None]:
    """Distance from ``star`` to its closest star in ``constellation``.

    Ties break toward the lowest star index. An empty constellation yields
    the sentinel sqrt(dim) (the diameter of the unit feature hypercube) with
    no nearest reference, so an all-noise snapshot registers as a maximal
    change instead of failing.
    """
    if not constellation.stars:
        return math.sqrt(star.position.size), None
    best = math.inf
    best_idx: int | None = None
    for idx, other in enumerate(constellation.stars):
        d = float(np.linalg.norm(star.position - other.position))
        if d < best:
            best = d
            best_idx = idx
    return best, best_idx


@dataclass(frozen=True)
class Coupling:
    """Nearest-neighbor coupling of one star against the other constellation."""

    star_index: int
    nearest_index: int | None
    distance: float


@dataclass(frozen=True)
class CDReport:
    """Constellation Distance plus the per-star couplings that compose it."""

    cd_value: float
    couplings_ab: tuple[Coupling, ...]
    couplings_ba: tuple[Coupling, ...]

    def contributors(self) -> list[tuple[str, Coupling]]:
        """All couplings from both sides, largest astral distance first."""
        tagged = [("a", c) for c in self.couplings_ab] + [("b", c) for c in self.couplings_ba]
        return sorted(tagged, key=lambda t: (-t[1].distance, t[0], t[1].star_index))


def constellation_distance(a: Constellation, b: Constellation) -> CDReport:
    """Symmetric sum of astral distances between two constellations.

    Both constellations must have been built against the same joint bounds
    (callers go through joint_bounds); comparing constellations normalized
    differently is a domain error.
    """
    if a.bounds != b.bounds:
        raise ValueError("constellations were built with different bounds")
    if a.stars and b.stars and a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    def couple(stars: tuple[Star, ...], other: Constellation) -> tuple[Coupling, ...]:
        out = []
        for i, star in enumerate(stars):
            distance, nearest = astral_distance(star, other)
            out.append(Coupling(star_index=i, nearest_index=nearest, distance=distance))
        return tuple(out)

    couplings_ab = couple(a.stars, b)
    couplings_ba = couple(b.stars, a)
    total_ab = sum(c.distance for c in couplings_ab)
    total_ba = sum(c.distance for c in couplings_ba)
    return CDReport(
        cd_value=total_ab + total_ba,
        couplings_ab=couplings_ab,
        couplings_ba=couplings_ba,
    )


def write_cd_report_rows(
    writer, report: CDReport, snapshot_n: int, snapshot_n1: int
) -> None:
    """Append one CSV row per coupling: snapshot_n,snapshot_n1,cd,side,star_id,nearest_star_id,astral_distance."""
    for side, couplings in (("a", report.couplings_ab), ("b", report.couplings_ba)):
        for c in couplings:
            writer.writerow(
                [
                    snapshot_n,
                    snapshot_n1,
                    repr(report.cd_value),
                    side,
                    c.star_index,
                    "" if c.nearest_index is None else c.nearest_index,
                    repr(c.distance),
                ]
            )


def write_cd_report_csv(
    target: IO[str] | str | Path, report: CDReport, snapshot_n: int, snapshot_n1: int
) -> None:
    with text_output(target) as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(
            ["snapshot_n", "snapshot_n1", "cd", "side", "star_id", "nearest_star_id", "astral_distance"]
        )
        write_cd_report_rows(writer, report, snapshot_n, snapshot_n1)
