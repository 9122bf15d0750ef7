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
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import IO

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
    """Per-metric union of two normalization ranges (min of mins, max of maxes)."""
    return NormalizationBounds(*((min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(astuple(a), astuple(b))))


def build_constellation(
    clustering: Clustering,
    features: CacheFeatures,
    bounds: NormalizationBounds | None,
) -> Constellation:
    """One star per cluster at the mean of its members' renormalized raw feature rows.

    The renormalization is affine, so the mean of renormalized raw rows is
    computed as renorm(mean of raw rows); the equivalence is asserted by a
    property test rather than assumed. Noise caches contribute nothing, and
    ``bounds`` may be None only for a clustering without clusters.
    """
    row = dict(zip(features.cache_ids, range(len(features))))
    means = []
    for cid, cluster in enumerate(clustering.clusters):
        missing = [c for c in cluster.members if c not in row]
        if missing:
            raise ValueError(f"cluster {cid} members missing from raw features: {missing}")
        means.append(features.raw[[row[c] for c in cluster.members]].mean(axis=0))
    positions = bounds.normalize(np.array(means)) if means else ()
    stars = (Star(p, c.members, cid) for cid, (p, c) in enumerate(zip(positions, clustering.clusters)))
    return Constellation(stars=tuple(stars), bounds=bounds)


def astral_distance(star: Star, constellation: Constellation) -> tuple[float, int | None]:
    """Distance from ``star`` to its closest star in ``constellation``.

    Ties break toward the lowest star index. An empty constellation yields
    the sentinel sqrt(dim) (the diameter of the unit feature hypercube) with
    no nearest reference, so an all-noise snapshot registers as a maximal
    change instead of failing.
    """
    (coupling,) = _couplings((star,), constellation.stars)
    return coupling.distance, coupling.nearest_index


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


def _couplings(stars: tuple[Star, ...], other: tuple[Star, ...]) -> tuple[Coupling, ...]:
    """Each star's coupling to its nearest star in ``other``, from one distance matrix.

    ``np.vecdot`` is the dot routine ``np.linalg.norm`` runs on one vector, so each
    distance equals the per-pair norm bit for bit; ``argmin`` keeps the lowest-index tie.
    """
    if not (stars and other):
        return tuple(Coupling(i, None, math.sqrt(s.position.size)) for i, s in enumerate(stars))
    d = np.stack([s.position for s in stars])[:, None] - np.stack([s.position for s in other])
    distances = np.sqrt(np.vecdot(d, d))
    nearest, nearest_distances = distances.argmin(axis=1).tolist(), distances.min(axis=1).tolist()
    return tuple(map(Coupling, range(len(stars)), nearest, nearest_distances))


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
    couplings_ab = _couplings(a.stars, b.stars)
    couplings_ba = _couplings(b.stars, a.stars)
    cd_value = sum(c.distance for c in couplings_ab) + sum(c.distance for c in couplings_ba)
    return CDReport(cd_value, couplings_ab, couplings_ba)


CD_REPORT_HEADER = "snapshot_n,snapshot_n1,cd,side,star_id,nearest_star_id,astral_distance".split(",")


def write_cd_report_rows(
    writer, report: CDReport, snapshot_n: int, snapshot_n1: int
) -> None:
    """Append one CSV row per coupling, in the columns of CD_REPORT_HEADER."""
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
        writer.writerow(CD_REPORT_HEADER)
        write_cd_report_rows(writer, report, snapshot_n, snapshot_n1)
