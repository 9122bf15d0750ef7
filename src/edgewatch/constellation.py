"""Constellations of cluster centroids and the Constellation Distance.

Two snapshots normalize their features independently, so before comparing
them the raw percentile space is re-normalized with joint per-metric bounds.
Each cluster collapses to a single centroid ("star"): a constellation is a
``positions`` matrix with one star per row, each star's ``members`` and the
``bounds``. A star's astral distance is the Euclidean distance to the
nearest star of the other constellation, and the Constellation Distance is
the symmetric sum of all astral distances; the stars responsible for a
change can be read directly off the coupling lists.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .dbscan import Clustering
from .features import CacheFeatures, NormalizationBounds

CD_ELEMENT_BUDGET = 1 << 18  # most elements of one block of star-pair differences (2 MiB)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Star i is row i of the float64 ``(n_stars, dim)`` ``positions``, with caches ``members[i]``."""

    positions: np.ndarray
    members: tuple[tuple[str, ...], ...] = ()  # () for synthetic constellations, e.g. calibration's
    bounds: NormalizationBounds | None = None

    @property
    def dimension(self) -> int | None:
        return self.positions.shape[1] if len(self) else None

    def __len__(self) -> int:
        return len(self.positions)


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
    positions = bounds.normalize(np.array(means)) if means else np.empty((0, features.raw.shape[1]))
    return Constellation(positions, tuple(c.members for c in clustering.clusters), bounds)


def astral_distance(position: np.ndarray, constellation: Constellation) -> tuple[float, int | None]:
    """Distance from the star at ``position`` to its closest star in ``constellation``.

    Ties break toward the lowest star index. An empty constellation yields
    the sentinel sqrt(dim) (the diameter of the unit feature hypercube) with
    no nearest reference, so an all-noise snapshot registers as a maximal
    change instead of failing.
    """
    star = Constellation(np.reshape(position, (1, -1)), bounds=constellation.bounds)
    (coupling,) = constellation_distance(star, constellation).couplings_ab
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


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(len(a), len(b))`` Euclidean distances between the rows of ``a`` and of ``b``.

    ``np.vecdot`` is the dot routine ``np.linalg.norm`` runs on one vector, so each
    distance equals the per-pair norm bit for bit. Differences are taken for a block
    of rows of ``a`` at a time, in one buffer of at most CD_ELEMENT_BUDGET elements.
    """
    distances = np.empty((len(a), len(b)))
    block = np.empty((min(len(a), max(1, CD_ELEMENT_BUDGET // max(1, b.size))), *b.shape))
    for start in range(0, len(a), len(block)):
        d = np.subtract(a[start : start + len(block), None], b, out=block[: len(a) - start])
        distances[start : start + len(block)] = np.sqrt(np.vecdot(d, d))
    return distances


def _nearest(distances: np.ndarray, axis: int) -> tuple[Coupling, ...]:
    """The coupling of each star along ``axis``'s other side; ``argmin`` keeps the lowest-index tie."""
    nearest, nearest_distances = distances.argmin(axis).tolist(), distances.min(axis).tolist()
    return tuple(map(Coupling, range(len(nearest)), nearest, nearest_distances))


def constellation_distance(a: Constellation, b: Constellation) -> CDReport:
    """Symmetric sum of astral distances between two constellations.

    Both constellations must have been built against the same joint bounds
    (callers go through joint_bounds); comparing constellations normalized
    differently is a domain error. Both sides read one distance matrix: b - a is bitwise -(a - b).
    """
    if a.bounds != b.bounds:
        raise ValueError("constellations were built with different bounds")
    if not (len(a) and len(b)):
        couplings_ab, couplings_ba = (
            tuple(Coupling(i, None, math.sqrt(c.dimension)) for i in range(len(c))) for c in (a, b)
        )
    elif a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    else:
        distances = _distances(a.positions, b.positions)
        couplings_ab, couplings_ba = _nearest(distances, 1), _nearest(distances, 0)
    cd_value = sum(c.distance for c in couplings_ab) + sum(c.distance for c in couplings_ba)
    return CDReport(cd_value, couplings_ab, couplings_ba)


CD_REPORT_HEADER = "snapshot_n,snapshot_n1,cd,side,star_id,nearest_star_id,astral_distance".split(",")


def write_cd_report_rows(writer, report: CDReport, snapshot_n: int, snapshot_n1: int) -> None:
    """Append one CSV row per coupling, in the columns of CD_REPORT_HEADER."""
    head = [snapshot_n, snapshot_n1, repr(report.cd_value)]
    for side, couplings in (("a", report.couplings_ab), ("b", report.couplings_ba)):
        writer.writerows(
            [*head, side, c.star_index, "" if c.nearest_index is None else c.nearest_index, repr(c.distance)]
            for c in couplings
        )
