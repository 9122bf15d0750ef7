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

CD_ELEMENT_BUDGET = 1 << 16  # most elements of one block of star-pair differences (512 KiB)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Star i is row i of the float64 ``(n_stars, dim)`` ``positions``, with caches ``members[i]``."""

    positions: np.ndarray
    members: tuple[tuple[str, ...], ...] = ()  # () for a constellation built straight from positions
    bounds: NormalizationBounds | None = None

    @property
    def dimension(self) -> int | None:
        return self.positions.shape[1] if len(self) else None

    def __len__(self) -> int:
        return len(self.positions)


def joint_bounds(a: NormalizationBounds, b: NormalizationBounds) -> NormalizationBounds:
    """Per-metric union of two normalization ranges (min of mins, max of maxes)."""
    return NormalizationBounds(*((min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(astuple(a), astuple(b))))


def build_constellation(clustering: Clustering, features: CacheFeatures, bounds: NormalizationBounds) -> Constellation:
    """One star per cluster at the mean of its members' renormalized raw feature rows.

    The renormalization is affine, so the mean of renormalized raw rows is
    computed as renorm(mean of raw rows); the equivalence is asserted by a
    property test rather than assumed. Noise caches contribute nothing. The
    clustering must be over ``features``' caches, row for row.
    """
    if clustering.cache_ids != features.cache_ids:
        raise ValueError("clustering and features are over different caches")
    # One pass adds each cluster's rows in row order onto +0.0, as .mean(axis=0) of its rows adds them.
    clustered = np.flatnonzero(clustering.labels >= 0)
    stars = clustering.labels[clustered]
    sums = np.zeros((clustering.n_clusters, features.raw.shape[1]))
    np.add.at(sums, stars, features.raw[clustered])
    positions = bounds.normalize(sums / np.bincount(stars, minlength=len(sums))[:, None]) if len(sums) else sums
    return Constellation(positions, clustering.members, bounds)


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
    of rows of ``a`` against a block of rows of ``b`` at a time, in one buffer of at
    most max(CD_ELEMENT_BUDGET, dim) elements: at least one whole pair.
    """
    dim = b.shape[1]
    cols = max(1, min(len(b), CD_ELEMENT_BUDGET // max(1, dim)))
    rows = max(1, min(len(a), CD_ELEMENT_BUDGET // max(1, cols * dim)))
    distances, block = np.empty((len(a), len(b))), np.empty((rows, cols, dim))
    for i in range(0, len(a), rows):
        for j in range(0, len(b), cols):
            d = np.subtract(a[i : i + rows, None], b[j : j + cols], out=block[: len(a) - i, : len(b) - j])
            distances[i : i + rows, j : j + cols] = np.sqrt(np.vecdot(d, d))
    return distances


def _nearest_stars(a: np.ndarray, b: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of ``a``'s nearest row of ``b`` (index, distance), then the reverse; ties keep the lower index."""
    distances = _distances(a, b)
    return [(distances.argmin(axis), distances.min(axis)) for axis in (1, 0)]


def constellation_distance(a: Constellation, b: Constellation) -> CDReport:
    """Symmetric sum of astral distances between two constellations.

    Both constellations must have been built against the same joint bounds
    (callers go through joint_bounds); comparing constellations normalized
    differently is a domain error. Both sides read one distance matrix: b - a is bitwise -(a - b).
    Ties couple to the lowest star index. Against an empty constellation a star has no nearest star and
    the sentinel distance sqrt(dim), the unit hypercube's diameter: an all-noise snapshot is a maximal change.
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
        nearest = _nearest_stars(a.positions, b.positions)
        couplings_ab, couplings_ba = (tuple(map(Coupling, range(len(d)), i.tolist(), d.tolist())) for i, d in nearest)
    cd_value = sum(c.distance for c in couplings_ab) + sum(c.distance for c in couplings_ba)
    return CDReport(cd_value, couplings_ab, couplings_ba)


CD_REPORT_HEADER = "snapshot_n,snapshot_n1,cd,side,star_id,nearest_star_id,astral_distance".split(",")


def cd_report_rows(report: CDReport, snapshot_n: int, snapshot_n1: int) -> list[list]:
    """One CSV row per coupling, in the columns of CD_REPORT_HEADER."""
    head = [snapshot_n, snapshot_n1, repr(report.cd_value)]
    return [
        [*head, side, c.star_index, "" if c.nearest_index is None else c.nearest_index, repr(c.distance)]
        for side, couplings in (("a", report.couplings_ab), ("b", report.couplings_ba))
        for c in couplings
    ]
