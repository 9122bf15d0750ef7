import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from edgewatch import constellation as constellation_module
from edgewatch.constellation import (
    CD_ELEMENT_BUDGET,
    CD_REPORT_HEADER,
    Constellation,
    build_constellation,
    constellation_distance,
    cd_report_rows,
    joint_bounds,
)
from edgewatch.dbscan import Clustering
from edgewatch.features import CacheFeatures, NormalizationBounds, normalize_snapshot
from edgewatch.ingest import write_csv

from reference_impls import (
    reference_astral_distance,
    reference_centroids,
    reference_normalize_snapshot,
    reference_star_positions,
)


def astral_distance(position, constellation):
    """(distance, nearest index) of the star at ``position``: one star's coupling against ``constellation``."""
    star = Constellation(np.reshape(position, (1, -1)), bounds=constellation.bounds)
    coupling = constellation_distance(star, constellation).couplings_ab[0]
    return coupling.distance, coupling.nearest_index


def bounds_of(rtt, ttl=(0.0, 1.0)):
    return NormalizationBounds(rtt, ttl)


def star_at(*coords):
    return np.asarray(coords, dtype=float)


def constellation_at(*positions):
    return Constellation(np.array(positions, dtype=float))


def cache_features(rows):
    """CacheFeatures of {cache_id: (rtt vector, ttl vector)}."""
    raw = np.array([np.concatenate(blocks) for blocks in rows.values()], dtype=float)
    return CacheFeatures(tuple(rows), np.full(len(rows), 100), raw)


def clustering_of(features, *clusters):
    """All-core clustering of the features' caches: ``clusters[k]`` is cluster k, the other caches are noise."""
    labels = np.full(len(features), -1, dtype=np.intp)
    for k, members in enumerate(clusters):
        labels[[features.cache_ids.index(c) for c in members]] = k
    return Clustering(features.cache_ids, labels, labels >= 0)


class TestJointBounds:
    def test_elementwise_union(self):
        joint = joint_bounds(bounds_of((10.0, 100.0)), bounds_of((20.0, 150.0)))
        assert joint.rtt == (10.0, 150.0)

    def test_idempotent_on_identical(self):
        b = bounds_of((10.0, 100.0), (40.0, 70.0))
        assert joint_bounds(b, b) == b

    def test_degenerate_contained(self):
        joint = joint_bounds(bounds_of((10.0, 100.0)), bounds_of((42.0, 42.0)))
        assert joint.rtt == (10.0, 100.0)

    @given(st.lists(st.floats(allow_nan=False), min_size=4, max_size=4))
    def test_empty_range_is_the_identity(self, values):
        # A window without caches has these bounds, so a pair with it takes the other window's bounds.
        b = bounds_of(tuple(sorted(values[:2])), tuple(sorted(values[2:])))
        empty = bounds_of((math.inf, -math.inf), (math.inf, -math.inf))
        assert joint_bounds(b, empty) == joint_bounds(empty, b) == b


def test_constellations_compare_by_identity():
    a = Constellation(np.zeros((2, 3)))
    b = Constellation(np.zeros((2, 3)))
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


class TestBuildConstellation:
    def test_singleton_cluster(self):
        features = cache_features({"a": ([10.0, 20.0], [50.0, 50.0])})
        bounds = bounds_of((0.0, 40.0), (0.0, 100.0))
        constellation = build_constellation(clustering_of(features, ["a"]), features, bounds)
        (position,) = constellation.positions
        assert constellation.members == (("a",),)
        assert position == pytest.approx([0.25, 0.5, 0.5, 0.5])

    def test_symmetric_pair_midpoint(self):
        features = cache_features({"a": ([10.0, 10.0], [0.0, 0.0]), "b": ([30.0, 30.0], [0.0, 0.0])})
        bounds = bounds_of((0.0, 40.0), (0.0, 1.0))
        constellation = build_constellation(clustering_of(features, ["a", "b"]), features, bounds)
        assert constellation.positions[0][:2] == pytest.approx([0.5, 0.5])

    def test_no_clusters_empty_matrix(self):
        features = cache_features({"a": ([10.0, 20.0], [50.0, 50.0])})
        constellation = build_constellation(clustering_of(features), features, None)
        assert constellation.positions.shape == (0, 4) and constellation.positions.dtype == np.float64
        assert (len(constellation), constellation.dimension, constellation.members) == (0, None, ())

    def test_clustering_over_other_caches_rejected(self):
        features = cache_features({"a": ([1], [1]), "b": ([2], [2])})
        for cache_ids in (("a", "ghost"), ("a",), ("a", "b", "c"), ("b", "a")):
            n = len(cache_ids)
            clustering = Clustering(cache_ids, np.zeros(n, dtype=np.intp), np.ones(n, dtype=bool))
            with pytest.raises(ValueError, match="different caches"):
                build_constellation(clustering, features, bounds_of((0, 2)))

    def test_affine_commutation(self):
        # mean-then-renorm equals renorm-then-mean because renorm is affine.
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            members = int(rng.integers(1, 9))
            raw = rng.uniform(-100, 100, (members, 2 * k))
            lo_r, hi_r = sorted(rng.uniform(-100, 100, 2))
            lo_t, hi_t = sorted(rng.uniform(-100, 100, 2))
            bounds = bounds_of((lo_r, hi_r + 1e-6), (lo_t, hi_t + 1e-6))
            features = cache_features({f"c{i}": (raw[i, :k], raw[i, k:]) for i in range(members)})
            constellation = build_constellation(clustering_of(features, features.cache_ids), features, bounds)
            renorm_then_mean = np.mean([bounds.normalize(raw[i]) for i in range(members)], axis=0)
            assert np.max(np.abs(constellation.positions[0] - renorm_then_mean)) <= 1e-12

    @given(st.data())
    def test_matches_per_cache_loop(self, data):
        # Blocks as wide as the default percentiles (5) or mean/std (2); one
        # metric may be constant (a degenerate span) and a snapshot may hold one cache.
        width = data.draw(st.sampled_from([2, 5]))
        n = data.draw(st.integers(1, 12))
        value = st.sampled_from([0.0, 54.0, 1e-3, 1e16]) | st.floats(-1e6, 1e6)
        row = st.lists(value, min_size=width, max_size=width)
        blocks = [
            np.full((n, width), data.draw(value))
            if data.draw(st.booleans())
            else np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
            for _ in ("rtt", "ttl")
        ]
        ids = tuple(f"c{i:02d}" for i in range(n))
        features = CacheFeatures(ids, np.ones(n, dtype=int), np.hstack(blocks))
        per_cache = {c: {"rtt": row[:width], "ttl": row[width:]} for c, row in zip(ids, features.raw)}

        points, bounds = normalize_snapshot(features)
        ref_bounds, ref_vectors = reference_normalize_snapshot(per_cache)
        assert (bounds.rtt, bounds.ttl) == (ref_bounds["rtt"], ref_bounds["ttl"])
        assert points.tobytes() == np.stack([ref_vectors[c] for c in ids]).tobytes()

        # Members keep row order and clusters are numbered by their first row,
        # as dbscan gives them; label -1 is noise.
        labels = data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        clusters = [[c for c, lab in zip(ids, labels) if lab == k] for k in dict.fromkeys(labels) if k >= 0]
        partner = bounds_of(*(tuple(sorted(data.draw(st.tuples(value, value)))) for _ in range(2)))
        for b in (bounds, joint_bounds(bounds, partner)):
            positions = build_constellation(clustering_of(features, *clusters), features, b).positions
            expected = reference_centroids(clusters, per_cache, {"rtt": b.rtt, "ttl": b.ttl})
            assert [p.tobytes() for p in positions] == [e.tobytes() for e in expected]

    # Signed zeros, subnormals, huge values of both signs and duplicates: the sums must add the same values in
    # the same order as the oracle's means, or a last bit or a zero's sign would differ.
    VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 0.1, 1.0, 255.0])

    @given(
        dim=st.integers(1, 6).map(lambda k: 2 * k),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=60),
        noise=st.integers(0, 5),
        big=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=10, sizes=[3], noise=2, big=True, seed=0)
    def test_star_positions_equal_the_per_star_mean_oracle(self, dim, sizes, noise, big, seed):
        rng = np.random.default_rng(seed)
        sizes = [*sizes, 10_000] if big else sizes
        labels = rng.permutation(np.repeat(np.arange(-1, len(sizes)), [noise, *sizes]))  # stars' rows interleave
        raw = rng.choice(self.VALUES, (len(labels), dim))
        ids = tuple(f"c{i:05d}" for i in range(len(labels)))
        features = CacheFeatures(ids, np.ones(len(ids), dtype=int), raw)
        clustering = Clustering(ids, labels, labels >= 0)
        for bounds in (bounds_of((0.0, 1.0), (0.0, 1.0)), bounds_of((0.5, 2.0), (-1.0, 3.0))):
            positions = build_constellation(clustering, features, bounds).positions
            expected = reference_star_positions(clustering, features, bounds)
            assert np.array_equal(positions, expected)
            assert np.array_equal(np.signbit(positions), np.signbit(expected))


class TestAstralDistance:
    def test_member_star_distance_zero(self):
        c = constellation_at((0.1, 0.2), (0.5, 0.9))
        d, nearest = astral_distance(c.positions[1], c)
        assert d == 0.0
        assert nearest == 1

    def test_hand_computed_ten_dim(self):
        star = star_at(*([0.0] * 10))
        other = constellation_at((0.3, 0.4, 0, 0, 0, 0, 0, 0, 0, 0))
        d, nearest = astral_distance(star, other)
        assert d == pytest.approx(0.5)
        assert nearest == 0

    def test_tie_breaks_to_lowest_index(self):
        star = star_at(0.5, 0.0)
        other = constellation_at((0.0, 0.0), (1.0, 0.0))
        d, nearest = astral_distance(star, other)
        assert d == pytest.approx(0.5)
        assert nearest == 0

    def test_empty_constellation_sentinel(self):
        star = star_at(*([0.2] * 10))
        d, nearest = astral_distance(star, Constellation(np.empty((0, 10))))
        assert d == pytest.approx(math.sqrt(10))
        assert nearest is None


class TestConstellationDistance:
    def test_identical_star_sets(self):
        a = constellation_at((0.1, 0.2), (0.7, 0.3))
        b = constellation_at((0.1, 0.2), (0.7, 0.3))
        assert constellation_distance(a, b).cd_value == 0.0

    def test_single_pair_both_directions(self):
        a = constellation_at((0.0, 0.0))
        b = constellation_at((0.3, 0.4))
        report = constellation_distance(a, b)
        assert report.cd_value == pytest.approx(1.0)

    def test_extra_star_adds_its_astral_distance(self):
        base = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)]
        a = constellation_at(*base)
        extra = (0.5, 0.9)
        b = constellation_at(*base, extra)
        report = constellation_distance(a, b)
        delta = math.dist(extra, (0.5, 0.5))
        assert report.cd_value == pytest.approx(delta)
        assert report.contributors()[0][0] == "b"
        assert report.contributors()[0][1].star_index == 3

    def test_bounds_mismatch_rejected(self):
        a = Constellation(np.zeros((1, 1)), bounds=bounds_of((0, 1)))
        b = Constellation(np.zeros((1, 1)), bounds=bounds_of((0, 2)))
        with pytest.raises(ValueError):
            constellation_distance(a, b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            constellation_distance(constellation_at((0.0, 0.0)), constellation_at((0.0,)))

    def test_cd_equals_sum_of_couplings(self):
        rng = np.random.default_rng(4)
        a = constellation_at(*rng.uniform(0, 1, (4, 6)))
        b = constellation_at(*rng.uniform(0, 1, (6, 6)))
        report = constellation_distance(a, b)
        total = sum(c.distance for c in report.couplings_ab) + sum(
            c.distance for c in report.couplings_ba
        )
        assert report.cd_value == total

    def test_empty_side_uses_sentinel(self):
        a = constellation_at((0.0, 0.0), (1.0, 1.0))
        b = Constellation(np.empty((0, 2)))
        report = constellation_distance(a, b)
        assert report.cd_value == pytest.approx(2 * math.sqrt(2))
        assert all(c.nearest_index is None for c in report.couplings_ab)

    def test_both_empty(self):
        empty = Constellation(np.empty((0, 2)))
        assert constellation_distance(empty, empty).cd_value == 0.0

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_symmetry_and_nonnegativity(self, na, nb, dim, seed):
        rng = np.random.default_rng(seed)
        a = constellation_at(*rng.uniform(0, 1, (na, dim)))
        b = constellation_at(*rng.uniform(0, 1, (nb, dim)))
        forward = constellation_distance(a, b).cd_value
        backward = constellation_distance(b, a).cd_value
        assert forward == backward
        assert forward >= 0.0

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.lists(st.integers(0, 6), max_size=6),
        st.lists(st.integers(0, 6), max_size=6),
        st.integers(0, 100),
        st.sampled_from([1, 100, CD_ELEMENT_BUDGET]),
    )
    # Duplicated stars and x/-x about the origin tie in both directions; sizes differ.
    @example(0, 3, [0, 3, 0, 6], [6, 3, 6], 0, CD_ELEMENT_BUDGET)
    @example(1, 5, [], [2, 4, 4], 2, CD_ELEMENT_BUDGET)
    @example(1, 5, [1, 1], [], 2, CD_ELEMENT_BUDGET)
    @example(2, 1, [], [], 0, CD_ELEMENT_BUDGET)
    def test_matches_per_pair_loop(self, seed, dim, picks_a, picks_b, spread, budget):
        # Stars are drawn with repeats from a pool holding x, -x and the origin,
        # so equal distances (ties) are common. Coordinates are scaled by
        # 10**k, |k| <= spread <= 100, so squared distances stay finite. A small
        # element budget fills the distance matrix a row or a few rows at a time.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(3, dim)) * 10.0 ** rng.integers(-spread, spread + 1, (3, dim))
        pool = np.vstack([base, -base, np.zeros((1, dim))])
        a = Constellation(pool[np.array(picks_a, dtype=int)])
        b = Constellation(pool[np.array(picks_b, dtype=int)])
        with mock.patch.object(constellation_module, "CD_ELEMENT_BUDGET", budget):
            report = constellation_distance(a, b)
            expected_cd = 0.0
            for couplings, side, other in ((report.couplings_ab, a, b), (report.couplings_ba, b, a)):
                others = list(other.positions)
                expected = [reference_astral_distance(p, others) for p in side.positions]
                assert [(c.distance, c.nearest_index) for c in couplings] == expected
                assert [astral_distance(p, other) for p in side.positions] == expected
                assert [c.star_index for c in couplings] == list(range(len(side)))
                assert all(type(c.distance) is float for c in couplings)
                assert all(type(c.nearest_index) is (int if len(other) else type(None)) for c in couplings)
                expected_cd += sum(d for d, _ in expected)
        assert report.cd_value == expected_cd

    def test_distance_matrix_working_set_bounded(self):
        # One difference tensor of 300 x 300 stars in 32 dimensions is 23 MB;
        # blocks keep it to one buffer of the element budget, next to the
        # 0.7 MB distance matrix, plus 1 MiB for the couplings.
        rng = np.random.default_rng(12)
        a, b = Constellation(rng.uniform(size=(300, 32))), Constellation(rng.uniform(size=(300, 32)))
        tracemalloc.start()
        try:
            report = constellation_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (CD_ELEMENT_BUDGET + 300 * 300) + 2**20, peak
        assert len(report.couplings_ab) == len(report.couplings_ba) == 300

    def test_block_budget_holds_when_one_side_exceeds_it(self):
        # 8 stars in 2**16 dimensions are 2**19 elements, more than the budget: a block of one
        # row of a against all of b would be 4 MiB, so blocks split b's rows as well.
        dim = 1 << 16
        assert 8 * dim > CD_ELEMENT_BUDGET
        rng = np.random.default_rng(13)
        a, b = Constellation(rng.uniform(size=(8, dim))), Constellation(rng.uniform(size=(8, dim)))
        tracemalloc.start()
        try:
            report = constellation_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (CD_ELEMENT_BUDGET + dim) + 2**16, peak
        assert len(report.couplings_ab) == len(report.couplings_ba) == 8

    def test_contributors_ranked_descending(self):
        rng = np.random.default_rng(17)
        a = constellation_at(*rng.uniform(0, 1, (5, 4)))
        b = constellation_at(*rng.uniform(0, 1, (3, 4)))
        ranked = constellation_distance(a, b).contributors()
        distances = [c.distance for _, c in ranked]
        assert distances == sorted(distances, reverse=True)
        assert len(ranked) == 8


def test_cd_report_csv_format():
    a = constellation_at((0.0, 0.0))
    b = constellation_at((0.3, 0.4))
    report = constellation_distance(a, b)
    buf = io.StringIO()
    write_csv(buf, CD_REPORT_HEADER, cd_report_rows(report, 3, 4))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "snapshot_n,snapshot_n1,cd,side,star_id,nearest_star_id,astral_distance"
    assert len(lines) == 3
    assert lines[1].split(",")[:5] == ["3", "4", "1.0", "a", "0"]
