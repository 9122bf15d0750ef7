import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.distance import cdist

from edgewatch.dbscan import (
    PAIR_BUDGET,
    Clustering,
    ClusterParams,
    dbscan,
    neighborhoods,
    write_clustering_csv,
)

from reference_impls import reference_band_neighborhoods, reference_dbscan, region_query


def dbscan_of(matrix, params):
    """DBSCAN of the rows of ``matrix``, row i named p<i> (zero-padded)."""
    matrix = np.asarray(matrix, dtype=float)
    return dbscan(matrix, [f"p{i:03d}" for i in range(len(matrix))], params)


def random_instance(rng, max_points=120, dim=4):
    n_blobs = int(rng.integers(1, 5))
    points = []
    for _ in range(n_blobs):
        center = rng.uniform(0, 1, dim)
        size = int(rng.integers(3, max_points // n_blobs))
        points.append(center + rng.normal(0, rng.uniform(0.01, 0.08), (size, dim)))
    n_noise = int(rng.integers(0, max_points // 4))
    if n_noise:
        points.append(rng.uniform(0, 1, (n_noise, dim)))
    matrix = np.vstack(points)
    rng.shuffle(matrix)
    return matrix


def csr_rows(matrix, epsilon):
    """The rows of ``neighborhoods(matrix, epsilon)`` as a list of index arrays."""
    indptr, indices = neighborhoods(np.asarray(matrix, dtype=float), epsilon)
    return [indices[a:b] for a, b in zip(indptr[:-1], indptr[1:])]


def wide_matrix():
    """The benchmark's wide shape: 300 edge nodes of 8 caches, 2,400 points in 10 dimensions."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(0, 1, (300, 10))
    matrix = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.01, (2400, 10))
    rng.shuffle(matrix)
    return matrix


def assert_matches_reference(matrix, params):
    clustering = dbscan_of(matrix, params)
    ref_labels, ref_core = reference_dbscan(matrix, params.epsilon, params.min_pts)
    # Both number clusters by their smallest core row, so labels agree point by point.
    assert np.array_equal(clustering.is_core, ref_core)
    assert np.array_equal(clustering.labels, ref_labels)


class TestClusterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(epsilon=0.0)
        with pytest.raises(ValueError):
            ClusterParams(epsilon=float("nan"))
        with pytest.raises(ValueError):
            ClusterParams(min_pts=0)

    def test_defaults(self):
        params = ClusterParams()
        assert params.epsilon == 0.04
        assert params.min_pts == 5


class TestDbscan:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0.0, 0.001, (10, 3))
        blob_b = rng.normal(5.0, 0.001, (10, 3))
        matrix = np.vstack([blob_a, blob_b])
        params = ClusterParams(epsilon=0.1, min_pts=5)
        clustering = dbscan_of(matrix, params)
        assert clustering.n_clusters == 2
        assert clustering.noise == ()
        assert_matches_reference(matrix, params)

    def test_isolated_point_is_noise(self):
        clustering = dbscan_of([[0.0, 0.0]], ClusterParams(epsilon=1.0, min_pts=5))
        assert clustering.members == ()
        assert clustering.noise == ("p000",)
        assert clustering.labels.tolist() == [-1] and clustering.is_core.tolist() == [False]

    def test_identical_points_one_cluster_all_core(self):
        matrix = np.zeros((6, 4))
        clustering = dbscan_of(matrix, ClusterParams(epsilon=0.01, min_pts=5))
        assert clustering.n_clusters == 1
        assert clustering.members == (clustering.cache_ids,)
        assert clustering.is_core.tolist() == [True] * 6

    @given(st.lists(st.integers(-1, 6), max_size=40) | st.lists(st.just(-1), max_size=5))
    def test_views_equal_the_per_label_oracle(self, drawn):
        # Drawn labels leave gaps (an unused k below the largest label is still a cluster, with no members),
        # and include all noise and no rows.
        labels = np.array(drawn, dtype=np.intp)
        ids = tuple(f"c{i}" for i in range(len(labels)))
        clustering = Clustering(ids, labels, labels >= 0)
        n_clusters = max(drawn, default=-1) + 1
        assert clustering.n_clusters == n_clusters
        assert clustering.members == tuple(
            tuple(c for c, lab in zip(ids, drawn) if lab == k) for k in range(n_clusters)
        )
        assert clustering.noise == tuple(c for c, lab in zip(ids, drawn) if lab < 0)

    def test_empty_input(self):
        clustering = dbscan(np.empty((0, 3)), (), ClusterParams())
        assert (clustering.members, clustering.noise, clustering.n_clusters) == ((), (), 0)
        assert clustering.labels.shape == clustering.is_core.shape == (0,)

    def test_ids_must_match_rows(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 3)), ["a"], ClusterParams())

    def test_partition_and_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            matrix = random_instance(rng)
            params = ClusterParams(
                epsilon=float(rng.uniform(0.02, 0.4)), min_pts=int(rng.integers(2, 8))
            )
            clustering = dbscan_of(matrix, params)
            labels = clustering.labels
            assert len(labels) == matrix.shape[0]
            for k in range(clustering.n_clusters):
                assert clustering.is_core[labels == k].any(), "cluster without a core point"
            # No noise point may have a core point within epsilon.
            core_rows = np.flatnonzero(clustering.is_core)
            for row in np.flatnonzero(labels == -1):
                if core_rows.size:
                    d = np.linalg.norm(matrix[core_rows] - matrix[row], axis=1)
                    assert (d > params.epsilon).all()

    def test_numbering_and_partition(self):
        # Cluster k's smallest core row increases with k; members and noise
        # partition cache_ids, each in row order.
        rng = np.random.default_rng(17)
        for _ in range(20):
            matrix = random_instance(rng)
            params = ClusterParams(
                epsilon=float(rng.uniform(0.02, 0.4)), min_pts=int(rng.integers(2, 8))
            )
            clustering = dbscan_of(matrix, params)
            labels, is_core, ids = clustering.labels, clustering.is_core, clustering.cache_ids
            assert labels.dtype == np.intp and is_core.dtype == bool
            assert set(labels.tolist()) <= set(range(-1, clustering.n_clusters))
            first_core = [np.flatnonzero(is_core & (labels == k))[0] for k in range(clustering.n_clusters)]
            assert first_core == sorted(set(first_core))
            assert not is_core[labels == -1].any()
            assert clustering.members == tuple(
                tuple(c for c, lab in zip(ids, labels) if lab == k) for k in range(clustering.n_clusters)
            )
            assert clustering.noise == tuple(c for c, lab in zip(ids, labels) if lab == -1)
            assert sorted(clustering.noise + sum(clustering.members, ())) == sorted(ids)

    def test_core_partition_permutation_invariant(self):
        rng = np.random.default_rng(9)
        matrix = random_instance(rng)
        params = ClusterParams(epsilon=0.15, min_pts=4)
        base = dbscan_of(matrix, params)

        perm = rng.permutation(matrix.shape[0])
        shuffled = dbscan(matrix[perm], [f"p{i:03d}" for i in perm], params)

        def core_partition(clustering: Clustering):
            ids = np.array(clustering.cache_ids)
            core_labels = np.where(clustering.is_core, clustering.labels, -1)
            return {frozenset(ids[core_labels == k].tolist()) for k in range(clustering.n_clusters)}

        assert set().union(*core_partition(base)) == set().union(*core_partition(shuffled))
        assert core_partition(base) == core_partition(shuffled)

    def test_core_set_monotone_in_epsilon(self):
        rng = np.random.default_rng(13)
        matrix = random_instance(rng)
        previous: set[int] = set()
        for eps in (0.02, 0.05, 0.1, 0.2, 0.5):
            clustering = dbscan_of(matrix, ClusterParams(epsilon=eps, min_pts=4))
            cores = set(np.flatnonzero(clustering.is_core).tolist())
            assert previous <= cores
            previous = cores

    def test_border_joins_lowest_index_core_cluster(self):
        # Two tight blobs; the point between them reaches exactly one core of
        # each (3 neighbors incl. itself < min_pts=4, so it stays a border
        # point) and must join the cluster of its lowest-index core neighbor.
        points = [
            [0.0, 0.0],  # p000: the lowest-index core the border can reach
            [-0.05, 0.0],
            [0.0, -0.05],
            [-0.05, -0.05],
            [1.4, 0.0],  # p004: the other reachable core
            [1.45, 0.0],
            [1.4, -0.05],
            [1.45, -0.05],
            [0.7, 0.0],  # p008: 0.7 from p000 and p004, > eps from the rest
        ]
        params = ClusterParams(epsilon=0.7005, min_pts=4)
        clustering = dbscan_of(points, params)
        labels = clustering.labels
        assert clustering.n_clusters == 2
        assert clustering.is_core[[0, 4]].all() and not clustering.is_core[8]
        assert labels[8] == labels[0]
        assert labels[8] != labels[4]

    @given(
        exponent=st.integers(-6, 2),
        cells=st.sets(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=50),
        min_pts=st.integers(2, 7),
    )
    def test_neighbors_exactly_epsilon_apart(self, exponent, cells, min_pts):
        # Lattice spacing epsilon = 2**exponent makes dist2 == epsilon**2 exactly
        # for points one step apart along an axis; diagonal ones are farther.
        cells = sorted(cells)
        occupied = set(cells)
        matrix = np.array(cells, dtype=float) * 2.0**exponent
        params = ClusterParams(epsilon=2.0**exponent, min_pts=min_pts)
        is_core = dbscan_of(matrix, params).is_core
        for i, cell in enumerate(cells):
            steps = [(*cell[:a], cell[a] + d, *cell[a + 1 :]) for a in range(3) for d in (-1, 1)]
            neighborhood = 1 + sum(step in occupied for step in steps)
            assert is_core[i] == (neighborhood >= min_pts)
        assert_matches_reference(matrix, params)

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            matrix = random_instance(rng, max_points=80)
            params = ClusterParams(
                epsilon=float(rng.uniform(0.03, 0.5)), min_pts=int(rng.integers(2, 9))
            )
            assert_matches_reference(matrix, params)

    def test_matches_reference_at_wide_scale(self):
        assert_matches_reference(wide_matrix(), ClusterParams(epsilon=0.04, min_pts=5))

    def test_grid_tests_at_most_a_third_of_the_band_pairs_at_wide_scale(self):
        # Every tested pair is one row of an einsum operand; the band scan
        # tested 4.6x the grid's pairs on the benchmark's wide windows.
        matrix = wide_matrix()

        def pairs_tested(scan):
            with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
                scan(matrix, 0.04)
            return sum(call.args[1].shape[0] for call in einsum.call_args_list)

        grid, band = pairs_tested(neighborhoods), pairs_tested(reference_band_neighborhoods)
        assert 0 < 3 * grid <= band, (grid, band)

    def test_band_of_every_row_stays_bounded(self):
        # Coordinate 0 is constant (a metric that normalizes to 0 everywhere),
        # so every row's band holds all 2,400 points; the other coordinates
        # keep the true neighborhoods small. Blocks of PAIR_BUDGET pairs bound
        # the working set: per pair two (d,) float rows and eight 8-byte index
        # or distance values, 128 bytes at d = 4, plus 1 MiB for the per-point
        # arrays and the kept pairs. Blocks of 64 whole rows would hold up to
        # 64 * 2,400 pairs, over 15 MiB.
        rng = np.random.default_rng(11)
        centers = rng.uniform(0, 1, (300, 3))
        spread = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.01, (2400, 3))
        matrix = np.column_stack([np.zeros(2400), spread])
        params = ClusterParams(epsilon=0.04, min_pts=5)
        tracemalloc.start()
        try:
            dbscan_of(matrix, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PAIR_BUDGET * 8 * (2 * matrix.shape[1] + 8) + 2**20, peak
        assert_matches_reference(matrix, params)

    def test_one_cell_of_every_row_stays_bounded(self):
        # Coordinates 0 and -1 are both constant, so every row falls in one
        # grid cell and every pair is tested; the bound is the band's above.
        rng = np.random.default_rng(11)
        centers = rng.uniform(0, 1, (300, 3))
        spread = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.01, (2400, 3))
        matrix = np.column_stack([np.zeros(2400), spread, np.full(2400, 0.5)])
        params = ClusterParams(epsilon=0.04, min_pts=5)
        tracemalloc.start()
        try:
            dbscan_of(matrix, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PAIR_BUDGET * 8 * (2 * matrix.shape[1] + 8) + 2**20, peak
        assert_matches_reference(matrix, params)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        matrix = random_instance(rng)
        params = ClusterParams(epsilon=0.12, min_pts=4)
        a = dbscan_of(matrix, params)
        b = dbscan_of(matrix, params)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.is_core, b.is_core)


class TestRegionQuery:
    """Each CSR row of ``neighborhoods`` is one region query, all rows at once."""

    def test_zero_radius_self_only(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            ClusterParams(epsilon=0.0)  # params reject 0, but the primitive allows it
        assert [row.tolist() for row in csr_rows(matrix, 0.0)] == [[0], [1], [2]]

    def test_saturating_radius(self):
        matrix = np.random.default_rng(2).uniform(0, 1, (20, 3))
        assert all(row.tolist() == list(range(20)) for row in csr_rows(matrix, 10.0))

    def test_matches_pairwise_scan(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, (50, 6))
        eps = 0.6
        dist = cdist(matrix, matrix)
        rows = csr_rows(matrix, eps)
        for i in range(50):
            assert np.array_equal(rows[i], np.flatnonzero(dist[i] <= eps))

    @given(
        eps=st.sampled_from([2.0**-5, 0.04, 0.1, 1.0, 3.0, 1e-170, 1e-310]),
        offset=st.sampled_from([0.0, -7.5, 1e6, 2.0**52, -1e15]),
        cells=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-1, 1), st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=40,
        ),
        dims=st.integers(1, 3),
        constant_x=st.booleans(),
    )
    def test_rows_equal_region_query(self, eps, offset, cells, dims, constant_x):
        # Coordinate 0 is offset + k * eps moved by -1, 0 or +1 ulp: equal k
        # tie, adjacent k sit eps or eps +- 1-2 ulp apart, and at a large
        # offset x +- eps rounds. The other coordinates step by eps / 2, so
        # some pairs lie exactly on the boundary. eps = 1e-170 and 1e-310
        # make eps * eps underflow.
        k, ulps, *rest = np.array(cells, dtype=float).T
        x = np.full(k.size, offset) if constant_x else offset + k * eps
        x = np.where(ulps == 0, x, np.nextafter(x, np.copysign(np.inf, ulps)))
        matrix = np.column_stack([x, *rest][:dims]) * np.r_[1.0, [eps / 2] * (dims - 1)]
        rows = csr_rows(matrix, eps)
        for i in range(len(matrix)):
            expected = region_query(matrix, i, eps)
            assert rows[i].dtype == expected.dtype and np.array_equal(rows[i], expected), i

    @given(
        eps=st.sampled_from([2.0**-5, 0.04, 1.0, 3.0, 1e-170, 1e-310, 1e200, np.inf]),
        offset=st.sampled_from([0.0, -7.5, 1e15, 2.0**52, -1e15]),
        unit_steps=st.booleans(),
        cells=st.lists(st.tuples(*[st.integers(-2, 2)] * 4, st.integers(-1, 1)), max_size=40),
        dims=st.integers(0, 4),
        constant=st.sampled_from([(), (0,), (-1,), (0, -1)]),
        specials=st.lists(
            st.tuples(st.integers(0, 39), st.sampled_from([0, 1, -1]), st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=4,
        ),
    )
    def test_grid_equals_band_scan(self, eps, offset, unit_steps, cells, dims, constant, specials):
        # Coordinates step by eps / 2 (or by 1, many cells of eps apart) from
        # offset, some moved by an ulp, so that pairs lie on the boundary,
        # repeat, or round together at a large offset; eps = 1e-170 and 1e-310
        # make eps * eps underflow and 1e200 and inf make it overflow. Column 0,
        # the last column or both may be constant, and NaN or +-inf may sit in
        # column 0, in a middle one (column 1 of 3 or more) or in the last.
        lattice = np.array(cells, dtype=float).reshape(-1, 5)
        step = 1.0 if unit_steps or not np.isfinite(eps) else eps / 2
        matrix = offset + lattice[:, :dims] * step
        ulps = lattice[:, 4:]
        matrix = np.where(ulps == 0, matrix, np.nextafter(matrix, np.copysign(np.inf, ulps)))
        for column in constant if dims else ():
            matrix[:, column] = offset
        for row, column, value in specials:
            if len(matrix) and dims and (dims > 2 or column != 1):
                matrix[row % len(matrix), column] = value
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, and a NaN dist2 passes no test
            got, expected = neighborhoods(matrix, eps), reference_band_neighborhoods(matrix, eps)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_clustering_csv_dump():
    # p004 reaches only p000 (2 neighbors incl. itself < min_pts=3): a border point.
    matrix = [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [9.0, 9.0], [-0.04, -0.025]]
    clustering = dbscan_of(matrix, ClusterParams(epsilon=0.05, min_pts=3))
    buf = io.StringIO()
    write_clustering_csv(buf, clustering)
    lines = buf.getvalue().splitlines()
    assert lines == [
        "cache_id,cluster_id,role",
        "p000,0,core",
        "p001,0,core",
        "p002,0,core",
        "p003,-1,noise",
        "p004,0,border",
    ]
