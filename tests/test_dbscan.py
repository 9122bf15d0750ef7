import io

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from edgewatch.dbscan import (
    BORDER,
    CORE,
    Clustering,
    ClusterParams,
    dbscan,
    region_query,
    write_clustering_csv,
)

from reference_impls import clusters_as_sets, reference_dbscan


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


def assert_matches_reference(matrix, params):
    clustering = dbscan_of(matrix, params)
    ref_labels, ref_core = reference_dbscan(matrix, params.epsilon, params.min_pts)

    ours = np.full(matrix.shape[0], -1, dtype=int)
    for idx, cluster in enumerate(clustering.clusters):
        for cache_id in cluster.members:
            ours[int(cache_id[1:])] = idx
    roles = clustering.roles()
    our_core = np.array([roles.get(f"p{i:03d}") == CORE for i in range(matrix.shape[0])])

    assert np.array_equal(our_core, ref_core)
    assert clusters_as_sets(ours) == clusters_as_sets(ref_labels)
    assert np.array_equal(ours == -1, ref_labels == -1)
    # Border attachment must agree point by point, not only up to relabeling.
    pairs = {}
    for i in range(matrix.shape[0]):
        if ours[i] >= 0:
            pairs.setdefault(ours[i], set()).add(i)
    ref_pairs = {}
    for i in range(matrix.shape[0]):
        if ref_labels[i] >= 0:
            ref_pairs.setdefault(ref_labels[i], set()).add(i)
    assert {frozenset(v) for v in pairs.values()} == {frozenset(v) for v in ref_pairs.values()}


class TestClusterParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(epsilon=0.0)
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
        assert clustering.clusters == ()
        assert clustering.noise == ("p000",)

    def test_identical_points_one_cluster_all_core(self):
        matrix = np.zeros((6, 4))
        clustering = dbscan_of(matrix, ClusterParams(epsilon=0.01, min_pts=5))
        assert clustering.n_clusters == 1
        (cluster,) = clustering.clusters
        assert len(cluster.core) == 6
        assert cluster.border == frozenset()

    def test_empty_input(self):
        clustering = dbscan(np.empty((0, 3)), (), ClusterParams())
        assert clustering.clusters == ()
        assert clustering.noise == ()

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
            labels = clustering.labels()
            assert len(labels) == matrix.shape[0]
            for cluster in clustering.clusters:
                assert cluster.core, "cluster without a core point"
            # No noise point may have a core point within epsilon.
            roles = clustering.roles()
            core_rows = np.array(
                [int(cid[1:]) for cid, role in roles.items() if role == CORE], dtype=int
            )
            for cache_id in clustering.noise:
                if core_rows.size:
                    d = np.linalg.norm(matrix[core_rows] - matrix[int(cache_id[1:])], axis=1)
                    assert (d > params.epsilon).all()

    def test_core_partition_permutation_invariant(self):
        rng = np.random.default_rng(9)
        matrix = random_instance(rng)
        params = ClusterParams(epsilon=0.15, min_pts=4)
        base = dbscan_of(matrix, params)

        perm = rng.permutation(matrix.shape[0])
        shuffled = dbscan(matrix[perm], [f"p{i:03d}" for i in perm], params)

        def core_partition(clustering: Clustering):
            return {frozenset(c.core) for c in clustering.clusters}

        assert {c for cl in base.clusters for c in cl.core} == {
            c for cl in shuffled.clusters for c in cl.core
        }
        assert core_partition(base) == core_partition(shuffled)

    def test_core_set_monotone_in_epsilon(self):
        rng = np.random.default_rng(13)
        matrix = random_instance(rng)
        previous: set[str] = set()
        for eps in (0.02, 0.05, 0.1, 0.2, 0.5):
            clustering = dbscan_of(matrix, ClusterParams(epsilon=eps, min_pts=4))
            cores = {c for cl in clustering.clusters for c in cl.core}
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
        labels = clustering.labels()
        assert clustering.n_clusters == 2
        assert clustering.roles()["p008"] == BORDER
        assert labels["p008"] == labels["p000"]
        assert labels["p008"] != labels["p004"]

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            matrix = random_instance(rng, max_points=80)
            params = ClusterParams(
                epsilon=float(rng.uniform(0.03, 0.5)), min_pts=int(rng.integers(2, 9))
            )
            assert_matches_reference(matrix, params)

    def test_matches_reference_at_wide_scale(self):
        # The benchmark's wide shape: 300 edge nodes of 8 caches, 2,400 points.
        rng = np.random.default_rng(7)
        centers = rng.uniform(0, 1, (300, 10))
        matrix = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.01, (2400, 10))
        rng.shuffle(matrix)
        assert_matches_reference(matrix, ClusterParams(epsilon=0.04, min_pts=5))

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        matrix = random_instance(rng)
        params = ClusterParams(epsilon=0.12, min_pts=4)
        a = dbscan_of(matrix, params)
        b = dbscan_of(matrix, params)
        assert a.labels() == b.labels()
        assert a.roles() == b.roles()


class TestRegionQuery:
    def test_zero_radius_self_only(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            ClusterParams(epsilon=0.0)  # params reject 0, but the primitive allows it
        assert list(region_query(matrix, 1, 0.0)) == [1]

    def test_saturating_radius(self):
        matrix = np.random.default_rng(2).uniform(0, 1, (20, 3))
        assert list(region_query(matrix, 4, 10.0)) == list(range(20))

    def test_matches_pairwise_scan(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, (50, 6))
        eps = 0.6
        dist = cdist(matrix, matrix)
        for i in range(50):
            expected = np.flatnonzero(dist[i] <= eps)
            assert np.array_equal(region_query(matrix, i, eps), expected)


def test_clustering_csv_dump():
    matrix = [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [9.0, 9.0]]
    clustering = dbscan_of(matrix, ClusterParams(epsilon=0.05, min_pts=3))
    buf = io.StringIO()
    write_clustering_csv(buf, clustering)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "cache_id,cluster_id,role"
    assert "p000,0,core" in lines
    assert "p003,-1,noise" in lines
