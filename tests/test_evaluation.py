import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgewatch.dbscan import Cluster, Clustering, ClusterParams
from edgewatch.evaluation import (
    GroundTruth,
    ball_offsets,
    cd_calibration,
    clustering_indices,
    epsilon_sweep,
    majority_vote_labels,
    sample_in_ball,
    write_sweep_csv,
)
from edgewatch.features import extract_cache_features
from edgewatch.ingest import DAY_SECONDS, window_flows

import reference_impls


def clustering_of(clusters, noise=()):
    return Clustering(
        clusters=tuple(
            Cluster(members=tuple(members), core=frozenset(members)) for members in clusters
        ),
        noise=tuple(noise),
        params=ClusterParams(),
    )


class TestGroundTruth:
    def test_n_gt_labels(self):
        gt = GroundTruth({"a": "E1", "b": "E1", "c": "E2"})
        assert gt.n_gt_labels == 2

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth({"a": ""})

    def test_save_load_roundtrip(self, tmp_path):
        gt = GroundTruth({"b": "E2", "a": "E1"})
        path = tmp_path / "gt.tsv"
        gt.save(path)
        assert path.read_text() == "a\tE1\nb\tE2\n"
        assert GroundTruth.load(path) == gt


class TestMajorityVote:
    def test_unanimous_cluster_all_tp(self):
        gt = GroundTruth({c: "E1" for c in "abc"})
        assigned, n_tp, n_fp = majority_vote_labels(clustering_of([["a", "b", "c"]]), gt)
        assert set(assigned.values()) == {"E1"}
        assert (n_tp, n_fp) == (3, 0)

    def test_majority_count(self):
        gt = GroundTruth({"a": "E1", "b": "E1", "c": "E1", "d": "E2", "e": "E2"})
        assigned, n_tp, n_fp = majority_vote_labels(
            clustering_of([["a", "b", "c", "d", "e"]]), gt
        )
        assert assigned["d"] == "E1"
        assert (n_tp, n_fp) == (3, 2)

    def test_tie_breaks_lexicographically(self):
        gt = GroundTruth({"a": "E2", "b": "E1"})
        assigned, _, _ = majority_vote_labels(clustering_of([["a", "b"]]), gt)
        assert set(assigned.values()) == {"E1"}

    def test_unlabeled_cache_rejected(self):
        gt = GroundTruth({"a": "E1"})
        with pytest.raises(ValueError):
            majority_vote_labels(clustering_of([["a", "mystery"]]), gt)

    def test_noise_not_assigned(self):
        gt = GroundTruth({"a": "E1", "b": "E1", "n": "E2"})
        assigned, n_tp, n_fp = majority_vote_labels(
            clustering_of([["a", "b"]], noise=["n"]), gt
        )
        assert "n" not in assigned
        assert (n_tp, n_fp) == (2, 0)


class TestClusteringIndices:
    def test_split_label_fragmentation(self):
        # Two clusters, both majority E1, sizes 5 and 6, no noise.
        gt = GroundTruth({f"x{i}": "E1" for i in range(5)} | {f"y{i}": "E1" for i in range(6)})
        q = clustering_indices(
            clustering_of([[f"x{i}" for i in range(5)], [f"y{i}" for i in range(6)]]), gt
        )
        assert q.tpr == 1.0
        assert q.n_clusters == 2
        assert q.n_labels == 1
        assert q.fragmentation == 2.0
        assert q.pureness == 1.0

    def test_perfect_clustering(self):
        gt = GroundTruth({"a": "E1", "b": "E1", "c": "E2", "d": "E2"})
        q = clustering_indices(clustering_of([["a", "b"], ["c", "d"]]), gt)
        assert (q.tpr, q.fragmentation, q.pureness) == (1.0, 1.0, 1.0)
        assert q.noise_count == 0

    def test_all_noise(self):
        gt = GroundTruth({"a": "E1", "b": "E2"})
        q = clustering_indices(clustering_of([], noise=["a", "b"]), gt)
        assert q.tpr == 0.0
        assert q.fragmentation is None
        assert q.pureness == 0.0
        assert q.noise_count == 2

    def test_noise_only_lowers_tpr_denominator(self):
        gt = GroundTruth({"a": "E1", "b": "E1", "n1": "E1", "n2": "E2"})
        q = clustering_indices(clustering_of([["a", "b"]], noise=["n1", "n2"]), gt)
        assert q.tpr == pytest.approx(2 / 4)
        assert q.n_fp == 0

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=30),
        st.integers(0, 2**32 - 1),
    )
    def test_index_identities_randomized(self, label_ids, seed):
        rng = np.random.default_rng(seed)
        caches = [f"c{i}" for i in range(len(label_ids))]
        gt = GroundTruth({c: f"E{lab}" for c, lab in zip(caches, label_ids)})
        # Random partition into clusters and noise.
        assignment = rng.integers(-1, 4, len(caches))
        clusters: dict[int, list[str]] = {}
        noise = []
        for c, a in zip(caches, assignment):
            if a < 0:
                noise.append(c)
            else:
                clusters.setdefault(int(a), []).append(c)
        clustering = clustering_of(list(clusters.values()), noise=noise)
        q = clustering_indices(clustering, gt)
        n_x = clustering.n_points
        assert q.tpr == (q.n_tp / n_x if n_x else 0.0)
        assert q.n_tp + q.n_fp == n_x - q.noise_count
        if q.n_labels:
            assert q.fragmentation == q.n_clusters / q.n_labels
        else:
            assert q.fragmentation is None
        assert q.pureness == q.n_labels / gt.n_gt_labels
        assert q.n_labels <= gt.n_gt_labels
        assert q.n_labels <= max(q.n_clusters, 0)


@pytest.fixture(scope="module")
def six_node_snapshot(six_node_trace):
    records, gt = six_node_trace
    (snap,) = window_flows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)
    return snap, gt


class TestEpsilonSweep:
    def test_grid_validation(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        with pytest.raises(ValueError):
            epsilon_sweep(snap, gt, [])
        with pytest.raises(ValueError):
            epsilon_sweep(snap, gt, [0.1, 0.05])
        with pytest.raises(ValueError):
            epsilon_sweep(snap, gt, [0.04], feature_mode="nonsense")

    def test_plateau_point(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        (row,) = epsilon_sweep(snap, gt, [0.04])
        assert (row.tpr, row.fragmentation, row.pureness) == (1.0, 1.0, 1.0)
        assert row.noise_count == 0

    def test_tiny_epsilon_everything_noise(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        (row,) = epsilon_sweep(snap, gt, [1e-7])
        features = extract_cache_features(snap)
        assert row.noise_count == len(features)
        assert row.tpr == 0.0

    def test_huge_epsilon_single_cluster(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        (row,) = epsilon_sweep(snap, gt, [math.sqrt(10) + 0.1])
        assert row.noise_count == 0
        assert row.fragmentation == 1.0
        assert row.pureness == pytest.approx(1 / 6)

    def test_noise_monotone_in_epsilon(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(snap, gt, [0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16])
        noises = [r.noise_count for r in rows]
        assert noises == sorted(noises, reverse=True)

    def test_mean_std_mode_runs(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(snap, gt, [0.01, 0.035, 0.1], feature_mode="mean_std")
        assert len(rows) == 3

    def test_csv_output(self, six_node_snapshot, tmp_path):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(snap, gt, [1e-7, 0.04])
        buf = io.StringIO()
        write_sweep_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epsilon,tpr,fragmentation,pureness,noise_count"
        assert lines[1].split(",")[2] == ""  # fragmentation undefined at eps ~ 0


class ZeroFirstNormal:
    """A generator whose first ``standard_normal`` draw returns zeros, after
    consuming the wrapped generator's draw, so the sampler's retry runs."""

    def __init__(self, rng):
        self.rng, self.zero_draws = rng, 0

    def standard_normal(self, size):
        draw = self.rng.standard_normal(size)
        if self.zero_draws:
            return draw
        self.zero_draws += 1
        return np.zeros(size)

    def random(self):
        return self.rng.random()

    def uniform(self):
        return self.rng.uniform()


def state_of(rng):
    return (getattr(rng, "rng", rng).bit_generator.state, getattr(rng, "zero_draws", None))


class TestSampleInBall:
    def test_within_radius(self):
        rng = np.random.default_rng(0)
        for dim, radius in ((2, 0.5), (7, 2.0)):
            for _ in range(200):
                v = sample_in_ball(rng, dim, radius)
                assert v.shape == (dim,)
                assert np.linalg.norm(v) <= radius + 1e-12

    def test_zero_radius(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_in_ball(rng, 5, 0.0), np.zeros(5))

    def test_dim_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_in_ball(np.random.default_rng(0), 0, 0.1)
        with pytest.raises(ValueError):
            ball_offsets(np.random.default_rng(0), 3, 0, 0.1)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
        st.integers(1, 50),
        st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0, 1e3),
        st.booleans(),
    )
    def test_rows_equal_per_call_oracle(self, seed, n, dim, radius, zero_first):
        # n rows are n successive oracle calls on the same stream, bit for bit,
        # and leave the generator where the calls leave it.
        def generator():
            rng = np.random.default_rng(seed)
            return ZeroFirstNormal(rng) if zero_first else rng

        rng, oracle_rng = generator(), generator()
        rows = ball_offsets(rng, n, dim, radius)
        expected = [reference_impls.sample_in_ball(oracle_rng, dim, radius) for _ in range(n)]
        assert rows.shape == (n, dim) and rows.dtype == np.float64
        assert rows.tobytes() == b"".join(e.tobytes() for e in expected)
        assert state_of(rng) == state_of(oracle_rng)
        oracle = reference_impls.sample_in_ball(generator(), dim, radius)
        assert sample_in_ball(generator(), dim, radius).tobytes() == oracle.tobytes()

    def test_many_rows_equal_per_call_oracle(self):
        # A length that is off by one ulp in about one row of a thousand (as
        # ``norm ** 0.5`` is) still shows in this many rows.
        for dim in (3, 10, 40):
            rng, oracle_rng = np.random.default_rng([dim, 1]), np.random.default_rng([dim, 1])
            rows = ball_offsets(rng, 4000, dim, 0.25)
            expected = np.array([reference_impls.sample_in_ball(oracle_rng, dim, 0.25) for _ in range(4000)])
            assert rows.tobytes() == expected.tobytes()

    def test_zero_direction_redrawn(self):
        rng = ZeroFirstNormal(np.random.default_rng(3))
        (row,) = ball_offsets(rng, 1, 4, 1.0)
        assert rng.zero_draws == 1 and np.all(np.isfinite(row)) and np.any(row)


class TestCdCalibration:
    def test_zero_displacement_zero_cd(self):
        for seed in (0, 7, 123):
            assert cd_calibration(5, 0.0, trials=5, seed=seed) == 0.0
            assert cd_calibration(10, 0.0, trials=3, seed=seed) == 0.0

    def test_deterministic_under_seed(self):
        a = cd_calibration(5, 0.1, trials=10, seed=3)
        b = cd_calibration(5, 0.1, trials=10, seed=3)
        assert a == b
        assert a != cd_calibration(5, 0.1, trials=10, seed=4)

    def test_small_displacement_linearity(self):
        n, e, trials = 5, 0.05, 60
        mean_cd = cd_calibration(n, e, trials=trials, seed=2)
        offsets = ball_offsets(np.random.default_rng(999), 100_000, n, e)
        mean_delta = float(np.mean(np.sqrt(np.vecdot(offsets, offsets))))
        assert mean_cd == pytest.approx(2 * n * mean_delta, rel=0.05)

    def test_star_birth_monotone(self):
        means = [
            cd_calibration(5, 0.05, trials=40, extra_stars=extra, seed=6)
            for extra in (0, 1, 2, 4)
        ]
        assert means[0] < means[1] < means[2] < means[3]

    def test_dim_override(self):
        # Text-faithful default couples dimension to star count; the override
        # decouples them.
        assert cd_calibration(3, 0.0, trials=2, seed=0, dim=12) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cd_calibration(0, 0.1, trials=1)
        with pytest.raises(ValueError):
            cd_calibration(3, -0.1, trials=1)
        with pytest.raises(ValueError):
            cd_calibration(3, 0.1, trials=0)
        with pytest.raises(ValueError):
            cd_calibration(3, 0.1, trials=1, extra_stars=-1)
        with pytest.raises(ValueError):
            cd_calibration(3, 0.1, trials=1, dim=0)
