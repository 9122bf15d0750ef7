import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from edgewatch.dbscan import Clustering
from edgewatch.evaluation import (
    GroundTruth,
    cd_calibration_curve,
    clustering_indices,
    epsilon_sweep,
    majority_vote_labels,
    plurality,
    write_sweep_csv,
)
from edgewatch.features import extract_cache_features, extract_cache_features_mean_std
from edgewatch.ingest import DAY_SECONDS, window_flows

import reference_impls


def clustering_of(clusters, noise=()):
    """All-core clustering whose rows are cluster 0's members, cluster 1's, ..., then the noise caches."""
    cache_ids = (*(c for members in clusters for c in members), *noise)
    sizes = [len(members) for members in clusters]
    labels = np.r_[np.repeat(np.arange(len(clusters)), sizes), np.full(len(noise), -1)]
    return Clustering(cache_ids, labels, labels >= 0)


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


@given(st.integers(0, 4), st.integers(0, 3), st.data())
def test_plurality_equals_the_majority_label_oracle(n_groups, n_choices, data):
    # Few choices and groups make ties and empty groups common; -1 casts no vote; zero choices too.
    vote = st.tuples(st.integers(0, max(n_groups - 1, 0)), st.integers(-1, n_choices - 1))
    votes = data.draw(st.lists(vote, max_size=30 if n_groups else 0))
    groups = np.array([g for g, _ in votes], dtype=np.intp)
    choices = np.array([c for _, c in votes], dtype=np.intp)
    expected = [
        reference_impls.majority_label(c if c >= 0 else None for g, c in votes if g == group)
        for group in range(n_groups)
    ]
    winner = plurality(groups, choices, n_groups, n_choices)
    assert winner.tolist() == [-1 if e is None else e for e in expected]


# One cache per row: its cluster (-1: noise) and its GT label (None: not in the ground truth).
clustered_caches = st.lists(st.tuples(st.integers(-1, 3), st.sampled_from(["E1", "E2", "E3", None])), max_size=30)


@given(clustered_caches)
def test_majority_vote_labels_equals_per_cluster_vote(rows):
    # Clusters are numbered by their first row, as dbscan numbers them; their rows interleave.
    first_rows = list(dict.fromkeys(k for k, _ in rows if k >= 0))
    labels = np.array([first_rows.index(k) if k >= 0 else -1 for k, _ in rows], dtype=np.intp)
    cache_ids = tuple(f"c{i}" for i in range(len(rows)))
    # "A0", the smallest label, is held by a cache outside the clustering.
    truth = {"other": "A0"} | {c: lab for c, (_, lab) in zip(cache_ids, rows) if lab is not None}
    clusters = [[c for c, k in zip(cache_ids, labels) if k == n] for n in range(len(first_rows))]
    expected, n_tp, n_fp = {}, 0, 0
    for members in clusters:
        missing = [c for c in members if c not in truth]
        if missing:
            with pytest.raises(ValueError, match=re.escape(f"clustered caches without a GT label: {missing[:5]}")):
                majority_vote_labels(Clustering(cache_ids, labels, labels >= 0), GroundTruth(truth))
            return
        winner = reference_impls.majority_label(truth[c] for c in members)
        expected |= dict.fromkeys(members, winner)
        n_tp += sum(truth[c] == winner for c in members)
        n_fp += sum(truth[c] != winner for c in members)
    assert majority_vote_labels(Clustering(cache_ids, labels, labels >= 0), GroundTruth(truth)) == (
        expected, n_tp, n_fp
    )


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
        n_x = len(caches)
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
            epsilon_sweep(extract_cache_features(snap), gt, [])
        with pytest.raises(ValueError):
            epsilon_sweep(extract_cache_features(snap), gt, [0.1, 0.05])

    def test_plateau_point(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        (row,) = epsilon_sweep(extract_cache_features(snap), gt, [0.04])
        assert (row.tpr, row.fragmentation, row.pureness) == (1.0, 1.0, 1.0)
        assert row.noise_count == 0

    def test_tiny_epsilon_everything_noise(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        features = extract_cache_features(snap)
        (row,) = epsilon_sweep(features, gt, [1e-7])
        assert row.noise_count == len(features)
        assert row.tpr == 0.0

    def test_huge_epsilon_single_cluster(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        (row,) = epsilon_sweep(extract_cache_features(snap), gt, [math.sqrt(10) + 0.1])
        assert row.noise_count == 0
        assert row.fragmentation == 1.0
        assert row.pureness == pytest.approx(1 / 6)

    def test_noise_monotone_in_epsilon(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(extract_cache_features(snap), gt, [0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16])
        noises = [r.noise_count for r in rows]
        assert noises == sorted(noises, reverse=True)

    def test_mean_std_mode_runs(self, six_node_snapshot):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(extract_cache_features_mean_std(snap), gt, [0.01, 0.035, 0.1])
        assert len(rows) == 3

    def test_csv_output(self, six_node_snapshot, tmp_path):
        snap, gt = six_node_snapshot
        rows = epsilon_sweep(extract_cache_features(snap), gt, [1e-7, 0.04])
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
                v = reference_impls.ball_offsets(rng, 1, dim, radius)[0]
                assert v.shape == (dim,)
                assert np.linalg.norm(v) <= radius + 1e-12

    def test_zero_radius(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(reference_impls.ball_offsets(rng, 1, 5, 0.0)[0], np.zeros(5))

    def test_dim_below_one_rejected(self):
        with pytest.raises(ValueError):
            reference_impls.ball_offsets(np.random.default_rng(0), 1, 0, 0.1)
        with pytest.raises(ValueError):
            reference_impls.ball_offsets(np.random.default_rng(0), 3, 0, 0.1)

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
        rows = reference_impls.ball_offsets(rng, n, dim, radius)
        expected = [reference_impls.sample_in_ball(oracle_rng, dim, radius) for _ in range(n)]
        assert rows.shape == (n, dim) and rows.dtype == np.float64
        assert rows.tobytes() == b"".join(e.tobytes() for e in expected)
        assert state_of(rng) == state_of(oracle_rng)
        oracle = reference_impls.sample_in_ball(generator(), dim, radius)
        assert reference_impls.ball_offsets(generator(), 1, dim, radius)[0].tobytes() == oracle.tobytes()

    def test_many_rows_equal_per_call_oracle(self):
        # A length that is off by one ulp in about one row of a thousand (as
        # ``norm ** 0.5`` is) still shows in this many rows.
        for dim in (3, 10, 40):
            rng, oracle_rng = np.random.default_rng([dim, 1]), np.random.default_rng([dim, 1])
            rows = reference_impls.ball_offsets(rng, 4000, dim, 0.25)
            expected = np.array([reference_impls.sample_in_ball(oracle_rng, dim, 0.25) for _ in range(4000)])
            assert rows.tobytes() == expected.tobytes()

    def test_zero_direction_redrawn(self):
        rng = ZeroFirstNormal(np.random.default_rng(3))
        (row,) = reference_impls.ball_offsets(rng, 1, 4, 1.0)
        assert rng.zero_draws == 1 and np.all(np.isfinite(row)) and np.any(row)


class TestSeededRng:
    """The stream oracle of ``test_streams``: numpy's own ``default_rng`` of the key's 32-bit words."""

    @given(st.lists(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**100), min_size=1, max_size=5))
    @example([3**70, 3, 2**32 - 1, 7, 2**33])
    def test_equals_default_rng_of_the_key(self, key):
        assert reference_impls.seeded_rng(*key).bit_generator.state == np.random.default_rng(key).bit_generator.state


class TestCdCalibration:
    def test_zero_displacement_zero_cd(self):
        for seed in (0, 7, 123):
            assert cd_calibration_curve(5, [0.0], trials=5, seed=seed)[0] == 0.0
            assert cd_calibration_curve(10, [0.0], trials=3, seed=seed)[0] == 0.0

    def test_deterministic_under_seed(self):
        a = cd_calibration_curve(5, [0.1], trials=10, seed=3)[0]
        b = cd_calibration_curve(5, [0.1], trials=10, seed=3)[0]
        assert a == b
        assert a != cd_calibration_curve(5, [0.1], trials=10, seed=4)[0]

    def test_small_displacement_linearity(self):
        n, e, trials = 5, 0.05, 60
        mean_cd = cd_calibration_curve(n, [e], trials=trials, seed=2)[0]
        offsets = reference_impls.ball_offsets(np.random.default_rng(999), 100_000, n, e)
        mean_delta = float(np.mean(np.sqrt(np.vecdot(offsets, offsets))))
        assert mean_cd == pytest.approx(2 * n * mean_delta, rel=0.05)

    def test_star_birth_monotone(self):
        means = [
            cd_calibration_curve(5, [0.05], trials=40, extra_stars=extra, seed=6)[0]
            for extra in (0, 1, 2, 4)
        ]
        assert means[0] < means[1] < means[2] < means[3]

    def test_dim_override(self):
        # Text-faithful default couples dimension to star count; the override
        # decouples them.
        assert cd_calibration_curve(3, [0.0], trials=2, seed=0, dim=12)[0] == 0.0

    @given(
        st.integers(1, 6),
        st.lists(st.sampled_from([0.0, 1e-300, 0.05, 0.3]) | st.floats(0, 2), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
        st.none() | st.integers(1, 7),
    )
    @example(3, [0.0, 0.1, 0.25], 2, 1, 0, None)  # 0.0 first
    @example(4, [0.3, 0.0, 1e-300, 0.3, 0.05], 3, 3, 7, None)  # 0.0 in the middle, a duplicate, unsorted
    @example(2, [1e-300, 0.05], 4, 2, 11, 6)  # no 0.0, a dim override
    def test_curve_equals_per_radius_oracle(self, n, grid, trials, extra, seed, dim):
        # One trial's draws serve every radius, yet each mean CD is the per-radius oracle's, bit for bit.
        curve = cd_calibration_curve(n, grid, trials, extra, seed=seed, dim=dim)
        expected = [reference_impls.reference_cd_calibration(n, e, trials, extra, seed=seed, dim=dim) for e in grid]
        assert list(map(float.hex, curve)) == list(map(float.hex, expected))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [], trials=1)
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [0.1, -0.1], trials=1)
        with pytest.raises(ValueError):
            cd_calibration_curve(0, [0.1], trials=1)
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [-0.1], trials=1)
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [0.1], trials=0)
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [0.1], trials=1, extra_stars=-1)
        with pytest.raises(ValueError):
            cd_calibration_curve(3, [0.1], trials=1, dim=0)
        with pytest.raises(ValueError, match="non-negative"):
            cd_calibration_curve(5, [0.1], 1, seed=-1)
