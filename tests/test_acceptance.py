"""Acceptance suite: every release-gating check, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from edgewatch.cli import main
from edgewatch.constellation import Constellation, constellation_distance
from edgewatch.dbscan import ClusterParams, dbscan
from edgewatch.evaluation import (
    GroundTruth,
    ball_offsets,
    cd_calibration,
    clustering_indices,
    epsilon_sweep,
    sample_in_ball,
)
from edgewatch.features import (
    CacheFeatures,
    NormalizationBounds,
    percentile,
)
from edgewatch.constellation import build_constellation
from edgewatch.dbscan import Cluster, Clustering
from edgewatch.ingest import DAY_SECONDS, window_flows
from edgewatch.pipeline import PipelineConfig, drilldown, run_timeline
from edgewatch.synth import generate_trace

from conftest import (
    EVENT_DEATH_DAY,
    EVENT_SHIFT_DAY,
    event_trace_config,
    six_node_config,
)
from reference_impls import clusters_as_sets, reference_dbscan, reference_percentile


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>4} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number:>4} PASS — {description} ({elapsed:.1f}s)")


def test_01_dbscan_matches_bruteforce_reference():
    with criterion(1, "DBSCAN equals brute-force reference on 100 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240101)
        for _ in range(100):
            n = int(rng.integers(20, 201))
            n_blobs = int(rng.integers(1, 6))
            parts = []
            remaining = n
            for b in range(n_blobs):
                size = remaining if b == n_blobs - 1 else int(rng.integers(1, remaining - (n_blobs - b - 1) + 1))
                remaining -= size
                center = rng.uniform(0, 1, 10)
                parts.append(center + rng.normal(0, rng.uniform(0.01, 0.1), (size, 10)))
            matrix = np.vstack(parts)
            n_extra = int(rng.integers(0, n // 4 + 1))
            if n_extra:
                matrix = np.vstack([matrix, rng.uniform(0, 1, (n_extra, 10))])
            rng.shuffle(matrix)
            matrix = matrix[:200]

            eps = float(rng.uniform(0.05, 0.5))
            min_pts = int(rng.integers(2, 9))
            ids = [f"p{i:03d}" for i in range(matrix.shape[0])]
            clustering = dbscan(matrix, ids, ClusterParams(epsilon=eps, min_pts=min_pts))

            ref_labels, ref_core = reference_dbscan(matrix, eps, min_pts)
            ours = np.full(matrix.shape[0], -1, dtype=int)
            for idx, cluster in enumerate(clustering.clusters):
                for cache_id in cluster.members:
                    ours[int(cache_id[1:])] = idx
            our_core = np.zeros(matrix.shape[0], dtype=bool)
            for cluster in clustering.clusters:
                for cache_id in cluster.core:
                    our_core[int(cache_id[1:])] = True

            assert np.array_equal(our_core, ref_core)
            assert np.array_equal(ours == -1, ref_labels == -1)
            assert clusters_as_sets(ours) == clusters_as_sets(ref_labels)
        assert time.perf_counter() - start < 10.0


def test_02_edge_node_recovery_plateau():
    with criterion(2, "six-node recovery: TPR=mu=phi=1 across eps in [0.02, 0.045]"):
        start = time.perf_counter()
        records, ground_truth = generate_trace(six_node_config())
        (snapshot,) = window_flows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)
        grid = [0.020, 0.025, 0.030, 0.035, 0.040, 0.045]
        rows = epsilon_sweep(snapshot, ground_truth, grid)
        for row in rows:
            assert row.tpr == 1.0, f"TPR {row.tpr} at eps={row.epsilon}"
            assert row.fragmentation == 1.0, f"mu {row.fragmentation} at eps={row.epsilon}"
            assert row.pureness == 1.0, f"phi {row.pureness} at eps={row.epsilon}"
            assert row.noise_count == 0
        assert time.perf_counter() - start < 5.0


def test_03_cd_calibration_linearity():
    with criterion(3, "calibration: mean CD within 5% of 2*N*E[delta]; exact 0 at e=0"):
        start = time.perf_counter()
        e = 0.05
        for n in (5, 10):
            assert cd_calibration(n, 0.0, trials=100, seed=77) == 0.0

            # Guard the fixture: e must sit below half the expected minimum
            # pairwise star gap of the random constellations.
            gap_rng = np.random.default_rng(1234)
            gaps = []
            for _ in range(200):
                pts = gap_rng.uniform(size=(n, n))
                d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
                gaps.append(np.min(d[np.triu_indices(n, k=1)]))
            assert e < 0.5 * float(np.mean(gaps))

            mean_cd = cd_calibration(n, e, trials=100, seed=77)
            offsets = ball_offsets(np.random.default_rng(4321), 100_000, n, e)
            mean_delta = float(np.mean(np.sqrt(np.vecdot(offsets, offsets))))
            expected = 2.0 * n * mean_delta
            assert abs(mean_cd - expected) <= 0.05 * expected, (n, mean_cd, expected)
        assert time.perf_counter() - start < 30.0


def test_04_star_birth_growth():
    with criterion(4, "mean CD strictly increasing in the number of born stars"):
        start = time.perf_counter()
        for n in (5, 10):
            means = [
                cd_calibration(n, 0.05, trials=100, extra_stars=extra, seed=55)
                for extra in (1, 2, 4)
            ]
            assert means[0] < means[1] < means[2], (n, means)
        assert time.perf_counter() - start < 30.0


def _random_constellation(rng, n, dim):
    return Constellation(rng.uniform(0, 1, (n, dim)))


def test_05_metric_properties():
    with criterion(5, "CD symmetry/non-negativity/zero-iff-equal/perturbation identity"):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        for trial in range(200):
            dim = int(rng.integers(2, 11))
            a = _random_constellation(rng, int(rng.integers(1, 9)), dim)
            if trial % 3 == 0:
                order = rng.permutation(len(a))
                b = Constellation(a.positions[order])
                equal_sets = True
            else:
                b = _random_constellation(rng, int(rng.integers(1, 9)), dim)
                equal_sets = False

            forward = constellation_distance(a, b)
            backward = constellation_distance(b, a)
            assert forward.cd_value == backward.cd_value  # exact symmetry
            assert forward.cd_value >= 0.0
            if equal_sets:
                assert forward.cd_value == 0.0
            else:
                assert forward.cd_value > 0.0

            # Small-perturbation identity: displace each star by less than
            # half the minimum pairwise gap; CD must equal 2*sum(deltas).
            positions = a.positions
            if len(a) > 1:
                d = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
                min_gap = float(np.min(d[np.triu_indices(len(a), k=1)]))
            else:
                min_gap = 1.0
            if min_gap == 0.0:
                continue
            deltas = []
            moved = []
            for position in a.positions:
                v = sample_in_ball(rng, dim, 0.49 * min_gap)
                deltas.append(float(np.linalg.norm(v)))
                moved.append(position + v)
            perturbed = Constellation(np.array(moved))
            report = constellation_distance(a, perturbed)
            expected = 2.0 * sum(deltas)
            if expected > 0:
                assert abs(report.cd_value - expected) <= 1e-9 * expected
        assert time.perf_counter() - start < 10.0


def test_06_affine_commutation():
    with criterion(6, "mean-then-renorm equals renorm-then-mean to 1e-12"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            members = int(rng.integers(1, 40))
            raw = rng.uniform(-1000, 1000, (members, 2 * k))
            lo_r, hi_r = np.sort(rng.uniform(-1000, 1000, 2))
            lo_t, hi_t = np.sort(rng.uniform(-1000, 1000, 2))
            bounds = NormalizationBounds((lo_r, hi_r + 1e-9), (lo_t, hi_t + 1e-9))
            ids = tuple(f"c{i}" for i in range(members))
            features = CacheFeatures(ids, np.full(members, 100), raw)
            clustering = Clustering(
                clusters=(Cluster(members=ids, core=frozenset(ids)),),
                noise=(),
                params=ClusterParams(),
            )
            constellation = build_constellation(clustering, features, bounds)
            renorm_then_mean = np.mean([bounds.normalize(raw[i]) for i in range(members)], axis=0)
            diff = np.max(np.abs(constellation.positions[0] - renorm_then_mean))
            assert diff <= 1e-12


@pytest.fixture(scope="module")
def detection_run():
    """Full end-to-end experiment for the event-detection criterion, timed."""
    start = time.perf_counter()
    records, _ = generate_trace(event_trace_config())
    config = PipelineConfig(window_days=1.0, step_days=1.0)
    result = run_timeline(config, records)
    death_report = drilldown(result.entries[EVENT_DEATH_DAY], records, config)
    shift_report = drilldown(result.entries[EVENT_SHIFT_DAY], records, config)
    elapsed = time.perf_counter() - start
    return result, config, death_report, shift_report, elapsed


def test_07a_event_detection_quiet_baseline(detection_run):
    with criterion("7a", "every event-free consecutive pair has CD < 10"):
        result, config, _, _, elapsed = detection_run
        for entry in result.entries[1:]:
            if entry.index in (EVENT_DEATH_DAY, EVENT_SHIFT_DAY):
                continue
            assert entry.cd_to_previous < config.event_threshold, (
                entry.index,
                entry.cd_to_previous,
            )
        assert elapsed < 60.0


def test_07b_event_detection_node_death(detection_run):
    with criterion("7b", "node death flagged (CD >= 10) and attributed at its window"):
        result, config, death_report, _, elapsed = detection_run
        entry = result.entries[EVENT_DEATH_DAY]
        assert entry.cd_to_previous >= config.event_threshold, entry.cd_to_previous
        assert death_report.stars, "drill-down empty for a flagged entry"
        assert death_report.stars[0].label == "AMS"
        assert elapsed < 60.0


def test_07c_event_detection_path_shift(detection_run):
    with criterion("7c", "path shift flagged (CD >= 10) and attributed at its window"):
        result, config, _, shift_report, elapsed = detection_run
        entry = result.entries[EVENT_SHIFT_DAY]
        assert entry.cd_to_previous >= config.event_threshold, entry.cd_to_previous
        assert shift_report.stars, "drill-down empty for a flagged entry"
        assert shift_report.stars[0].label == "FRA"
        assert elapsed < 60.0


def test_08_index_formula_identities():
    with criterion(8, "quality indices match their defining formulas exactly"):
        rng = np.random.default_rng(31337)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            caches = [f"c{i}" for i in range(n)]
            ground_truth = GroundTruth(
                {c: f"E{int(rng.integers(0, 5))}" for c in caches}
            )
            if trial % 10 == 0:
                assignment = np.full(n, -1)  # degenerate: everything noise
            else:
                assignment = rng.integers(-1, 6, n)
            grouped: dict[int, list[str]] = {}
            noise = []
            for c, a in zip(caches, assignment):
                if a < 0:
                    noise.append(c)
                else:
                    grouped.setdefault(int(a), []).append(c)
            clustering = Clustering(
                clusters=tuple(
                    Cluster(members=tuple(m), core=frozenset(m)) for m in grouped.values()
                ),
                noise=tuple(noise),
                params=ClusterParams(),
            )
            q = clustering_indices(clustering, ground_truth)
            n_x = clustering.n_points
            assert q.tpr == (q.n_tp / n_x if n_x else 0.0)
            assert q.pureness == q.n_labels / ground_truth.n_gt_labels
            if q.n_labels == 0:
                assert q.fragmentation is None
                assert q.tpr == 0.0
                assert q.pureness == 0.0
            else:
                assert q.fragmentation == q.n_clusters / q.n_labels
            assert q.n_labels <= ground_truth.n_gt_labels
            assert q.n_labels <= q.n_clusters or q.n_clusters == 0


def test_09_percentile_oracle():
    with criterion(9, "percentile matches the independent oracle on 1000 sample sets"):
        start = time.perf_counter()
        assert reference_percentile([1, 2, 3], 50) == 2.0
        assert reference_percentile([10, 20], 25) == 12.5
        rng = np.random.default_rng(271828)
        for _ in range(1000):
            samples = rng.uniform(-1e4, 1e4, int(rng.integers(1, 200)))
            q = float(rng.uniform(0, 100))
            assert abs(percentile(samples, q) - reference_percentile(samples, q)) <= 1e-12
        assert time.perf_counter() - start < 10.0


SYNTH_INI = """
[trace]
days = 8
flows_per_day = 3000
rank_churn = 0.4
seed = 2024

[node MIL]
caches = 6
rtt_median_ms = 15
rtt_spread_ms = 1.5
ttl = 52
weight = 1.0

[node AMS]
caches = 6
rtt_median_ms = 45
rtt_spread_ms = 1.5
ttl = 58
weight = 1.0

[node FRA]
caches = 6
rtt_median_ms = 95
rtt_spread_ms = 2.0
ttl = 64
weight = 1.0

[event wobble]
kind = congestion
target = FRA
start_day = 4
end_day = 5
magnitude = 3
"""


def test_10_end_to_end_determinism(tmp_path):
    with criterion(10, "synth + timeline twice with one seed: byte-identical outputs"):
        ini = tmp_path / "synth.ini"
        ini.write_text(SYNTH_INI)
        outputs = {}
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            trace = root / "trace.tsv"
            gt = root / "gt.tsv"
            assert main([
                "synth", "--config", str(ini),
                "--out-trace", str(trace), "--out-ground-truth", str(gt),
            ]) == 0
            out_dir = root / "out"
            assert main([
                "timeline", "--input", str(trace),
                "--window-days", "2", "--step-days", "1", "--out-dir", str(out_dir),
            ]) == 0
            outputs[run] = {
                name: (root / name).read_bytes() if (root / name).exists() else None
                for name in ("trace.tsv", "gt.tsv")
            } | {
                name: (out_dir / name).read_bytes()
                for name in ("timeline.csv", "couplings.csv")
            }
        assert outputs["one"] == outputs["two"]
        assert outputs["one"]["trace.tsv"] is not None
