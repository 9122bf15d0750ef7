import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgewatch.constellation import joint_bounds
from edgewatch.features import (
    CacheFeatures,
    DEFAULT_PERCENTILES,
    NormalizationBounds,
    extract_cache_features,
    extract_cache_features_mean_std,
    normalize_snapshot,
    percentile_vector,
    snapshot_bounds,
    write_feature_dump,
)
from edgewatch.ingest import Snapshot, window_flows, DAY_SECONDS

from reference_impls import Flow, flow_table, reference_percentile


def flow(t, ip, rtt, ttl=54):
    return Flow(t, "u", ip, "h.example", rtt, ttl, 1, 1, 100.0)


def snapshot_of(flows):
    table = flow_table(flows)
    return Snapshot(0, 0.0, DAY_SECONDS, table, table.time_order)


class TestPercentile:
    def test_exact_median(self):
        assert percentile_vector([1, 2, 3], (50,))[0] == 2.0

    def test_linear_interpolation(self):
        assert percentile_vector([10, 20], (25,))[0] == 12.5

    def test_endpoints(self):
        assert percentile_vector([5, 1, 9], (0,))[0] == 1.0
        assert percentile_vector([5, 1, 9], (100,))[0] == 9.0

    def test_single_sample(self):
        assert percentile_vector([7.0], (37.5,))[0] == 7.0

    def test_empty_set_is_nan(self):
        assert np.isnan(percentile_vector([], (50,))).all()

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            percentile_vector([1.0], (101,))
        with pytest.raises(ValueError):
            percentile_vector([1.0], (-0.1,))

    def test_reference_oracle_sanity(self):
        # The oracle itself must reproduce the hand-checked cases.
        assert reference_percentile([1, 2, 3], 50) == 2.0
        assert reference_percentile([10, 20], 25) == 12.5

    def test_against_reference_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            samples = rng.uniform(-50, 50, rng.integers(1, 60))
            q = float(rng.uniform(0, 100))
            assert percentile_vector(samples, (q,))[0] == pytest.approx(
                reference_percentile(samples, q), abs=1e-12
            )

    def test_against_numpy_linear(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            samples = rng.normal(0, 10, rng.integers(2, 80))
            q = float(rng.uniform(0, 100))
            assert percentile_vector(samples, (q,))[0] == pytest.approx(
                float(np.percentile(samples, q)), abs=1e-9
            )


class TestExtractCacheFeatures:
    def test_min_flow_cut(self):
        flows = [flow(float(i), "low", 10.0) for i in range(49)]
        flows += [flow(float(i), "high", 10.0) for i in range(50)]
        features = extract_cache_features(snapshot_of(flows), min_flow=50)
        assert features.cache_ids == ("high",)
        assert features.flow_counts.tolist() == [50]

    def test_constant_samples(self):
        flows = [flow(float(i), "c", 10.0) for i in range(50)]
        (row,) = extract_cache_features(snapshot_of(flows), percentiles=DEFAULT_PERCENTILES).raw
        assert np.array_equal(row[:5], np.full(5, 10.0))  # rtt
        assert np.array_equal(row[5:], np.full(5, 54.0))  # ttl

    def test_empty_result(self):
        flows = [flow(0.0, "only", 5.0)]
        features = extract_cache_features(snapshot_of(flows), min_flow=50)
        assert len(features) == 0 and features.raw.shape == (0, 10)

    def test_percentile_list_validation(self):
        snap = snapshot_of([flow(0.0, "c", 5.0)])
        with pytest.raises(ValueError):
            extract_cache_features(snap, percentiles=())
        with pytest.raises(ValueError):
            extract_cache_features(snap, percentiles=(20, 20))
        with pytest.raises(ValueError):
            extract_cache_features(snap, percentiles=(0, 50))
        with pytest.raises(ValueError):
            extract_cache_features(snap, percentiles=(50, 100))

    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=5, max_size=40))
    def test_vectors_non_decreasing(self, rtts):
        flows = [flow(float(i), "c", v) for i, v in enumerate(rtts)]
        (row,) = extract_cache_features(snapshot_of(flows), min_flow=1).raw
        for vec in (row[:5], row[5:]):  # rtt, ttl
            assert all(b >= a for a, b in zip(vec, vec[1:]))

    def test_mean_std_variant_same_shape(self):
        flows = [flow(float(i), "c", 10.0 + i, ttl=54) for i in range(60)]
        features = extract_cache_features_mean_std(snapshot_of(flows))
        assert features.raw.shape == (1, 4)  # (mean, std) of rtt, then of ttl
        points, _ = normalize_snapshot(features)
        assert points.shape == (1, 4)


def features_of(values_by_cache, metric_values=None):
    """CacheFeatures with the given rtt vectors and ttl vectors (the rtt ones by default)."""
    ids = tuple(values_by_cache)
    ttl = metric_values or values_by_cache
    raw = np.array([list(values_by_cache[c]) + list(ttl[c]) for c in ids], dtype=float)
    return CacheFeatures(ids, np.full(len(ids), 100), raw)


class TestNormalizeSnapshot:
    def test_affine_endpoints_and_midpoint(self):
        features = features_of({"a": [10.0, 60.0], "b": [60.0, 110.0]})
        points, bounds = normalize_snapshot(features)
        assert bounds.rtt == (10.0, 110.0)
        by_id = dict(zip(features.cache_ids, points))
        assert by_id["a"][0] == 0.0
        assert by_id["b"][1] == 1.0
        assert by_id["a"][1] == pytest.approx(0.5)
        assert by_id["b"][0] == pytest.approx(0.5)

    def test_degenerate_span_maps_to_zero(self):
        features = features_of({"a": [10.0, 20.0], "b": [15.0, 25.0]}, {"a": [54.0, 54.0], "b": [54.0, 54.0]})
        points, _ = normalize_snapshot(features)
        for v in points:
            assert np.array_equal(v[2:], np.zeros(2))

    def test_empty_is_the_empty_range(self):
        # No caches, built or extracted, give (inf, -inf) per metric: joint_bounds of it and any bounds gives those.
        extracted = extract_cache_features(snapshot_of([flow(10.0, "a", 5.0)]), min_flow=2)
        for features in (CacheFeatures((), np.zeros(0, dtype=int), np.zeros((0, 10))), extracted):
            bounds = snapshot_bounds(features)
            assert bounds == NormalizationBounds((math.inf, -math.inf), (math.inf, -math.inf))
            assert joint_bounds(bounds, snapshot_bounds(features_of({"a": [1.0, 9.0]}))).rtt == (1.0, 9.0)
            points, normalized_bounds = normalize_snapshot(features)
            assert normalized_bounds == bounds and points.shape == features.raw.shape == (0, 10)

    def test_generated_snapshot_in_unit_range(self, six_node_trace):
        records, _ = six_node_trace
        snap = window_flows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)[0]
        features = extract_cache_features(snap)
        points, _ = normalize_snapshot(features)
        assert len(points), "fixture produced no features"
        assert points.min() >= 0.0
        assert points.max() <= 1.0
        assert points.shape[1] == 2 * len(DEFAULT_PERCENTILES)

    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_monotonicity_preserved(self, rows):
        features = features_of({f"c{i}": sorted(row) for i, row in enumerate(rows)})
        points, _ = normalize_snapshot(features)
        for v in points:
            rtt_block = v[:3]
            assert all(b >= a for a, b in zip(rtt_block, rtt_block[1:]))

    def test_identity_under_unit_bounds(self):
        bounds = NormalizationBounds((0.0, 1.0), (0.0, 1.0))
        values = np.array([0.0, 0.25, 0.9, 1.0])
        assert np.array_equal(bounds.normalize(values), values)

    def test_per_metric_coupling_roundtrip(self):
        features = features_of({"a": [10.0, 50.0], "b": [20.0, 110.0]}, {"a": [40.0, 64.0], "b": [48.0, 70.0]})
        points, bounds = normalize_snapshot(features)
        # Each block inverts through its own metric's bounds.
        (rtt_lo, rtt_hi), (ttl_lo, ttl_hi) = bounds.rtt, bounds.ttl
        for vec, raw in zip(points, features.raw):
            assert vec[:2] * (rtt_hi - rtt_lo) + rtt_lo == pytest.approx(raw[:2], abs=1e-9)
            assert vec[2:] * (ttl_hi - ttl_lo) + ttl_lo == pytest.approx(raw[2:], abs=1e-9)

    def test_snapshot_bounds_joint_over_indices(self):
        features = features_of({"a": [1.0, 9.0], "b": [4.0, 5.0]})
        bounds = snapshot_bounds(features)
        assert bounds.rtt == (1.0, 9.0)


def test_feature_dump_csv(tmp_path):
    features = features_of({"a": [10.0, 20.0]})
    _, bounds = normalize_snapshot(features)
    path = tmp_path / "features.csv"
    write_feature_dump(path, features, (20.0, 80.0), bounds)
    lines = path.read_text().splitlines()
    assert lines[0] == "cache_id,metric,percentile,raw_value,normalized_value"
    assert len(lines) == 1 + 2 * 2  # two metrics x two percentiles
    assert lines[1].startswith("a,rtt,20.0,10.0,")
