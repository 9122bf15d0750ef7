import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgewatch.features import (
    CacheFeatures,
    DEFAULT_PERCENTILES,
    NormalizationBounds,
    extract_cache_features,
    extract_cache_features_mean_std,
    normalize_snapshot,
    percentile,
    snapshot_bounds,
    write_feature_dump,
)
from edgewatch.ingest import FlowRecord, FlowTable, Snapshot, window_flows, DAY_SECONDS

from reference_impls import reference_percentile


def flow(t, ip, rtt, ttl=54):
    return FlowRecord(t, "u", ip, "h.example", rtt, ttl, 1, 1, 100.0)


def snapshot_of(flows):
    table = FlowTable.from_records(flows)
    return Snapshot(0, 0.0, DAY_SECONDS, table, table.time_order)


class TestPercentile:
    def test_exact_median(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_linear_interpolation(self):
        assert percentile([10, 20], 25) == 12.5

    def test_endpoints(self):
        assert percentile([5, 1, 9], 0) == 1.0
        assert percentile([5, 1, 9], 100) == 9.0

    def test_single_sample(self):
        assert percentile([7.0], 37.5) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_reference_oracle_sanity(self):
        # The oracle itself must reproduce the hand-checked cases.
        assert reference_percentile([1, 2, 3], 50) == 2.0
        assert reference_percentile([10, 20], 25) == 12.5

    def test_against_reference_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            samples = rng.uniform(-50, 50, rng.integers(1, 60))
            q = float(rng.uniform(0, 100))
            assert percentile(samples, q) == pytest.approx(
                reference_percentile(samples, q), abs=1e-12
            )

    def test_against_numpy_linear(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            samples = rng.normal(0, 10, rng.integers(2, 80))
            q = float(rng.uniform(0, 100))
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), abs=1e-9
            )


class TestExtractCacheFeatures:
    def test_min_flow_cut(self):
        flows = [flow(float(i), "low", 10.0) for i in range(49)]
        flows += [flow(float(i), "high", 10.0) for i in range(50)]
        features = extract_cache_features(snapshot_of(flows), min_flow=50)
        assert [f.cache_id for f in features] == ["high"]
        assert features[0].flow_count == 50

    def test_constant_samples(self):
        flows = [flow(float(i), "c", 10.0) for i in range(50)]
        (feat,) = extract_cache_features(snapshot_of(flows), percentiles=DEFAULT_PERCENTILES)
        assert np.array_equal(feat.raw_percentiles["rtt"], np.full(5, 10.0))
        assert np.array_equal(feat.raw_percentiles["ttl"], np.full(5, 54.0))

    def test_empty_result(self):
        flows = [flow(0.0, "only", 5.0)]
        assert extract_cache_features(snapshot_of(flows), min_flow=50) == []

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
        (feat,) = extract_cache_features(snapshot_of(flows), min_flow=1)
        for metric in ("rtt", "ttl"):
            vec = feat.raw_percentiles[metric]
            assert all(b >= a for a, b in zip(vec, vec[1:]))

    def test_mean_std_variant_same_shape(self):
        flows = [flow(float(i), "c", 10.0 + i, ttl=54) for i in range(60)]
        (feat,) = extract_cache_features_mean_std(snapshot_of(flows))
        assert feat.raw_percentiles["rtt"].shape == (2,)
        assert feat.raw_percentiles["ttl"].shape == (2,)
        vectors, _ = normalize_snapshot([feat])
        assert vectors[0].dimension == 4


def features_of(values_by_cache, metric_values=None):
    out = []
    for cache_id, rtt_vec in values_by_cache.items():
        out.append(
            CacheFeatures(
                cache_id=cache_id,
                flow_count=100,
                raw_percentiles={
                    "rtt": np.asarray(rtt_vec, dtype=float),
                    "ttl": np.asarray(
                        metric_values[cache_id] if metric_values else rtt_vec, dtype=float
                    ),
                },
            )
        )
    return out


class TestNormalizeSnapshot:
    def test_affine_endpoints_and_midpoint(self):
        features = features_of({"a": [10.0, 60.0], "b": [60.0, 110.0]})
        vectors, bounds = normalize_snapshot(features)
        assert bounds.bounds["rtt"] == (10.0, 110.0)
        by_id = {v.cache_id: v.values for v in vectors}
        assert by_id["a"][0] == 0.0
        assert by_id["b"][1] == 1.0
        assert by_id["a"][1] == pytest.approx(0.5)
        assert by_id["b"][0] == pytest.approx(0.5)

    def test_degenerate_span_maps_to_zero(self):
        features = features_of({"a": [10.0, 20.0], "b": [15.0, 25.0]}, {"a": [54.0, 54.0], "b": [54.0, 54.0]})
        vectors, _ = normalize_snapshot(features)
        for v in vectors:
            assert np.array_equal(v.values[2:], np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_snapshot([])

    def test_generated_snapshot_in_unit_range(self, six_node_trace):
        records, _ = six_node_trace
        snap = window_flows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)[0]
        features = extract_cache_features(snap)
        vectors, _ = normalize_snapshot(features)
        assert vectors, "fixture produced no features"
        for v in vectors:
            assert v.values.min() >= 0.0
            assert v.values.max() <= 1.0
            assert v.dimension == 2 * len(DEFAULT_PERCENTILES)

    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
            min_size=2,
            max_size=8,
        )
    )
    def test_monotonicity_preserved(self, rows):
        features = features_of({f"c{i}": sorted(row) for i, row in enumerate(rows)})
        vectors, _ = normalize_snapshot(features)
        for v in vectors:
            rtt_block = v.values[:3]
            assert all(b >= a for a, b in zip(rtt_block, rtt_block[1:]))

    def test_identity_under_unit_bounds(self):
        bounds = NormalizationBounds({"rtt": (0.0, 1.0)})
        values = np.array([0.0, 0.25, 0.9, 1.0])
        assert np.array_equal(bounds.normalize("rtt", values), values)

    def test_per_metric_coupling_roundtrip(self):
        features = features_of({"a": [10.0, 50.0], "b": [20.0, 110.0]}, {"a": [40.0, 64.0], "b": [48.0, 70.0]})
        vectors, bounds = normalize_snapshot(features)
        by_id = {v.cache_id: v.values for v in vectors}
        for f in features:
            vec = by_id[f.cache_id]
            rtt_raw = bounds.denormalize("rtt", vec[:2])
            ttl_raw = bounds.denormalize("ttl", vec[2:])
            assert rtt_raw == pytest.approx(f.raw_percentiles["rtt"], abs=1e-9)
            assert ttl_raw == pytest.approx(f.raw_percentiles["ttl"], abs=1e-9)

    def test_snapshot_bounds_joint_over_indices(self):
        features = features_of({"a": [1.0, 9.0], "b": [4.0, 5.0]})
        bounds = snapshot_bounds(features)
        assert bounds.bounds["rtt"] == (1.0, 9.0)


def test_feature_dump_csv(tmp_path):
    features = features_of({"a": [10.0, 20.0]})
    _, bounds = normalize_snapshot(features)
    path = tmp_path / "features.csv"
    write_feature_dump(path, features, (20.0, 80.0), bounds)
    lines = path.read_text().splitlines()
    assert lines[0] == "cache_id,metric,percentile,raw_value,normalized_value"
    assert len(lines) == 1 + 2 * 2  # two metrics x two percentiles
    assert lines[1].startswith("a,rtt,20.0,10.0,")
