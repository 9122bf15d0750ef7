import logging
import math

import numpy as np
import pytest

from edgewatch.constellation import build_constellation, constellation_distance, joint_bounds
from edgewatch.dbscan import ClusterParams, dbscan
from edgewatch.errors import ConfigError, InputError
from edgewatch.features import extract_cache_features, normalize_snapshot
from edgewatch.ingest import DAY_SECONDS, FlowRecord, FlowTable, window_flows
from edgewatch.pipeline import (
    FLAG_EVENT,
    FLAG_MAJOR,
    FLAG_NONE,
    PipelineConfig,
    drilldown,
    flag_for,
    run_timeline,
    write_couplings_csv,
    write_timeline_csv,
)
from edgewatch.synth import EdgeNodeSpec, EventSpec, SynthConfig, generate_trace

from conftest import EVENT_DEATH_DAY, EVENT_SHIFT_DAY


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig().validate()
        assert config.window_days == 7.0
        assert config.step_days == 1.0
        assert config.min_flow == 50
        assert config.percentiles == (20.0, 35.0, 50.0, 65.0, 80.0)
        assert config.epsilon == 0.04
        assert config.min_pts == 5
        assert config.event_threshold == 10.0
        assert config.major_threshold == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_days": 0},
            {"step_days": -1},
            {"event_threshold": 0},
            {"event_threshold": 60.0},  # above major
            {"min_flow": 0},
            {"epsilon": 0},
            {"top_stars": 0},
            {"percentiles": (50.0, 20.0)},
            {"percentiles": ()},
            {"window_days": math.nan},
            {"step_days": math.inf},
            {"epsilon": math.nan},
            {"event_threshold": math.nan},
            {"major_threshold": math.inf},
            {"utc_offset_hours": math.nan},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs).validate()


class TestFlagFor:
    def test_levels(self):
        config = PipelineConfig()
        assert flag_for(None, config) == FLAG_NONE
        assert flag_for(9.99, config) == FLAG_NONE
        assert flag_for(10.0, config) == FLAG_EVENT
        assert flag_for(49.0, config) == FLAG_EVENT
        assert flag_for(50.0, config) == FLAG_MAJOR


def cache_flows(day, cache, rtt, count=5):
    """``count`` flows of one cache on ``day``, all with the same RTT and TTL 50."""
    return [FlowRecord(day * DAY_SECONDS + i, "u", cache, "h", rtt, 50, 0, 0, 1.0) for i in range(count)]


class TestRunTimeline:
    def test_too_few_snapshots(self):
        records = FlowTable.from_records([FlowRecord(100.0, "u", "a", "h", 1.0, 10, 0, 0, 1.0)])
        with pytest.raises(InputError):
            run_timeline(PipelineConfig(window_days=7, step_days=1), records)

    def test_entry_zero_has_no_cd(self, event_timeline):
        result, _, _, _ = event_timeline
        assert result.entries[0].cd_to_previous is None
        assert result.entries[0].flagged == FLAG_NONE
        assert result.reports[0] is None

    def test_quiet_pairs_stay_unflagged(self, event_timeline):
        result, _, config, _ = event_timeline
        for e in result.entries[1:]:
            if e.index in (EVENT_DEATH_DAY, EVENT_SHIFT_DAY):
                assert e.flagged == FLAG_EVENT
            else:
                assert e.flagged == FLAG_NONE
                assert e.cd_to_previous < config.event_threshold

    def test_flags_recomputable_from_cd(self, event_timeline):
        result, _, config, _ = event_timeline
        for e in result.entries:
            assert e.flagged == flag_for(e.cd_to_previous, config)

    def test_composition_matches_module_apis(self, event_timeline):
        # Recompute one snapshot pair by hand through the module APIs.
        result, records, config, _ = event_timeline
        snaps = window_flows(
            records,
            config.window_days * DAY_SECONDS,
            config.step_days * DAY_SECONDS,
            utc_offset_hours=config.utc_offset_hours,
        )
        n = 5
        feats = [
            extract_cache_features(snaps[i], config.min_flow, config.percentiles)
            for i in (n - 1, n)
        ]
        (pa, ba), (pb, bb) = (normalize_snapshot(f) for f in feats)
        params = ClusterParams(config.epsilon, config.min_pts)
        ca, cb = dbscan(pa, feats[0].cache_ids, params), dbscan(pb, feats[1].cache_ids, params)
        joint = joint_bounds(ba, bb)
        ka = build_constellation(ca, feats[0], joint)
        kb = build_constellation(cb, feats[1], joint)
        assert constellation_distance(ka, kb).cd_value == result.entries[n].cd_to_previous

    def test_empty_snapshot_participates_with_sentinel(self, caplog):
        def burst(day, count):
            return [
                FlowRecord(day * DAY_SECONDS + i, "u", f"c{j}", "h", 10.0, 50, 0, 0, 100.0)
                for j in range(6)
                for i in range(count)
            ]

        records = FlowTable.from_records(burst(0, 60) + burst(1, 10) + burst(2, 60))
        config = PipelineConfig(window_days=1, step_days=1)
        with caplog.at_level(logging.WARNING):
            result = run_timeline(config, records)
        assert "no caches above min_flow" in caplog.text
        assert len(result.entries) == 3
        # One star against an empty constellation, both directions.
        assert result.entries[1].cd_to_previous == pytest.approx(math.sqrt(10))
        assert result.entries[2].cd_to_previous == pytest.approx(math.sqrt(10))

    def test_constant_metric_maps_to_zero(self):
        # TTL is 50 everywhere, so its bounds have hi == lo and every TTL
        # coordinate is 0; only RTT moves: one group from 90 to 50 ms.
        steady = [r for day in (0, 1) for c in ("a1", "a2", "a3") for r in cache_flows(day, c, 10.0)]
        moving = [
            r for day, rtt in ((0, 90.0), (1, 50.0)) for c in ("b1", "b2", "b3") for r in cache_flows(day, c, rtt)
        ]
        config = PipelineConfig(window_days=1, step_days=1, min_flow=5, min_pts=2)
        result = run_timeline(config, FlowTable.from_records(steady + moving))
        assert [s.bounds.ttl for s in result.states] == [(50.0, 50.0)] * 2
        report = result.reports[1]
        # Stars at RTT 0 and 1 against 0 and 0.5 on 5 percentile axes; the
        # moved star is equally far from both, a tie that goes to star 0.
        half = math.sqrt(5 * 0.25)
        assert [(c.nearest_index, c.distance) for c in report.couplings_ab] == [(0, 0.0), (1, half)]
        assert [(c.nearest_index, c.distance) for c in report.couplings_ba] == [(0, 0.0), (0, half)]
        assert report.cd_value == 2 * half

    def test_all_noise_snapshot_next_to_clustered(self):
        # Day 0: two clusters of three. Day 1: four caches kept above min_flow
        # but too far apart to cluster, so every star couples at sqrt(dim).
        clustered = [r for c in ("a1", "a2", "a3") for r in cache_flows(0, c, 10.0)]
        clustered += [r for c in ("b1", "b2", "b3") for r in cache_flows(0, c, 90.0)]
        spread = [r for i, rtt in enumerate((10.0, 40.0, 70.0, 100.0)) for r in cache_flows(1, f"n{i}", rtt)]
        config = PipelineConfig(window_days=1, step_days=1, min_flow=5, min_pts=2)
        result = run_timeline(config, FlowTable.from_records(clustered + spread))
        assert [len(s.features) for s in result.states] == [6, 4]
        assert result.states[1].clustering.n_clusters == 0
        assert result.entries[1].noise_count == 4
        report = result.reports[1]
        assert report.couplings_ba == ()
        assert [(c.nearest_index, c.distance) for c in report.couplings_ab] == [(None, math.sqrt(10))] * 2
        assert result.entries[1].cd_to_previous == 2 * math.sqrt(10)

    def test_one_cache_snapshot(self):
        # A lone cache spans no range (every coordinate 0 in its own bounds);
        # against the joint RTT bounds 10..30 its star moves from 0 to 1.
        records = cache_flows(0, "c1", 10.0) + cache_flows(1, "c1", 30.0)
        config = PipelineConfig(window_days=1, step_days=1, min_flow=5, min_pts=1)
        result = run_timeline(config, FlowTable.from_records(records))
        assert [s.bounds.rtt for s in result.states] == [(10.0, 10.0), (30.0, 30.0)]
        report = result.reports[1]
        assert [(c.nearest_index, c.distance) for c in report.couplings_ab] == [(0, math.sqrt(5))]
        assert [(c.nearest_index, c.distance) for c in report.couplings_ba] == [(0, math.sqrt(5))]
        assert result.entries[1].cd_to_previous == 2 * math.sqrt(5)

    def test_noise_counts_reported(self, event_timeline):
        result, _, _, _ = event_timeline
        assert all(e.noise_count == 0 for e in result.entries)

    def test_star_label_is_vote_over_member_cache_votes(self):
        # Each cache's label is the majority of its flows' hostname codes; the
        # star's is the majority of its members' labels, ties to the smallest.
        def flows(day, cache, rtt, codes):
            return [
                FlowRecord(day * DAY_SECONDS + i, "u", cache, f"r1---{code.lower()}1.example.net",
                           rtt, 50, 0, 0, 1.0)
                for i, code in enumerate(codes)
            ]

        moving = (
            flows(0, "c1", 10.0, ["FRA"] * 5)
            + flows(0, "c2", 10.0, ["AMS", "FRA", "AMS", "FRA", "AMS"])
            + [FlowRecord(100.0 + i, "u", "c3", "opaque.example.net", 10.0, 50, 0, 0, 1.0)
               for i in range(5)]
        )
        steady = [r for day in (0, 1) for c in ("d1", "d2", "d3") for r in flows(day, c, 90.0, ["LON"] * 5)]
        config = PipelineConfig(window_days=1, step_days=1, min_flow=5, min_pts=2)
        entry = run_timeline(config, FlowTable.from_records(moving + steady)).entries[1]
        labels = {c.members: c.label for c in entry.contributors}
        # Votes FRA, AMS and none (opaque name): a tie, to AMS. A flat vote
        # over the star's flows would say FRA (7 to 3).
        assert labels[("c1", "c2", "c3")] == "AMS"
        assert labels[("d1", "d2", "d3")] == "LON"

    def test_snapshot_compared_with_itself_is_zero(self, event_timeline):
        from edgewatch.pipeline import _pair_constellations, analyze_snapshot

        _, records, config, _ = event_timeline
        snap = window_flows(records, DAY_SECONDS, DAY_SECONDS)[0]
        state = analyze_snapshot(snap, config)
        const_a, const_b = _pair_constellations(state, state)
        assert constellation_distance(const_a, const_b).cd_value == 0.0


def stable_three_nodes(events=(), days=6, seed=3):
    nodes = (
        EdgeNodeSpec("MIL", 6, 15.0, 1.5, 52, 1.0),
        EdgeNodeSpec("AMS", 6, 45.0, 1.5, 58, 1.0),
        EdgeNodeSpec("FRA", 6, 95.0, 2.0, 64, 1.0),
    )
    return generate_trace(
        SynthConfig(nodes=nodes, events=tuple(events), days=days, flows_per_day=4000,
                    rank_churn=0.0, seed=seed)
    )


class TestDrilldown:
    def test_unflagged_entry_empty_report(self, event_timeline):
        result, records, config, _ = event_timeline
        report = drilldown(result.entries[3], records, config)
        assert report.stars == ()

    def test_death_entry_attributes_dead_label(self, event_timeline):
        result, records, config, _ = event_timeline
        entry = result.entries[EVENT_DEATH_DAY]
        report = drilldown(entry, records, config)
        assert report.stars
        top = report.stars[0]
        assert top.label == "AMS"
        assert top.side == "a"  # the vanished stars belong to the earlier snapshot
        # The dead group has flows before the event window and none after.
        assert not math.isnan(top.throughput_deciles_before[0])
        assert all(math.isnan(v) for v in top.throughput_deciles_after)

    def test_shift_entry_shows_rtt_jump(self, event_timeline):
        result, records, config, _ = event_timeline
        entry = result.entries[EVENT_SHIFT_DAY]
        report = drilldown(entry, records, config)
        top = report.stars[0]
        assert top.label == "FRA"
        median_idx = list(config.percentiles).index(50.0)
        jump = top.rtt_percentiles_after[median_idx] - top.rtt_percentiles_before[median_idx]
        assert jump == pytest.approx(80.0, abs=3.0)

    def test_congestion_drilldown_shows_throughput_degradation(self):
        factor = 4.0
        records, _ = stable_three_nodes(
            events=[EventSpec("congestion", "AMS", start_day=3, end_day=5, magnitude=factor)]
        )
        config = PipelineConfig(
            window_days=1, step_days=1, event_threshold=0.08, major_threshold=50.0
        )
        result = run_timeline(config, records)
        entry = result.entries[3]
        assert entry.flagged != FLAG_NONE
        report = drilldown(entry, records, config)
        top = report.stars[0]
        assert top.label == "AMS"
        before = np.array(top.throughput_deciles_before)
        after = np.array(top.throughput_deciles_after)
        assert np.median(before / after) == pytest.approx(factor, rel=0.25)

    def test_birth_appears_only_on_later_side(self):
        records, _ = stable_three_nodes(
            events=[EventSpec("node_birth", "FRA", start_day=3, end_day=5)]
        )
        config = PipelineConfig(window_days=1, step_days=1, event_threshold=0.5)
        result = run_timeline(config, records)
        entry = result.entries[3]
        report = result.reports[3]
        assert entry.flagged != FLAG_NONE
        # The new star sits in the later constellation: its coupling is on the
        # "b" side and dominates, while every "a"-side star barely moved.
        max_b = max(c.distance for c in report.couplings_ba)
        max_a = max(c.distance for c in report.couplings_ab)
        assert max_b > 10 * max_a
        top = drilldown(entry, records, config).stars[0]
        assert top.side == "b"
        assert top.label == "FRA"


class TestCsvOutputs:
    def test_timeline_csv(self, event_timeline, tmp_path):
        result, _, _, _ = event_timeline
        path = tmp_path / "timeline.csv"
        write_timeline_csv(path, result.entries)
        lines = path.read_text().splitlines()
        assert lines[0] == "snapshot,window_start,window_end,cd,noise_count,flag,top_stars"
        assert len(lines) == 1 + len(result.entries)
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""

    def test_couplings_csv(self, event_timeline, tmp_path):
        result, _, _, _ = event_timeline
        path = tmp_path / "couplings.csv"
        write_couplings_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("snapshot_n,")
        total = sum(
            len(r.couplings_ab) + len(r.couplings_ba) for r in result.reports if r is not None
        )
        assert len(lines) == 1 + total
