import io
import random

import pytest
from hypothesis import given, strategies as st

from edgewatch.ingest import (
    DAY_SECONDS,
    FLOW_LOG_HEADER,
    FlowLineError,
    FlowLogFormatError,
    FlowRecord,
    FlowTable,
    midnight_floor,
    parse_cache_hostname,
    parse_flow_log,
    window_flows,
    write_flow_log,
)

SAMPLE_LINE = (
    "1391212800.5\tC1\t10.0.0.1\tr7---fra07t16.c.vcdn.example\t15.2\t54\t1200\t8000000\t1350.0"
)


def make_log(*lines):
    return io.StringIO("\n".join((FLOW_LOG_HEADER,) + lines) + "\n")


def flow(t, ip="c1", rtt=1.0, ttl=10, thr=100.0, host="r1---abc00t00.c.vcdn.example"):
    return FlowRecord(t, "u0", ip, host, rtt, ttl, 10, 100, thr)


def windows(records, *args, **kwargs):
    return window_flows(FlowTable.from_records(records), *args, **kwargs)


class TestParseFlowLog:
    def test_single_line_field_mapping(self):
        (rec,) = parse_flow_log(make_log(SAMPLE_LINE))
        assert rec.start_time == 1391212800.5
        assert rec.client_id == "C1"
        assert rec.server_ip == "10.0.0.1"
        assert rec.min_rtt == 15.2
        assert rec.ttl == 54
        assert rec.bytes_up == 1200
        assert rec.bytes_down == 8000000
        assert rec.avg_throughput == 1350.0

    def test_short_line_skip_and_count(self):
        bad = "\t".join(SAMPLE_LINE.split("\t")[:8])
        errors: list[FlowLineError] = []
        records = list(parse_flow_log(make_log(SAMPLE_LINE, bad, SAMPLE_LINE), errors=errors))
        assert len(records) == 2
        assert len(errors) == 1
        assert errors[0].line_number == 3
        assert "8" in errors[0].reason

    def test_malformed_line_aborts_without_collector(self):
        with pytest.raises(FlowLineError):
            list(parse_flow_log(make_log("not\ta\tflow")))

    def test_byte_counts_beyond_int64_rejected(self):
        parts = SAMPLE_LINE.split("\t")
        for field in (6, 7):
            parts[field] = str(2**63)
            errors: list[FlowLineError] = []
            assert list(parse_flow_log(make_log("\t".join(parts)), errors=errors)) == []
            assert [(e.line_number, e.reason) for e in errors] == [(2, "byte count above 2**63 - 1")]
            parts[field] = str(2**63 - 1)
            (rec,) = parse_flow_log(make_log("\t".join(parts)))
            assert getattr(rec, ("bytes_up", "bytes_down")[field - 6]) == 2**63 - 1

    def test_empty_file_with_header(self):
        assert list(parse_flow_log(make_log())) == []

    def test_header_mismatch_is_fatal(self):
        stream = io.StringIO("time\tstuff\n" + SAMPLE_LINE + "\n")
        with pytest.raises(FlowLogFormatError):
            list(parse_flow_log(stream))

    def test_empty_stream_is_fatal(self):
        with pytest.raises(FlowLogFormatError):
            list(parse_flow_log(io.StringIO("")))

    @pytest.mark.parametrize(
        "field,value",
        [(4, "-1.0"), (5, "256"), (5, "-1"), (6, "-5"), (8, "-2.0"), (2, ""), (4, "nan")],
    )
    def test_invalid_field_values(self, field, value):
        parts = SAMPLE_LINE.split("\t")
        parts[field] = value
        errors: list[FlowLineError] = []
        assert list(parse_flow_log(make_log("\t".join(parts)), errors=errors)) == []
        assert len(errors) == 1


safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=20,
)

record_strategy = st.builds(
    FlowRecord,
    start_time=st.floats(-2e9, 4e9, allow_nan=False),
    client_id=safe_text,
    server_ip=st.text(alphabet="abcdef0123456789.-", min_size=1, max_size=20),
    hostname=safe_text,
    min_rtt=st.floats(0, 1e6, allow_nan=False),
    ttl=st.integers(0, 255),
    bytes_up=st.integers(0, 2**50),
    bytes_down=st.integers(0, 2**50),
    avg_throughput=st.floats(0, 1e9, allow_nan=False),
)


@given(st.lists(record_strategy, max_size=20))
def test_tsv_round_trip(records):
    buf = io.StringIO()
    write_flow_log(buf, FlowTable.from_records(records))
    buf.seek(0)
    assert list(parse_flow_log(buf)) == records


def test_format_rejects_embedded_tabs():
    table = FlowTable.from_records([flow(0.0, ip="a\tb")])
    with pytest.raises(ValueError):
        write_flow_log(io.StringIO(), table)


class TestParseCacheHostname:
    def test_plain_form(self):
        assert parse_cache_hostname("r7---fra07t16.c.vcdn.example") == "FRA"

    def test_obfuscated_form_is_opaque(self):
        assert parse_cache_hostname("r7---sn-4g57kued.c.vcdn.example") is None

    def test_empty_string(self):
        assert parse_cache_hostname("") is None

    def test_iata_uppercased(self):
        assert parse_cache_hostname("r12---Mil03t01.example.net") == "MIL"

    def test_requires_domain(self):
        assert parse_cache_hostname("r1---fra01t01") is None

    def test_suffix_may_be_empty(self):
        assert parse_cache_hostname("r1---lhr.cdn.example") == "LHR"


class TestWindowFlows:
    def test_fourteen_days_sliding_weekly(self):
        records = [flow(d * DAY_SECONDS + 7.0) for d in range(14)]
        snaps = windows(records, 7 * DAY_SECONDS, DAY_SECONDS)
        assert len(snaps) == 8
        assert all(s.window_end - s.window_start == 7 * DAY_SECONDS for s in snaps)
        assert [s.index for s in snaps] == list(range(8))

    def test_non_overlapping_tiling(self):
        records = [flow(d * DAY_SECONDS + 7.0) for d in range(14)]
        snaps = windows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)
        assert len(snaps) == 2
        assert snaps[0].window_start == 0.0
        assert snaps[1].window_start == 7 * DAY_SECONDS

    def test_mid_coverage_record_membership(self):
        # Record at day 3.5 with 14 days of coverage belongs to exactly the
        # windows starting on days 0..3 (those containing t=3.5d).
        anchors = [flow(0.5 * DAY_SECONDS, ip="edge"), flow(13.5 * DAY_SECONDS, ip="edge")]
        target = flow(3.5 * DAY_SECONDS, ip="target")
        snaps = windows(anchors + [target], 7 * DAY_SECONDS, DAY_SECONDS)
        holding = [s.index for s in snaps if "target" in s.records]
        assert holding == [0, 1, 2, 3]

    def test_grouping_key_is_server_ip(self):
        records = [flow(10.0, ip="a"), flow(20.0, ip="b"), flow(30.0, ip="a")]
        (snap,) = windows(records, DAY_SECONDS, DAY_SECONDS)
        assert sorted(snap.records) == ["a", "b"]
        assert [r.start_time for r in snap.records["a"]] == [10.0, 30.0]

    def test_empty_records(self):
        assert windows([], DAY_SECONDS, DAY_SECONDS) == []

    def test_window_end_excluded(self):
        # A record exactly at window 0's end belongs to window 1 only.
        records = [flow(0.0), flow(7 * DAY_SECONDS), flow(13.9 * DAY_SECONDS)]
        snaps = windows(records, 7 * DAY_SECONDS, 7 * DAY_SECONDS)
        assert len(snaps) == 2
        assert snaps[0].n_records == 1
        assert snaps[1].n_records == 2

    def test_unsorted_input_equivalent(self):
        records = [flow(d * DAY_SECONDS + i * 1000.0) for d in range(5) for i in range(4)]
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        a = windows(records, 2 * DAY_SECONDS, DAY_SECONDS)
        b = windows(shuffled, 2 * DAY_SECONDS, DAY_SECONDS)
        assert [set(s.records) for s in a] == [set(s.records) for s in b]
        assert [s.n_records for s in a] == [s.n_records for s in b]

    def test_origin_override(self):
        records = [flow(3.5 * DAY_SECONDS), flow(9.5 * DAY_SECONDS)]
        snaps = windows(records, 7 * DAY_SECONDS, DAY_SECONDS, origin=2 * DAY_SECONDS)
        assert snaps[0].window_start == 2 * DAY_SECONDS

    def test_midnight_alignment_with_offset(self):
        t = 5 * DAY_SECONDS + 3600.0
        records = [flow(t)]
        snaps = windows(records, DAY_SECONDS, DAY_SECONDS, utc_offset_hours=2.0)
        assert snaps[0].window_start == midnight_floor(t, 2.0)
        assert midnight_floor(t, 2.0) == 5 * DAY_SECONDS - 2 * 3600.0

    @given(
        times=st.lists(st.floats(0, 40 * DAY_SECONDS, allow_nan=False), min_size=1, max_size=60),
        window_days=st.integers(1, 9),
        step_days=st.integers(1, 9),
    )
    def test_membership_invariant(self, times, window_days, step_days):
        records = [flow(t, ip=f"c{i % 3}") for i, t in enumerate(times)]
        snaps = windows(records, window_days * DAY_SECONDS, step_days * DAY_SECONDS)
        for snap in snaps:
            for flows in snap.records.values():
                for r in flows:
                    assert snap.window_start <= r.start_time < snap.window_end

    @given(k=st.integers(1, 6), day=st.integers(6, 20))
    def test_overlap_count(self, k, day):
        # window = k * step: interior records appear in exactly k snapshots.
        step = DAY_SECONDS
        window = k * step
        records = [flow(0.5 * DAY_SECONDS, ip="edge"), flow(27.5 * DAY_SECONDS, ip="edge")]
        target = flow(day * DAY_SECONDS + 12345.0, ip="target")
        snaps = windows(records + [target], window, step)
        hits = sum(1 for s in snaps if "target" in s.records)
        assert hits == k
