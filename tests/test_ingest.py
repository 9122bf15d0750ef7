import dataclasses
import inspect
import io
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import edgewatch
from edgewatch.ingest import (
    DAY_SECONDS,
    FLOW_LOG_HEADER,
    FlowLineError,
    Codes,
    FlowLogFormatError,
    FlowTable,
    midnight_floor,
    parse_cache_hostname,
    parse_flow_log,
    window_flows,
    write_csv,
    write_flow_log,
)

from reference_impls import Flow, flow_rows, flow_table, reference_write_flow_log, transient_bytes

SAMPLE_LINE = (
    "1391212800.5\tC1\t10.0.0.1\tr7---fra07t16.c.vcdn.example\t15.2\t54\t1200\t8000000\t1350.0"
)


def make_log(*lines):
    return io.StringIO("\n".join((FLOW_LOG_HEADER,) + lines) + "\n")


def flow(t, ip="c1", rtt=1.0, ttl=10, thr=100.0, host="r1---abc00t00.c.vcdn.example"):
    return Flow(t, "u0", ip, host, rtt, ttl, 10, 100, thr)


def windows(records, *args, **kwargs):
    return window_flows(flow_table(records), *args, **kwargs)


class TestParseFlowLog:
    def test_single_line_field_mapping(self):
        (rec,) = flow_rows(parse_flow_log(make_log(SAMPLE_LINE)))
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
        records = parse_flow_log(make_log(SAMPLE_LINE, bad, SAMPLE_LINE), errors=errors)
        assert len(records) == 2
        assert len(errors) == 1
        assert errors[0].line_number == 3
        assert "8" in errors[0].reason

    def test_malformed_line_aborts_without_collector(self):
        with pytest.raises(FlowLineError):
            parse_flow_log(make_log("not\ta\tflow"))

    def test_byte_counts_beyond_int64_rejected(self):
        parts = SAMPLE_LINE.split("\t")
        for field in (6, 7):
            parts[field] = str(2**63)
            errors: list[FlowLineError] = []
            assert len(parse_flow_log(make_log("\t".join(parts)), errors=errors)) == 0
            assert [(e.line_number, e.reason) for e in errors] == [(2, "byte count above 2**63 - 1")]
            parts[field] = str(2**63 - 1)
            (rec,) = flow_rows(parse_flow_log(make_log("\t".join(parts))))
            assert getattr(rec, ("bytes_up", "bytes_down")[field - 6]) == 2**63 - 1

    def test_empty_file_with_header(self):
        assert len(parse_flow_log(make_log())) == 0

    def test_header_mismatch_is_fatal(self):
        stream = io.StringIO("time\tstuff\n" + SAMPLE_LINE + "\n")
        with pytest.raises(FlowLogFormatError):
            parse_flow_log(stream)

    def test_empty_stream_is_fatal(self):
        with pytest.raises(FlowLogFormatError):
            parse_flow_log(io.StringIO(""))

    @pytest.mark.parametrize(
        "field,value",
        [(4, "-1.0"), (5, "256"), (5, "-1"), (6, "-5"), (8, "-2.0"), (2, ""), (4, "nan")],
    )
    def test_invalid_field_values(self, field, value):
        parts = SAMPLE_LINE.split("\t")
        parts[field] = value
        errors: list[FlowLineError] = []
        assert len(parse_flow_log(make_log("\t".join(parts)), errors=errors)) == 0
        assert len(errors) == 1


safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=20,
)

record_strategy = st.builds(
    Flow,
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
    write_flow_log(buf, flow_table(records))
    buf.seek(0)
    assert flow_rows(parse_flow_log(buf)) == records


def test_format_rejects_embedded_tabs():
    table = flow_table([flow(0.0), flow(1.0)])
    bad_server = Codes(table.server_ip.codes, np.array(["a\tb"], dtype=object))
    with pytest.raises(ValueError, match=re.escape(repr("a\tb"))):
        write_flow_log(io.StringIO(), dataclasses.replace(table, server_ip=bad_server))
    for bad in ("a\tb", "a\nb", "a\rb", "\r"):
        clients = np.array(["u0", bad], dtype=object)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_flow_log(io.StringIO(), dataclasses.replace(table, client_id=clients))


# Per field of a drawn table: the values it draws from, then the values the parser rejects.
_NON_NEGATIVE = st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16]) | st.floats(0, allow_infinity=False)
_TABLE_VALUES = {
    "start_time": (_NON_NEGATIVE | st.floats(allow_nan=False, allow_infinity=False), [math.nan, math.inf, -math.inf]),
    "client_id": (safe_text, ["a\tb", "\r"]),
    "server_ip": (safe_text.filter(bool), ["", "a\nb"]),
    "hostname": (safe_text, ["\t"]),
    "min_rtt": (_NON_NEGATIVE, [math.nan, math.inf, -1.0, -5e-324]),
    "ttl": (st.integers(0, 255), [-1, 256, 300]),
    "bytes_up": (st.integers(0, 2**63 - 1), [-1, -(2**63)]),
    "bytes_down": (st.integers(0, 2**63 - 1), [-1]),
    "avg_throughput": (_NON_NEGATIVE, [math.nan, -math.inf, -2.0]),
}


@st.composite
def drawn_tables(draw, faulty=False):
    """Tables of 0, 1, 1023, 1024, 1025 or up to 40 rows, each field's rows drawn from a pool of 1-4 values;
    with ``faulty``, a pool may hold values the parser rejects or that TSV cannot hold."""
    n = draw(st.sampled_from([0, 1, 1023, 1024, 1025]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for f in dataclasses.fields(FlowTable):
        good, bad = _TABLE_VALUES[f.name]
        pool = draw(st.lists(good | st.sampled_from(bad) if faulty else good, min_size=1, max_size=4, unique=True))
        rows = rng.integers(0, len(pool), n)
        if f.name in ("server_ip", "hostname"):
            columns.append(Codes(rows, np.array(pool, dtype=object)))
        else:
            columns.append(np.array(pool, dtype=object if f.name == "client_id" else type(pool[0]))[rows])
    return FlowTable(*columns)


def _values(table):
    """Each column's dtype and bytes, or a string column's values row by row."""
    columns = (getattr(table, f.name) for f in dataclasses.fields(FlowTable))
    return [c.decode() if isinstance(c, Codes) else c.tolist() if c.dtype == object else (c.dtype, c.tobytes())
            for c in columns]


@given(drawn_tables())
def test_writer_equals_the_format_oracle(table):
    got, want = io.StringIO(), io.StringIO()
    write_flow_log(got, table)
    reference_write_flow_log(want, table)
    assert got.getvalue() == want.getvalue()


@given(drawn_tables(faulty=True))
def test_written_table_reads_back_or_is_refused(table):
    # The writer refuses exactly the tables whose text the former writer wrote but the parser rejects, and
    # names the parser's first bad line as a row; any other table reads back as it was, bit for bit.
    buf = io.StringIO()
    try:
        write_flow_log(buf, table)
    except ValueError as exc:
        assert buf.getvalue() == ""
        text = io.StringIO()
        try:
            reference_write_flow_log(text, table)
        except ValueError as reference_exc:  # a field that TSV cannot hold
            assert str(exc) == str(reference_exc)
            return
        with pytest.raises(FlowLineError) as parse_error:
            parse_flow_log(io.StringIO(text.getvalue(), newline=""))
        assert str(exc) == f"row {parse_error.value.line_number - 2}: {parse_error.value.reason}"
    else:
        assert _values(parse_flow_log(io.StringIO(buf.getvalue(), newline=""))) == _values(table)


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("min_rtt", math.nan, "min_rtt out of range: nan"),
        ("ttl", 300, "ttl out of range: 300"),
        ("start_time", math.inf, "non-finite start_time: inf"),
        ("bytes_up", -1, "negative byte count"),
        ("server_ip", "", "empty server_ip"),
    ],
)
def test_writer_refuses_a_row_the_parser_rejects(tmp_path, field, value, reason):
    table = flow_table([flow(0.0), flow(1.0, ip="c2"), flow(2.0)])
    if field == "server_ip":
        column = Codes(table.server_ip.codes, np.array(["c1", value], dtype=object))
    else:
        column = getattr(table, field).copy()
        column[1] = value
    target = tmp_path / "out.tsv"
    with pytest.raises(ValueError, match=f"^{re.escape(f'row 1: {reason}')}$"):
        write_flow_log(target, dataclasses.replace(table, **{field: column}))
    assert not target.exists()


def test_empty_table_writes_the_header_only():
    buf = io.StringIO()
    write_flow_log(buf, flow_table([]))
    assert buf.getvalue() == FLOW_LOG_HEADER + "\n"


def test_writer_memory_does_not_grow_with_the_table():
    # The text is made 1,024 rows at a time; what the whole table costs is a few bytes a row of range-check
    # masks and the client-id check's list and text. The text of the 24,576 added rows alone is 1.5 MiB.
    base = flow_table([flow(i * 0.5, ip=f"c{i % 7}", rtt=i + 0.1, thr=i * 1e3) for i in range(64)])
    transient = [transient_bytes(write_flow_log, os.devnull, base[np.arange(n) % 64])[1] for n in (8192, 32768)]
    assert transient[1] - transient[0] < 2**20, transient


def test_write_csv_is_the_only_csv_writer():
    # One dialect for every CSV output: a second csv.writer would restate it.
    package = Path(edgewatch.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    counts = {name: text.count("csv.writer(") for name, text in sources.items()}
    assert {name: n for name, n in counts.items() if n} == {"ingest.py": 1}
    assert inspect.getsource(write_csv).count("csv.writer(") == 1
    assert [name for name, text in sources.items() if "import csv" in text] == ["ingest.py"]


def test_write_csv_quotes_minimally_with_lf_endings():
    buf = io.StringIO()
    write_csv(buf, ["a", "b"], iter([[1, "x,y"], ["", 'q"']]))
    assert buf.getvalue() == 'a,b\n1,"x,y"\n,"q"""\n'


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
        assert snap.records["a"].start_time.tolist() == [10.0, 30.0]

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
                for t in flows.start_time.tolist():
                    assert snap.window_start <= t < snap.window_end

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
