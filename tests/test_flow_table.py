"""The columnar flow table against the per-record code it replaced.

Windows and features are checked against the old bucket loop and per-cache
extractors in ``reference_impls``; the chunked parser is checked against
``reference_impls.reference_parse_line``, the former per-line parser, applied
line by line: its rows, and each rejected line's number and reason.
"""

import contextlib
import dataclasses
import io
import math
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgewatch import ingest
from edgewatch.cli import main
from edgewatch.features import CacheFeatures, extract_cache_features, extract_cache_features_mean_std
from edgewatch.ingest import (
    DAY_SECONDS,
    FLOW_LOG_HEADER,
    FlowLineError,
    FlowTable,
    midnight_floor,
    read_flow_log,
    window_flows,
    write_flow_log,
)

from reference_impls import (
    Flow,
    flow_rows,
    flow_log_text,
    flow_table,
    parse_flow_log,
    reference_cache_features,
    reference_parse_line,
    reference_percentile_vector,
    reference_value_rank,
    reference_window_flows,
    table_columns,
)

BASE = 1_388_534_400.0  # a UTC midnight
PERCENTILES = (20.0, 35.0, 50.0, 65.0, 80.0)


@st.composite
def windowed_traces(draw):
    """Unsorted flows split over 1-3 files, with window/step in whole hours
    and a UTC offset in quarter hours. Many flows sit exactly on, or one ulp
    below, a window edge."""
    window = draw(st.integers(1, 60)) * 3600.0
    step = draw(st.integers(1, 36)) * 3600.0
    offset = draw(st.integers(-48, 56)) * 0.25
    first = BASE + draw(st.integers(0, 86_399))
    t0 = midnight_floor(first, offset)
    edge = st.builds(lambda n, w: t0 + n * step + w * window, st.integers(0, 30), st.integers(0, 1))
    time = st.one_of(
        st.floats(first, first + 3 * DAY_SECONDS),
        edge,
        edge.map(lambda t: float(np.nextafter(t, -math.inf))),
    ).filter(lambda t: t >= first)
    # Bursts of flows of one cache at one time give caches enough samples;
    # magnitudes far apart make the mean depend on summation order.
    burst = st.builds(
        lambda t, cache, rtts, ttl: [Flow(t, "u", cache, "h", rtt, ttl, 1, 2, 3.0) for rtt in rtts],
        time,
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.sampled_from([1.0, 2.5, 1e16]) | st.floats(0, 500), min_size=1, max_size=6),
        st.integers(0, 255),
    )
    records = [Flow(first, "u", "a", "h", 1.0, 64, 1, 2, 3.0)]
    records += [r for flows in draw(st.lists(burst, max_size=20)) for r in flows]
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=2)))
    files = [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]
    return files, window, step, offset, draw(st.integers(1, 6))


def _bytes(features):
    """(cache_id, flow_count, {metric: raw bytes}) per cache of CacheFeatures or reference tuples."""
    if isinstance(features, CacheFeatures):
        rtt, ttl = np.split(features.raw, 2, axis=1)
        counts = features.flow_counts.tolist()
        features = [(c, n, {"rtt": r, "ttl": t}) for c, n, r, t in zip(features.cache_ids, counts, rtt, ttl)]
    return [(c, n, {m: v.tobytes() for m, v in summary.items()}) for c, n, summary in features]


@contextlib.contextmanager
def log_files(*texts):
    """The paths of the texts, each written as a file of a temporary directory."""
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / f"{i}.tsv" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8", newline="")
        yield paths


@given(windowed_traces())
def test_windows_and_features_match_per_record_code(trace):
    files, window, step, offset, min_flow = trace
    records = [r for f in files for r in f]
    with log_files(*(flow_log_text(f) for f in files if f)) as paths:  # a log without flows is refused
        table = read_flow_log(*paths)
    assert flow_rows(table) == records
    whole = table_columns(flow_table(records))  # one chunk
    assert table_columns(table) == whole  # reading the parts as one gives the parse of the whole
    with mock.patch.object(ingest, "CHUNK_BYTES", 64):  # a chunk of a line or two
        assert table_columns(flow_table(records)) == whole
    snaps = window_flows(table, window, step, utc_offset_hours=offset)
    expected = reference_window_flows(records, window, step, offset)
    assert [(s.index, s.window_start, s.window_end) for s in snaps] == [
        (n, start, end) for n, (start, end, _) in enumerate(expected)
    ]
    for snap, (_, _, groups) in zip(snaps, expected):
        assert {c: flow_rows(flows) for c, flows in snap.records.items()} == groups
        assert snap.n_records == sum(map(len, groups.values()))
        # Bit-identical features; the mean/std oracle sees each cache's samples
        # in input order, as np.mean's pairwise sum is order-sensitive.
        assert _bytes(extract_cache_features(snap, min_flow, PERCENTILES)) == _bytes(
            reference_cache_features(groups, min_flow, lambda v: reference_percentile_vector(v, PERCENTILES))
        )
        assert _bytes(extract_cache_features_mean_std(snap, min_flow)) == _bytes(
            reference_cache_features(groups, min_flow, lambda v: np.array([v.mean(), v.std()]))
        )


valid_flows = st.builds(
    Flow,
    st.floats(0, 2e9),
    st.sampled_from(["u1", "u2", "ü3"]),  # a non-ASCII id sends its chunk line by line
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from(["ha", "hb", "r1---ams01.example"]),
    st.floats(0, 500),
    st.integers(0, 255),
    st.integers(0, 2**63 - 1),
    st.integers(0, 10),
    st.floats(0, 1e6),
)


@given(st.data(), st.lists(valid_flows, min_size=1, max_size=30), st.sampled_from([64, ingest.CHUNK_BYTES]))
def test_a_log_cut_into_files_reads_as_the_whole_log(data, records, chunk_bytes):
    # Cut at 0 to 5 drawn line boundaries into 1 to 6 logs, each with the header and at least one flow.
    cuts = sorted(data.draw(st.sets(st.integers(1, len(records)), max_size=5)))
    parts = [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)]) if a < b]
    with mock.patch.object(ingest, "CHUNK_BYTES", chunk_bytes), log_files(flow_log_text(records)) as (whole,), \
            log_files(*map(flow_log_text, parts)) as paths:
        expected = table_columns(read_flow_log(whole))
        with mock.patch.object(ingest, "FlowTable", wraps=FlowTable) as built:
            table = read_flow_log(*paths)
    assert built.call_count == 1  # one table, cut to size once, however many logs
    assert table_columns(table) == expected  # every column, dtype, code and name
    assert flow_rows(table) == records


def uniform_log(rows: int, client: str = "u") -> str:
    """A flow log of ``rows`` lines of one length in bytes."""
    lines = (f"{BASE + k!r}\t{client}{k:05d}\tc{k % 7}\tr1---ams0{k % 3}.example\t12.5\t50\t100\t200\t1000.0\n"
             for k in range(rows))
    return FLOW_LOG_HEADER + "\n" + "".join(lines)


@contextlib.contextmanager
def reserves():
    """The capacities ``_Reader`` grows its columns to, as a list filled while the block runs."""
    with mock.patch.object(ingest._Reader, "_reserve", autospec=True, side_effect=ingest._Reader._reserve) as reserve:
        capacities = []
        yield capacities
    capacities += [call.args[1] for call in reserve.call_args_list]


@pytest.mark.parametrize("client", ["u", "\u00fc"])  # a non-ASCII id takes two bytes a character
def test_a_uniform_log_reserves_its_rows_once(client):
    text = uniform_log(3000, client)
    with mock.patch.object(ingest, "CHUNK_BYTES", 4096), log_files(text) as (path,):
        with reserves() as capacities:
            table = read_flow_log(path)
        with reserves() as grown:  # a stream without a size doubles
            expected = table_columns(parse_flow_log(io.StringIO(text, newline="")))
    # The first chunk's bytes per line count every row; the 1/32 of room on top is cut off once, by table().
    assert len(capacities) == 1 and 3000 <= capacities[0] <= 3000 + 3000 // 32
    assert len(grown) > 1 and all(b == 2 * a for a, b in zip(grown[1:], grown[2:]))
    assert table_columns(table) == expected


def test_a_log_whose_first_lines_are_long_grows_by_doubling():
    head, *lines = uniform_log(3000).splitlines(keepends=True)
    lines[:2] = (line.replace("\tu", "\t" + "u" * 3000, 1) for line in lines[:2])  # a first chunk of two lines
    text = head + "".join(lines)
    with log_files(text) as (path,):
        with mock.patch.object(ingest, "CHUNK_BYTES", 4096), reserves() as capacities:
            table = read_flow_log(path)
        with reserves() as whole:
            expected = table_columns(read_flow_log(path))  # one chunk
    assert len(capacities) > 2 and capacities[0] < 3000 <= capacities[-1]
    assert all(b == 2 * a for a, b in zip(capacities[1:], capacities[2:]))
    assert whole == [3000]  # a log read in one chunk reserves its rows exactly
    assert table_columns(table) == expected


def test_a_first_chunk_of_blank_lines_reserves_at_most_a_row_per_shortest_line():
    text = FLOW_LOG_HEADER + "\n" + "\n" * 5000 + uniform_log(100).partition("\n")[2]
    with mock.patch.object(ingest, "CHUNK_BYTES", 4096), log_files(text) as (path,), reserves() as capacities:
        table = read_flow_log(path)
    rest = len(text.encode()) - len(FLOW_LOG_HEADER) - 1 - 4096  # the bytes after the header and the first chunk
    assert capacities[0] == rest // ingest.MIN_LINE_BYTES  # not a row per blank line
    assert table_columns(table) == table_columns(parse_flow_log(io.StringIO(text, newline="")))


@given(
    st.lists(st.tuples(st.sampled_from([0.0, 1.5, 7.0, 1e-300]), st.integers(0, 3)), min_size=1, max_size=40),
    st.sampled_from(["", "rtt", "ttl"]),
    st.integers(1, 5),
)
def test_int32_ranks_order_rows_as_int64_ranks_do(values, constant, block):
    flows = [Flow(BASE + k, "u", f"c{k % 3}", "h", 2.0 if constant == "rtt" else rtt, 9 if constant == "ttl" else ttl,
                  1, 1, 1.0) for k, (rtt, ttl) in enumerate(values)]
    table = flow_table(flows)
    with mock.patch.object(ingest, "RANK_BLOCK", block):
        rank = table.value_rank
    expected = reference_value_rank(table)
    assert rank.dtype == np.int32 and np.array_equal(rank, expected)
    key = table.server_ip.codes * len(table)  # features' key: int64, whatever the rank's width
    for metric in (0, 1):
        assert (key + rank[metric]).dtype == np.int64
        assert np.array_equal(np.argsort(key + rank[metric]), np.argsort(key + expected[metric]))


VALID_LINES = [
    "\t".join([repr(BASE + day * DAY_SECONDS + 3600.5 * k), f"u{k}", f"c{k % 3}", f"r1---ams0{k}.example",
               repr(10.0 + k), str(50 + k), str(100 * k), str(2000 + k), repr(1e3 * k)])
    for day in range(3)
    for k in range(3)
]
TOKENS = [
    "", "nan", "inf", "-inf", "-1", "-0.0", "0", "255", "256", "1e400", " 7 ", "1_0", "+5", "0x1f",
    "٣", "abc", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "10" * 20, "\x00", " 1.5",
    # Tokens np.loadtxt's converters may read where float() and int() refuse,
    # or read differently: quotes, comments, whitespace float() does not strip
    # (\x1c-\x1f), a character numpy 2.4's integer parser takes for a digit
    # ("1\u01fe" reads as 472), hex, complex and Fortran forms.
    '"7"', "#7", "7\x0b", "7\xa0", " 7", "7\x1c", "\x1f7", "３", "1\u01fe", "1.", ".5", "3.0", "1e",
    "1e-400", "Infinity", "+nan", "nan(1)", "0x1p3", "1.5j", "1.5d0", "  ", "1\r2",
    # Client ids around 64 bytes, and one ending in NUL: a fixed-width bytes field
    # would cut the longer ones and drop the NUL.
    "u" * 63, "u" * 64, "u" * 65, "u\x00",
]
ACTIONS = ["keep", "keep", "replace", "replace", "replace two", "drop", "add", "blank", "space"]


@st.composite
def mutated_logs(draw):
    """A small valid log with one or two of some lines' fields replaced, a field
    dropped or added, blank and whitespace lines, CRLF endings and a missing
    final newline."""
    lines = []
    for line in draw(st.lists(st.sampled_from(VALID_LINES), min_size=1, max_size=14)):
        fields = line.split("\t")
        action = draw(st.sampled_from(ACTIONS))
        i = draw(st.integers(0, len(fields) - 1))
        if action == "replace":
            fields[i] = draw(st.sampled_from(TOKENS))
        elif action == "replace two":  # two faults on a line: the first is named
            j = draw(st.integers(0, len(fields) - 2))
            fields[i], fields[j + (j >= i)] = draw(st.sampled_from(TOKENS)), draw(st.sampled_from(TOKENS))
        elif action == "drop":
            del fields[i]
        elif action == "add":
            fields.insert(i, draw(st.sampled_from(TOKENS)))
        lines.append({"blank": "", "space": " "}.get(action, "\t".join(fields)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return FLOW_LOG_HEADER + newline + newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _line_by_line(text, newline=""):
    """(rows, [(line number, reason)]) of reference_parse_line applied to each data line."""
    records, errors = [], []
    lines = io.StringIO(text, newline=newline)
    next(lines)
    for number, raw in enumerate(lines, start=2):
        if line := raw.rstrip("\r\n"):
            try:
                records.append(reference_parse_line(number, line))
            except FlowLineError as exc:
                errors.append((exc.line_number, exc.reason))
    return records, errors


def _bits(rows):
    """The rows with each float as its bytes, as -0.0 == 0.0."""
    return [tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in row) for row in rows]


def _check_against_line_parser(text, newline=""):
    expected_records, expected_errors = _line_by_line(text, newline)
    errors: list[FlowLineError] = []
    table = parse_flow_log(io.StringIO(text, newline=newline), errors=errors)
    assert _bits(flow_rows(table)) == _bits(expected_records)
    assert [(e.line_number, e.reason) for e in errors] == expected_errors
    if expected_errors:
        with pytest.raises(FlowLineError) as exc:
            parse_flow_log(io.StringIO(text, newline=newline))
        assert (exc.value.line_number, exc.value.reason) == expected_errors[0]
    return expected_errors


@pytest.mark.parametrize("field", range(len(VALID_LINES[0].split("\t"))))
def test_every_token_in_every_field_matches_line_parser(field):
    for token in TOKENS:
        fields = VALID_LINES[4].split("\t")
        fields[field] = token
        text = "\n".join([FLOW_LOG_HEADER, VALID_LINES[0], "\t".join(fields), ""])
        # "" splits lines at \r as read_flow_log does; "\n" leaves a \r inside its line.
        for newline in ("", "\n"):
            _check_against_line_parser(text, newline)


# Halfway and overflow/underflow boundary cases of correct rounding.
ROUNDING_CASES = [
    "9007199254740993", "9007199254740995", "-9007199254740993", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "0.1", "-0",
]
decimals = st.one_of(
    st.builds(
        lambda sign, digits, point, exponent:
            sign + (digits if point is None else f"{digits[:point]}.{digits[point:]}") + exponent,
        st.sampled_from(["", "-", "+"]),
        st.text("0123456789", min_size=1, max_size=40),
        st.none() | st.integers(0, 40),
        st.just("") | st.integers(-400, 400).map(lambda e: f"e{e}"),
    ),
    st.floats().map(repr),
    st.sampled_from(ROUNDING_CASES),
)


@given(st.lists(st.tuples(decimals, decimals, decimals), min_size=1, max_size=8))
def test_float_fields_convert_bit_for_bit_like_float(values):
    lines = []
    for start, rtt, throughput in values:
        fields = VALID_LINES[0].split("\t")
        fields[0], fields[4], fields[8] = start, rtt, throughput
        lines.append("\t".join(fields))
    _check_against_line_parser("\n".join([FLOW_LOG_HEADER, *lines, ""]))


@pytest.mark.parametrize("changes,reason", [
    ({2: "", 5: str(2**70)}, "empty server_ip"),
    ({6: str(-2**70)}, "negative byte count"),
    ({6: str(2**64), 7: "-1"}, "negative byte count"),
    ({7: str(2**64), 8: "nan"}, "byte count above 2**63 - 1"),
    ({0: "Infinity"}, "non-finite start_time: Infinity"),
])
def test_first_fault_of_a_line_is_named_on_both_paths(changes, reason):
    fields = VALID_LINES[4].split("\t")
    for field, token in changes.items():
        fields[field] = token
    # The first log is ASCII; a non-ASCII client_id sends the second one line by line.
    for first in (VALID_LINES[0], VALID_LINES[0].replace("\tu0\t", "\tü0\t")):
        assert _check_against_line_parser("\n".join([FLOW_LOG_HEADER, first, "\t".join(fields), ""])) == [(3, reason)]


def test_chunk_of_blank_lines_parses_and_runs_silently(tmp_path):
    text = "\n".join([FLOW_LOG_HEADER, *VALID_LINES[:3], *[""] * 200, *VALID_LINES[3:], ""])
    path = tmp_path / "trace.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    argv = ["timeline", "--input", str(path), "--window-days", "1", "--min-flow", "1",
            "--out-dir", str(tmp_path / "out")]
    err = io.StringIO()
    with warnings.catch_warnings(), mock.patch.object(ingest, "CHUNK_BYTES", 64):
        warnings.simplefilter("error")
        assert _check_against_line_parser(text) == []
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert err.getvalue() == ""


@given(mutated_logs(), st.sampled_from([64, 512, ingest.CHUNK_BYTES]))
def test_chunked_parser_matches_line_parser(text, chunk_bytes):
    with mock.patch.object(ingest, "CHUNK_BYTES", chunk_bytes):
        expected_errors = _check_against_line_parser(text)
        chunked = table_columns(parse_flow_log(io.StringIO(text, newline=""), errors=[]))
    # Names come only from kept rows: chunk boundaries change no column, codes and names included.
    assert chunked == table_columns(parse_flow_log(io.StringIO(text, newline=""), errors=[]))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "trace.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        argv = ["timeline", "--input", str(path), "--window-days", "1", "--min-flow", "1",
                "--out-dir", str(Path(root) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 0 or not expected_errors


class TestFlowTable:
    RECORDS = [
        Flow(5.0, "u1", "b", "hb", 1.5, 10, 1, 2, 3.0),
        Flow(1.0, "u2", "a", "ha", 2.5, 20, 3, 4, 5.0),
        Flow(5.0, "u1", "a", "ha", 0.5, 30, 5, 6, 7.0),
    ]

    def test_rows_round_trip(self):
        table = flow_table(self.RECORDS)
        assert len(table) == 3
        assert flow_rows(table) == self.RECORDS
        assert flow_rows(table[1:]) == self.RECORDS[1:]
        assert flow_rows(table[np.array([True, False, True])]) == [self.RECORDS[0], self.RECORDS[2]]
        assert flow_rows(table[np.array([2, 0])]) == [self.RECORDS[2], self.RECORDS[0]]

    def test_string_columns_are_dictionary_encoded(self):
        table = flow_table(self.RECORDS)
        assert table.server_ip.names.tolist() == ["b", "a"]
        assert table.server_ip.codes.tolist() == [0, 1, 1]
        assert table.ttl.dtype == np.int64 and table.min_rtt.dtype == np.float64

    def test_client_id_is_a_str_column_on_every_parse_path(self):
        # client_id is carried as read, never encoded, whichever way its chunk was converted.
        def client_ids(table):
            column = table.client_id
            assert type(column) is np.ndarray and column.shape == (len(table),)
            assert column.dtype == np.dtypes.StringDType()
            assert {type(v) for v in column.tolist()} <= {str}
            return column.tolist()

        def parse(lines, errors=None):
            text = "".join([FLOW_LOG_HEADER + "\n", *(line + "\n" for line in lines)])
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
                table = parse_flow_log(io.StringIO(text), errors=errors)
            return table, loadtxt.call_count

        line = "5.0\t{}\tb\t{}\t1.5\t10\t1\t2\t3.0"
        plain = [line.format(f"u{i}", "hb") for i in range(3)]
        table, calls = parse(plain)
        assert calls == 1 and client_ids(table) == ["u0", "u1", "u2"]
        # A long id is read whole by the one np.loadtxt call.
        for long in ("v" * 64, "w" * 65):
            table, calls = parse([*plain, line.format(long, "hb")])
            assert calls == 1 and client_ids(table) == ["u0", "u1", "u2", long]
        # A non-ASCII hostname sends the whole chunk line by line.
        table, calls = parse([*plain, line.format("ü9", "hé")])
        assert calls == 0 and client_ids(table) == ["u0", "u1", "u2", "ü9"]
        # A wrong field count fails np.loadtxt; a ttl out of range is rejected by the column checks.
        for bad in ("5.0\tu8\tb", line.format("u8", "hb").replace("\t10\t", "\t300\t")):
            errors = []
            table, calls = parse([plain[0], bad, plain[2]], errors)
            assert calls == 1 and len(errors) == 1 and client_ids(table) == ["u0", "u2"]
        with log_files(flow_log_text(flow_rows(table)), flow_log_text(self.RECORDS)) as paths:
            both = read_flow_log(*paths)
        assert client_ids(both) == ["u0", "u2", "u1", "u2", "u1"]
        assert client_ids(both[np.array([False, True, True, False, True])]) == ["u2", "u1", "u1"]
        assert client_ids(both[1:1]) == []

    def test_a_parsed_table_joined_with_a_built_one_writes_back_every_client_id(self):
        parsed = flow_table(self.RECORDS)
        built = flow_table([Flow(7.0, "u9", "c", "hc", 0.5, 40, 7, 8, 9.0)])
        built = dataclasses.replace(built, client_id=np.array(built.client_id.tolist(), dtype=object))
        logs = []
        for table in (parsed, built):
            written = io.StringIO()
            write_flow_log(written, table)
            assert flow_rows(parse_flow_log(io.StringIO(written.getvalue()))) == flow_rows(table)
            logs.append(written.getvalue())
        with log_files(*logs) as paths:  # the two written logs read as one
            assert flow_rows(read_flow_log(*paths)) == flow_rows(parsed) + flow_rows(built)

    def test_an_ascii_log_takes_one_loadtxt_call_per_chunk_and_never_the_per_line_path(self):
        text = "".join([FLOW_LOG_HEADER + "\n", *(line + "\n" for line in VALID_LINES * 4)])
        with mock.patch.object(ingest, "CHUNK_BYTES", 256), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(ingest, "_parse_chunk", wraps=ingest._parse_chunk) as chunks, \
                mock.patch.object(ingest, "_split_lines", wraps=ingest._split_lines) as split_lines:
            parse_flow_log(io.StringIO(text))
        assert chunks.call_count > 1 and loadtxt.call_count == chunks.call_count and not split_lines.called

    def test_concat_merges_dictionaries(self):
        with log_files(flow_log_text(self.RECORDS[:2]), flow_log_text(self.RECORDS[2:])) as paths:
            table = read_flow_log(*paths)
        assert flow_rows(table) == self.RECORDS
        assert table.server_ip.names.tolist() == ["b", "a"]

    def test_names_are_numbered_as_they_first_come_in_the_kept_rows_across_chunks(self):
        # Chunks of a line or two: names first come in later chunks, and one
        # server and one hostname come only on a rejected line (ttl 300).
        line = "5.0\tu1\t{}\t{}\t1.5\t{}\t1\t2\t3.0\n"
        rows = [(f"s{i * 7 % 5}", f"h{i * 3 % 7}", 10) for i in range(40)]
        rows[17] = ("s-rejected", "h-rejected", 300)
        rows[31] = ("s-late", "h-late", 10)
        text = FLOW_LOG_HEADER + "\n" + "".join(line.format(*row) for row in rows)
        errors = []
        with mock.patch.object(ingest, "CHUNK_BYTES", 64), \
                mock.patch.object(ingest, "_parse_chunk", wraps=ingest._parse_chunk) as chunks:
            table = parse_flow_log(io.StringIO(text), errors)
        kept = [row for row in rows if row[2] == 10]
        assert chunks.call_count > 10 and [e.line_number for e in errors] == [19] and len(table) == len(kept)
        for column, values in ((table.server_ip, [r[0] for r in kept]), (table.hostname, [r[1] for r in kept])):
            names = list(dict.fromkeys(values))  # first-come order
            assert column.names.tolist() == names
            assert column.codes.dtype == np.int64 and column.codes.tolist() == list(map(names.index, values))

    def test_time_order_is_stable(self):
        table = flow_table(self.RECORDS)
        assert table.time_order.tolist() == [1, 0, 2]

    def test_empty(self):
        table = flow_table([])
        assert len(table) == 0 and flow_rows(table) == []
        assert window_flows(table, DAY_SECONDS, DAY_SECONDS) == []
