import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from edgewatch.dbscan import DEFAULT_MIN_PTS
from edgewatch.errors import ConfigError
from edgewatch.features import percentile_vector
from edgewatch.ingest import DAY_SECONDS, parse_cache_hostname, write_flow_log
from edgewatch.pipeline import rank_matrix, write_rank_csv
from edgewatch.synth import (
    DEFAULT_START_EPOCH,
    EVENT_KINDS,
    MAX_CACHES,
    EdgeNodeSpec,
    EventSpec,
    SynthConfig,
    _client_ids,
    _node_day,
    cache_identity,
    generate_trace,
    load_synth_config,
)

from reference_impls import (
    Flow,
    _congestion_factor,
    _node_active,
    _rtt_shift,
    flow_rows,
    flow_table,
    parse_flow_log,
    reference_generate_trace,
    table_columns,
    transient_bytes,
)


def small_config(events=(), days=6, churn=0.2, seed=5, flows=3000):
    nodes = (
        EdgeNodeSpec("MIL", 6, 15.0, 1.5, 52, 1.0),
        EdgeNodeSpec("AMS", 6, 45.0, 1.5, 58, 1.0),
        EdgeNodeSpec("FRA", 6, 95.0, 2.0, 64, 1.0),
    )
    return SynthConfig(
        nodes=nodes, events=tuple(events), days=days, flows_per_day=flows,
        rank_churn=churn, seed=seed,
    )


class TestSpecValidation:
    def test_label_shape(self):
        with pytest.raises(ConfigError):
            EdgeNodeSpec("FRAN", 6, 10.0, 1.0, 50, 1.0)
        with pytest.raises(ConfigError):
            EdgeNodeSpec("F1A", 6, 10.0, 1.0, 50, 1.0)

    def test_cache_count_floor(self):
        with pytest.raises(ConfigError):
            EdgeNodeSpec("FRA", 4, 10.0, 1.0, 50, 1.0)

    def test_positive_median_and_weight(self):
        with pytest.raises(ConfigError):
            EdgeNodeSpec("FRA", 6, 0.0, 1.0, 50, 1.0)
        with pytest.raises(ConfigError):
            EdgeNodeSpec("FRA", 6, 10.0, 1.0, 50, -0.5)

    def test_ttl_range(self):
        with pytest.raises(ConfigError):
            EdgeNodeSpec("FRA", 6, 10.0, 1.0, 300, 1.0)

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            EventSpec("explosion", "FRA", 0, 1)
        with pytest.raises(ConfigError):
            EventSpec("node_death", "FRA", 5, 2)
        with pytest.raises(ConfigError):
            EventSpec("path_shift", "FRA", 0, 1, magnitude=0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(days=0)
        with pytest.raises(ConfigError):
            small_config(churn=1.5)
        with pytest.raises(ConfigError):
            small_config(events=[EventSpec("node_death", "ZZZ", 0, 1)])

    def test_cache_count_cap(self):
        # The cap counts caches over all nodes; exactly MAX_CACHES is allowed.
        halves = [EdgeNodeSpec(label, MAX_CACHES // 2, 10.0, 1.0, 50, 1.0) for label in ("MIL", "FRA")]
        assert SynthConfig(nodes=tuple(halves)).nodes == tuple(halves)
        with pytest.raises(ConfigError, match=f"more than {MAX_CACHES} caches"):
            SynthConfig(nodes=(*halves, EdgeNodeSpec("AMS", 5, 10.0, 1.0, 50, 1.0)))


class TestGenerateTrace:
    def test_deterministic_and_byte_identical(self):
        config = small_config()
        records_a, gt_a = generate_trace(config)
        records_b, gt_b = generate_trace(config)
        assert flow_rows(records_a) == flow_rows(records_b)
        assert gt_a == gt_b
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_flow_log(buf_a, records_a)
        write_flow_log(buf_b, records_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        # And the TSV round-trips.
        buf_a.seek(0)
        assert flow_rows(parse_flow_log(buf_a)) == flow_rows(records_a)

    def test_label_fidelity(self):
        records, gt = generate_trace(small_config())
        for r in flow_rows(records[:2000]):
            assert parse_cache_hostname(r.hostname) == gt.labels[r.server_ip]

    def test_field_invariants(self):
        records = flow_rows(generate_trace(small_config(days=2))[0])
        ttls = {r.server_ip: r.ttl for r in records}
        for r in records:
            assert r.min_rtt >= 0.1
            assert r.ttl == ttls[r.server_ip]  # constant per cache
            assert r.bytes_up >= 0 and r.bytes_down >= 0
            assert r.avg_throughput > 0
            assert DEFAULT_START_EPOCH <= r.start_time < DEFAULT_START_EPOCH + 2 * DAY_SECONDS

    def test_node_death_cuts_flows(self):
        death = EventSpec("node_death", "AMS", start_day=3, end_day=5)
        records, _ = generate_trace(small_config(events=[death]))
        for r in flow_rows(records):
            if parse_cache_hostname(r.hostname) == "AMS":
                day = (r.start_time - DEFAULT_START_EPOCH) // DAY_SECONDS
                assert day < 3

    def test_node_birth_window(self):
        birth = EventSpec("node_birth", "FRA", start_day=2, end_day=4)
        records, _ = generate_trace(small_config(events=[birth]))
        fra_days = {
            int((r.start_time - DEFAULT_START_EPOCH) // DAY_SECONDS)
            for r in flow_rows(records)
            if parse_cache_hostname(r.hostname) == "FRA"
        }
        assert fra_days == {2, 3, 4}

    def test_path_shift_moves_median(self):
        shift = EventSpec("path_shift", "AMS", start_day=3, end_day=5, magnitude=80.0)
        records = flow_rows(generate_trace(small_config(events=[shift]))[0])
        before = [r.min_rtt for r in records
                  if parse_cache_hostname(r.hostname) == "AMS"
                  and (r.start_time - DEFAULT_START_EPOCH) < 3 * DAY_SECONDS]
        during = [r.min_rtt for r in records
                  if parse_cache_hostname(r.hostname) == "AMS"
                  and (r.start_time - DEFAULT_START_EPOCH) >= 3 * DAY_SECONDS]
        median_shift = percentile_vector(during, (50,))[0] - percentile_vector(before, (50,))[0]
        assert median_shift == pytest.approx(80.0, abs=2.0)

    def test_congestion_degrades_throughput_and_widens_rtt(self):
        congestion = EventSpec("congestion", "FRA", start_day=3, end_day=5, magnitude=4.0)
        base_records, _ = generate_trace(small_config())
        records, _ = generate_trace(small_config(events=[congestion]))

        def fra_day(rs, day_lo, day_hi, attr):
            return [
                getattr(r, attr)
                for r in flow_rows(rs)
                if parse_cache_hostname(r.hostname) == "FRA"
                and day_lo * DAY_SECONDS <= (r.start_time - DEFAULT_START_EPOCH) < day_hi * DAY_SECONDS
            ]

        thr_before = np.median(fra_day(records, 0, 3, "avg_throughput"))
        thr_during = np.median(fra_day(records, 3, 6, "avg_throughput"))
        assert thr_before / thr_during == pytest.approx(4.0, rel=0.15)
        spread_base = np.std(fra_day(base_records, 3, 6, "min_rtt"))
        spread_cong = np.std(fra_day(records, 3, 6, "min_rtt"))
        assert spread_cong > 2.0 * spread_base

    def test_event_isolation_outside_window(self):
        # A path shift on FRA must leave other labels' samples untouched, and
        # FRA itself untouched outside the event interval.
        shift = EventSpec("path_shift", "FRA", start_day=2, end_day=3, magnitude=50.0)
        plain, _ = generate_trace(small_config())
        shifted, _ = generate_trace(small_config(events=[shift]))

        def daily_percentiles(records, label, day):
            rtts = [
                r.min_rtt
                for r in flow_rows(records)
                if parse_cache_hostname(r.hostname) == label
                and day * DAY_SECONDS <= (r.start_time - DEFAULT_START_EPOCH) < (day + 1) * DAY_SECONDS
            ]
            return percentile_vector(rtts, (20, 35, 50, 65, 80))

        for day in range(6):
            a = daily_percentiles(plain, "AMS", day)
            b = daily_percentiles(shifted, "AMS", day)
            assert np.max(np.abs(a - b) / a) <= 0.01
        for day in (0, 1, 4, 5):
            a = daily_percentiles(plain, "FRA", day)
            b = daily_percentiles(shifted, "FRA", day)
            assert np.max(np.abs(a - b) / a) <= 0.01

    def test_ground_truth_covers_emitters_only(self):
        birth = EventSpec("node_birth", "FRA", start_day=99, end_day=99)
        records, gt = generate_trace(small_config(events=[birth]))
        assert set(records.server_ip.decode()) == set(gt.labels)
        assert "FRA" not in gt.labels.values()

    def test_cache_identities_unique_across_same_label_nodes(self):
        spec_a = EdgeNodeSpec("AMS", 6, 40.0, 1.0, 50, 1.0)
        spec_b = EdgeNodeSpec("AMS", 6, 60.0, 1.0, 55, 1.0)
        ids_a = {cache_identity(0, spec_a, j) for j in range(6)}
        ids_b = {cache_identity(1, spec_b, j) for j in range(6)}
        assert not (ids_a & ids_b)


def event_specs(targets, days):
    """Events of any kind on the targets, over any range of the days, with any positive magnitude; sums and
    products of 0.1, 0.2 and 0.3 differ with their order."""
    return st.builds(
        lambda kind, target, a, b, magnitude: EventSpec(kind, target, min(a, b), max(a, b), magnitude),
        st.sampled_from(EVENT_KINDS), st.sampled_from(targets), days, days,
        st.sampled_from([0.1, 0.2, 0.3]) | st.floats(0.1, 8.0),
    )


@st.composite
def synth_configs(draw):
    """Small traces: 1-4 nodes (some sharing a label, some of zero weight), any events, and few flows per
    day, so that many buckets are empty and some days have no active node."""
    days = draw(st.integers(1, 6))
    node = st.builds(
        EdgeNodeSpec,
        label=st.sampled_from(["MIL", "AMS", "FRA"]),
        cache_count=st.integers(DEFAULT_MIN_PTS, 9),
        rtt_median=st.floats(0.5, 300.0),
        rtt_spread=st.sampled_from([0.0, 1.5]) | st.floats(0.0, 5.0),  # sigma up to 80: exp stays finite
        ttl_value=st.integers(0, 255),
        load_weight=st.sampled_from([0.0, 0.5, 1.0, 4.0]),
    )
    nodes = tuple(draw(st.lists(node, min_size=1, max_size=4)))
    events = st.lists(event_specs([n.label for n in nodes], st.integers(0, days)), max_size=4)
    try:
        return SynthConfig(
            nodes=nodes, events=tuple(draw(events)), days=days,
            flows_per_day=draw(st.sampled_from([1, 2, 7]) | st.integers(1, 400)),
            rank_churn=draw(st.sampled_from([0.0, 0.2]) | st.floats(0.0, 1.0)),
            seed=draw(st.integers(0, 2**32)),
        )
    except ConfigError:  # no node with a positive weight is ever active
        assume(False)


@given(synth_configs())
def test_generate_trace_equals_the_per_bucket_oracle(config):
    table, gt = generate_trace(config)
    want_table, want_gt = reference_generate_trace(config)
    assert table_columns(table) == table_columns(want_table)
    assert list(gt.labels.items()) == list(want_gt.labels.items())


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025])
def test_client_ids_equal_the_format(size):
    # Each digit's extremes, cycled across the 1,024-row block edges; the oracle's random draws rarely reach them.
    numbers = np.resize(np.array([0, 9, 10, 99_999, 100_000, 999_999, 123_456], dtype=np.int64), size)
    ids = _client_ids(numbers)
    assert ids.dtype == object and ids.tolist() == list(map("u%06d".__mod__, numbers))


@given(st.lists(event_specs(["MIL", "AMS"], st.integers(0, 4)), max_size=12), st.sampled_from(["MIL", "AMS"]),
       st.integers(0, 4))
@example([EventSpec(kind, "MIL", 0, 4, m) for kind in ("path_shift", "congestion") for m in (0.1, 0.2, 0.3)], "MIL", 1)
def test_node_day_equals_the_per_kind_oracle(events, label, day):
    # Overlapping shifts and congestions must add and multiply in event order: floats compare bit for bit.
    active, shift, congestion = _node_day(label, day, events)
    assert active == _node_active(EdgeNodeSpec(label, DEFAULT_MIN_PTS, 10.0, 1.0, 50, 1.0), day, events)
    assert shift.hex() == float(_rtt_shift(label, day, events)).hex()
    assert congestion.hex() == _congestion_factor(label, day, events).hex()


def test_generator_memory_does_not_grow_with_the_days():
    # Draws and arithmetic run per (day, node). Twice the days adds 80,000 rows, and a float64 temporary
    # over the whole trace would add 0.6 MiB to the transient peak; the client numbers, 8 bytes a row
    # until they become the client ids, are the only whole-trace column beside the result.
    config = small_config(days=4, flows=20_000)
    transient = [transient_bytes(generate_trace, replace(config, days=days))[1] for days in (4, 8)]
    assert transient[1] - transient[0] < 2**20, transient


def test_generator_peaks_little_above_its_result():
    # The benchmark's wide-daily shape: 2,400 caches, 36,000 flows over 2 days. Beyond the result, the peak
    # holds the client numbers (8 bytes a row), the client-id blocks and the cache names' temporaries, about
    # 380 kB in all. A day's stream seeds take 32 bytes a cache and 64 a node, and the cache keys 16 bytes a
    # cache: kept until the client ids are built, the last day's would add about 150 kB.
    nodes = tuple(EdgeNodeSpec("MIL", 8, 10.0 + i, 1.5, 50, 1.0) for i in range(300))
    config = SynthConfig(nodes=nodes, days=2, flows_per_day=18_000, rank_churn=0.0, seed=3)
    (table, _), transient = transient_bytes(generate_trace, config)
    assert transient - 8 * len(table) < 448_000, transient


class TestRankMatrix:
    def test_single_cache_always_rank_one(self):
        records, _ = generate_trace(
            SynthConfig(nodes=(EdgeNodeSpec("MIL", 5, 10.0, 1.0, 50, 1.0),), days=3,
                        flows_per_day=400, rank_churn=0.0, seed=1)
        )
        matrix = rank_matrix(records)
        assert matrix.ranks.shape[1] == 3
        top_per_day = (matrix.ranks == 1).sum(axis=0)
        assert (top_per_day == 1).all()

    def test_swapped_volumes_swap_ranks(self):
        def mk(day, ip, count):
            return [
                Flow(day * DAY_SECONDS + i, "u", ip, "h.example", 1.0, 10, 0, 0, 1.0)
                for i in range(count)
            ]

        records = mk(0, "a", 10) + mk(0, "b", 5) + mk(1, "a", 5) + mk(1, "b", 10)
        matrix = rank_matrix(flow_table(records))
        row = {c: i for i, c in enumerate(matrix.cache_ids)}
        assert matrix.ranks[row["a"], 0] == 1 and matrix.ranks[row["b"], 0] == 2
        assert matrix.ranks[row["a"], 1] == 2 and matrix.ranks[row["b"], 1] == 1

    def test_high_churn_top_cache_varies(self):
        records, _ = generate_trace(small_config(churn=0.9, days=8, flows=4000))
        matrix = rank_matrix(records)
        top_cache_per_day = [
            matrix.cache_ids[int(np.flatnonzero(matrix.ranks[:, d] == 1)[0])]
            for d in range(matrix.ranks.shape[1])
        ]
        assert len(set(top_cache_per_day)) > 1

    def test_ties_break_by_cache_id(self):
        records = [
            Flow(10.0, "u", "bbb", "h", 1.0, 10, 0, 0, 1.0),
            Flow(20.0, "u", "aaa", "h", 1.0, 10, 0, 0, 1.0),
        ]
        matrix = rank_matrix(flow_table(records))
        row = {c: i for i, c in enumerate(matrix.cache_ids)}
        assert matrix.ranks[row["aaa"], 0] == 1
        assert matrix.ranks[row["bbb"], 0] == 2

    def test_csv_output(self):
        records, _ = generate_trace(small_config(days=2, flows=500))
        matrix = rank_matrix(records)
        buf = io.StringIO()
        write_rank_csv(buf, matrix)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "cache_id,day_0,day_1"
        assert len(lines) == 1 + len(matrix.cache_ids)

    def test_csv_quotes_ids_with_commas_and_quotes(self):
        ids = ["a,b", 'say "hi"', "plain"]
        matrix = rank_matrix(flow_table([Flow(10.0, "u", c, "h", 1.0, 10, 0, 0, 1.0) for c in ids]))
        buf = io.StringIO()
        write_rank_csv(buf, matrix)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows == [["cache_id", "day_0"], ["a,b", "1"], ["plain", "2"], ['say "hi"', "3"]]


SYNTH_INI = """
[trace]
days = 4
flows_per_day = 1200
rank_churn = 0.3
seed = 9

[node MIL]
caches = 6
rtt_median_ms = 15
rtt_spread_ms = 1.5
ttl = 52
weight = 2.0

[node ams-east]
label = AMS
caches = 7
rtt_median_ms = 45
ttl = 58
weight = 1.0

[event drop]
kind = node_death
target = AMS
start_day = 2
end_day = 3
"""


class TestConfigFile:
    def test_load_and_generate(self, tmp_path):
        path = tmp_path / "synth.ini"
        path.write_text(SYNTH_INI)
        config = load_synth_config(path)
        assert [n.label for n in config.nodes] == ["MIL", "AMS"]
        assert config.nodes[1].cache_count == 7
        assert config.nodes[1].rtt_spread == 1.5  # default
        assert config.events[0].kind == "node_death"
        records, gt = generate_trace(config)
        assert records and set(gt.labels.values()) == {"MIL", "AMS"}

    def test_every_key_read_onto_its_field(self, tmp_path):
        path = tmp_path / "synth.ini"
        path.write_text(
            "[trace]\ndays = 9\nflows_per_day = 321\nrank_churn = 0.45\nseed = 17\nstart_epoch = 86400.5\n"
            "[node abc]\nlabel = mil\ncaches = 6\nrtt_median_ms = 12.5\nrtt_spread_ms = 2.25\nttl = 77\n"
            "weight = 3.5\n[node tor]\ncaches = 5\nrtt_median_ms = 20\nttl = 60\n"
            "[event e]\nkind = path_shift\ntarget = mil\nstart_day = 2\nend_day = 4\nmagnitude = 8.5\n"
        )
        config = load_synth_config(path)
        expected = [
            (config, {"days": 9, "flows_per_day": 321, "rank_churn": 0.45, "seed": 17, "start_epoch": 86400.5}),
            (config.nodes[0], {"label": "MIL", "cache_count": 6, "rtt_median": 12.5, "rtt_spread": 2.25,
                               "ttl_value": 77, "load_weight": 3.5}),
            # The defaults of the two optional node keys, and the label from the section name.
            (config.nodes[1], {"label": "TOR", "cache_count": 5, "rtt_median": 20.0, "rtt_spread": 1.5,
                               "ttl_value": 60, "load_weight": 1.0}),
            (config.events[0], {"kind": "path_shift", "target": "MIL", "start_day": 2, "end_day": 4,
                                "magnitude": 8.5}),
        ]
        assert (len(config.nodes), len(config.events)) == (2, 1)
        for spec, values in expected:
            for name, value in values.items():
                got = getattr(spec, name)
                assert got == value and type(got) is type(value), (name, got)

    def test_missing_trace_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[node MIL]\ncaches = 6\n")
        with pytest.raises(ConfigError):
            load_synth_config(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigError):
            load_synth_config(tmp_path / "missing.ini")

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[trace]\ndays = soon\n")
        with pytest.raises(ConfigError):
            load_synth_config(path)
