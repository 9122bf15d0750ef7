import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import edgewatch
from edgewatch import cli, evaluation, pipeline
from edgewatch.cli import _parse_grid, build_parser, build_pipeline_config, main
from edgewatch.errors import ConfigError
from edgewatch.ingest import DAY_SECONDS, FLOW_LOG_HEADER, write_flow_log
from edgewatch.pipeline import PipelineConfig
from edgewatch.synth import EVENT_KINDS

from reference_impls import Flow, flow_table

SYNTH_INI = """
[trace]
days = 5
flows_per_day = 2500
rank_churn = 0.2
seed = 11

[node MIL]
caches = 6
rtt_median_ms = 15
rtt_spread_ms = 1.5
ttl = 52
weight = 1.0

[node FRA]
caches = 6
rtt_median_ms = 95
rtt_spread_ms = 2.0
ttl = 64
weight = 1.0
"""


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ini = root / "synth.ini"
    ini.write_text(SYNTH_INI)
    trace = root / "trace.tsv"
    gt = root / "gt.tsv"
    assert main(["synth", "--config", str(ini), "--out-trace", str(trace),
                 "--out-ground-truth", str(gt)]) == 0
    return root, ini, trace, gt


class TestParseGrid:
    def test_range_form(self):
        assert _parse_grid("0.0:0.2:0.1") == (0.0, 0.1, 0.2)

    def test_list_form(self):
        assert _parse_grid("0.02,0.04") == (0.02, 0.04)

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            _parse_grid("0:1")
        with pytest.raises(ConfigError):
            _parse_grid("0:1:-0.5")
        with pytest.raises(ConfigError):
            _parse_grid("0:x:0.5")
        with pytest.raises(ConfigError):
            _parse_grid("0.1,abc")
        for text in ("0:inf:1", "nan:1:1", "0.1,nan", "inf", "", "1:0:0.5", "0:1e9:1e-9"):
            with pytest.raises(ConfigError):
                _parse_grid(text)


# Values for every key of a one-node synth config with one event: some run, the others each meet a check. A run
# stays small (days <= 3, flows_per_day <= 2000, caches <= 8): no value of the pool passes those keys' checks.
SYNTH_POOL = ["0", "-1", "1e-320", "1e-300", "1e308", "nan", "inf", str(2**70), "", "\u0663", "\u00e9"]
SYNTH_KEYS = {
    "trace": {"days": ["1", "3"], "flows_per_day": ["200", "2000"], "rank_churn": ["0.2", "1"], "seed": ["1"],
              "start_epoch": ["0"]},
    "node MIL": {"caches": ["5", "8"], "rtt_median_ms": ["15"], "rtt_spread_ms": ["1.5"], "ttl": ["50"],
                 "weight": ["1"]},
    "event x": {"kind": list(EVENT_KINDS), "target": ["MIL"], "start_day": ["0", "1"], "end_day": ["1", "2"],
                "magnitude": ["2", "80"]},
}


def synth_section(name):
    keys = SYNTH_KEYS[name]
    return st.fixed_dictionaries({key: st.sampled_from(values + SYNTH_POOL) for key, values in keys.items()})


class TestSynthCommand:
    def test_outputs_exist(self, trace_files):
        _, _, trace, gt = trace_files
        assert trace.read_text().startswith("start_time\t")
        assert gt.read_text().count("\n") == 12  # 2 nodes x 6 caches

    def test_deterministic_across_runs(self, trace_files, tmp_path):
        root, ini, trace, gt = trace_files
        trace2 = tmp_path / "trace2.tsv"
        gt2 = tmp_path / "gt2.tsv"
        assert main(["synth", "--config", str(ini), "--out-trace", str(trace2),
                     "--out-ground-truth", str(gt2)]) == 0
        assert trace.read_bytes() == trace2.read_bytes()
        assert gt.read_bytes() == gt2.read_bytes()

    def test_trace_that_would_not_read_back_exit_2(self, tmp_path, capsys):
        # An RTT spread 10,000 times the median overflows the jitter's exp: an RTT of inf used to be
        # written, and the timeline then refused the trace.
        ini = tmp_path / "synth.ini"
        ini.write_text("[trace]\ndays = 1\nflows_per_day = 2000\nseed = 1\n"
                       "[node MIL]\ncaches = 5\nttl = 50\nrtt_median_ms = 0.01\nrtt_spread_ms = 100\n")
        trace, gt = tmp_path / "t.tsv", tmp_path / "gt.tsv"
        assert main(["synth", "--config", str(ini), "--out-trace", str(trace), "--out-ground-truth", str(gt)]) == 2
        message = f"config error: {ini}: the trace would not read back: row 0: min_rtt out of range: inf\n"
        assert capsys.readouterr().err == message
        assert not trace.exists() and not gt.exists()

    def test_congestion_that_overflows_the_byte_count_prints_one_line(self, tmp_path):
        # Throughput divided by 1e-320 is inf, and its cast to a byte count printed numpy's
        # "invalid value encountered in cast" before the error line. Only a fresh process shows the warning.
        ini = tmp_path / "synth.ini"
        ini.write_text("[trace]\ndays = 1\nflows_per_day = 200\nseed = 1\n[node MIL]\ncaches = 5\nttl = 50\n"
                       "rtt_median_ms = 15\n[event x]\nkind = congestion\ntarget = MIL\nstart_day = 0\n"
                       "end_day = 0\nmagnitude = 1e-320\n")
        env = dict(os.environ, PYTHONPATH=str(Path(edgewatch.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "edgewatch.cli", "synth", "--config", str(ini),
             "--out-trace", str(tmp_path / "t.tsv"), "--out-ground-truth", str(tmp_path / "gt.tsv")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert done.stderr == f"config error: {ini}: the trace would not read back: row 0: negative byte count\n"

    @given(sections=st.fixed_dictionaries(
        {name: synth_section(name) for name in ("trace", "node MIL")}, optional={"event x": synth_section("event x")}
    ))
    @example(sections={"trace": {"days": "3", "flows_per_day": "2000", "rank_churn": "0.2", "seed": "1",
                                 "start_epoch": "0"},
                       "node MIL": {"caches": "8", "rtt_median_ms": "15", "rtt_spread_ms": "1.5", "ttl": "50",
                                    "weight": "1"},
                       "event x": {"kind": "congestion", "target": "MIL", "start_day": "0", "end_day": "1",
                                   "magnitude": "1e-320"}})
    def test_any_config_exits_with_the_contract(self, tmp_path_factory, sections):
        root = tmp_path_factory.mktemp("synth")
        lines = [f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()]
        (root / "synth.ini").write_text("".join(lines), encoding="utf-8")
        trace, gt = root / "t.tsv", root / "gt.tsv"
        argv = ["synth", "--config", str(root / "synth.ini"), "--out-trace", str(trace), "--out-ground-truth", str(gt)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        # A command-line run prints each warning to stderr too.
        stderr = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
        stderr += err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        if code:
            assert stderr.startswith(("config error:", "input error:")) and stderr.count("\n") == 1, stderr
        else:
            assert stderr == "" and trace.is_file() and gt.is_file()


class TestTimelineCommand:
    def test_runs_and_writes(self, trace_files, tmp_path, capsys):
        _, _, trace, _ = trace_files
        out = tmp_path / "out"
        code = main([
            "timeline", "--input", str(trace), "--window-days", "1", "--step-days", "1",
            "--out-dir", str(out), "--dump-clusters", "--dump-features",
        ])
        assert code == 0
        assert (out / "timeline.csv").exists()
        assert (out / "couplings.csv").exists()
        assert (out / "clusters_0000.csv").exists()
        assert (out / "features_0000.csv").exists()
        assert "snapshots" in capsys.readouterr().out

    def test_dump_features_skips_a_window_without_caches(self, tmp_path):
        # Day 1's caches have 10 flows each, below the default min_flow: the window keeps no cache.
        path, out = tmp_path / "gap.tsv", tmp_path / "o"
        write_flow_log(path, flow_table([Flow(day * DAY_SECONDS + i, "u", f"c{j}", "h", 10.0, 50, 0, 0, 100.0)
                                         for day, count in ((0, 60), (1, 10), (2, 60))
                                         for j in range(6) for i in range(count)]))
        argv = ["timeline", "--input", str(path), "--window-days", "1", "--dump-features"]
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.glob("features_*")) == ["features_0000.csv", "features_0002.csv"]

    def test_features_beyond_the_float_range_exit_1(self, tmp_path, capsys):
        # RTTs of 1e308 on day 1: a star's mean overflowed, and the timeline wrote CDs of nan and inf and exited 0.
        path = tmp_path / "huge.tsv"
        write_flow_log(path, flow_table([Flow(day * DAY_SECONDS + i, "u", f"c{j}", "h", rtt, 50, 0, 0, 100.0)
                                         for day, rtt in ((0, 10.0), (1, 1e308), (2, 10.0))
                                         for j in range(3) for i in range(5)]))
        argv = ["timeline", "--input", str(path), "--window-days", "1", "--min-flow", "5", "--min-pts", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 1
        message = "input error: snapshot 1: the features of its caches sum beyond the float range\n"
        assert capsys.readouterr().err == message

    def test_missing_input_exit_1(self, tmp_path, capsys):
        assert main(["timeline", "--input", str(tmp_path / "nope.tsv")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_flag_value_exit_2(self, trace_files, tmp_path, capsys):
        _, _, trace, gt = trace_files
        timeline = ["timeline", "--input", str(trace), "--out-dir", str(tmp_path / "o")]
        sweep = ["sweep", "--input", str(trace), "--ground-truth", str(gt), "--out", str(tmp_path / "s.csv")]
        rank = ["rank", "--input", str(trace), "--out", str(tmp_path / "r.csv")]
        for argv in (
            [*timeline, "--window-days", "0"],
            [*timeline, "--percentiles", "20,abc"],
            [*timeline, "--min-flow", "1.5"],
            [*timeline, "--utc-offset", "nan"],
            [*timeline, "--window-days", "nan"],
            [*timeline, "--epsilon", "nan"],
            [*timeline, "--event-threshold", "nan"],
            [*timeline, "--step-days", "inf"],
            [*sweep, "--eps-grid", ""],
            [*sweep, "--eps-grid", "nan:1:1"],
            [*sweep, "--eps-grid", "0.3,0.1"],
            [*sweep, "--eps-grid", "0.1,nan"],
            [*sweep, "--eps-grid", "0:inf:1"],
            [*sweep, "--eps-grid", "0:0.1:0.05"],
            [*rank, "--utc-offset", "nan"],
            # Offsets beyond a day overflowed in midnight_floor.
            [*timeline, "--utc-offset", "1e308"],
            [*timeline, "--utc-offset", "-24.5"],
            [*rank, "--utc-offset", "1e308"],
            [*rank, "--utc-offset", "1e305"],
            [*rank, "--utc-offset", "inf"],
            [*rank, "--utc-offset", "25"],
            # argparse's own errors: each a single line, with no usage text.
            ["calibrate", "--trials", "abc", "--out", str(tmp_path / "c.csv")],
            [*rank, "--utc-offset", "abc"],
            ["drilldown", "--input", str(trace), "--entry", "x"],
            [*sweep, "--feature-mode", "foo"],
            [],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, argv
        # Clustering parameters are checked, and worded, by ClusterParams.
        assert main([*timeline, "--epsilon", "-1"]) == 2
        assert capsys.readouterr().err == "config error: epsilon must be positive: -1.0\n"

    @pytest.mark.parametrize("name", ["malformed", "not_utf8", "directory"])
    def test_unreadable_input_exit_1(self, tmp_path, capsys, name):
        path = tmp_path / name
        line = "0.5\tu\tc1\th.example\tfast\t10\t0\t0\t1.0\n"
        if name == "malformed":
            path.write_text(FLOW_LOG_HEADER + "\n" + line)
        elif name == "not_utf8":
            path.write_bytes((FLOW_LOG_HEADER + "\n").encode() + b"\xff" + line.encode())
        else:
            path.mkdir()
        good = tmp_path / "good.tsv"
        good.write_text(FLOW_LOG_HEADER + "\n" + line.replace("fast", "1.0"))
        # The faulty log alone, first of two and second of two: the error names it, not the good log.
        for inputs in ([path], [path, good], [good, path]):
            assert main(["timeline", *(arg for p in inputs for arg in ("--input", str(p)))]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {path}: ")
            assert err.count("\n") == 1
            assert "Traceback" not in err
            if name == "malformed":
                assert f"{path}: line 2: bad numeric field" in err

    def test_header_only_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text(FLOW_LOG_HEADER + "\n")
        good = tmp_path / "good.tsv"
        good.write_text(FLOW_LOG_HEADER + "\n" + "0.5\tu\tc1\th.example\t1.0\t10\t0\t0\t1.0\n")
        for inputs in ([path], [path, good], [good, path]):
            assert main(["timeline", *(arg for p in inputs for arg in ("--input", str(p)))]) == 1
            assert capsys.readouterr().err == f"input error: {path}: no flow records\n"
        # Every --input, in order, goes to one read.
        with mock.patch.object(cli, "read_flow_log", wraps=cli.read_flow_log) as read:
            assert main(["timeline", "--input", str(good), "--input", str(path), "--input", str(good)]) == 1
        assert read.call_args_list == [mock.call(str(good), str(path), str(good))]
        assert capsys.readouterr().err == f"input error: {path}: no flow records\n"

    def test_tiny_step_exit_2_without_hanging(self, trace_files, tmp_path):
        # Counting 10^300 windows one by one never ended; the count is closed-form.
        _, _, trace, _ = trace_files
        env = dict(os.environ, PYTHONPATH=str(Path(edgewatch.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "edgewatch.cli", "timeline", "--input", str(trace),
             "--window-days", "1", "--step-days", "1e-300", "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1

    def test_window_beyond_float_range_exit_1(self, trace_files, tmp_path, capsys):
        # 1e308 days is an infinite number of seconds: no window fits the trace.
        _, _, trace, _ = trace_files
        for extra in ([], ["--step-days", "1e308"]):
            argv = ["timeline", "--input", str(trace), "--window-days", "1e308", *extra]
            assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error: only 0 snapshot(s)") and err.count("\n") == 1

    def test_short_trace_exit_1(self, tmp_path, capsys):
        path = tmp_path / "tiny.tsv"
        line = "0.5\tu\tc1\th.example\t1.0\t10\t0\t0\t1.0"
        path.write_text(FLOW_LOG_HEADER + "\n" + line + "\n")
        assert main(["timeline", "--input", str(path)]) == 1

    def test_config_file_overrides_flags(self, trace_files, tmp_path):
        _, _, trace, _ = trace_files
        out_flag = tmp_path / "flagdir"
        out_cfg = tmp_path / "cfgdir"
        ini = tmp_path / "pipe.ini"
        ini.write_text(f"[pipeline]\noutput_dir = {out_cfg}\nwindow_days = 1\nstep_days = 1\n")
        code = main([
            "timeline", "--input", str(trace), "--window-days", "2",
            "--out-dir", str(out_flag), "--config", str(ini),
        ])
        assert code == 0
        assert (out_cfg / "timeline.csv").exists()
        assert not out_flag.exists()
        # The config is checked once the file's values are merged in, so a flag the file overrides or
        # makes consistent is not refused on its own.
        for flag, line in ((["--event-threshold", "60"], "major_threshold = 100"), (["--min-flow", "0"], "min_flow = 5")):
            ini.write_text(f"[pipeline]\noutput_dir = {out_cfg}\nwindow_days = 1\n{line}\n")
            assert main(["timeline", "--input", str(trace), *flag, "--config", str(ini)]) == 0, flag

    def test_unknown_config_key_exit_2(self, trace_files, tmp_path, capsys):
        _, _, trace, _ = trace_files
        ini = tmp_path / "pipe.ini"
        timeline = ["timeline", "--input", str(trace), "--config", str(ini)]
        synth = ["synth", "--config", str(ini), "--out-trace", str(tmp_path / "t.tsv"),
                 "--out-ground-truth", str(tmp_path / "g.tsv")]
        # Also bad values, names that are flags but not PipelineConfig fields,
        # and files that are not INI or not UTF-8.
        cases = [
            (timeline, f"[pipeline]\n{line}\n".encode())
            for line in ("frobnicate = 3", "min_flow = abc", "inputs = x.tsv", "out_dir = o", "utc_offset = 1")
        ]
        cases += [
            (timeline, b"epsilon = 0.1\n"),
            (timeline, b"[pipeline\nepsilon = 0.1\n"),
            (timeline, b"[pipeline]\nepsilon = 0.1\n[pipeline\n"),
            (timeline, b"[pipeline]\nepsilon = 0.1\nepsilon = 0.2\n"),
            (timeline, b"[pipeline]\nepsilon = 0.1\xff\n"),
            (timeline, b"[pipeline]\nepsilon = 0.1%\n"),
            (synth, b"[trace\ndays = 3\n"),
        ]
        # Non-finite synth values: each wrote an unreadable trace or died in numpy.
        one_node = "[trace]\ndays = 2\n{}\n[node MIL]\ncaches = 5\nttl = 50\nrtt_median_ms = {}\n{}\n"
        shift = "[event shift]\nkind = path_shift\ntarget = MIL\nstart_day = 0\nend_day = 1\nmagnitude = nan"
        death = "[event death]\nkind = node_death\ntarget = MIL\nstart_day = 0\nend_day = 1"
        cases += [
            (synth, one_node.format(*values).encode())
            for values in (
                ("", "nan", ""),
                ("start_epoch = nan", "10", ""),
                ("", "10", "rtt_spread_ms = nan"),
                ("", "10", "weight = inf"),
                ("", "10", shift),
                # Configs that make no flows: every weight 0, or silenced on every day.
                ("", "10", "weight = 0"),
                ("", "10", death),
            )
        ]
        # More than synth.MAX_FLOWS flows, and more than synth.MAX_CACHES caches.
        cases.append((synth, b"[trace]\ndays = 100000000000\nflows_per_day = 1000000000000\n"
                             b"[node MIL]\ncaches = 5\nttl = 50\nrtt_median_ms = 10\n"))
        cases += [
            (synth, f"[trace]\ndays = 2\n[node MIL]\ncaches = {mil}\nttl = 50\nrtt_median_ms = 10\n"
                    f"[node FRA]\ncaches = 1000000\nttl = 60\nrtt_median_ms = 90\n".encode())
            for mil in (5, 1_000_000_000)
        ]
        for argv, text in cases:
            ini.write_bytes(text)
            assert main(argv) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
        # Synth typos and missing keys: the error names the key or section.
        node = "[node MIL]\ncaches = 5\nttl = 50\nrtt_median_ms = 10\n"
        kindless = "[event death]\ntarget = MIL\nstart_day = 0\nend_day = 1\n"
        named = [
            (f"[trace]\nflows_per_dya = 5\n{node}", "flows_per_dya"),
            (f"[trace]\nnodes = 1\n{node}", "nodes"),
            (f"[trace]\n{node}rtt_sprad_ms = 3\n", "rtt_sprad_ms"),
            (f"[trace]\n{node.replace('caches', 'cache_count')}", "cache_count"),
            (f"[trace]\n{node}{kindless}kind = node_death\nmagnitud = 1\n", "magnitud"),
            (f"[trace]\n{node}[nodes]\ncaches = 5\n", "[nodes]"),
            (f"[trace]\n{node}[eventful]\nkind = node_death\n", "[eventful]"),
            ("[trace]\n[node MIL]\nttl = 50\nrtt_median_ms = 10\n", "caches"),
            (f"[trace]\n{node}{kindless}", "kind"),
        ]
        for text, name in named:
            ini.write_text(text)
            assert main(synth) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1 and name in err, err
        # A check of the config classes themselves names the file and section too.
        for text, message in (
            (f"[trace]\nseed = -1\n{node}", "[trace]: seed must be non-negative: -1"),
            ("[trace]\n[node AMS]\ncaches = 5\nttl = 500\nrtt_median_ms = 10\n",
             "[node AMS]: ttl_value out of [0, 255]: 500"),
            (f"[trace]\ndays = 100000000000\nflows_per_day = 1000000000000\n{node}",
             "[trace]: days * flows_per_day is more than 100000000 flows"),
        ):
            ini.write_text(text)
            assert main(synth) == 2, text
            assert capsys.readouterr().err == f"config error: {ini} {message}\n"
        # A pipeline config has only [pipeline]: a misspelt section is not
        # skipped. Those errors, and a key or value read from the file, name it.
        for text, name in (
            ("[pipeline]\n[pipelin]\nepsilon = 0.5\n", "[pipelin]"),
            ("[pipeline]\n[trace]\nepsilon = 0.5\n", "[trace]"),
            ("[pipeline]\nfrobnicate = 3\n", "[pipeline]: unknown key frobnicate"),
            ("[pipeline]\nepsilon = abc\n", "[pipeline]: bad value for epsilon: 'abc'"),
        ):
            ini.write_text(text)
            assert main(timeline) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert str(ini) in err and name in err, err
        # So does a check of the config that the file completes.
        ini.write_text("[pipeline]\nepsilon = -1\n")
        assert main(timeline) == 2
        assert capsys.readouterr().err == f"config error: {ini} [pipeline]: epsilon must be positive: -1.0\n"
        # '%' is a literal character, not an interpolation.
        out = tmp_path / "out%x"
        ini.write_text(f"[pipeline]\nwindow_days = 1\noutput_dir = {out}\n")
        assert main(timeline) == 0
        assert (out / "timeline.csv").is_file()

    def test_argparse_usage_error_exit_2(self, capsys):
        assert main(["timeline"]) == 2  # missing --input
        err = capsys.readouterr().err
        assert err == "config error: edgewatch timeline: the following arguments are required: --input\n"
        with pytest.raises(SystemExit) as exc:
            main(["timeline", "--help"])
        assert exc.value.code == 0


# One valid setting per PipelineConfig field, as flag/INI text and the value it
# must parse to.
FIELD_SAMPLES = {
    "window_days": ("2.5", 2.5),
    "step_days": ("0.5", 0.5),
    "min_flow": ("7", 7),
    "percentiles": ("10,50,90", (10.0, 50.0, 90.0)),
    "epsilon": ("0.05", 0.05),
    "min_pts": ("4", 4),
    "event_threshold": ("12", 12.0),
    "major_threshold": ("60", 60.0),
    "utc_offset_hours": ("-5", -5.0),
    "top_stars": ("2", 2),
    "output_dir": ("elsewhere", "elsewhere"),
}
FLAGS = {"utc_offset_hours": "--utc-offset", "output_dir": "--out-dir"}


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_config_field_settable_from_flag_and_ini(tmp_path, name):
    text, expected = FIELD_SAMPLES[name]
    flag = FLAGS.get(name, "--" + name.replace("_", "-"))
    ini = tmp_path / "pipe.ini"
    ini.write_text(f"[pipeline]\n{name} = {text}\n")
    for setting in ([flag, text], ["--config", str(ini)]):
        args = build_parser().parse_args(["timeline", "--input", "t.tsv", *setting])
        value = getattr(build_pipeline_config(args), name)
        assert value == expected and type(value) is type(expected), setting


# Values for every flag of timeline, drilldown, sweep and rank: some run, the others each meet a check. A run stays
# within the 5-day trace's five 1-day windows and the default sweep's 40 radii: no --step-days makes thousands of
# windows, and no grid holds between about 100 values and cli.MAX_GRID, each of which would be one DBSCAN.
EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "1e-300", "-0", str(10**20), "", "x", "\u0663"]  # an Arabic-Indic 3
PIPELINE_FLAG_VALUES = {
    "--window-days": ["1", "2", "0", "-1", *EDGE_VALUES],
    "--step-days": ["1", "2", "0", "-1", "nan", "inf", "1e308", "1e-300"],
    "--min-flow": ["1", "5", "0", "-1", "1.5", *EDGE_VALUES],
    "--percentiles": ["20,50,80", "0,100", "50,20", "20,20", "101", ",", *EDGE_VALUES],
    "--epsilon": ["0.04", "0.5", "0", "-1", *EDGE_VALUES],
    "--min-pts": ["1", "2", "0", "-1", *EDGE_VALUES],
    "--event-threshold": ["0.5", "10", "60", "0", *EDGE_VALUES],
    "--major-threshold": ["1", "50", "100", "0", *EDGE_VALUES],
    "--utc-offset": ["0", "-24", "24", "5.5", "25", *EDGE_VALUES],
    "--top-stars": ["1", "3", "0", *EDGE_VALUES],
}
FLAG_VALUES = {
    **PIPELINE_FLAG_VALUES,
    "--dump-clusters": [True],  # a switch
    "--dump-features": [True],
    "--entry": ["0", "1", "4", "5", "-1", "x", "", str(10**20), "\u0663"],
    "--snapshot": ["0", "4", "5", "-1", "x", str(10**20)],
    "--eps-grid": ["0.04", "0.02,0.04", "0.01:0.05:0.02", "0.3,0.1", "0:0.1:0.05", "1:0:0.1", "0:1e9:1e-9",
                   *EDGE_VALUES],
    "--feature-mode": ["percentiles", "mean_std", "x"],
}
COMMAND_FLAGS = {
    "timeline": [*PIPELINE_FLAG_VALUES, "--dump-clusters", "--dump-features"],
    "drilldown": [*PIPELINE_FLAG_VALUES, "--entry"],
    "sweep": ["--window-days", "--step-days", "--utc-offset", "--min-flow", "--percentiles", "--min-pts",
              "--snapshot", "--eps-grid", "--feature-mode"],
    "rank": ["--utc-offset"],
}
# [pipeline] lines: settings that run, keys that are not settings, and values that fail a check.
INI_LINES = [
    "window_days = 1", "step_days = 1", "min_flow = 5", "major_threshold = 100", "percentiles = 10,90",
    "frobnicate = 1", "out_dir = o", "utc_offset = 1", "[trace]",
    "epsilon = -1", "min_flow = abc", "window_days = nan", "step_days = 0", "percentiles =", "top_stars = 1e308",
    f"min_pts = {10**20}", "utc_offset_hours = \u0663\u0663",
]


@given(
    command=st.sampled_from(sorted(COMMAND_FLAGS)),
    flags=st.fixed_dictionaries({}, optional={flag: st.sampled_from(values) for flag, values in FLAG_VALUES.items()}),
    ini_lines=st.none() | st.lists(st.sampled_from(INI_LINES), max_size=3),
)
# Few random draws pass every check, so these pin a run of each command that exits 0.
@example(command="timeline", flags={"--window-days": "1", "--min-flow": "5", "--dump-clusters": True,
                                    "--dump-features": True, "--event-threshold": "60"},
         ini_lines=["major_threshold = 100"])
@example(command="drilldown", flags={"--window-days": "1", "--entry": "4", "--percentiles": "\u0663"}, ini_lines=None)
@example(command="sweep", flags={"--eps-grid": "0.02,0.04", "--feature-mode": "mean_std"}, ini_lines=["window_days = 1"])
@example(command="rank", flags={"--utc-offset": "-0"}, ini_lines=None)
def test_pipeline_commands_any_flags_exit_with_the_contract(trace_files, tmp_path_factory, command, flags, ini_lines):
    _, _, trace, gt = trace_files
    out = tmp_path_factory.mktemp(command)
    argv = [command, "--input", str(trace)]
    argv += ["--out-dir", str(out)] if command == "timeline" else ["--out", str(out / "result.csv")]
    argv += ["--ground-truth", str(gt)] if command == "sweep" else []
    argv += [flag if value is True else f"{flag}={value}" for flag, value in flags.items() if flag in COMMAND_FLAGS[command]]
    if ini_lines is not None and command != "rank":
        (out / "pipe.ini").write_text("\n".join(["[pipeline]", *ini_lines, ""]), encoding="utf-8")
        argv += ["--config", str(out / "pipe.ini")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("config error:", "input error:")), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert (out / ("timeline.csv" if command == "timeline" else "result.csv")).is_file(), argv


class TestDrilldownCommand:
    def test_writes_report(self, trace_files, tmp_path):
        _, _, trace, _ = trace_files
        out = tmp_path / "dd.csv"
        code = main([
            "drilldown", "--input", str(trace), "--entry", "2",
            "--window-days", "1", "--step-days", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("entry,side,star_id")

    def test_entry_out_of_range_exit_1(self, trace_files, tmp_path, capsys):
        _, _, trace, _ = trace_files
        drill = ["drilldown", "--input", str(trace), "--out", str(tmp_path / "x.csv"), "--step-days", "1"]
        # The 5-day trace holds five 1-day windows but only one 5-day window.
        for entry, days, reason in (
            ("-1", "1", "entry -1 out of range (0..4)"),
            ("99", "1", "entry 99 out of range (0..4)"),
            ("1", "5", "only 1 snapshot(s)"),
        ):
            assert main([*drill, "--entry", entry, "--window-days", days]) == 1, entry
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {reason}") and err.count("\n") == 1, err
        assert not (tmp_path / "x.csv").exists()

    def test_analyses_only_the_entry_and_previous_window(self, trace_files, tmp_path, monkeypatch):
        _, _, trace, _ = trace_files
        analyze, analysed = pipeline.analyze_snapshot, []

        def counting(snapshot, config):
            analysed.append(snapshot.index)
            return analyze(snapshot, config)

        monkeypatch.setattr(pipeline, "analyze_snapshot", counting)
        for entry, windows in ((0, [0]), (2, [1, 2]), (4, [3, 4])):
            analysed.clear()
            argv = ["drilldown", "--input", str(trace), "--entry", str(entry), "--window-days", "1"]
            assert main([*argv, "--out", str(tmp_path / "dd.csv")]) == 0
            assert analysed == windows


class TestSweepCommand:
    def test_bad_ground_truth_exit_1(self, trace_files, tmp_path, capsys):
        _, _, trace, _ = trace_files
        bad = tmp_path / "bad_gt.tsv"
        bad.write_text("only-one-column\n")
        not_utf8 = tmp_path / "latin1_gt.tsv"
        not_utf8.write_bytes(b"c1\tM\xefL\n")
        # An empty file. --min-pts 100000 makes every cache noise, so no clustered cache
        # can lack a label and only the empty-file check stops the sweep.
        empty = tmp_path / "empty_gt.tsv"
        empty.write_text("")
        for path in (bad, not_utf8, tmp_path, empty):
            code = main([
                "sweep", "--input", str(trace), "--ground-truth", str(path), "--window-days", "1",
                "--eps-grid", "0.04", "--min-pts", "100000", "--out", str(tmp_path / "s.csv"),
            ])
            assert code == 1, path
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {path}") and err.count("\n") == 1, err
        assert err == f"input error: {empty}: no ground-truth labels\n"

    def test_ground_truth_missing_a_cache_exit_1(self, trace_files, tmp_path, capsys):
        _, _, trace, gt = trace_files
        cut = tmp_path / "cut_gt.tsv"
        cut.write_text("".join(gt.read_text().splitlines(keepends=True)[:6]))
        code = main([
            "sweep", "--input", str(trace), "--ground-truth", str(cut), "--window-days", "1",
            "--eps-grid", "0.04", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {cut}: clustered caches without a GT label")
        assert err.count("\n") == 1

    def test_writes_rows(self, trace_files, tmp_path):
        _, _, trace, gt = trace_files
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--input", str(trace), "--ground-truth", str(gt),
            "--window-days", "5", "--step-days", "5",
            "--eps-grid", "0.02,0.04,0.06", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,tpr,fragmentation,pureness,noise_count"
        assert len(lines) == 4

    def test_default_grid_runs(self, trace_files, tmp_path):
        _, _, trace, gt = trace_files
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--input", str(trace), "--ground-truth", str(gt),
            "--window-days", "1", "--step-days", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("0.005,")

    def test_mean_std_features_beyond_the_float_range_exit_1(self, tmp_path):
        # MIL's RTTs near 1e308 on day 1: the mean/std sweep printed numpy's overflow warnings and exited 0.
        ini, trace, gt = tmp_path / "huge.ini", tmp_path / "t.tsv", tmp_path / "gt.tsv"
        ini.write_text("[trace]\ndays = 3\nflows_per_day = 1200\nseed = 1\n"
                       "[node MIL]\ncaches = 6\nrtt_median_ms = 15\nttl = 52\n"
                       "[node TOR]\ncaches = 6\nrtt_median_ms = 25\nttl = 54\n"
                       "[event shift]\nkind = path_shift\ntarget = MIL\nstart_day = 1\nend_day = 2\nmagnitude = 1e308\n")
        assert main(["synth", "--config", str(ini), "--out-trace", str(trace), "--out-ground-truth", str(gt)]) == 0
        sweep = ["sweep", "--input", str(trace), "--ground-truth", str(gt), "--out", str(tmp_path / "s.csv"),
                 "--snapshot", "1", "--window-days", "1", "--feature-mode"]
        for mode, code, message in (
            ("mean_std", 1, "input error: snapshot 1: the features of its caches lie beyond the float range\n"),
            ("percentiles", 0, ""),  # percentiles of finite RTTs are finite
        ):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                assert main([*sweep, mode]) == code, mode
            assert [str(w.message) for w in caught] == [] and err.getvalue() == message, mode

    @pytest.mark.parametrize("flag", [["--epsilon", "0.5"], ["--major-threshold", "1"]])
    def test_flag_it_does_not_read_exit_2(self, trace_files, tmp_path, capsys, flag):
        # sweep offers only the pipeline flags it reads.
        _, _, trace, gt = trace_files
        out = tmp_path / "s.csv"
        code = main(["sweep", "--input", str(trace), "--ground-truth", str(gt), "--out", str(out), *flag])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err == f"config error: edgewatch: unrecognized arguments: {' '.join(flag)}\n", err


class TestCalibrateCommand:
    def test_writes_grid(self, tmp_path):
        out = tmp_path / "calib.csv"
        code = main([
            "calibrate", "--stars", "3", "--e-grid", "0.0,0.1", "--extra-stars", "0,1",
            "--trials", "5", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "stars,e,extra_stars,trials,mean_cd"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first == ["3", "0.0", "0", "5", "0.0"]

    @pytest.mark.parametrize(
        "flag",
        [
            ["--trials", "0"], ["--stars", "0"], ["--stars", "abc"], ["--e-grid", "-0.1"],
            ["--dim", "0"], ["--e-grid", "nan"], ["--e-grid", "0:inf:1"], ["--e-grid", "0:1e9:1e-9"],
            ["--seed", "-1"],
            # A star difference is at most sqrt(dim) + e long; with these radii its square overflows.
            ["--e-grid", "1e200"], ["--e-grid", "0,1e200"],
            ["--trials", "99999999999999999999"],
            ["--stars", "1", "--e-grid", "0", "--trials", str(cli.MAX_CALIBRATION_WORK + 1)],
            # Within the matrix cap, but each of the 11 CD calls would take 4,096**3 star-difference elements.
            ["--stars", "4096", "--trials", "1"],
            # Within the work cap (one 1-element difference a CD), but 2**26 CDs would take over an hour.
            ["--stars", "1", "--e-grid", "0", "--trials", "67108864"],
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "c.csv"
        code = main(["calibrate", "--trials", "2", *flag, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_largest_radius_whose_squared_distances_fit_runs(self, tmp_path):
        # (sqrt(5) + 1e154) ** 2 is finite, and the suite makes an overflow warning an error.
        out = tmp_path / "c.csv"
        assert main(["calibrate", "--stars", "5", "--e-grid", "1e154", "--trials", "2", "--out", str(out)]) == 0
        assert math.isfinite(float(out.read_text().splitlines()[1].split(",")[-1]))

    @pytest.mark.parametrize(
        "flags",
        [["--stars", "100000"], ["--stars", "5", "--dim", "10000000000"],
         ["--stars", "5", "--extra-stars", "10000000000"]],
    )
    def test_oversized_matrix_exit_2_before_allocating(self, tmp_path, capsys, flags):
        out = tmp_path / "c.csv"
        assert main(["calibrate", "--trials", "1", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--extra-stars", "1"], 0), (["--dim", "4"], 0), (["--dim", "5"], 2),
            (["--dim", "1", "--extra-stars", "1"], 0), (["--dim", "1", "--extra-stars", "2"], 2),
        ],
    )
    def test_matrix_cap_counts_positions_and_distances(self, tmp_path, monkeypatch, flags, code):
        # 3 stars: positions are (3 + extra) x dim and distances 3 x (3 + extra).
        monkeypatch.setattr(cli, "MAX_CALIBRATION_ELEMENTS", 12)
        out = tmp_path / "c.csv"
        assert main(["calibrate", "--stars", "3", "--trials", "1", *flags, "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--trials", "2"], 0), (["--trials", "3"], 2), (["--trials", "6", "--dim", "1"], 0),
            (["--trials", "2", "--e-grid", "0,0.1,0.2"], 2), (["--trials", "2", "--extra-stars", "0,2"], 2),
        ],
    )
    def test_work_cap_counts_trials_cells_and_star_differences(self, tmp_path, monkeypatch, flags, code):
        # 3 stars and 2 radii: trials x 2 x (3 x 3 x 3 + 3 x 4 x 3) = trials x 126 elements, or trials x 42 at dim 1.
        monkeypatch.setattr(cli, "MAX_CALIBRATION_WORK", 252)
        out = tmp_path / "c.csv"
        argv = ["calibrate", "--stars", "3", "--e-grid", "0,0.1", "--extra-stars", "0,1", *flags, "--out", str(out)]
        assert main(argv) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--trials", "2"], 0), (["--trials", "3"], 2), (["--trials", "1", "--e-grid", "0,0.1,0.2,0.3"], 0),
            (["--trials", "1", "--e-grid", "0,0.1,0.2,0.3,0.4"], 2), (["--trials", "2", "--stars", "1,2,3"], 2),
            (["--trials", "2", "--extra-stars", "0,1,2"], 2),
        ],
    )
    def test_call_cap_counts_trials_radii_stars_and_extras(self, tmp_path, monkeypatch, flags, code):
        # 2 star counts x 2 radii x 2 extra-star counts: 8 CDs a trial before the flags.
        monkeypatch.setattr(cli, "MAX_CALIBRATION_CALLS", 16)
        out = tmp_path / "c.csv"
        argv = ["calibrate", "--stars", "1,2", "--e-grid", "0,0.1", "--extra-stars", "0,1", *flags, "--out", str(out)]
        assert main(argv) == code
        assert out.exists() == (code == 0)

    def test_out_opened_before_first_trial(self, tmp_path, monkeypatch):
        calls = []
        curve = lambda n, e_grid, *args, **kwargs: calls.append((n, e_grid, *args)) or [0.0] * len(e_grid)
        monkeypatch.setattr(evaluation, "cd_calibration_curve", curve)  # cli imports it when calibrate runs
        assert main(["calibrate", "--stars", "2", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert len(calls) == 0

    # Each value either meets a check or a cap, or keeps a run within 3 trials x 3 radii x 5 stars x dim 8:
    # the slowest run the caps let through takes minutes, so nothing between those sizes and the caps is drawn.
    COUNTS = ["1", "2,5", "0", "-1", "", ",", "x", "\u0663", str(2**31), str(10**20)]  # "\u0663" is an Arabic-Indic 3
    RADII = {"0": 1, "-0": 1, "0:0.2:0.1": 3, "1e-300": 1, "nan": 0, "inf": 0, "1e308": 0, "1:0:0.1": 0, "": 0}

    @given(
        stars=st.sampled_from(COUNTS),
        extra=st.sampled_from(COUNTS),
        e_grid=st.sampled_from(sorted(RADII)),
        trials=st.sampled_from([-1, 0, 1, 3, 10**20]),
        dim=st.sampled_from([None, 0, 1, 8, 10**20]),
        seed=st.sampled_from([-1, 0, 2**64]),
    )
    # Few random draws pass every check, so these pin runs that exit 0, the largest one first.
    @example(stars="2,5", extra="2,5", e_grid="0:0.2:0.1", trials=3, dim=8, seed=2**64)
    @example(stars="\u0663", extra="0", e_grid="-0", trials=1, dim=None, seed=0)
    @example(stars="1", extra="\u0663", e_grid="1e-300", trials=3, dim=1, seed=0)
    @example(stars="2,5", extra="1", e_grid="0", trials=1, dim=None, seed=2**64)
    def test_any_flags_exit_with_the_contract(self, tmp_path_factory, stars, extra, e_grid, trials, dim, seed):
        out = tmp_path_factory.mktemp("calibrate") / "c.csv"
        argv = ["calibrate", "--stars", stars, "--extra-stars", extra, "--e-grid", e_grid]
        argv += ["--trials", str(trials), "--seed", str(seed), *(["--dim", str(dim)] if dim is not None else [])]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith(("config error:", "input error:")), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
        else:
            header, *rows = out.read_text().splitlines()
            cells = {tuple(row.split(",")[:3]) for row in rows}
            n_cells = len(stars.split(",")) * len(extra.split(",")) * self.RADII[e_grid]
            assert header == "stars,e,extra_stars,trials,mean_cd"
            assert len(rows) == len(cells) == n_cells, (argv, rows)


class TestRankCommand:
    def test_writes_matrix(self, trace_files, tmp_path):
        _, _, trace, _ = trace_files
        out = tmp_path / "rank.csv"
        assert main(["rank", "--input", str(trace), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("cache_id,day_0")
        assert len(lines) == 13

    def test_utc_offset_bounds_are_inclusive(self, trace_files, tmp_path):
        _, _, trace, _ = trace_files
        rank = ["rank", "--input", str(trace), "--out", str(tmp_path / "r.csv")]
        for offset in ("-24", "24"):
            assert main([*rank, "--utc-offset", offset]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["timeline", "--input", "{trace}", "--window-days", "1", "--out-dir", "{file}"],
        ["rank", "--input", "{trace}", "--out", "{dir}"],
        ["calibrate", "--stars", "2", "--trials", "1", "--out", "{dir}"],
    ],
    ids=["timeline_out_dir_is_file", "rank_out_is_dir", "calibrate_out_is_dir"],
)
def test_unwritable_output_exit_1(trace_files, tmp_path, capsys, argv):
    _, _, trace, _ = trace_files
    (tmp_path / "file").write_text("")
    assert main([a.format(trace=trace, file=tmp_path / "file", dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--config", "{ini}", "--out-trace", "{new}/t.tsv", "--out-ground-truth", "{new}/gt.tsv"],
        ["rank", "--input", "{trace}", "--out", "{new}/rank.csv"],
        ["sweep", "--input", "{trace}", "--ground-truth", "{gt}", "--window-days", "1",
         "--eps-grid", "0.04", "--out", "{new}/sweep.csv"],
    ],
    ids=["synth", "rank", "sweep"],
)
def test_missing_output_directory_created(trace_files, tmp_path, argv):
    _, ini, trace, gt = trace_files
    argv = [a.format(ini=ini, trace=trace, gt=gt, new=tmp_path / "a" / "b") for a in argv]
    assert main(argv) == 0
    for arg in argv:
        if arg.startswith(str(tmp_path)):
            assert Path(arg).stat().st_size > 0, arg


def test_parser_exposes_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("synth", "timeline", "drilldown", "sweep", "calibrate", "rank"):
        assert name in text
