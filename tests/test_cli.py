import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import edgewatch
from edgewatch import cli, pipeline
from edgewatch.cli import _parse_grid, build_parser, build_pipeline_config, main
from edgewatch.errors import ConfigError
from edgewatch.ingest import FLOW_LOG_HEADER
from edgewatch.pipeline import PipelineConfig

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
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
        assert main(["timeline", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if name == "malformed":
            assert f"{path}: line 2: bad numeric field" in err

    def test_header_only_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text(FLOW_LOG_HEADER + "\n")
        assert main(["timeline", "--input", str(path)]) == 1
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
        # '%' is a literal character, not an interpolation.
        out = tmp_path / "out%x"
        ini.write_text(f"[pipeline]\nwindow_days = 1\noutput_dir = {out}\n")
        assert main(timeline) == 0
        assert (out / "timeline.csv").is_file()

    def test_argparse_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["timeline"])  # missing --input
        assert exc.value.code == 2


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
            ["--trials", "99999999999999999999"], ["--trials", str(cli.MAX_TRIALS + 1)],
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

    def test_out_opened_before_first_trial(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cd_calibration", lambda *args, **kwargs: calls.append(args) or 0.0)
        assert main(["calibrate", "--stars", "2", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert len(calls) == 0


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
