"""Command-line front end: synth, timeline, drilldown, sweep, calibrate, rank."""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError, InputError
from .evaluation import GroundTruth, cd_calibration, epsilon_sweep, write_sweep_csv
from .features import write_feature_dump
from .dbscan import write_clustering_csv
from .ingest import window_flows, DAY_SECONDS
from .pipeline import (
    PipelineConfig,
    drilldown,
    read_flow_logs,
    run_timeline,
    write_couplings_csv,
    write_drilldown_csv,
    write_timeline_csv,
)
from .synth import generate_trace, load_synth_config, rank_matrix, write_rank_csv
from .ingest import write_flow_log


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_grid(text: str) -> tuple[float, ...]:
    """Either 'start:stop:step' (stop inclusive within fp tolerance) or 'a,b,c'."""
    try:
        if ":" not in text:
            return _parse_float_list(text)
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {text!r}") from None
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = parts
    if step <= 0:
        raise ConfigError("grid step must be positive")
    values = []
    k = 0
    while start + k * step <= stop + 1e-12:
        values.append(round(start + k * step, 12))
        k += 1
    return tuple(values)


# Flags named differently from their PipelineConfig field; every other flag
# is the field name with dashes. The inputs field is set by --input only.
_FLAG_NAMES = {"utc_offset_hours": "utc-offset", "output_dir": "out-dir"}
_PARSE_BY_TYPE = {int: int, float: float, str: str, tuple[float, ...]: _parse_float_list}
_FIELD_PARSERS = {
    f.name: _PARSE_BY_TYPE[get_type_hints(PipelineConfig)[f.name]]
    for f in fields(PipelineConfig)
    if f.name != "inputs"
}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(PipelineConfig):
        if f.name in _FIELD_PARSERS:
            default = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
            parser.add_argument(
                "--" + _FLAG_NAMES.get(f.name, f.name.replace("_", "-")),
                dest=f.name,
                help=f"default {default}; INI key {f.name}",
            )
    parser.add_argument(
        "--config", type=str, default=None, help="INI file with a [pipeline] section; overrides flags"
    )


def _load_pipeline_ini(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read pipeline config: {path}")
    if "pipeline" not in parser:
        raise ConfigError(f"{path} has no [pipeline] section")
    for key in parser["pipeline"]:
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"unknown pipeline option: {key}")
    return dict(parser["pipeline"])


def build_pipeline_config(args: argparse.Namespace, inputs: tuple[str, ...]) -> PipelineConfig:
    """Defaults, then command-line flags, then config-file values (which win)."""
    texts = {name: getattr(args, name) for name in _FIELD_PARSERS}
    if args.config:
        texts.update(_load_pipeline_ini(args.config))
    config = PipelineConfig(inputs=inputs)
    for name, text in texts.items():
        if text is None:
            continue
        try:
            setattr(config, name, _FIELD_PARSERS[name](text))
        except ValueError:
            raise ConfigError(f"bad value for {name}: {text!r}") from None
    return config.validate()


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_synth_config(args.config)
    records, ground_truth = generate_trace(config)
    write_flow_log(args.out_trace, records)
    ground_truth.save(args.out_ground_truth)
    print(f"wrote {len(records)} flows to {args.out_trace}")
    print(f"wrote {len(ground_truth.labels)} ground-truth labels to {args.out_ground_truth}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    config = build_pipeline_config(args, tuple(args.input))
    records = read_flow_logs(args.input)
    result = run_timeline(config, records)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_timeline_csv(out_dir / "timeline.csv", result.entries)
    write_couplings_csv(out_dir / "couplings.csv", result)
    if args.dump_clusters:
        for state in result.states:
            write_clustering_csv(
                out_dir / f"clusters_{state.snapshot.index:04d}.csv", state.clustering
            )
    if args.dump_features:
        for state in result.states:
            if state.bounds is None:
                continue
            write_feature_dump(
                out_dir / f"features_{state.snapshot.index:04d}.csv",
                state.features,
                config.percentiles,
                state.bounds,
            )
    flagged = [e for e in result.entries if e.flagged != "none"]
    print(f"{len(result.entries)} snapshots, {len(flagged)} flagged")
    for e in flagged:
        tops = ", ".join(f"{c.label or '?'}({c.distance:.2f})" for c in e.contributors)
        print(
            f"entry {e.index} [{e.window_start:.0f}, {e.window_end:.0f}) "
            f"cd={e.cd_to_previous:.3f} flag={e.flagged} noise={e.noise_count} top: {tops}"
        )
    return 0


def _cmd_drilldown(args: argparse.Namespace) -> int:
    config = build_pipeline_config(args, tuple(args.input))
    records = read_flow_logs(args.input)
    result = run_timeline(config, records)
    if not 0 <= args.entry < len(result.entries):
        raise InputError(f"entry {args.entry} out of range (0..{len(result.entries) - 1})")
    entry = result.entries[args.entry]
    report = drilldown(entry, records, config)
    out_path = Path(args.out) if args.out else Path(config.output_dir) / f"drilldown_{args.entry:04d}.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_drilldown_csv(out_path, report)
    if not report.stars:
        print(f"entry {args.entry} is not flagged; empty report written to {out_path}")
    else:
        top = report.stars[0]
        print(
            f"entry {args.entry} flag={entry.flagged}: top contributor "
            f"{top.label or '?'} (side {top.side}, star {top.star_id}, ad={top.distance:.3f}); "
            f"report written to {out_path}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = build_pipeline_config(args, tuple(args.input))
    records = read_flow_logs(args.input)
    snapshots = window_flows(
        records,
        config.window_days * DAY_SECONDS,
        config.step_days * DAY_SECONDS,
        utc_offset_hours=config.utc_offset_hours,
    )
    if not snapshots:
        raise InputError("no snapshots produced from input")
    if not 0 <= args.snapshot < len(snapshots):
        raise InputError(f"snapshot {args.snapshot} out of range (0..{len(snapshots) - 1})")
    ground_truth = GroundTruth.load(args.ground_truth)
    rows = epsilon_sweep(
        snapshots[args.snapshot],
        ground_truth,
        _parse_grid(args.eps_grid),
        feature_mode=args.feature_mode,
        min_flow=config.min_flow,
        percentiles=config.percentiles,
        min_pts=config.min_pts,
    )
    write_sweep_csv(args.out, rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    e_grid = _parse_grid(args.e_grid)
    try:
        stars_list = [int(x) for x in args.stars.split(",") if x.strip()]
        extra_list = [int(x) for x in args.extra_stars.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--stars and --extra-stars take integer lists: {exc}") from None
    if not stars_list or not e_grid or not extra_list:
        raise ConfigError("calibrate needs non-empty --stars, --e-grid and --extra-stars")
    if min(stars_list) < 1 or args.trials < 1 or (args.dim is not None and args.dim < 1):
        raise ConfigError("calibrate needs --stars, --trials and --dim >= 1")
    if min(e_grid) < 0 or min(extra_list) < 0:
        raise ConfigError("calibrate needs --e-grid and --extra-stars >= 0")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fp:
        fp.write("stars,e,extra_stars,trials,mean_cd\n")
        for n in stars_list:
            for extra in extra_list:
                for e in e_grid:
                    mean_cd = cd_calibration(
                        n, e, args.trials, extra, seed=args.seed, dim=args.dim
                    )
                    fp.write(f"{n},{e!r},{extra},{args.trials},{mean_cd!r}\n")
    print(f"wrote calibration grid to {out}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    records = read_flow_logs(args.input)
    if not records:
        raise InputError("input contains no records")
    matrix = rank_matrix(records, args.period_days, args.utc_offset or 0.0)
    write_rank_csv(args.out, matrix)
    print(f"wrote {len(matrix.cache_ids)}x{matrix.ranks.shape[1]} rank matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgewatch",
        description="Detect CDN edge-node changes from passive flow logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic trace")
    p_synth.add_argument("--config", required=True, help="synth INI config")
    p_synth.add_argument("--out-trace", required=True, help="output flow-log TSV")
    p_synth.add_argument("--out-ground-truth", required=True, help="output GT TSV")
    p_synth.set_defaults(func=_cmd_synth)

    p_tl = sub.add_parser("timeline", help="compute the CD timeline of a trace")
    p_tl.add_argument("--input", action="append", required=True, help="flow-log TSV (repeatable)")
    p_tl.add_argument("--dump-clusters", action="store_true", help="per-snapshot clustering CSVs")
    p_tl.add_argument("--dump-features", action="store_true", help="per-snapshot feature CSVs")
    _add_pipeline_flags(p_tl)
    p_tl.set_defaults(func=_cmd_timeline)

    p_dd = sub.add_parser("drilldown", help="per-star report for one timeline entry")
    p_dd.add_argument("--input", action="append", required=True)
    p_dd.add_argument("--entry", type=int, required=True, help="timeline entry index")
    p_dd.add_argument("--out", type=str, default=None, help="output CSV path")
    _add_pipeline_flags(p_dd)
    p_dd.set_defaults(func=_cmd_drilldown)

    p_sw = sub.add_parser("sweep", help="epsilon sweep against ground truth")
    p_sw.add_argument("--input", action="append", required=True)
    p_sw.add_argument("--ground-truth", required=True, help="GT TSV (cache_id\\tlabel)")
    p_sw.add_argument("--snapshot", type=int, default=0, help="snapshot index to sweep")
    p_sw.add_argument("--eps-grid", default="0.0:0.2:0.005", help="start:stop:step or comma list")
    p_sw.add_argument(
        "--feature-mode", choices=("percentiles", "mean_std"), default="percentiles"
    )
    p_sw.add_argument("--out", required=True)
    _add_pipeline_flags(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="Monte-Carlo CD calibration curves")
    p_cal.add_argument("--stars", default="5,10", help="comma list of constellation sizes")
    p_cal.add_argument("--e-grid", default="0.0:0.5:0.05", help="displacement radii")
    p_cal.add_argument("--extra-stars", default="0", help="comma list of star-birth counts")
    p_cal.add_argument("--trials", type=int, default=100)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--dim", type=int, default=None, help="override space dimension (default: star count)")
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_rank = sub.add_parser("rank", help="per-day flow-count rank matrix")
    p_rank.add_argument("--input", action="append", required=True)
    p_rank.add_argument("--period-days", type=int, default=None)
    p_rank.add_argument("--utc-offset", type=float, default=None)
    p_rank.add_argument("--out", required=True)
    p_rank.set_defaults(func=_cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
