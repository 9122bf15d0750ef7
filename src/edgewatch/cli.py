"""Command-line front end: synth, timeline, drilldown, sweep, calibrate, rank."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, InputError
from .evaluation import GroundTruth, cd_calibration, epsilon_sweep, write_sweep_csv
from .features import write_feature_dump
from .dbscan import write_clustering_csv
from .ingest import _parse_float_list, config_from, count_steps, read_ini_section, write_csv, write_flow_log
from .pipeline import (
    FLAG_NONE,
    PipelineConfig,
    config_windows,
    drilldown,
    rank_matrix,
    read_flow_logs,
    run_timeline,
    timeline_entry,
    write_couplings_csv,
    write_drilldown_csv,
    write_rank_csv,
    write_timeline_csv,
)


MAX_GRID = 10_000
MAX_TRIALS = 1_000_000
MAX_CALIBRATION_ELEMENTS = 1 << 24  # most elements of a calibration trial's positions or distances


def _parse_grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' (stop inclusive within fp tolerance) or 'a,b,c'; finite, 1 to MAX_GRID values."""
    is_range = ":" in text
    try:
        values = [float(p) for p in text.split(":")] if is_range else _parse_float_list(text)
    except ValueError:
        raise ConfigError(f"grid values must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if is_range:
        if len(values) != 3:
            raise ConfigError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = values
        if step <= 0:
            raise ConfigError("grid step must be positive")
        n = count_steps(
            lambda n: start + n * step <= stop + 1e-12,
            (stop + 1e-12 - start) / step + 1,
            MAX_GRID,
            "grid values",
        )
        values = [round(start + i * step, 12) for i in range(n)]
    if not values:
        raise ConfigError(f"grid is empty: {text!r}")
    return tuple(values)


# Flags named differently from their PipelineConfig field; every other flag
# is the field name with dashes.
_FLAG_NAMES = {"utc_offset_hours": "utc-offset", "output_dir": "out-dir"}


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(PipelineConfig):
        default = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
        parser.add_argument(
            "--" + _FLAG_NAMES.get(f.name, f.name.replace("_", "-")),
            dest=f.name,
            help=f"default {default}; INI key {f.name}",
        )
    parser.add_argument(
        "--config", type=str, default=None, help="INI file with a [pipeline] section; overrides flags"
    )


def build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then command-line flags, then config-file values (which win)."""
    texts = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    config = config_from(PipelineConfig, texts, "pipeline config")
    if args.config:
        section = read_ini_section(args.config, "pipeline")
        extra = [name for name in section.parser.sections() if name != "pipeline"]
        if extra:
            raise ConfigError(f"{args.config}: unknown section [{extra[0]}]")
        config = config_from(PipelineConfig, section, f"{args.config} [pipeline]", **vars(config))
    return config.validate()


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synth import generate_trace, load_synth_config

    config = load_synth_config(args.config)
    records, ground_truth = generate_trace(config)
    try:
        write_flow_log(args.out_trace, records)
    except ValueError as exc:  # a draw the parser would reject, such as an RTT whose jitter overflowed to inf
        raise ConfigError(f"{args.config}: the trace would not read back: {exc}") from None
    ground_truth.save(args.out_ground_truth)
    print(f"wrote {len(records)} flows to {args.out_trace}")
    print(f"wrote {len(ground_truth.labels)} ground-truth labels to {args.out_ground_truth}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    config = build_pipeline_config(args)
    records = read_flow_logs(args.input)
    result = run_timeline(config, records)
    out_dir = Path(config.output_dir)
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
    flagged = [e for e in result.entries if e.flagged != FLAG_NONE]
    print(f"{len(result.entries)} snapshots, {len(flagged)} flagged")
    for e in flagged:
        tops = ", ".join(f"{c.label or '?'}({c.distance:.2f})" for c in e.contributors)
        print(
            f"entry {e.index} [{e.window_start:.0f}, {e.window_end:.0f}) "
            f"cd={e.cd_to_previous:.3f} flag={e.flagged} noise={e.noise_count} top: {tops}"
        )
    return 0


def _cmd_drilldown(args: argparse.Namespace) -> int:
    config = build_pipeline_config(args)
    records = read_flow_logs(args.input)
    entry = timeline_entry(config, records, args.entry)
    report = drilldown(entry, records, config)
    out_path = Path(args.out) if args.out else Path(config.output_dir) / f"drilldown_{args.entry:04d}.csv"
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
    config = build_pipeline_config(args)
    eps_grid = _parse_grid(args.eps_grid)
    if eps_grid[0] <= 0 or any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ConfigError(f"--eps-grid must be positive and ascending, got {args.eps_grid!r}")
    snapshots = config_windows(config, read_flow_logs(args.input))
    if not snapshots:
        raise InputError("no snapshots produced from input")
    if not 0 <= args.snapshot < len(snapshots):
        raise InputError(f"snapshot {args.snapshot} out of range (0..{len(snapshots) - 1})")
    ground_truth = GroundTruth.load(args.ground_truth)
    try:
        rows = epsilon_sweep(
            snapshots[args.snapshot],
            ground_truth,
            eps_grid,
            feature_mode=args.feature_mode,
            min_flow=config.min_flow,
            percentiles=config.percentiles,
            min_pts=config.min_pts,
        )
    except ValueError as exc:  # the grid and config are checked above: a clustered cache has no label
        raise InputError(f"{args.ground_truth}: {exc}") from None
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
    if not stars_list or not extra_list:
        raise ConfigError("calibrate needs non-empty --stars and --extra-stars")
    if min(stars_list) < 1 or args.trials < 1 or (args.dim is not None and args.dim < 1):
        raise ConfigError("calibrate needs --stars, --trials and --dim >= 1")
    if args.trials > MAX_TRIALS:
        raise ConfigError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    if min(e_grid) < 0 or min(extra_list) < 0 or args.seed < 0:
        raise ConfigError("calibrate needs --e-grid, --extra-stars and --seed >= 0")
    largest = max(stars_list)
    reach = math.sqrt(args.dim or largest) + max(e_grid)  # bounds every star difference's length
    if not math.isfinite(reach * reach):
        raise ConfigError(f"--e-grid {max(e_grid)!r} is too large: squared star distances overflow")
    if (largest + max(extra_list)) * max(largest, args.dim or largest) > MAX_CALIBRATION_ELEMENTS:
        raise ConfigError(f"--stars/--extra-stars/--dim: a matrix over {MAX_CALIBRATION_ELEMENTS} elements")
    rows = (  # lazy: --out is opened before the first trial runs
        [n, repr(e), extra, args.trials]
        + [repr(cd_calibration(n, e, args.trials, extra, seed=args.seed, dim=args.dim))]
        for n in stars_list
        for extra in extra_list
        for e in e_grid
    )
    write_csv(args.out, "stars,e,extra_stars,trials,mean_cd".split(","), rows)
    print(f"wrote calibration grid to {args.out}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    if not -24 <= args.utc_offset <= 24:
        raise ConfigError(f"--utc-offset must lie in [-24, 24], got {args.utc_offset}")
    matrix = rank_matrix(read_flow_logs(args.input), args.utc_offset)
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
    p_sw.add_argument("--eps-grid", default="0.005:0.2:0.005", help="start:stop:step or comma list")
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
    p_rank.add_argument("--utc-offset", type=float, default=0.0)
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
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
