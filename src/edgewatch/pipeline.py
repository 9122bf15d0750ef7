"""End-to-end timeline: snapshots -> features -> clustering -> CD, plus drill-down."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .constellation import (
    CD_REPORT_HEADER,
    CDReport,
    Constellation,
    build_constellation,
    cd_report_rows,
    constellation_distance,
    joint_bounds,
)
from .dbscan import Clustering, ClusterParams, DEFAULT_EPSILON, DEFAULT_MIN_PTS, dbscan
from .errors import ConfigError, InputError, require_finite
from .evaluation import majority_label
from .features import (
    CacheFeatures,
    DEFAULT_MIN_FLOW,
    DEFAULT_PERCENTILES,
    NormalizationBounds,
    _validate_percentiles,
    extract_cache_features,
    normalize_snapshot,
    percentile_vector,
)
from .ingest import (
    DAY_SECONDS,
    FlowLineError,
    FlowLogFormatError,
    FlowTable,
    Snapshot,
    parse_cache_hostname,
    read_flow_log,
    window_flows,
    write_csv,
)

log = logging.getLogger(__name__)

FLAG_NONE = "none"
FLAG_EVENT = "event"
FLAG_MAJOR = "major"

THROUGHPUT_DECILES = tuple(float(q) for q in range(10, 100, 10))


@dataclass
class PipelineConfig:
    """Knobs of the full pipeline; defaults follow the method's tuning."""

    window_days: float = 7.0
    step_days: float = 1.0
    min_flow: int = DEFAULT_MIN_FLOW
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    epsilon: float = DEFAULT_EPSILON
    min_pts: int = DEFAULT_MIN_PTS
    event_threshold: float = 10.0
    major_threshold: float = 50.0
    utc_offset_hours: float = 0.0
    top_stars: int = 3
    output_dir: str = "out"

    def validate(self) -> "PipelineConfig":
        require_finite(self)
        if self.window_days <= 0 or self.step_days <= 0:
            raise ConfigError("window_days and step_days must be positive")
        if self.min_flow < 1:
            raise ConfigError("min_flow must be >= 1")
        if self.event_threshold <= 0 or self.major_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.event_threshold > self.major_threshold:
            raise ConfigError("event_threshold must not exceed major_threshold")
        if self.epsilon <= 0 or self.min_pts < 1:
            raise ConfigError("bad clustering parameters")
        if self.top_stars < 1:
            raise ConfigError("top_stars must be >= 1")
        if not -24 <= self.utc_offset_hours <= 24:
            raise ConfigError("utc_offset_hours must lie in [-24, 24]")
        try:
            _validate_percentiles(self.percentiles)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


@dataclass(frozen=True)
class StarContribution:
    """One star's share of a snapshot pair's CD, with its member caches."""

    side: str  # "a" = earlier snapshot, "b" = later snapshot
    star_id: int
    label: str | None
    distance: float
    members: tuple[str, ...]


@dataclass(frozen=True)
class TimelineEntry:
    index: int
    window_start: float
    window_end: float
    cd_to_previous: float | None
    noise_count: int
    flagged: str
    contributors: tuple[StarContribution, ...]


@dataclass(frozen=True)
class SnapshotState:
    """Everything the pipeline derives from one snapshot."""

    snapshot: Snapshot
    features: CacheFeatures
    bounds: NormalizationBounds | None
    clustering: Clustering


@dataclass(frozen=True)
class TimelineResult:
    entries: tuple[TimelineEntry, ...]
    reports: tuple[CDReport | None, ...]  # aligned with entries; None for entry 0
    states: tuple[SnapshotState, ...]


def flag_for(cd: float | None, config: PipelineConfig) -> str:
    if cd is None:
        return FLAG_NONE
    if cd >= config.major_threshold:
        return FLAG_MAJOR
    if cd >= config.event_threshold:
        return FLAG_EVENT
    return FLAG_NONE


def analyze_snapshot(snapshot: Snapshot, config: PipelineConfig) -> SnapshotState:
    features = extract_cache_features(snapshot, config.min_flow, config.percentiles)
    if len(features):
        points, bounds = normalize_snapshot(features)
    else:
        points, bounds = features.raw, None
        log.warning("snapshot %d has no caches above min_flow=%d", snapshot.index, config.min_flow)
    clustering = dbscan(points, features.cache_ids, ClusterParams(config.epsilon, config.min_pts))
    return SnapshotState(snapshot, features, bounds, clustering)


def _pair_constellations(
    state_a: SnapshotState, state_b: SnapshotState
) -> tuple[Constellation, Constellation]:
    # An all-noise/empty snapshot carries no bounds; fall back to the partner's
    # so the sentinel-based CD still has a consistent geometry.
    if state_a.bounds is not None and state_b.bounds is not None:
        bounds = joint_bounds(state_a.bounds, state_b.bounds)
    else:
        bounds = state_a.bounds or state_b.bounds
    return tuple(build_constellation(s.clustering, s.features, bounds) for s in (state_a, state_b))


def _star_label(snapshot: Snapshot, members: Iterable[str], iata: np.ndarray) -> str | None:
    """Vote over the members' labels, each the vote over its flows' hostname codes.

    ``iata[h]`` is the airport code of the table's hostname h, or None.
    """
    table = snapshot.table
    caches, hosts = table.server_ip.codes[snapshot.rows], table.hostname.codes[snapshot.rows]
    members = np.flatnonzero(np.isin(table.server_ip.names, members))
    return majority_label(majority_label(iata[hosts[caches == c]].tolist()) for c in members)


def config_windows(config: PipelineConfig, records: FlowTable) -> list[Snapshot]:
    """The snapshots of ``records`` under the config's window, step and UTC offset."""
    config.validate()
    return window_flows(
        records,
        config.window_days * DAY_SECONDS,
        config.step_days * DAY_SECONDS,
        utc_offset_hours=config.utc_offset_hours,
    )


def read_flow_logs(paths: Iterable[str | Path]) -> FlowTable:
    """All flows of the given flow logs, in order; an unreadable or empty log raises InputError."""
    tables = []
    for path in paths:
        try:
            tables.append(read_flow_log(path))
        except (FlowLogFormatError, FlowLineError, UnicodeDecodeError, IsADirectoryError) as exc:
            raise InputError(f"{path}: {exc}") from exc
        if not len(tables[-1]):
            raise InputError(f"{path}: no flow records")
    return FlowTable.concat(tables)


def run_timeline(config: PipelineConfig, records: FlowTable) -> TimelineResult:
    """Slide the window over the trace and compare each consecutive pair.

    Entry 0 has no previous snapshot, so its CD is undefined. A snapshot with
    zero qualifying caches still participates: its empty constellation makes
    every partner star couple at the sentinel distance.
    """
    snapshots = config_windows(config, records)
    if len(snapshots) < 2:
        raise InputError(
            f"only {len(snapshots)} snapshot(s); the timeline needs at least 2 "
            "(trace shorter than one window plus one step?)"
        )
    states = tuple(analyze_snapshot(s, config) for s in snapshots)
    iata = np.array([parse_cache_hostname(h) for h in records.hostname.names.tolist()], dtype=object)

    entries: list[TimelineEntry] = []
    reports: list[CDReport | None] = []
    for i, state in enumerate(states):
        report, contributors = None, []
        if i > 0:
            prev = states[i - 1]
            const_a, const_b = _pair_constellations(prev, state)
            report = constellation_distance(const_a, const_b)
            for side, coupling in report.contributors()[: config.top_stars]:
                source, const = (prev, const_a) if side == "a" else (state, const_b)
                members = const.members[coupling.star_index]
                contributors.append(
                    StarContribution(
                        side=side,
                        star_id=coupling.star_index,
                        label=_star_label(source.snapshot, members, iata),
                        distance=coupling.distance,
                        members=members,
                    )
                )
        cd = None if report is None else report.cd_value
        entries.append(
            TimelineEntry(
                index=i,
                window_start=state.snapshot.window_start,
                window_end=state.snapshot.window_end,
                cd_to_previous=cd,
                noise_count=len(state.clustering.noise),
                flagged=flag_for(cd, config),
                contributors=tuple(contributors),
            )
        )
        reports.append(report)
    return TimelineResult(entries=tuple(entries), reports=tuple(reports), states=states)


@dataclass(frozen=True)
class StarDrilldown:
    """Before/after view of one contributing star's member caches."""

    side: str
    star_id: int
    label: str | None
    distance: float
    member_count: int
    throughput_deciles_before: tuple[float, ...]
    throughput_deciles_after: tuple[float, ...]
    rtt_percentiles_before: tuple[float, ...]
    rtt_percentiles_after: tuple[float, ...]


@dataclass(frozen=True)
class DrilldownReport:
    entry_index: int
    stars: tuple[StarDrilldown, ...]
    rtt_percentile_ranks: tuple[float, ...] = DEFAULT_PERCENTILES


def drilldown(
    entry: TimelineEntry,
    records: FlowTable,
    config: PipelineConfig,
) -> DrilldownReport:
    """Per-star member, throughput and RTT summary for a flagged entry.

    "Before" is the previous window (one step earlier), "after" is the
    entry's own window. Unflagged entries yield an empty report. Groups with
    no flows in a phase (a dead node after its death) report NaN quantiles.
    """
    step = config.step_days * DAY_SECONDS
    windows = {
        "before": (entry.window_start - step, entry.window_end - step),
        "after": (entry.window_start, entry.window_end),
    }
    order = records.time_order
    times = records.start_time[order]
    phase_rows = {
        phase: order[np.searchsorted(times, lo) : np.searchsorted(times, hi)]
        for phase, (lo, hi) in windows.items()
    }
    stars = []
    for contrib in entry.contributors if entry.flagged != FLAG_NONE else ():
        members = np.flatnonzero(np.isin(records.server_ip.names, contrib.members))
        phase_thr: dict[str, tuple[float, ...]] = {}
        phase_rtt: dict[str, tuple[float, ...]] = {}
        for phase, rows in phase_rows.items():
            flows = rows[np.isin(records.server_ip.codes[rows], members)]
            phase_thr[phase] = tuple(
                percentile_vector(records.avg_throughput[flows], THROUGHPUT_DECILES).tolist()
            )
            phase_rtt[phase] = tuple(
                percentile_vector(records.min_rtt[flows], config.percentiles).tolist()
            )
        stars.append(
            StarDrilldown(
                side=contrib.side,
                star_id=contrib.star_id,
                label=contrib.label,
                distance=contrib.distance,
                member_count=len(contrib.members),
                throughput_deciles_before=phase_thr["before"],
                throughput_deciles_after=phase_thr["after"],
                rtt_percentiles_before=phase_rtt["before"],
                rtt_percentiles_after=phase_rtt["after"],
            )
        )
    return DrilldownReport(
        entry_index=entry.index,
        stars=tuple(stars),
        rtt_percentile_ranks=tuple(config.percentiles),
    )


def write_timeline_csv(target: IO[str] | str | Path, entries: Sequence[TimelineEntry]) -> None:
    """timeline.csv: one row per snapshot with CD, noise count, flag, top stars."""
    rows = (
        [
            e.index,
            repr(e.window_start),
            repr(e.window_end),
            "" if e.cd_to_previous is None else repr(e.cd_to_previous),
            e.noise_count,
            e.flagged,
            ";".join(f"{c.side}{c.star_id}:{c.label or '-'}:{c.distance:.6f}" for c in e.contributors),
        ]
        for e in entries
    )
    write_csv(target, "snapshot,window_start,window_end,cd,noise_count,flag,top_stars".split(","), rows)


def write_couplings_csv(target: IO[str] | str | Path, result: TimelineResult) -> None:
    """couplings.csv: every astral coupling of every consecutive pair."""
    rows = (
        row
        for entry, report in zip(result.entries, result.reports)
        if report is not None
        for row in cd_report_rows(report, entry.index - 1, entry.index)
    )
    write_csv(target, CD_REPORT_HEADER, rows)


def write_drilldown_csv(target: IO[str] | str | Path, report: DrilldownReport) -> None:
    """Long-format CSV: entry,side,star_id,label,astral_distance,members,phase,kind,q,value."""
    rows = (
        [
            report.entry_index,
            star.side,
            star.star_id,
            star.label or "-",
            repr(star.distance),
            star.member_count,
            phase,
            kind,
            repr(float(q)),
            repr(float(value)),
        ]
        for star in report.stars
        for phase, kind, qs, values in (
            ("before", "throughput_decile", THROUGHPUT_DECILES, star.throughput_deciles_before),
            ("after", "throughput_decile", THROUGHPUT_DECILES, star.throughput_deciles_after),
            ("before", "rtt_percentile", report.rtt_percentile_ranks, star.rtt_percentiles_before),
            ("after", "rtt_percentile", report.rtt_percentile_ranks, star.rtt_percentiles_after),
        )
        for q, value in zip(qs, values)
    )
    write_csv(target, "entry,side,star_id,label,astral_distance,members,phase,kind,q,value".split(","), rows)
