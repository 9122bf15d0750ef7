"""End-to-end timeline: snapshots -> features -> clustering -> CD, plus drill-down and the rank matrix."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .constellation import (
    CD_REPORT_HEADER,
    CDReport,
    build_constellation,
    cd_report_rows,
    constellation_distance,
    joint_bounds,
)
from .dbscan import Clustering, ClusterParams, DEFAULT_EPSILON, DEFAULT_MIN_PTS, dbscan
from .errors import ConfigError, InputError, require_finite
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
    FlowTable,
    Snapshot,
    parse_cache_hostname,
    window_flows,
    write_csv,
)

FLAG_NONE = "none"
FLAG_EVENT = "event"
FLAG_MAJOR = "major"

THROUGHPUT_DECILES = tuple(float(q) for q in range(10, 100, 10))

Airports = tuple[list[str], np.ndarray]  # see _airport_codes


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the full pipeline; defaults follow the method's tuning. A bad value raises ConfigError when built."""

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

    def __post_init__(self) -> None:
        require_finite(self)
        if self.window_days <= 0 or self.step_days <= 0:
            raise ConfigError("window_days and step_days must be positive")
        if self.min_flow < 1:
            raise ConfigError("min_flow must be >= 1")
        if self.event_threshold <= 0 or self.major_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.event_threshold > self.major_threshold:
            raise ConfigError("event_threshold must not exceed major_threshold")
        if self.top_stars < 1:
            raise ConfigError("top_stars must be >= 1")
        if not -24 <= self.utc_offset_hours <= 24:
            raise ConfigError("utc_offset_hours must lie in [-24, 24]")
        try:
            ClusterParams(self.epsilon, self.min_pts)
            _validate_percentiles(self.percentiles)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
    bounds: NormalizationBounds  # (inf, -inf) per metric without caches: the range joint_bounds leaves unchanged
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
    with np.errstate(over="ignore"):  # features are >= 0, so a finite column sum bounds every star's sum
        if not np.isfinite(features.raw.sum(axis=0)).all():
            raise InputError(f"snapshot {snapshot.index}: the features of its caches sum beyond the float range")
    points, bounds = normalize_snapshot(features)
    if not len(features):
        import logging  # here, so that a run without an empty window never loads it

        logging.getLogger(__name__).warning(
            "snapshot %d has no caches above min_flow=%d", snapshot.index, config.min_flow
        )
    clustering = dbscan(points, features.cache_ids, ClusterParams(config.epsilon, config.min_pts))
    return SnapshotState(snapshot, features, bounds, clustering)


def plurality(groups: np.ndarray, choices: np.ndarray, n_groups: int, n_choices: int) -> np.ndarray:
    """Each group's winning choice index, where vote i goes to ``choices[i]`` in group ``groups[i]``.

    Most votes win, ties go to the smallest index, a choice of -1 casts no vote, and a group
    with no votes gets -1.
    """
    voting = choices >= 0
    pairs, counts = np.unique(groups[voting] * n_choices + choices[voting], return_counts=True)
    group, choice = np.divmod(pairs, n_choices)
    order = np.lexsort((-counts, group))  # stable: equal counts keep the smaller choice first
    voted, first = np.unique(group[order], return_index=True)
    winner = np.full(n_groups, -1, dtype=np.intp)
    winner[voted] = choice[order[first]]
    return winner


def _member_rows(flows: FlowTable, members: Iterable[str]) -> np.ndarray:
    """The mask of the flows whose cache (server_ip) is one of ``members``."""
    return np.isin(flows.server_ip.names, members)[flows.server_ip.codes]


def _star_label(snapshot: Snapshot, members: Iterable[str], airports: Airports) -> str | None:
    """The plurality of the members' labels, each the plurality of its flows' airport codes (see _airport_codes)."""
    codes, code_of = airports
    flows = snapshot.flows
    rows = _member_rows(flows, members)
    caches = len(flows.server_ip.names)  # a cache without member rows gets -1, which casts no vote
    votes = plurality(flows.server_ip.codes[rows], code_of[flows.hostname.codes[rows]], caches, len(codes))
    star = plurality(np.zeros(caches, dtype=np.intp), votes, 1, len(codes))[0]
    return None if star < 0 else codes[star]


def config_windows(config: PipelineConfig, records: FlowTable) -> list[Snapshot]:
    """The snapshots of ``records`` under the config's window, step and UTC offset."""
    return window_flows(
        records,
        config.window_days * DAY_SECONDS,
        config.step_days * DAY_SECONDS,
        utc_offset_hours=config.utc_offset_hours,
    )


def _timeline_windows(config: PipelineConfig, records: FlowTable) -> list[Snapshot]:
    snapshots = config_windows(config, records)
    if len(snapshots) < 2:
        raise InputError(f"only {len(snapshots)} snapshot(s); the timeline needs at least 2 "
                         "(trace shorter than one window plus one step?)")
    return snapshots


def _airport_codes(records: FlowTable) -> Airports:
    """The sorted distinct airport codes of the table's hostnames, and hostname h's index into them (-1: none)."""
    iata = [parse_cache_hostname(h) for h in records.hostname.names.tolist()]
    codes = sorted(set(iata) - {None})
    index = {code: i for i, code in enumerate(codes)}
    return codes, np.array([index.get(code, -1) for code in iata], dtype=np.intp)


def _entry(
    states: Sequence[SnapshotState], config: PipelineConfig, airports: Airports
) -> tuple[TimelineEntry, CDReport | None]:
    """The timeline entry of ``states[-1]``, and its CD report against ``states[-2]`` if given."""
    *prev, state = states
    report, contributors = None, []
    if prev:
        bounds = joint_bounds(prev[0].bounds, state.bounds)
        const_a, const_b = (build_constellation(s.clustering, s.features, bounds) for s in (prev[0], state))
        report = constellation_distance(const_a, const_b)
        for side, coupling in report.contributors()[: config.top_stars]:
            source, const = (prev[0], const_a) if side == "a" else (state, const_b)
            members = const.members[coupling.star_index]
            contributors.append(
                StarContribution(
                    side=side,
                    star_id=coupling.star_index,
                    label=_star_label(source.snapshot, members, airports),
                    distance=coupling.distance,
                    members=members,
                )
            )
    cd = None if report is None else report.cd_value
    return TimelineEntry(
        index=state.snapshot.index,
        window_start=state.snapshot.window_start,
        window_end=state.snapshot.window_end,
        cd_to_previous=cd,
        noise_count=len(state.clustering.noise),
        flagged=flag_for(cd, config),
        contributors=tuple(contributors),
    ), report


def run_timeline(config: PipelineConfig, records: FlowTable) -> TimelineResult:
    """Slide the window over the trace and compare each consecutive pair.

    Entry 0 has no previous snapshot, so its CD is undefined. A snapshot with
    zero qualifying caches still participates: its empty constellation makes
    every partner star couple at the sentinel distance.
    """
    states = tuple(analyze_snapshot(s, config) for s in _timeline_windows(config, records))
    airports = _airport_codes(records)
    entries, reports = zip(*(_entry(states[max(i - 1, 0) : i + 1], config, airports) for i in range(len(states))))
    return TimelineResult(entries=entries, reports=reports, states=states)


def timeline_entry(config: PipelineConfig, records: FlowTable, index: int) -> TimelineEntry:
    """``run_timeline(config, records).entries[index]``, analysing only windows index - 1 and index."""
    snapshots = _timeline_windows(config, records)
    if not 0 <= index < len(snapshots):
        raise InputError(f"entry {index} out of range (0..{len(snapshots) - 1})")
    states = [analyze_snapshot(s, config) for s in snapshots[max(index - 1, 0) : index + 1]]
    return _entry(states, config, _airport_codes(records))[0]


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


def drilldown(entry: TimelineEntry, records: FlowTable, config: PipelineConfig) -> DrilldownReport:
    """Per-star member, throughput and RTT summary for a flagged entry.

    "Before" is snapshot ``entry.index - 1`` of ``config_windows``, "after"
    is snapshot ``entry.index``. Unflagged entries yield an empty report; a
    flagged entry 0 has no "before" and raises ValueError. Groups with no
    flows in a phase (a dead node after its death) report NaN quantiles.
    """
    stars = []
    if entry.flagged != FLAG_NONE:
        if entry.index < 1:
            raise ValueError(f"flagged entry {entry.index} has no previous window")
        windows = [w.flows for w in config_windows(config, records)[entry.index - 1 : entry.index + 1]]
        for contrib in entry.contributors:
            (thr_before, rtt_before), (thr_after, rtt_after) = (
                (flows.avg_throughput[is_member], flows.min_rtt[is_member])
                for flows in windows for is_member in [_member_rows(flows, contrib.members)])
            stars.append(
                StarDrilldown(
                    side=contrib.side,
                    star_id=contrib.star_id,
                    label=contrib.label,
                    distance=contrib.distance,
                    member_count=len(contrib.members),
                    throughput_deciles_before=tuple(percentile_vector(thr_before, THROUGHPUT_DECILES).tolist()),
                    throughput_deciles_after=tuple(percentile_vector(thr_after, THROUGHPUT_DECILES).tolist()),
                    rtt_percentiles_before=tuple(percentile_vector(rtt_before, config.percentiles).tolist()),
                    rtt_percentiles_after=tuple(percentile_vector(rtt_after, config.percentiles).tolist()),
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


@dataclass(frozen=True)
class RankMatrix:
    """Per-day flow-count ranks (1 = most flows); rows are caches."""

    cache_ids: tuple[str, ...]
    day_starts: tuple[float, ...]
    ranks: np.ndarray  # shape (n_caches, n_days)


def rank_matrix(records: FlowTable, utc_offset_hours: float = 0.0) -> RankMatrix:
    """Rank caches by flow count in each 1-day timeline window.

    Ties break by cache_id ascending. Caches observed in any window are ranked
    in every window; zero-count caches sort after every cache with flows.
    """
    days = window_flows(records, DAY_SECONDS, DAY_SECONDS, utc_offset_hours=utc_offset_hours)
    if not days:
        raise ValueError("rank_matrix needs at least one record")
    names = records.server_ip.names
    counts = np.array([np.bincount(d.flows.server_ip.codes, minlength=len(names)) for d in days]).T
    seen = sorted(np.flatnonzero(counts.sum(axis=1)).tolist(), key=names.__getitem__)
    counts, cache_ids = counts[seen], tuple(names[seen].tolist())
    # A stable sort keeps equal counts in cache_id order; the argsort of that order is each cache's place.
    ranks = np.argsort(np.argsort(-counts, axis=0, kind="stable"), axis=0) + 1
    return RankMatrix(cache_ids, tuple(day.window_start for day in days), ranks)


def write_rank_csv(target: IO[str] | str | Path, matrix: RankMatrix) -> None:
    header = ["cache_id", *(f"day_{d}" for d in range(matrix.ranks.shape[1]))]
    rows = ([cache_id, *ranks] for cache_id, ranks in zip(matrix.cache_ids, matrix.ranks.tolist()))
    write_csv(target, header, rows)
