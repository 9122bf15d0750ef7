"""Labeled synthetic flow-trace generator with injectable CDN change events.

The generator emulates groups of co-located caches ("edge-nodes") behind a
load balancer: per-flow RTT jitters log-normally around a node median, TTL is
constant per node (path properties are homogeneous within a node), and the
per-cache share of flows reshuffles day to day under a churn knob. Every
(day, node, cache) bucket draws from its own seeded stream, so toggling an
event perturbs only the targeted samples. Several nodes may share one label:
that models distinct edge-nodes behind a single airport code, and lets one
event retire or move a whole label group at once.

All distributional choices here are test fixtures, not claims about any real
CDN.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Sequence

import numpy as np

from .dbscan import DEFAULT_MIN_PTS
from .errors import ConfigError, require_finite
from .evaluation import GroundTruth
from .ingest import DAY_SECONDS, Codes, FlowTable, read_ini_section, text_output, window_flows

EVENT_KINDS = ("node_birth", "node_death", "path_shift", "congestion")

# 2014-01-01T00:00:00Z; midnight-aligned so day boundaries meet window starts.
DEFAULT_START_EPOCH = 1_388_534_400.0

BASELINE_THROUGHPUT_KBPS = 5_000.0
THROUGHPUT_LOG_SIGMA = 0.25
CHURN_LOG_SIGMA = 4.0  # rank_churn=1 -> sigma 4 on per-cache daily log-weights
MIN_RTT_FLOOR_MS = 0.1

_STREAM_NODE_ALLOC = 1
_STREAM_CACHE_ALLOC = 2
_STREAM_FLOWS = 3
_STREAM_CACHE_BASE = 4
_STREAM_DAY_WEIGHTS = 5


@dataclass(frozen=True)
class EdgeNodeSpec:
    """One synthetic edge-node: a group of caches with shared path properties."""

    label: str  # three letters; doubles as GT label and hostname airport code
    cache_count: int
    rtt_median: float  # ms
    rtt_spread: float  # ms, scale of the per-flow log-normal jitter
    ttl_value: int
    load_weight: float

    def __post_init__(self):
        require_finite(self)
        if not (len(self.label) == 3 and self.label.isalpha() and self.label.isascii()):
            raise ConfigError(f"node label must be 3 ASCII letters: {self.label!r}")
        if self.cache_count < DEFAULT_MIN_PTS:
            raise ConfigError(
                f"cache_count {self.cache_count} below {DEFAULT_MIN_PTS}; "
                "a healthy node must be able to form a cluster"
            )
        if self.rtt_median <= 0:
            raise ConfigError(f"rtt_median must be positive: {self.rtt_median}")
        if self.rtt_spread < 0:
            raise ConfigError(f"rtt_spread must be non-negative: {self.rtt_spread}")
        if not 0 <= self.ttl_value <= 255:
            raise ConfigError(f"ttl_value out of [0, 255]: {self.ttl_value}")
        if self.load_weight < 0:
            raise ConfigError(f"load_weight must be non-negative: {self.load_weight}")


@dataclass(frozen=True)
class EventSpec:
    """One injected change.

    node_birth: the target label emits flows only within [start_day, end_day].
    node_death: the target label emits no flows within [start_day, end_day].
    path_shift: RTT medians of the target label rise by ``magnitude`` ms.
    congestion: throughput divided by ``magnitude`` and the RTT jitter sigma
    multiplied by it (congested paths are slower and much more variable).
    """

    kind: str
    target: str
    start_day: int
    end_day: int
    magnitude: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.kind not in EVENT_KINDS:
            raise ConfigError(f"unknown event kind: {self.kind!r}")
        if self.start_day > self.end_day:
            raise ConfigError(f"event start_day {self.start_day} > end_day {self.end_day}")
        if self.kind in ("path_shift", "congestion") and self.magnitude <= 0:
            raise ConfigError(f"{self.kind} requires a positive magnitude")

    def active(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class SynthConfig:
    nodes: tuple[EdgeNodeSpec, ...]
    events: tuple[EventSpec, ...] = ()
    days: int = 14
    flows_per_day: int = 10_000
    rank_churn: float = 0.2
    seed: int = 0
    start_epoch: float = DEFAULT_START_EPOCH

    def __post_init__(self):
        require_finite(self)
        if not self.nodes:
            raise ConfigError("at least one node is required")
        if self.days < 1:
            raise ConfigError(f"days must be >= 1: {self.days}")
        if self.flows_per_day < 1:
            raise ConfigError(f"flows_per_day must be >= 1: {self.flows_per_day}")
        if not 0.0 <= self.rank_churn <= 1.0:
            raise ConfigError(f"rank_churn must lie in [0, 1]: {self.rank_churn}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        labels = {n.label for n in self.nodes}
        for ev in self.events:
            if ev.target not in labels:
                raise ConfigError(f"event targets unknown label: {ev.target!r}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def cache_identity(node_index: int, spec: EdgeNodeSpec, cache_index: int) -> tuple[str, str]:
    """(server_ip, hostname) for one synthetic cache; hostname embeds the label."""
    server_ip = f"{spec.label.lower()}{node_index:02d}-c{cache_index:02d}"
    hostname = (
        f"r{cache_index % 10}---{spec.label.lower()}{node_index:02d}t{cache_index:02d}"
        ".c.vcdn.example"
    )
    return server_ip, hostname


def _node_active(spec: EdgeNodeSpec, day: int, events: Sequence[EventSpec]) -> bool:
    births = [ev for ev in events if ev.kind == "node_birth" and ev.target == spec.label]
    if births and not any(ev.active(day) for ev in births):
        return False
    for ev in events:
        if ev.kind == "node_death" and ev.target == spec.label and ev.active(day):
            return False
    return True


def _rtt_shift(label: str, day: int, events: Sequence[EventSpec]) -> float:
    return sum(
        ev.magnitude
        for ev in events
        if ev.kind == "path_shift" and ev.target == label and ev.active(day)
    )


def _congestion_factor(label: str, day: int, events: Sequence[EventSpec]) -> float:
    factor = 1.0
    for ev in events:
        if ev.kind == "congestion" and ev.target == label and ev.active(day):
            factor *= ev.magnitude
    return factor


def _coded(keys: np.ndarray, name: Callable[[int], str]) -> Codes:
    """Dictionary-encode integer keys, naming each distinct key with ``name``."""
    distinct, codes = np.unique(keys, return_inverse=True)
    return Codes(codes.ravel(), np.array([name(k) for k in distinct.tolist()], dtype=object))


def generate_trace(config: SynthConfig) -> tuple[FlowTable, GroundTruth]:
    """Draw the whole trace day by day; identical config+seed gives identical output.

    Per day: flows are split across active nodes by load weight, then across a
    node's caches by a per-day weight vector (re-perturbed with strength
    rank_churn); each (day, node, cache) bucket then samples its flows from
    an independent derived stream. Each day's flows are in start-time order.
    Ground truth maps every cache that emitted at least one flow to its node
    label.
    """
    identities = [
        [cache_identity(i, spec, j) for j in range(spec.cache_count)]
        for i, spec in enumerate(config.nodes)
    ]
    base_weights = []
    for i, spec in enumerate(config.nodes):
        # Heavy-tailed but floored: the busiest caches dominate, yet no cache
        # starves to the point of never clearing a MinFlow cut.
        w = _rng(config.seed, _STREAM_CACHE_BASE, i).exponential(1.0, spec.cache_count) + 0.5
        base_weights.append(w / w.sum())

    # start, cache, client, rtt, ttl, up, down, throughput; rows [0, end) are filled.
    dtypes = (np.float64, np.intp, np.int64, np.float64, np.int64, np.int64, np.int64, np.float64)
    columns = [np.empty(config.days * config.flows_per_day, dtype) for dtype in dtypes]
    end = 0
    gt_labels: dict[str, str] = {}
    first_cache = np.cumsum([0, *(spec.cache_count for spec in config.nodes)])
    for day in range(config.days):
        day_start = config.start_epoch + day * DAY_SECONDS
        node_weights = np.array(
            [
                spec.load_weight if _node_active(spec, day, config.events) else 0.0
                for spec in config.nodes
            ]
        )
        total = node_weights.sum()
        if total <= 0:
            continue
        node_counts = _rng(config.seed, _STREAM_NODE_ALLOC, day).multinomial(
            config.flows_per_day, node_weights / total
        )
        day_begin = end
        for i, spec in enumerate(config.nodes):
            if node_counts[i] == 0:
                continue
            weights = base_weights[i]
            if config.rank_churn > 0:
                noise = _rng(config.seed, _STREAM_DAY_WEIGHTS, day, i).standard_normal(
                    spec.cache_count
                )
                weights = weights * np.exp(CHURN_LOG_SIGMA * config.rank_churn * noise)
                weights = weights / weights.sum()
            cache_counts = _rng(config.seed, _STREAM_CACHE_ALLOC, day, i).multinomial(
                int(node_counts[i]), weights
            )
            shift = _rtt_shift(spec.label, day, config.events)
            congestion = _congestion_factor(spec.label, day, config.events)
            sigma = (spec.rtt_spread / spec.rtt_median) * congestion
            for j in range(spec.cache_count):
                count = int(cache_counts[j])
                if count == 0:
                    continue
                server_ip, hostname = identities[i][j]
                gt_labels[server_ip] = spec.label
                rng = _rng(config.seed, _STREAM_FLOWS, day, i, j)
                offsets = rng.uniform(0.0, DAY_SECONDS, count)
                jitter = spec.rtt_median * (np.exp(sigma * rng.standard_normal(count)) - 1.0)
                rtt = np.maximum(MIN_RTT_FLOOR_MS, spec.rtt_median + shift + jitter)
                throughput = (
                    BASELINE_THROUGHPUT_KBPS
                    * np.exp(THROUGHPUT_LOG_SIGMA * rng.standard_normal(count))
                    / congestion
                )
                duration = rng.lognormal(math.log(45.0), 0.5, count)
                bytes_down = (throughput * 125.0 * duration).astype(np.int64)
                bytes_up = (bytes_down * 0.012).astype(np.int64)
                clients = rng.integers(0, 1_000_000, count)
                values = (day_start + offsets, first_cache[i] + j, clients, rtt, spec.ttl_value, bytes_up,
                          bytes_down, throughput)
                for column, v in zip(columns, values):
                    column[end : end + count] = v
                end += count
        order = day_begin + np.argsort(columns[0][day_begin:end], kind="stable")
        for column in columns:
            column[day_begin:end] = column[order]
    start, cache, client, *numbers = (column[:end] for column in columns)
    servers, hostnames = zip(*(identity for node in identities for identity in node))
    return FlowTable(
        start, _coded(client, "u{:06d}".format), _coded(cache, servers.__getitem__),
        _coded(cache, hostnames.__getitem__), *numbers,
    ), GroundTruth(gt_labels)


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
    counts = np.array([np.bincount(records.server_ip.codes[d.rows], minlength=len(names)) for d in days]).T
    seen = sorted(np.flatnonzero(counts.sum(axis=1)).tolist(), key=names.__getitem__)
    counts, cache_ids = counts[seen], tuple(names[seen].tolist())
    ranks = np.zeros(counts.shape, dtype=np.int64)
    for d in range(len(days)):
        # A stable sort keeps equal counts in cache_id order.
        ranks[np.argsort(-counts[:, d], kind="stable"), d] = np.arange(1, len(cache_ids) + 1)
    return RankMatrix(cache_ids, tuple(day.window_start for day in days), ranks)


def write_rank_csv(target: IO[str] | str | Path, matrix: RankMatrix) -> None:
    n_days = matrix.ranks.shape[1]
    with text_output(target) as fp:
        fp.write("cache_id," + ",".join(f"day_{d}" for d in range(n_days)) + "\n")
        for i, cache_id in enumerate(matrix.cache_ids):
            fp.write(cache_id + "," + ",".join(str(v) for v in matrix.ranks[i]) + "\n")


def load_synth_config(path: str | Path) -> SynthConfig:
    """Read the plain-text section/key-value config documented in the README."""
    trace = read_ini_section(path, "trace")
    parser = trace.parser
    nodes = []
    events = []
    try:
        for section in parser.sections():
            if section.startswith("node"):
                s = parser[section]
                label = s.get("label", section.split(None, 1)[1] if " " in section else "")
                nodes.append(
                    EdgeNodeSpec(
                        label=label.upper(),
                        cache_count=s.getint("caches"),
                        rtt_median=s.getfloat("rtt_median_ms"),
                        rtt_spread=s.getfloat("rtt_spread_ms", 1.5),
                        ttl_value=s.getint("ttl"),
                        load_weight=s.getfloat("weight", 1.0),
                    )
                )
            elif section.startswith("event"):
                s = parser[section]
                events.append(
                    EventSpec(
                        kind=s.get("kind"),
                        target=s.get("target", "").upper(),
                        start_day=s.getint("start_day"),
                        end_day=s.getint("end_day"),
                        magnitude=s.getfloat("magnitude", 0.0),
                    )
                )
        return SynthConfig(
            nodes=tuple(nodes),
            events=tuple(events),
            days=trace.getint("days", 14),
            flows_per_day=trace.getint("flows_per_day", 10_000),
            rank_churn=trace.getfloat("rank_churn", 0.2),
            seed=trace.getint("seed", 0),
            start_epoch=trace.getfloat("start_epoch", DEFAULT_START_EPOCH),
        )
    except (ValueError, TypeError, configparser.Error) as exc:
        raise ConfigError(f"bad synth config {path}: {exc}") from None
