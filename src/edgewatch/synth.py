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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dbscan import DEFAULT_MIN_PTS
from .errors import ConfigError, require_finite
from .evaluation import GroundTruth
from .ingest import DAY_SECONDS, Codes, FlowTable, config_from, read_ini_section
from .streams import reseed, stream_seeds

EVENT_KINDS = ("node_birth", "node_death", "path_shift", "congestion")

# 2014-01-01T00:00:00Z; midnight-aligned so day boundaries meet window starts.
DEFAULT_START_EPOCH = 1_388_534_400.0

BASELINE_THROUGHPUT_KBPS = 5_000.0
THROUGHPUT_LOG_SIGMA = 0.25
CHURN_LOG_SIGMA = 4.0  # rank_churn=1 -> sigma 4 on per-cache daily log-weights
MIN_RTT_FLOOR_MS = 0.1
MAX_FLOWS = 100_000_000  # days * flows_per_day; the generator holds them all in memory
MAX_CACHES = 1_000_000  # summed over nodes; the generator names every cache up front

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
        if self.days * self.flows_per_day > MAX_FLOWS:
            raise ConfigError(f"days * flows_per_day is more than {MAX_FLOWS} flows")
        if sum(n.cache_count for n in self.nodes) > MAX_CACHES:
            raise ConfigError(f"the nodes hold more than {MAX_CACHES} caches")
        if not 0.0 <= self.rank_churn <= 1.0:
            raise ConfigError(f"rank_churn must lie in [0, 1]: {self.rank_churn}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        labels = {n.label for n in self.nodes}
        for ev in self.events:
            if ev.target not in labels:
                raise ConfigError(f"event targets unknown label: {ev.target!r}")
        # A node's activity changes only on an event's start day and the day after its end.
        days = {0, *(d for ev in self.events for d in (ev.start_day, ev.end_day + 1) if 0 < d < self.days)}
        if not any(n.load_weight > 0 and _node_day(n.label, d, self.events)[0] for d in days for n in self.nodes):
            raise ConfigError("no node with a positive weight is active on any day: the trace has no flows")


def cache_identity(node_index: int, spec: EdgeNodeSpec, cache_index: int) -> tuple[str, str]:
    """(server_ip, hostname) for one synthetic cache; hostname embeds the label."""
    server_ip = f"{spec.label.lower()}{node_index:02d}-c{cache_index:02d}"
    hostname = (
        f"r{cache_index % 10}---{spec.label.lower()}{node_index:02d}t{cache_index:02d}"
        ".c.vcdn.example"
    )
    return server_ip, hostname


def _node_day(label: str, day: int, events: Sequence[EventSpec]) -> tuple[bool, float, float]:
    """(active, RTT shift in ms, congestion factor) of the label's nodes on ``day``.

    A label with birth events is active only within one of them, and a death silences it; shifts add and
    congestion factors multiply, in event order.
    """
    mine = [ev for ev in events if ev.target == label]
    live = [ev for ev in mine if ev.active(day)]
    kinds = {ev.kind for ev in live}
    born = "node_birth" in kinds or all(ev.kind != "node_birth" for ev in mine)
    shift = sum((ev.magnitude for ev in live if ev.kind == "path_shift"), 0.0)
    congestion = math.prod((ev.magnitude for ev in live if ev.kind == "congestion"), start=1.0)
    return born and "node_death" not in kinds, shift, congestion


def _client_ids(numbers: np.ndarray) -> np.ndarray:
    """``"u%06d" % n`` of each n in [0, 10**6), as an object array; 1,024 rows at a time, so temporaries stay small."""
    ids, text = np.empty(len(numbers), dtype=object), np.empty((1024, 8), dtype=np.uint8)
    text[:, 0], text[:, 7] = ord("u"), ord("\n")
    for lo in range(0, len(numbers), 1024):
        block = numbers[lo : lo + 1024]
        text[: len(block), 1:7] = block[:, None] // 10 ** np.arange(5, -1, -1) % 10 + ord("0")
        ids[lo : lo + len(block)] = text[: len(block)].tobytes().decode("ascii").splitlines()
    return ids


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
    # Every stream is seeded from its key by stream_seeds, one pass per key kind and day, and drawn by rng.
    rng, nodes = np.random.Generator(np.random.PCG64(0)), np.arange(len(config.nodes))
    first_cache = np.cumsum([0, *(spec.cache_count for spec in config.nodes)])
    sizes = np.diff(first_cache)
    cache_keys = (np.repeat(nodes, sizes), np.arange(first_cache[-1]) - np.repeat(first_cache[:-1], sizes))  # (node, j)
    node_streams = np.repeat([_STREAM_CACHE_ALLOC, _STREAM_DAY_WEIGHTS], len(nodes))
    base_weights = []
    for spec, seed in zip(config.nodes, stream_seeds(config.seed, _STREAM_CACHE_BASE, nodes)):
        # Heavy-tailed but floored: the busiest caches dominate, yet no cache
        # starves to the point of never clearing a MinFlow cut.
        w = reseed(rng, seed).exponential(1.0, spec.cache_count) + 0.5
        base_weights.append(w / w.sum())

    # Rows [0, end) are filled.
    dtypes = (np.float64, np.intp, np.int64, np.float64, np.int64, np.int64, np.int64, np.float64)
    columns = [np.empty(config.days * config.flows_per_day, dtype) for dtype in dtypes]
    start, cache, client, rtt, ttl, up, down, throughput = columns
    end = 0
    gt_labels: dict[str, str] = {}
    for day in range(config.days):
        day_start = config.start_epoch + day * DAY_SECONDS
        states = [_node_day(spec.label, day, config.events) for spec in config.nodes]  # (active, shift, congestion)
        node_weights = np.array([spec.load_weight if state[0] else 0.0 for spec, state in zip(config.nodes, states)])
        total = node_weights.sum()
        if total <= 0:
            continue
        node_counts = reseed(rng, stream_seeds(config.seed, _STREAM_NODE_ALLOC, day)[0]).multinomial(
            config.flows_per_day, node_weights / total
        )
        # Rows: each node's cache allocation, then each node's churn; and each cache's flows.
        node_seeds = stream_seeds(config.seed, node_streams, day, np.tile(nodes, 2))
        flow_seeds = stream_seeds(config.seed, _STREAM_FLOWS, day, *cache_keys)
        day_begin = end
        for i, spec in enumerate(config.nodes):
            if node_counts[i] == 0:
                continue
            weights = base_weights[i]
            if config.rank_churn > 0:
                noise = reseed(rng, node_seeds[len(nodes) + i]).standard_normal(spec.cache_count)
                weights = weights * np.exp(CHURN_LOG_SIGMA * config.rank_churn * noise)
                weights = weights / weights.sum()
            cache_counts = reseed(rng, node_seeds[i]).multinomial(int(node_counts[i]), weights)
            _, shift, congestion = states[i]
            sigma = (spec.rtt_spread / spec.rtt_median) * congestion
            # Each bucket draws into its rows, its uniforms into the start column and its normals into the rtt
            # and throughput columns; the arithmetic then runs once over the node's rows for the day.
            rows, duration = slice(end, end + int(node_counts[i])), np.empty(int(node_counts[i]))
            bounds = [0, *np.cumsum(cache_counts).tolist()]
            for j in np.flatnonzero(cache_counts).tolist():
                lo, hi = bounds[j], bounds[j + 1]
                bucket, count = slice(end + lo, end + hi), hi - lo
                gt_labels[identities[i][j][0]] = spec.label
                reseed(rng, flow_seeds[first_cache[i] + j])
                rng.random(out=start[bucket])  # scaled below: the doubles of uniform(0.0, DAY_SECONDS, count)
                rtt[bucket], throughput[bucket] = rng.standard_normal((2, count))  # C order: the first count go to rtt
                duration[lo:hi] = rng.lognormal(math.log(45.0), 0.5, count)
                client[bucket] = rng.integers(0, 1_000_000, count)
                cache[bucket] = first_cache[i] + j
            jitter = spec.rtt_median * (np.exp(sigma * rtt[rows]) - 1.0)
            rtt[rows] = np.maximum(MIN_RTT_FLOOR_MS, spec.rtt_median + shift + jitter)
            throughput[rows] = (
                BASELINE_THROUGHPUT_KBPS * np.exp(THROUGHPUT_LOG_SIGMA * throughput[rows]) / congestion
            )
            down[rows] = (throughput[rows] * 125.0 * duration).astype(np.int64)
            up[rows] = (down[rows] * 0.012).astype(np.int64)
            start[rows] = day_start + start[rows] * DAY_SECONDS
            ttl[rows] = spec.ttl_value
            end = rows.stop
        order = day_begin + np.argsort(start[day_begin:end], kind="stable")
        for column in columns:
            column[day_begin:end] = column[order]
    node_seeds = flow_seeds = cache_keys = None  # freed before the client ids are built
    start, cache, client, *numbers = (column[:end] for column in columns)
    seen = np.bincount(cache, minlength=first_cache[-1]) > 0  # names only the caches that have flows
    codes = np.take(np.cumsum(seen) - 1, cache, out=cache, mode="clip")  # in place: no whole-trace temporary
    servers, hostnames = np.array([i for node in identities for i in node], dtype=object)[seen].T
    return FlowTable(
        start, _client_ids(client), Codes(codes, servers), Codes(codes, hostnames), *numbers
    ), GroundTruth(gt_labels)


# INI key -> EdgeNodeSpec field
_NODE_KEYS = {"caches": "cache_count", "rtt_median_ms": "rtt_median", "rtt_spread_ms": "rtt_spread",
              "ttl": "ttl_value", "weight": "load_weight"}


def load_synth_config(path: str | Path) -> SynthConfig:
    """Read the plain-text section/key-value config documented in the README."""
    trace = read_ini_section(path, "trace")
    nodes, events = [], []
    for name in trace.parser.sections():
        kind, suffix = (*name.split(None, 1), "", "")[:2]
        texts, where = dict(trace.parser[name]), f"{path} [{name}]"
        if kind == "node":
            texts = {"label": suffix, "rtt_spread_ms": "1.5", "weight": "1.0", **texts}
            texts["label"] = texts["label"].upper()
            nodes.append(config_from(EdgeNodeSpec, texts, where, _NODE_KEYS))
        elif kind == "event":
            if "target" in texts:
                texts["target"] = texts["target"].upper()
            events.append(config_from(EventSpec, texts, where))
        elif name != "trace":
            raise ConfigError(f"{path}: unknown section [{name}]")
    return config_from(SynthConfig, trace, f"{path} [trace]", nodes=tuple(nodes), events=tuple(events))
