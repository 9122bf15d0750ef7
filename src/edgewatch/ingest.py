"""Flow-log ingestion: TSV parsing, cache hostname decoding, sliding time windows."""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

FLOW_LOG_COLUMNS = (
    "start_time",
    "client_id",
    "server_ip",
    "hostname",
    "min_rtt_ms",
    "ttl",
    "bytes_up",
    "bytes_down",
    "avg_thr_kbps",
)
FLOW_LOG_HEADER = "\t".join(FLOW_LOG_COLUMNS)

DAY_SECONDS = 86_400.0


class FlowLogFormatError(ValueError):
    """Fatal log-format problem (missing or wrong header)."""


class FlowLineError(ValueError):
    """One malformed data line; parsing may skip it and continue."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One TCP flow as logged by the passive probe.

    ``server_ip`` is the cache's unique identity downstream; it may be a
    dotted quad or an opaque token (synthetic traces use symbolic names).
    """

    start_time: float  # epoch seconds, fractional allowed
    client_id: str
    server_ip: str
    hostname: str
    min_rtt: float  # milliseconds
    ttl: int  # [0, 255]
    bytes_up: int
    bytes_down: int
    avg_throughput: float  # kb/s


@dataclass(frozen=True, slots=True)
class CacheName:
    """Decoded cache hostname; ``iata`` is present only for plain-form names."""

    raw: str
    iata: str | None
    machine_suffix: str


# Plain form: r<digits>---<3 letters><alnum>.<domain>. Names that do not match
# (e.g. cipher-obfuscated ones) are treated as opaque.
_PLAIN_HOSTNAME_RE = re.compile(
    r"^r\d+---(?P<iata>[A-Za-z]{3})(?P<suffix>[0-9A-Za-z]*)\.(?P<domain>.+)$"
)


def parse_cache_hostname(hostname: str) -> CacheName:
    """Extract the airport code from a plain-form cache hostname.

    Any string is accepted; non-matching names come back with ``iata=None``.
    """
    m = _PLAIN_HOSTNAME_RE.match(hostname)
    if m is None:
        return CacheName(raw=hostname, iata=None, machine_suffix="")
    return CacheName(raw=hostname, iata=m.group("iata").upper(), machine_suffix=m.group("suffix"))


def _parse_line(line_number: int, line: str) -> FlowRecord:
    fields = line.split("\t")
    if len(fields) != len(FLOW_LOG_COLUMNS):
        raise FlowLineError(
            line_number, f"expected {len(FLOW_LOG_COLUMNS)} fields, got {len(fields)}"
        )
    (raw_start, client_id, server_ip, hostname, raw_rtt, raw_ttl, raw_up, raw_down, raw_thr) = fields
    try:
        start_time = float(raw_start)
        min_rtt = float(raw_rtt)
        ttl = int(raw_ttl)
        bytes_up = int(raw_up)
        bytes_down = int(raw_down)
        avg_throughput = float(raw_thr)
    except ValueError as exc:
        raise FlowLineError(line_number, f"bad numeric field: {exc}") from None
    if not server_ip:
        raise FlowLineError(line_number, "empty server_ip")
    if min_rtt < 0 or not math.isfinite(min_rtt):
        raise FlowLineError(line_number, f"min_rtt out of range: {min_rtt}")
    if not 0 <= ttl <= 255:
        raise FlowLineError(line_number, f"ttl out of range: {ttl}")
    if bytes_up < 0 or bytes_down < 0:
        raise FlowLineError(line_number, "negative byte count")
    if avg_throughput < 0 or not math.isfinite(avg_throughput):
        raise FlowLineError(line_number, f"throughput out of range: {avg_throughput}")
    if not math.isfinite(start_time):
        raise FlowLineError(line_number, f"non-finite start_time: {raw_start}")
    return FlowRecord(
        start_time=start_time,
        client_id=client_id,
        server_ip=server_ip,
        hostname=hostname,
        min_rtt=min_rtt,
        ttl=ttl,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
        avg_throughput=avg_throughput,
    )


def parse_flow_log(
    source: IO[str] | Iterable[str],
    errors: list[FlowLineError] | None = None,
) -> Iterator[FlowRecord]:
    """Stream FlowRecords out of a TSV flow log.

    The first line must be exactly the fixed header, otherwise
    FlowLogFormatError is raised. Malformed data lines raise FlowLineError,
    unless ``errors`` is a list, in which case they are appended there and
    skipped (skip-and-count mode). Lazy: consumes ``source`` on iteration.
    """
    lines = iter(source)
    try:
        header = next(lines).rstrip("\r\n")
    except StopIteration:
        raise FlowLogFormatError("empty stream, missing header") from None
    if header != FLOW_LOG_HEADER:
        raise FlowLogFormatError(f"bad header: {header!r}")
    for line_number, raw in enumerate(lines, start=2):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        try:
            yield _parse_line(line_number, line)
        except FlowLineError as exc:
            if errors is None:
                raise
            errors.append(exc)


def read_flow_log(path: str | Path, errors: list[FlowLineError] | None = None) -> list[FlowRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return list(parse_flow_log(fp, errors=errors))


def format_flow_record(record: FlowRecord) -> str:
    for field in (record.client_id, record.server_ip, record.hostname):
        if "\t" in field or "\n" in field or "\r" in field:
            raise ValueError(f"field not serializable to TSV: {field!r}")
    return "\t".join(
        (
            repr(record.start_time),
            record.client_id,
            record.server_ip,
            record.hostname,
            repr(record.min_rtt),
            str(record.ttl),
            str(record.bytes_up),
            str(record.bytes_down),
            repr(record.avg_throughput),
        )
    )


@contextmanager
def text_output(target: IO[str] | str | Path) -> Iterator[IO[str]]:
    """Yield ``target`` if it is a stream, else the path opened for UTF-8 writing.

    Every writer takes a path or a stream through this, and writes LF line
    endings on every platform.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fp:
            yield fp
    else:
        yield target


def write_flow_log(target: IO[str] | str | Path, records: Iterable[FlowRecord]) -> None:
    """Write records in the TSV format; floats use repr so parsing round-trips."""
    with text_output(target) as fp:
        fp.write(FLOW_LOG_HEADER + "\n")
        for record in records:
            fp.write(format_flow_record(record) + "\n")


@dataclass(frozen=True)
class Snapshot:
    """All flows of one time window, grouped by cache (server_ip)."""

    index: int
    window_start: float
    window_end: float
    records: dict[str, list[FlowRecord]]

    def cache_ids(self) -> list[str]:
        return sorted(self.records)

    @property
    def n_records(self) -> int:
        return sum(len(v) for v in self.records.values())


def midnight_floor(t: float, utc_offset_hours: float = 0.0) -> float:
    """Largest midnight boundary <= t, in a fixed UTC offset."""
    shift = utc_offset_hours * 3600.0
    return math.floor((t + shift) / DAY_SECONDS) * DAY_SECONDS - shift


def window_flows(
    records: Iterable[FlowRecord],
    window_seconds: float,
    step_seconds: float,
    *,
    utc_offset_hours: float = 0.0,
    origin: float | None = None,
) -> list[Snapshot]:
    """Slice records into sliding snapshots of width ``window_seconds``.

    Snapshot n covers [t0 + n*step, t0 + n*step + window); intervals are
    half-open so a record exactly at a window's end is excluded. t0 defaults
    to the midnight (in the given UTC offset) at or before the earliest
    record; windows are generated while they fit inside coverage, which ends
    at the first midnight boundary strictly after the latest record.
    Records may fall into several overlapping snapshots.
    """
    if window_seconds <= 0 or step_seconds <= 0:
        raise ValueError("window and step must be positive")
    records = list(records)
    if not records:
        return []
    t_min = min(r.start_time for r in records)
    t_max = max(r.start_time for r in records)
    t0 = midnight_floor(t_min, utc_offset_hours) if origin is None else float(origin)
    t_end = midnight_floor(t_max, utc_offset_hours) + DAY_SECONDS

    count = 0
    while t0 + count * step_seconds + window_seconds <= t_end:
        count += 1
    buckets: list[dict[str, list[FlowRecord]]] = [{} for _ in range(count)]
    for record in records:
        t = record.start_time
        if t < t0:
            continue
        # Candidate windows: (t - t0 - window)/step < n <= (t - t0)/step.
        lo = max(0, math.floor((t - t0 - window_seconds) / step_seconds))
        hi = min(count - 1, math.floor((t - t0) / step_seconds))
        for n in range(lo, hi + 1):
            start = t0 + n * step_seconds
            if start <= t < start + window_seconds:
                buckets[n].setdefault(record.server_ip, []).append(record)
    return [
        Snapshot(
            index=n,
            window_start=t0 + n * step_seconds,
            window_end=t0 + n * step_seconds + window_seconds,
            records=buckets[n],
        )
        for n in range(count)
    ]
