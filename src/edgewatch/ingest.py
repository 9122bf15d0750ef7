"""Flow-log ingestion: the columnar flow table, TSV parsing, cache hostname decoding, sliding time windows."""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress, count
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError

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
CHUNK_BYTES = 256 * 1024  # flow-log text converted per column-wise pass
MAX_WINDOWS = 100_000


class FlowLogFormatError(ValueError):
    """Fatal log-format problem (missing or wrong header)."""


class FlowLineError(ValueError):
    """One malformed data line; parsing may skip it and continue."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


# One line as np.loadtxt converts it; a string (object) field is dictionary-encoded.
_ROW = np.dtype(list(zip(FLOW_LOG_COLUMNS, "f8 O O O f8 i8 i8 i8 f8".split())))
# Per string field's position, the name -> code dictionary of its Codes.
_Index = dict[int, dict[str, int]]


def _new_index() -> _Index:
    return {i: {} for i in range(len(_ROW)) if _ROW[i] == object}


def _arrays(columns: Sequence[Sequence], index: _Index) -> list[np.ndarray]:
    """One array per field from one sequence per field: its numbers, or codes in ``index``."""
    arrays = []
    for i, values in enumerate(columns):
        if i in index:  # new names take the next free codes, in order of first use
            new = dict.fromkeys(values)
            for name in new.keys() & index[i].keys():
                del new[name]
            index[i].update(zip(new, count(len(index[i]))))
            values = np.fromiter(map(index[i].__getitem__, values), np.int64, len(values))
        arrays.append(np.asarray(values, np.int64 if i in index else _ROW[i]))
    return arrays


def _table(parts: list[list[np.ndarray]], index: _Index) -> FlowTable:
    """The table of the concatenated field arrays; ``index`` names the codes."""
    columns = map(np.concatenate, zip(_arrays([()] * len(_ROW), index), *parts))
    return FlowTable(*(Codes(c, np.array(list(index[i]), dtype=object)) if i in index else c
                       for i, c in enumerate(columns)))


@dataclass(frozen=True, eq=False)
class Codes:
    """A dictionary-encoded string column: row i holds ``names[codes[i]]``."""

    codes: np.ndarray
    names: np.ndarray  # object array of distinct strings

    def __getitem__(self, rows) -> Codes:
        return Codes(self.codes[rows], self.names)

    def decode(self) -> list[str]:
        return self.names[self.codes].tolist()


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as columns, one row per flow in input order.

    The fields are the flow-log columns in order: numeric ones are numpy
    arrays (int64 for ``ttl`` and the byte counts, float64 otherwise), string
    ones are Codes. ``server_ip`` is the cache's unique identity downstream.
    Indexing with a slice, mask or index array yields a table of those rows.
    """

    start_time: np.ndarray
    client_id: Codes
    server_ip: Codes
    hostname: Codes
    min_rtt: np.ndarray
    ttl: np.ndarray
    bytes_up: np.ndarray
    bytes_down: np.ndarray
    avg_throughput: np.ndarray

    @classmethod
    def concat(cls, tables: Sequence[FlowTable]) -> FlowTable:
        """The rows of the tables, in order, coded over the union of their names."""
        index = _new_index()
        return tables[0] if len(tables) == 1 else _table([_arrays(t._values(), index) for t in tables], index)

    def __len__(self) -> int:
        return len(self.start_time)

    def __getitem__(self, rows) -> FlowTable:
        return FlowTable(*(column[rows] for column in _fields_of(self)))

    def _values(self, rows=slice(None)) -> list[list]:
        """Python values of every field for ``rows``, in column order."""
        return [c[rows].decode() if isinstance(c, Codes) else c[rows].tolist() for c in _fields_of(self)]

    @cached_property
    def time_order(self) -> np.ndarray:
        """Row indices in start-time order; equal times keep input order."""
        return np.argsort(self.start_time, kind="stable")


# The columns of a FlowTable, as a tuple.
_fields_of = attrgetter(*(f.name for f in fields(FlowTable)))


# Plain form: r<digits>---<3 letters><alnum>.<domain>. Names that do not match
# (e.g. cipher-obfuscated ones) are treated as opaque.
_PLAIN_HOSTNAME_RE = re.compile(r"^r\d+---([A-Za-z]{3})[0-9A-Za-z]*\..+$")


def parse_cache_hostname(hostname: str) -> str | None:
    """The airport code of a plain-form cache hostname, upper-cased.

    Any string is accepted; a non-matching name has no code (None).
    """
    m = _PLAIN_HOSTNAME_RE.match(hostname)
    return None if m is None else m.group(1).upper()


def _parse_line(line_number: int, line: str) -> tuple:
    """The line's converted values in column order, or FlowLineError naming its first fault."""
    parts = line.split("\t")
    if len(parts) != len(FLOW_LOG_COLUMNS):
        raise FlowLineError(
            line_number, f"expected {len(FLOW_LOG_COLUMNS)} fields, got {len(parts)}"
        )
    (raw_start, client_id, server_ip, hostname, raw_rtt, raw_ttl, raw_up, raw_down, raw_thr) = parts
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
    if max(bytes_up, bytes_down) >= 2**63:  # the columns are int64
        raise FlowLineError(line_number, "byte count above 2**63 - 1")
    if avg_throughput < 0 or not math.isfinite(avg_throughput):
        raise FlowLineError(line_number, f"throughput out of range: {avg_throughput}")
    if not math.isfinite(start_time):
        raise FlowLineError(line_number, f"non-finite start_time: {raw_start}")
    return start_time, client_id, server_ip, hostname, min_rtt, ttl, bytes_up, bytes_down, avg_throughput


def _rejected(arrays: list[np.ndarray], index: _Index) -> np.ndarray:
    """The rows whose converted values _parse_line rejects: its range checks, column-wise."""
    start, _, server, _, rtt, ttl, up, down, thr = arrays
    empty_server = index[2].get("", -1)  # the code of an empty server_ip, if one was read
    return ((server == empty_server) | (rtt < 0) | ~np.isfinite(rtt) | (ttl < 0) | (ttl > 255)
            | (up < 0) | (down < 0) | (thr < 0) | ~np.isfinite(thr) | ~np.isfinite(start))


def _parse_chunk(
    first_line: int, chunk: list[str], errors: list[FlowLineError] | None, index: _Index
) -> list[np.ndarray]:
    """The field arrays of consecutive lines, the first numbered ``first_line``; see parse_flow_log."""
    text, arrays, recheck = "".join(chunk), None, range(len(chunk))
    # np.loadtxt warns on a chunk without data, reads \x1c-\x1f around a number
    # as whitespace where float() and int() refuse them, and reads some
    # non-ASCII characters in an integer as digits: such chunks go line by line.
    if text.isascii() and not text.isspace() and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        try:
            converted = np.loadtxt(chunk, _ROW, delimiter="\t", comments=None, quotechar=None, ndmin=1)
        except ValueError:  # a field that does not convert, or a wrong field count
            pass
        else:
            arrays = _arrays([converted[name] for name in FLOW_LOG_COLUMNS], index)
            rejected = _rejected(arrays, index)
            arrays = [a[~rejected] for a in arrays]
            if len(converted) < len(chunk):  # np.loadtxt skipped the blank lines
                recheck = [i for i, line in enumerate(chunk) if line.rstrip("\r\n")]
            recheck = list(compress(recheck, rejected))
    rows = []
    for i in recheck:
        if line := chunk[i].rstrip("\r\n"):
            try:
                rows.append(_parse_line(first_line + i, line))
            except FlowLineError as exc:
                if errors is None:
                    raise
                errors.append(exc)
    # Rows the column checks reject never parse: only a chunk that failed to convert has rows.
    return _arrays(list(zip(*rows)) or [()] * len(_ROW), index) if arrays is None else arrays


def parse_flow_log(source: IO[str], errors: list[FlowLineError] | None = None) -> FlowTable:
    """Read a TSV flow log from a text stream into a FlowTable.

    The first line must be exactly the fixed header, otherwise
    FlowLogFormatError is raised. Malformed data lines raise FlowLineError,
    unless ``errors`` is a list, in which case they are appended there and
    skipped (skip-and-count mode). Each chunk of about CHUNK_BYTES of text is
    converted by one np.loadtxt call; the rows the column checks reject, and
    every line of a chunk it refuses, go through the per-line parser, which
    words each rejection. Numbers are read exactly as float() and int() read
    them.
    """
    header = source.readline()
    if not header:
        raise FlowLogFormatError("empty stream, missing header")
    header = header.rstrip("\r\n")
    if header != FLOW_LOG_HEADER:
        raise FlowLogFormatError(f"bad header: {header!r}")
    index, parts, line_number = _new_index(), [], 2
    while chunk := source.readlines(CHUNK_BYTES):
        parts.append(_parse_chunk(line_number, chunk, errors, index))
        line_number += len(chunk)
    return _table(parts, index)


def read_flow_log(path: str | Path, errors: list[FlowLineError] | None = None) -> FlowTable:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return parse_flow_log(fp, errors=errors)


@contextmanager
def text_output(target: IO[str] | str | Path) -> Iterator[IO[str]]:
    """Yield ``target`` if it is a stream, else the path opened for UTF-8 writing.

    Every writer takes a path or a stream through this, and writes LF line
    endings on every platform. A path's missing parent directories are created.
    """
    if isinstance(target, (str, Path)):
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as fp:
            yield fp
    else:
        yield target


def read_ini_section(path: str | Path, section: str) -> configparser.SectionProxy:
    """``[section]`` of the UTF-8 INI file ``path``; any failure is a one-line ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fp:
            parser.read_file(fp)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {path}: {' '.join(str(exc).split())}") from None
    if section not in parser:
        raise ConfigError(f"{path} has no [{section}] section")
    return parser[section]


def write_flow_log(target: IO[str] | str | Path, table: FlowTable) -> None:
    """Write a table in the TSV format; floats use repr so parsing round-trips."""
    for codes in (table.client_id, table.server_ip, table.hostname):
        for field in codes.names[np.unique(codes.codes)].tolist():
            if "\t" in field or "\n" in field or "\r" in field:
                raise ValueError(f"field not serializable to TSV: {field!r}")
    line = "{!r}\t{}\t{}\t{}\t{!r}\t{}\t{}\t{}\t{!r}\n"
    with text_output(target) as fp:
        fp.write(FLOW_LOG_HEADER + "\n")
        for lo in range(0, len(table), 4096):
            fp.write("".join(map(line.format, *table._values(slice(lo, lo + 4096)))))


@dataclass(frozen=True, eq=False)
class Snapshot:
    """All flows of one time window: the rows ``rows`` of ``table``, in start-time order."""

    index: int
    window_start: float
    window_end: float
    table: FlowTable
    rows: np.ndarray

    @property
    def n_records(self) -> int:
        return len(self.rows)

    @cached_property
    def records(self) -> dict[str, FlowTable]:
        """The window's flows grouped by cache (server_ip), each group in input order."""
        codes = self.table.server_ip.codes[self.rows]
        order = np.argsort(codes * len(self.table) + self.rows)  # by cache, then input position
        caches, firsts = np.unique(codes[order], return_index=True)
        groups = np.split(self.rows[order], firsts[1:])
        return {self.table.server_ip.names[c]: self.table[g] for c, g in zip(caches.tolist(), groups)}


def midnight_floor(t: float, utc_offset_hours: float = 0.0) -> float:
    """Largest midnight boundary <= t, in a fixed UTC offset."""
    shift = utc_offset_hours * 3600.0
    return math.floor((t + shift) / DAY_SECONDS) * DAY_SECONDS - shift


def count_steps(fits: Callable[[int], bool], estimate: float, limit: int, what: str) -> int:
    """How many n = 0, 1, ... pass ``fits`` (which fails from some n on), checked near ``estimate``.

    ``fits`` itself decides the boundary, so the caller's float rounding is
    kept; a count above ``limit`` raises ConfigError instead of looping.
    """
    # An infinite step or window makes the estimate -inf or nan: start at 0.
    n = limit + 1 if estimate > limit else math.floor(estimate) if estimate >= 0 else 0
    while 0 < n <= limit and not fits(n - 1):
        n -= 1
    while n <= limit and fits(n):
        n += 1
    if n > limit:
        raise ConfigError(f"more than {limit} {what} (about {estimate:.3g})")
    return n


def window_flows(
    table: FlowTable,
    window_seconds: float,
    step_seconds: float,
    *,
    utc_offset_hours: float = 0.0,
    origin: float | None = None,
) -> list[Snapshot]:
    """Slice a table into sliding snapshots of width ``window_seconds``.

    Snapshot n covers [t0 + n*step, t0 + n*step + window); intervals are
    half-open so a record exactly at a window's end is excluded. t0 defaults
    to the midnight (in the given UTC offset) at or before the earliest
    record; windows are generated while they fit inside coverage, which ends
    at the first midnight boundary strictly after the latest record. Each
    snapshot is a range of the table's time order, so a record in several
    overlapping snapshots is not copied. More than MAX_WINDOWS windows raise
    ConfigError.
    """
    if window_seconds <= 0 or step_seconds <= 0:
        raise ValueError("window and step must be positive")
    if not len(table):
        return []
    order = table.time_order
    times = table.start_time[order]
    t0 = midnight_floor(times[0], utc_offset_hours) if origin is None else float(origin)
    t_end = midnight_floor(times[-1], utc_offset_hours) + DAY_SECONDS
    n_windows = count_steps(lambda n: t0 + n * step_seconds + window_seconds <= t_end,
                            (t_end - t0 - window_seconds) / step_seconds + 1, MAX_WINDOWS, "windows")
    starts = t0 + np.arange(n_windows) * step_seconds
    ends = starts + window_seconds
    bounds = zip(np.searchsorted(times, starts).tolist(), np.searchsorted(times, ends).tolist())
    return [Snapshot(n, start, end, table, order[lo:hi])
            for n, (start, end, (lo, hi)) in enumerate(zip(starts.tolist(), ends.tolist(), bounds))]
