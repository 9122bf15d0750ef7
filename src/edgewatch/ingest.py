"""Flow-log ingestion: the columnar flow table, TSV parsing, cache hostname decoding, sliding time windows."""

from __future__ import annotations

import csv
import math
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, get_type_hints

import numpy as np

from .errors import ConfigError, InputError

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
MIN_LINE_BYTES = 16  # shortest kept data line: 6 one-digit numbers, a 1-byte server_ip, 8 tabs, LF unless last
MAX_WINDOWS = 100_000


class FlowLogFormatError(ValueError):
    """Fatal log-format problem (missing or wrong header)."""


class FlowLineError(ValueError):
    """One malformed data line; parsing may skip it and continue."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


# One line as np.loadtxt converts it; server_ip and hostname are dictionary-encoded.
_ROW = np.dtype(list(zip(FLOW_LOG_COLUMNS, "f8 O O O f8 i8 i8 i8 f8".split())))


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
    """Flows as columns, one row per flow; a parsed table's rows are in stable start-time order.

    The fields are the flow-log columns in order: int64 (``ttl``, byte counts) and float64 numpy arrays,
    ``server_ip`` (the cache's identity downstream) and ``hostname`` as Codes, and ``client_id``, which
    no stage reads, as a column of str: a parsed table holds it as ``numpy.dtypes.StringDType`` (16 bytes
    a row for ids of up to 15 bytes), a built one may hold an object array. A slice, mask or index array
    selects a table of those rows.
    """

    start_time: np.ndarray
    client_id: np.ndarray
    server_ip: Codes
    hostname: Codes
    min_rtt: np.ndarray
    ttl: np.ndarray
    bytes_up: np.ndarray
    bytes_down: np.ndarray
    avg_throughput: np.ndarray

    def __len__(self) -> int:
        return len(self.start_time)

    def __getitem__(self, rows) -> FlowTable:
        return FlowTable(*(column[rows] for column in _fields_of(self)))


# The columns of a FlowTable, as a tuple.
_fields_of = attrgetter(*(f.name for f in fields(FlowTable)))


class _Index(dict):
    """Name -> code, where a name not yet in it takes the next code as it first comes."""

    def __missing__(self, name: str) -> int:
        self[name] = code = len(self)
        return code

    def codes(self, names: np.ndarray) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, names.tolist()), np.int64, len(names))


# Plain form: r<digits>---<3 letters><alnum>.<domain>. Names that do not match
# (e.g. cipher-obfuscated ones) are treated as opaque.
_PLAIN_HOSTNAME_RE = re.compile(r"^r\d+---([A-Za-z]{3})[0-9A-Za-z]*\..+$")


def parse_cache_hostname(hostname: str) -> str | None:
    """The airport code of a plain-form cache hostname, upper-cased.

    Any string is accepted; a non-matching name has no code (None).
    """
    m = _PLAIN_HOSTNAME_RE.match(hostname)
    return None if m is None else m.group(1).upper()


def _faults(columns: Sequence, empty_server: np.ndarray, raw_start: Callable[[int], str]) -> Iterator[tuple]:
    """Each range check once, in the order a line's first fault is named: (the rows it rejects, row i's reason)."""
    start, _, _, _, rtt, ttl, up, down, thr = columns
    yield empty_server, lambda i: "empty server_ip"
    yield (rtt < 0) | ~np.isfinite(rtt), lambda i: f"min_rtt out of range: {rtt[i]}"
    yield (ttl < 0) | (ttl > 255), lambda i: f"ttl out of range: {ttl[i]}"
    yield (up < 0) | (down < 0), lambda i: "negative byte count"
    yield (up >= 2**63) | (down >= 2**63), lambda i: "byte count above 2**63 - 1"  # the columns are int64
    yield (thr < 0) | ~np.isfinite(thr), lambda i: f"throughput out of range: {thr[i]}"
    yield ~np.isfinite(start), lambda i: f"non-finite start_time: {raw_start(i)}"


def _split_lines(chunk: list[str]) -> tuple[list[int], list[np.ndarray], list[tuple[int, str]]]:
    """The chunk's data lines one at a time: the lines that convert, their columns, and each other line's
    (index, reason). Integers stay exact Python ints, in object columns, until the range checks pass."""
    dtypes = [object if _ROW[name].kind == "i" else _ROW[name] for name in FLOW_LOG_COLUMNS]
    lines, rows, found = [], [], []
    for i, line in enumerate(chunk):
        if not (line := line.rstrip("\r\n")):
            continue
        if len(parts := line.split("\t")) != len(FLOW_LOG_COLUMNS):
            found.append((i, f"expected {len(FLOW_LOG_COLUMNS)} fields, got {len(parts)}"))
            continue
        start, client, server, hostname, rtt, ttl, up, down, thr = parts
        try:
            rows.append((float(start), client, server, hostname, float(rtt), int(ttl), int(up), int(down), float(thr)))
        except ValueError as exc:
            found.append((i, f"bad numeric field: {exc}"))
            continue
        lines.append(i)
    return lines, [np.array(c, dtype) for c, dtype in zip(list(zip(*rows)) or [()] * len(_ROW), dtypes)], found


def _parse_chunk(first_line: int, chunk: list[str], errors: list[FlowLineError] | None) -> list[np.ndarray]:
    """The kept rows' columns of consecutive lines, the first numbered ``first_line``; see _Reader.read."""
    text, columns = "".join(chunk), None
    # np.loadtxt warns on a chunk without data, reads \x1c-\x1f around a number
    # as whitespace where float() and int() refuse them, and reads some
    # non-ASCII characters in an integer as digits: such chunks go line by line.
    if text.isascii() and not text.isspace() and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        try:
            converted = np.loadtxt(chunk, _ROW, delimiter="\t", comments=None, quotechar=None, ndmin=1)
        except ValueError:  # a field that does not convert, or a wrong field count
            pass
        else:
            columns, found = [converted[name] for name in FLOW_LOG_COLUMNS], []
            lines = range(len(chunk))  # row i's line; np.loadtxt skips the blank lines
            if len(converted) < len(chunk):
                lines = [i for i, line in enumerate(chunk) if line.rstrip("\r\n")]
    if columns is None:
        lines, columns, found = _split_lines(chunk)
    rejected = np.zeros(len(lines), bool)
    for mask, reason in _faults(columns, columns[2] == "", lambda i: chunk[lines[i]].partition("\t")[0]):
        found += [(lines[i], reason(i)) for i in np.flatnonzero(mask & ~rejected).tolist()]
        rejected |= mask
    found = [FlowLineError(first_line + i, reason) for i, reason in sorted(found)]
    if errors is not None:
        errors += found
    elif found:
        raise found[0]
    return [column[~rejected] for column in columns] if rejected.any() else columns


class _Reader:
    """The growing columns of the flow logs read so far: rows go straight in, names take codes as they first come."""

    def __init__(self):
        kinds = {"client_id": np.dtypes.StringDType(), "server_ip": np.int64, "hostname": np.int64}
        # Grown by _reserve and cut to size once by table(); no view of them is held meanwhile.
        self.columns = [np.empty(0, kinds.get(name, _ROW[name])) for name in FLOW_LOG_COLUMNS]
        self.indexes, self.rows = (_Index(), _Index()), 0  # server_ip's and hostname's name -> code

    def read(self, source: IO[str], errors: list[FlowLineError] | None = None) -> None:
        """Append a TSV flow log from a text stream.

        The first line must be exactly the fixed header, otherwise
        FlowLogFormatError is raised. A malformed data line raises FlowLineError
        naming its first fault, unless ``errors`` is a list, in which case each
        bad line's error is appended there and the line skipped (skip-and-count
        mode). Each chunk of about CHUNK_BYTES of text is converted by one
        np.loadtxt call, or line by line where np.loadtxt refuses it; either way
        the converted columns then pass the range checks of ``_faults``. Numbers
        are read exactly as float() and int() read them, and the faults are
        found and worded as the tests' per-line oracle,
        ``reference_impls.reference_parse_line``, finds and words them.
        A file's first chunk sizes the columns for the whole file from the
        file's size; a stream without a size grows them by doubling.
        """
        header = source.readline()
        if not header:
            raise FlowLogFormatError("empty stream, missing header")
        try:  # the file's bytes after the header; none for a pipe, whose size is 0
            left = os.fstat(source.fileno()).st_size - len(header.encode())
        except OSError:  # a stream without a file, such as a StringIO
            left = 0
        header = header.rstrip("\r\n")
        if header != FLOW_LOG_HEADER:
            raise FlowLogFormatError(f"bad header: {header!r}")
        line_number = 2
        while chunk := source.readlines(CHUNK_BYTES):
            kept = _parse_chunk(line_number, chunk, errors)
            kept[2:4] = map(_Index.codes, self.indexes, kept[2:4])
            line_number, end = line_number + len(chunk), self.rows + len(kept[0])
            capacity = len(self.columns[0])
            if left > 0:  # the first chunk of a file: room for its other lines too, at the chunk's bytes per line
                chunk_bytes = len("".join(chunk).encode())
                rest, left = max(left - chunk_bytes, 0), 0
                lines = rest * len(chunk) // chunk_bytes
                lines += lines // 32  # lines vary in length: a little room spares a doubling for a few rows
                capacity = max(capacity, end + min(lines, (rest + 1) // MIN_LINE_BYTES))
            elif end > capacity:
                capacity = max(end, 2 * capacity)
            if capacity > len(self.columns[0]):
                self._reserve(capacity)
            for column, values in zip(self.columns, kept):
                column[self.rows : end] = values
            self.rows = end

    def _reserve(self, capacity: int) -> None:
        """Columns of ``capacity`` rows, the rows read so far copied in once (``ndarray.resize`` would zero-fill)."""
        for k, column in enumerate(self.columns):
            self.columns[k] = np.empty(capacity, column.dtype)
            self.columns[k][: self.rows] = column[: self.rows]

    def table(self) -> FlowTable:
        """The rows read, stably sorted by start_time one column at a time, if any row is out of order."""
        for column in self.columns:
            column.resize(self.rows, refcheck=False)
        if (self.columns[0][1:] < self.columns[0][:-1]).any():
            order = np.argsort(self.columns[0], kind="stable")
            for k, column in enumerate(self.columns):
                self.columns[k] = column[order]
        start, client, server, hostname, *numbers = self.columns
        names = (np.array(list(index), dtype=object) for index in self.indexes)
        return FlowTable(start, client, *map(Codes, (server, hostname), names), *numbers)


def read_flow_log(*paths: str | Path) -> FlowTable:
    """All flows of the UTF-8 TSV flow logs at ``paths``, read into one set of columns in stable start-time order.

    Equal times keep their order across the logs; server_ip and hostname number their names as they first come
    across the logs. A log that does not read (see _Reader.read), is a directory or holds no flow raises InputError.
    """
    reader = _Reader()
    for path in paths:
        rows = reader.rows
        try:
            with open(path, "r", encoding="utf-8", newline="") as fp:
                reader.read(fp)
        except (FlowLogFormatError, FlowLineError, UnicodeDecodeError, IsADirectoryError) as exc:
            raise InputError(f"{path}: {exc}") from exc
        if reader.rows == rows:
            raise InputError(f"{path}: no flow records")
    return reader.table()


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


def write_csv(target: IO[str] | str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """``header``, then ``rows`` as they are drawn: comma-separated, minimal quoting, LF endings."""
    with text_output(target) as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_ini_section(path: str | Path, section: str) -> configparser.SectionProxy:
    """``[section]`` of UTF-8 INI file ``path`` with literal ``%``; any failure is a one-line ConfigError."""
    import configparser  # here, so that a run without an INI file never loads it

    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fp:
            parser.read_file(fp)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read {path}: {' '.join(str(exc).split())}") from None
    if section not in parser:
        raise ConfigError(f"{path} has no [{section}] section")
    return parser[section]


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


_PARSE_BY_TYPE = {int: int, float: float, str: str, tuple[float, ...]: float_list}
_Config = TypeVar("_Config")


def config_from(
    cls: type[_Config], texts: Mapping[str, str | None], where: str, keys: Mapping[str, str] = {}, **values
) -> _Config:
    """``cls(**values)`` with the fields ``texts`` gives (key -> text or None), each parsed by type hint.

    A key is its field's name, or ``keys`` renames it. A key of no int, float, str or float-list field, a
    text that does not parse, a missing field without default and a ConfigError from ``cls`` itself are
    each a one-line ConfigError that starts with ``where``.
    """
    hints = get_type_hints(cls)
    for key, text in texts.items():
        name = keys.get(key, None if key in keys.values() else key)
        if hints.get(name) not in _PARSE_BY_TYPE:
            raise ConfigError(f"{where}: unknown key {key}")
        if text is not None:
            try:
                values[name] = _PARSE_BY_TYPE[hints[name]](text)
            except ValueError:
                raise ConfigError(f"{where}: bad value for {key}: {text!r}") from None
    key_of = {name: key for key, name in keys.items()}
    for f in fields(cls):
        if f.name not in values and f.default is MISSING:
            raise ConfigError(f"{where}: missing key {key_of.get(f.name, f.name)}")
    try:
        return cls(**values)
    except ConfigError as exc:  # the class's own checks
        raise ConfigError(f"{where}: {exc}") from None


def write_flow_log(target: IO[str] | str | Path, table: FlowTable) -> None:
    """Write a table in the TSV format, floats by repr, so that a time-ordered table reads back as it is. A string
    field with a tab or line break, or a row that fails ``_faults``, raises ValueError (naming the row's first fault)
    before any write."""
    client_ids = (table.client_id[lo : lo + 1024].tolist() for lo in range(0, len(table), 1024))
    names = (c.names[np.bincount(c.codes, minlength=len(c.names)) > 0].tolist()
             for c in (table.server_ip, table.hostname))
    for values in chain(client_ids, names):
        if any(map("".join(values).__contains__, "\t\n\r")):  # one scan of the joined text each
            field = next(v for v in values if any(map(v.__contains__, "\t\n\r")))
            raise ValueError(f"field not serializable to TSV: {field!r}")
    empty_server = (table.server_ip.names == "")[table.server_ip.codes]
    faults = _faults(_fields_of(table), empty_server, lambda i: repr(table.start_time[i].item()))
    if faulty := [(int(mask.argmax()), k, reason) for k, (mask, reason) in enumerate(faults) if mask.any()]:
        row, _, reason = min(faulty)
        raise ValueError(f"row {row}: {reason(row)}")
    with text_output(target) as fp:
        fp.write(FLOW_LOG_HEADER + "\n")
        width = 2 * len(FLOW_LOG_COLUMNS)  # a row's slots: each field, then its tab or the row's line break
        for chunk in (table[lo : lo + 1024] for lo in range(0, len(table), 1024)):
            text = ["\t"] * (width * len(chunk))
            text[width - 1 :: width] = ["\n"] * len(chunk)
            for k, c in enumerate(_fields_of(chunk)):
                text[2 * k :: width] = (c.decode() if isinstance(c, Codes) else c.tolist() if c.dtype.kind in "OT"
                                        else map(repr, c.tolist()))
            fp.write("".join(text))


@dataclass(frozen=True, eq=False)
class Snapshot:
    """All flows of one time window: ``flows``, a slice of a time-ordered table, so in start-time order."""

    index: int
    window_start: float
    window_end: float
    flows: FlowTable

    @property
    def n_records(self) -> int:
        return len(self.flows)

    @cached_property
    def records(self) -> dict[str, FlowTable]:
        """The window's flows grouped by cache (server_ip), each group in start-time order."""
        flows = self.flows
        order = np.argsort(flows.server_ip.codes, kind="stable")
        caches, firsts = np.unique(flows.server_ip.codes[order], return_index=True)
        return {flows.server_ip.names[c]: flows[g] for c, g in zip(caches.tolist(), np.split(order, firsts[1:]))}


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
    table: FlowTable, window_seconds: float, step_seconds: float, *, utc_offset_hours: float = 0.0
) -> list[Snapshot]:
    """Slice a table into sliding snapshots of width ``window_seconds``.

    Snapshot n covers [t0 + n*step, t0 + n*step + window); intervals are
    half-open so a record exactly at a window's end is excluded. t0 is the
    midnight (in the given UTC offset) at or before the earliest record;
    windows are generated while they fit inside coverage, which ends
    at the first midnight boundary strictly after the latest record. Each
    snapshot's flows are a slice of the table, so a record in several
    overlapping snapshots is not copied. More than MAX_WINDOWS windows raise
    ConfigError; start times that are not finite or do not ascend, as
    ``read_flow_log`` orders them, raise ValueError.
    """
    if window_seconds <= 0 or step_seconds <= 0:
        raise ValueError("window and step must be positive")
    if not len(table):
        return []
    times = table.start_time
    if not (finite := np.isfinite(times)).all():
        row = int(finite.argmin())
        raise ValueError(f"row {row}: non-finite start_time: {times[row].item()!r}")
    if (times[1:] < times[:-1]).any():
        raise ValueError("start_time must ascend: take table[np.argsort(table.start_time, kind='stable')]")
    t0 = midnight_floor(times[0], utc_offset_hours)
    t_end = midnight_floor(times[-1], utc_offset_hours) + DAY_SECONDS
    n_windows = count_steps(lambda n: t0 + n * step_seconds + window_seconds <= t_end,
                            (t_end - t0 - window_seconds) / step_seconds + 1, MAX_WINDOWS, "windows")
    starts = t0 + np.arange(n_windows) * step_seconds
    ends = starts + window_seconds
    bounds = zip(np.searchsorted(times, starts).tolist(), np.searchsorted(times, ends).tolist())
    return [Snapshot(n, start, end, table[lo:hi])
            for n, (start, end, (lo, hi)) in enumerate(zip(starts.tolist(), ends.tolist(), bounds))]
