"""Streaming telemetry sinks: spool the event bus to disk incrementally.

The in-memory :class:`~repro.telemetry.TraceRecorder` and session
event lists hold every published event in RAM, which caps a run at a
few thousand requests.  A :class:`StreamingSink` consumes the bus
incrementally instead: events are serialized into a bounded write
buffer and flushed to disk whenever the buffer crosses an event-count
or byte threshold, so telemetry stays complete on disk while the
process footprint stays flat.

Two writers are provided:

- :class:`JsonlEventSink` — a compact, self-describing JSON-lines
  spool, lossless: :func:`iter_jsonl_events` reconstructs the original
  typed event stream, so a spooled run can be replayed through
  :class:`~repro.telemetry.StandardMetrics` (or any other bus
  consumer) after the fact.  ``compress=True`` writes gzip.
- :class:`ChromeStreamingSink` — Chrome/Perfetto ``trace_event``
  records in the *JSON Array Format* (a bare ``[...]`` array), which
  the trace viewers explicitly accept without the closing ``]`` — a
  crashed run's partial spool still loads.

The JSONL spool format (:data:`SPOOL_FORMAT`), one JSON value per line:

- a header object first, declaring the schema: every event type's name
  and field names (a type's id is its position in ``types``), and the
  ``interned`` fields whose link ids are written as link-table indexes;
- one positional array per event, ``[run, type_id, *fields]``;
- ``{"links": [...]}`` lines extending the spool's link table, each
  written just before the first event that uses its ids.

The reader decodes through the header, so a spool stays readable after
event types are added or reordered; a file without the header (such as
the older one-object-per-line spools) is rejected with a
:class:`~repro.common.errors.ConfigError`.

Crash-safety contract: every flush pushes whole lines/records to the
OS (gzip spools with a ``Z_SYNC_FLUSH``), a partially written trailing
line (the process died mid-``write``) and a missing gzip trailer (it
died before :meth:`close`) are tolerated by the reader, and
:meth:`close` finalizes the file (idempotent; both sinks are context
managers).
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from typing import (
    IO,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from repro.common.errors import ConfigError
from repro.telemetry import events as _events_module
from repro.telemetry.bus import EventBus
from repro.telemetry.chrome import convert_event, process_metadata
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import StandardMetrics

DEFAULT_FLUSH_EVENTS = 1024
DEFAULT_FLUSH_BYTES = 1 << 20  # 1 MiB

#: The JSONL spool's record format, named by its header line.
SPOOL_FORMAT = "repro-events/2"

#: Deflate level of ``.gz`` spools.  On these rows level 1 takes about
#: a tenth of the default level 9's time for about 1.5x its output.
GZIP_LEVEL = 1

#: Fields whose link ids are interned into the spool's link table.
#: Interning is per link id, so the table is bounded by the topology,
#: never by the number of requests or flows.
INTERNED_FIELDS = ("links",)

#: Registry of every concrete event type, by class name.  Built once
#: from the events module, so a new event type is spool-able the moment
#: it is defined there.
EVENT_TYPES: dict[str, type] = {
    name: obj
    for name, obj in vars(_events_module).items()
    if isinstance(obj, type)
    and issubclass(obj, TelemetryEvent)
    and dataclasses.is_dataclass(obj)
}

#: The wire schema, in type-id order: ``(type name, field names)``.
SCHEMA: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    (name, tuple(field.name for field in dataclasses.fields(cls)))
    for name, cls in EVENT_TYPES.items()
)


def _field_getter(names: tuple[str, ...]) -> Callable:
    """An event -> the tuple of its field values, in schema order."""
    if len(names) == 1:
        name = names[0]
        return lambda event: (getattr(event, name),)
    return attrgetter(*names)


def _link_slot(names: Sequence[str], interned: Sequence[str]):
    """Row index of the type's interned links field (``None``: none)."""
    for index, name in enumerate(names):
        if name in interned:
            return index + 2  # after ``run`` and ``type_id``
    return None


#: Per-type encoding: ``type -> (type_id, field getter, link slot)``.
_ENCODING: dict[type, tuple[int, Callable, Optional[int]]] = {
    EVENT_TYPES[name]: (
        type_id, _field_getter(names), _link_slot(names, INTERNED_FIELDS)
    )
    for type_id, (name, names) in enumerate(SCHEMA)
}

# One C encoder for every record, configured as ``json.dumps(obj,
# separators=(",", ":"))`` configures its own, built once instead of per
# call.  The circular-reference check is off: records are scalars and
# tuples taken from frozen events (or plain trace dicts), which cannot
# contain themselves, and a persistent markers dict would keep stale
# entries after a failed encode.
_JSON = json.JSONEncoder(separators=(",", ":"))
if c_make_encoder is not None:
    _ENCODE = c_make_encoder(
        None, _JSON.default, encode_basestring_ascii, None,
        _JSON.key_separator, _JSON.item_separator, _JSON.sort_keys,
        _JSON.skipkeys, _JSON.allow_nan,
    )
else:  # pragma: no cover - CPython always builds the _json accelerator
    def _ENCODE(obj, _indent_level):
        return (_JSON.encode(obj),)


def _dumps(obj) -> str:
    """``json.dumps(obj, separators=(",", ":"))``, via the cached encoder."""
    return "".join(_ENCODE(obj, 0))


def spool_header() -> dict:
    """The header line every JSONL spool opens with."""
    return {
        "format": SPOOL_FORMAT,
        "types": [[name, list(names)] for name, names in SCHEMA],
        "interned": list(INTERNED_FIELDS),
    }


_HEADER_LINE = _dumps(spool_header()) + "\n"


class StreamingSink(Protocol):
    """Anything that can consume a session's event stream incrementally."""

    def handle(self, run: int, event: TelemetryEvent) -> None:
        """Consume one event from run *run* (called in publish order)."""

    def flush(self) -> None:
        """Push buffered output to the OS."""

    def close(self) -> None:
        """Flush and finalize the output (idempotent)."""


# -- serialization -----------------------------------------------------------

def encode_event(
    run: int,
    event: TelemetryEvent,
    links: Optional[dict[str, int]] = None,
) -> list:
    """One event -> its positional row ``[run, type_id, *fields]``.

    With *links*, the link ids of an interned field are replaced by
    their indexes in that table; ids it lacks are appended to it (the
    caller writes their definitions before the row).  Without it, the
    link ids stay strings.
    """
    try:
        type_id, fields, link_slot = _ENCODING[type(event)]
    except KeyError:
        raise ConfigError(
            f"unknown telemetry event type {type(event).__name__!r}"
        ) from None
    row = [run, type_id, *fields(event)]
    if link_slot is not None and links is not None:
        path = row[link_slot]
        try:
            row[link_slot] = [links[link] for link in path]
        except KeyError:
            row[link_slot] = [
                links.setdefault(link, len(links)) for link in path
            ]
    return row


def _untuple(value):
    """JSON turned the event's tuples into lists; turn them back."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value


#: Per-type decoding, in type-id order:
#: ``(class or None, type name, field names, link slot)``.
DecodingTable = list[tuple[Optional[type], str, tuple[str, ...],
                           Optional[int]]]


def _decoding_table(
    types: Iterable[Sequence], interned: Sequence[str]
) -> DecodingTable:
    return [
        (EVENT_TYPES.get(name), name, tuple(names),
         _link_slot(names, interned))
        for name, names in types
    ]


_DECODING = _decoding_table(SCHEMA, INTERNED_FIELDS)


def decode_event(
    row: list,
    table: Optional[DecodingTable] = None,
    links: Optional[Sequence[str]] = None,
) -> tuple[int, TelemetryEvent]:
    """Inverse of :func:`encode_event`; raises on unknown event types.

    *table* is the schema the row was written under (default: this
    build's :data:`SCHEMA`); *links* the link table its interned ids
    index (default: link ids are strings).
    """
    if table is None:
        table = _DECODING
    run, type_id, *values = row
    if type(type_id) is not int or not 0 <= type_id < len(table):
        raise ConfigError(f"unknown telemetry event type id {type_id!r}")
    cls, name, names, link_slot = table[type_id]
    if cls is None:
        raise ConfigError(f"unknown telemetry event type {name!r}")
    if len(values) != len(names):
        raise ConfigError(
            f"{name} row has {len(values)} fields, its schema {len(names)}"
        )
    if link_slot is not None and links is not None:
        values[link_slot - 2] = [links[i] for i in values[link_slot - 2]]
    return run, cls(**{
        key: _untuple(val) if type(val) is list else val
        for key, val in zip(names, values)
    })


# -- sink implementations ----------------------------------------------------

class _BufferedFileSink:
    """Shared buffering/accounting for file-backed sinks.

    Records are ASCII text (the encoder escapes everything else), so
    character and byte counts agree and the file is written in binary.
    """

    def __init__(
        self,
        path: str,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
    ) -> None:
        if flush_events < 1 or flush_bytes < 1:
            raise ConfigError("flush thresholds must be >= 1")
        self.path = os.fspath(path)
        self.flush_events = flush_events
        self.flush_bytes = flush_bytes
        self._buffer: list[str] = []
        self._buffer_bytes = 0
        self.events_handled = 0
        self.records_written = 0
        self.bytes_written = 0
        self.flushes = 0
        self._file: Optional[IO[bytes]] = self._open()

    def _open(self) -> IO[bytes]:
        return open(self.path, "wb")

    @property
    def backlog(self) -> int:
        """Records buffered in memory, not yet pushed to the OS."""
        return len(self._buffer)

    @property
    def closed(self) -> bool:
        return self._file is None

    def _append(self, text: str) -> None:
        if self._file is None:
            raise ConfigError(f"sink {self.path} is closed")
        self._buffer.append(text)
        self._buffer_bytes += len(text)
        if (len(self._buffer) >= self.flush_events
                or self._buffer_bytes >= self.flush_bytes):
            self.flush()

    def flush(self) -> None:
        if self._file is None or not self._buffer:
            return
        chunk = "".join(self._buffer)
        self._file.write(chunk.encode("ascii"))
        self._file.flush()
        self.records_written += len(self._buffer)
        self.bytes_written += len(chunk)
        self.flushes += 1
        self._buffer.clear()
        self._buffer_bytes = 0

    def close(self) -> None:
        if self._file is None:
            return
        self.flush()
        self._finalize(self._file)
        self._file.close()
        self._file = None

    def _finalize(self, file: IO[bytes]) -> None:
        """Hook for format-level trailers, written before close."""

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class JsonlEventSink(_BufferedFileSink):
    """Spools the raw event stream in the :data:`SPOOL_FORMAT` rows.

    Lossless: the file (gzip-compressed at :data:`GZIP_LEVEL` when
    ``compress=True`` or the path ends in ``.gz``) replays into the
    identical typed event stream via :func:`iter_jsonl_events`.  The
    header is flushed on open, so even a spool whose writer died before
    its first flush is readable (as an empty stream).
    ``bytes_written`` counts every encoded byte, header and link-table
    lines included; ``records_written`` counts events.
    """

    def __init__(
        self,
        path: str,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        compress: Optional[bool] = None,
    ) -> None:
        self.compress = (
            compress
            if compress is not None
            else os.fspath(path).endswith(".gz")
        )
        self._links: dict[str, int] = {}
        super().__init__(path, flush_events, flush_bytes)

    @property
    def interned_links(self) -> int:
        """Distinct link ids in this spool's link table."""
        return len(self._links)

    def _open(self) -> IO[bytes]:
        if self.compress:
            file = gzip.open(self.path, "wb", compresslevel=GZIP_LEVEL)
        else:
            file = open(self.path, "wb")
        file.write(_HEADER_LINE.encode("ascii"))
        file.flush()
        self.bytes_written += len(_HEADER_LINE)
        return file

    def handle(self, run: int, event: TelemetryEvent) -> None:
        self.events_handled += 1
        links = self._links
        known = len(links)
        text = "".join(_ENCODE(encode_event(run, event, links), 0)) + "\n"
        if len(links) != known:
            # Define the new ids in the same record, ahead of the row.
            fresh = list(islice(links, known, None))
            text = _dumps({"links": fresh}) + "\n" + text
        self._append(text)


class ChromeStreamingSink(_BufferedFileSink):
    """Streams Chrome/Perfetto ``trace_event`` records as they happen.

    Writes the JSON *Array Format* (``[`` + comma-separated records):
    the trace viewers accept it without the closing ``]``, so a run
    that dies mid-flight still leaves a loadable trace.  ``close()``
    appends per-process name metadata and the terminator.

    ``multi_run`` mirrors :func:`~repro.telemetry.export_chrome_trace`:
    a streaming sink cannot know the final run count up front, so it
    defaults to prefixing pids with ``run<N>:`` — pass ``False`` for
    single-run captures that should match the batch exporter's output.
    """

    def __init__(
        self,
        path: str,
        multi_run: bool = True,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
    ) -> None:
        super().__init__(path, flush_events, flush_bytes)
        self.multi_run = multi_run
        self._pids: set[str] = set()
        self._first = True

    def _open(self) -> IO[bytes]:
        file = open(self.path, "wb")
        file.write(b"[\n")
        return file

    def _record(self, record: dict) -> None:
        prefix = "" if self._first else ",\n"
        self._first = False
        self._append(prefix + "".join(_ENCODE(record, 0)))

    def handle(self, run: int, event: TelemetryEvent) -> None:
        self.events_handled += 1
        prefix = f"run{run}:" if self.multi_run else ""
        for record in convert_event(event, prefix):
            self._pids.add(record["pid"])
            self._record(record)

    def _finalize(self, file: IO[bytes]) -> None:
        trailer = []
        for record in process_metadata(self._pids):
            trailer.append("" if self._first else ",\n")
            self._first = False
            trailer.append(_dumps(record))
        trailer.append("\n]\n")
        file.write("".join(trailer).encode("ascii"))


# -- replay ------------------------------------------------------------------

def _spool_lines(path: str) -> Iterator[bytes]:
    """The raw lines of a spool, gzip or plain.

    A gzip stream that ends without its trailer (the writer died before
    ``close()``) ends the lines there: the synced flushes before it are
    intact.  Corrupt compressed data still raises.
    """
    if path.endswith(".gz"):
        with gzip.open(path, "rb") as handle:
            try:
                yield from handle
            except EOFError:
                return
    else:
        with open(path, "rb") as handle:
            yield from handle


class _SpoolDecoder:
    """Decodes one spool's records through its header and link table."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.table: Optional[DecodingTable] = None
        self.links: list[str] = []

    def feed(self, record) -> Optional[tuple[int, TelemetryEvent]]:
        if self.table is None:
            self.table = self._read_header(record)
        elif type(record) is list:
            return decode_event(record, self.table, self.links)
        elif type(record) is dict and list(record) == ["links"]:
            self.links.extend(record["links"])
        else:
            raise ConfigError(
                f"{self.path}: unexpected spool record {record!r}"
            )
        return None

    def _read_header(self, record) -> DecodingTable:
        found = record.get("format") if type(record) is dict else None
        if found != SPOOL_FORMAT:
            raise ConfigError(
                f"{self.path} is not a {SPOOL_FORMAT!r} event spool: its "
                f"first line must be the header declaring that format "
                f"(found {'format ' + repr(found) if found else 'none'}); "
                f"spools in the older one-object-per-line format must be "
                f"re-recorded"
            )
        return _decoding_table(record["types"], record["interned"])


def iter_jsonl_events(
    path: str,
) -> Iterator[tuple[int, TelemetryEvent]]:
    """Replay a :class:`JsonlEventSink` spool as ``(run, event)`` pairs.

    A partially written final line or a missing gzip trailer (the
    writer crashed) ends the stream at the last whole record; a corrupt
    line anywhere else raises, since that means the file is damaged
    rather than merely truncated.
    """
    path = os.fspath(path)
    decoder = _SpoolDecoder(path)
    pending: Optional[bytes] = None
    for line in _spool_lines(path):
        if pending is not None:
            pair = decoder.feed(json.loads(pending))
            if pair is not None:
                yield pair
        pending = line
    if pending is None:
        return
    try:
        record = json.loads(pending)
    except json.JSONDecodeError:
        return  # truncated trailing line: tolerated
    pair = decoder.feed(record)
    if pair is not None:
        yield pair


def replay_metrics(
    source: Union[str, Iterable[tuple[int, TelemetryEvent]]],
    mode: str = "exact",
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold a spooled (or in-memory) event stream into a fresh registry.

    This is the differential oracle path: replaying a JSONL spool in
    ``exact`` mode reproduces the live in-memory summary bit-for-bit;
    in ``bounded`` mode the reservoir seeds derive from metric names,
    so a bounded replay also matches a live bounded registry exactly.
    """
    if registry is None:
        registry = MetricsRegistry(mode=mode)
    bus = EventBus()
    consumer = StandardMetrics(registry).attach(bus)
    if isinstance(source, (str, os.PathLike)):
        source = iter_jsonl_events(source)
    try:
        for _run, event in source:
            bus.publish(event)
    finally:
        consumer.detach()
    return registry
