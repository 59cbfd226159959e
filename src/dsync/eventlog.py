"""Event-log data model and CSV ingestion/serialization.

Logs are plain CSV (comma separated, UTF-8, ``.`` decimal separator; a
leading byte-order mark is dropped) with mandatory columns ``case, activity,
start, complete``, an optional ``resource`` column, and any further columns
treated as typed event attributes; no column name appears twice. Timestamps are numeric time units;
ISO-8601 timestamps are also accepted on input and converted to fractional
minutes from the epoch.

An event is an immutable value, its attribute map included: the library
shares equal maps between events and tokens (``parse_log``, ``net.fire``,
``simulate``), every event it builds without attributes holds
``EMPTY_ATTRS``, and no code may mutate an attribute map.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .acyclic import acyclic
from .errors import LogError

AttrValue = Union[float, bool, str]

MANDATORY = ("case", "activity", "start", "complete")
# the columns that are no event attribute
COLUMNS = (*MANDATORY, "resource")

# the attribute map of every event and token without attributes; read-only,
# so that it can be shared
EMPTY_ATTRS: Mapping[str, AttrValue] = MappingProxyType({})


class Event(NamedTuple):
    """One log event, an immutable named tuple.

    ``attrs`` is part of the value: it may be shared with other events and
    with tokens, so no code mutates it.
    """

    case_id: str
    label: str
    start: float
    complete: float
    resource: Optional[str] = None
    attrs: Mapping[str, AttrValue] = EMPTY_ATTRS

    def __reduce__(self):  # a read-only map does not pickle; its copy does
        return Event, (*self[:5], dict(self.attrs))


@dataclass
class Log:
    """Events in global order (complete, then start, then case id)."""

    events: list[Event]
    schema: tuple[tuple[str, str], ...] = ()  # (attr name, "number"|"boolean"|"text")
    has_resource: bool = False


def sort_events(events: list[Event]) -> list[Event]:
    return sorted(events, key=attrgetter("complete", "start", "case_id"))


def _parse_time(raw: str, row_num: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise LogError(f"row {row_num}: {column} value {raw!r} is not finite")
        return value
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError:
        raise LogError(f"row {row_num}: {column} value {raw!r} is not numeric") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp() / 60.0


@acyclic
def parse_log(text: str) -> Log:
    """Parse CSV text into a Log.

    Extra columns become attributes typed per column over the whole file:
    numeric if every non-empty value parses as a number, boolean if every
    value is true/false, text otherwise. A row may end in empty cells beyond
    the header, but a non-empty one raises ``LogError``. One leading
    byte-order mark (U+FEFF) is dropped. Runs with the cyclic garbage
    collector paused (``acyclic``).

    Equal values are stored once: all events share one ``str`` per distinct
    case id, label and resource, rows whose attribute cells are identical
    share one attribute dict, and rows with no attribute value hold
    ``EMPTY_ATTRS``.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    reader = csv.reader(io.StringIO(text))
    # each record with a non-empty cell, after the number of the line it ends on
    rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    if not rows:
        raise LogError("log has no header row")
    header = [h.strip() for h in rows[0][1]]
    for i, col in enumerate(header):
        if col in header[:i]:
            raise LogError(f"column {col!r} appears more than once in the header")
    for col in MANDATORY:
        if col not in header:
            raise LogError(f"missing mandatory column {col!r}")
    idx = {name: i for i, name in enumerate(header)}
    has_resource = "resource" in idx
    attr_cols = [h for h in header if h not in COLUMNS]
    # a row shorter than the header is padded once: its missing cells are empty
    width = len(header)
    body = [row + [""] * (width - len(row)) if len(row) < width else row for _, row in rows[1:]]

    # First pass: column typing over the whole file.
    col_types: dict[str, str] = {}
    for col in attr_cols:
        i = idx[col]
        col_types[col] = infer_type([v for row in body if (v := row[i].strip())])

    i_case, i_label, i_start, i_complete = (idx[col] for col in MANDATORY)
    i_resource = idx.get("resource")
    typed = [(col, idx[col], col_types[col]) for col in attr_cols]
    # one object per distinct string, and per distinct tuple of stripped
    # attribute cells (raw text, so that ``-0`` and ``0`` stay apart)
    strs: dict[str, str] = {}
    maps: dict[tuple[str, ...], Mapping[str, AttrValue]] = {(("",) * len(typed)): EMPTY_ATTRS}
    events: list[Event] = []
    for (row_num, _), row in zip(rows[1:], body):
        if len(row) > width and any(map(str.strip, row[width:])):
            raise LogError(f"row {row_num}: a cell beyond the {width} header columns is not empty")
        label = row[i_label].strip()
        if not label:
            raise LogError(f"row {row_num}: empty activity label")
        label = strs.setdefault(label, label)
        start = _parse_time(row[i_start].strip(), row_num, "start")
        complete = _parse_time(row[i_complete].strip(), row_num, "complete")
        if start > complete:
            raise LogError(f"row {row_num}: start {start:g} is after complete {complete:g}")
        resource = row[i_resource].strip() if has_resource else ""
        resource = strs.setdefault(resource, resource) if resource else None
        cells = tuple(row[i].strip() for _, i, _ in typed)
        attrs = maps.get(cells)
        if attrs is None:
            attrs = maps[cells] = {}
            for (col, _, typ), raw in zip(typed, cells):
                if raw == "":
                    continue
                attrs[col] = value = _coerce(raw, typ)
                if isinstance(value, float) and not math.isfinite(value):
                    raise LogError(f"row {row_num}: {col} value {raw!r} is not finite")
        case_id = row[i_case].strip()
        events.append(Event(strs.setdefault(case_id, case_id), label, start, complete,
                            resource, attrs))

    schema = tuple((col, col_types[col]) for col in attr_cols)
    return Log(sort_events(events), schema, has_resource)


def infer_type(values: list[str]) -> str:
    """The ``ATTR_TYPES`` entry a log column of these stripped cells reads as."""
    if not values:
        return "text"
    if all(v.lower() in ("true", "false") for v in values):
        return "boolean"
    try:
        for v in values:
            float(v)
        return "number"
    except ValueError:
        return "text"


def _coerce(raw: str, typ: str) -> AttrValue:
    if typ == "number":
        return float(raw)
    if typ == "boolean":
        return raw.lower() == "true"
    return raw


def fmt_num(x: float) -> str:
    """Numeric cell formatting: integral values print without a decimal part."""
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def fmt_cell(value: AttrValue) -> str:
    """A CSV cell: booleans as true/false, numbers through ``fmt_num``, text as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt_num(value)
    return str(value)


def write_log(log: Log) -> str:
    """Serialize a log; ``parse_log(write_log(log)) == log`` on valid logs."""
    header = list(MANDATORY)
    if log.has_resource:
        header.append("resource")
    header.extend(col for col, _ in log.schema)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for e in sort_events(log.events):
        row = [e.case_id, e.label, fmt_num(e.start), fmt_num(e.complete)]
        if log.has_resource:
            row.append(e.resource or "")
        for col, _ in log.schema:
            row.append(fmt_cell(e.attrs[col]) if col in e.attrs else "")
        writer.writerow(row)
    return buf.getvalue()


def load_log(path: str) -> Log:
    """``parse_log`` of a UTF-8 file, which may start with a byte-order mark."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_log(fh.read())
        except UnicodeDecodeError as exc:
            raise LogError(f"log {path!r} is not UTF-8 text: {exc}") from None


def save_log(log: Log, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_log(log))
