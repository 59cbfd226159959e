"""Event-log data model and CSV ingestion/serialization.

Logs are plain CSV (comma separated, UTF-8, ``.`` decimal separator) with
mandatory columns ``case, activity, start, complete``, an optional
``resource`` column, and any further columns treated as typed event
attributes. Timestamps are numeric time units; ISO-8601 timestamps are also
accepted on input and converted to fractional minutes from the epoch.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Mapping, Optional, Union

from .errors import LogError

AttrValue = Union[float, bool, str]

MANDATORY = ("case", "activity", "start", "complete")


@dataclass(frozen=True)
class Event:
    case_id: str
    label: str
    start: float
    complete: float
    resource: Optional[str] = None
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)


@dataclass
class Log:
    """Events in global order (complete, then start, then case id)."""

    events: list[Event]
    schema: tuple[tuple[str, str], ...] = ()  # (attr name, "number"|"boolean"|"text")
    has_resource: bool = False


def _order_key(e: Event) -> tuple:
    return (e.complete, e.start, e.case_id)


def sort_events(events: list[Event]) -> list[Event]:
    return sorted(events, key=_order_key)


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


def parse_log(text: str) -> Log:
    """Parse CSV text into a Log.

    Extra columns become attributes typed per column over the whole file:
    numeric if every non-empty value parses as a number, boolean if every
    value is true/false, text otherwise.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise LogError("log has no header row")
    header = [h.strip() for h in rows[0]]
    for col in MANDATORY:
        if col not in header:
            raise LogError(f"missing mandatory column {col!r}")
    idx = {name: i for i, name in enumerate(header)}
    has_resource = "resource" in idx
    attr_cols = [
        h for h in header if h not in MANDATORY and h != "resource"
    ]
    # a row shorter than the header is padded once: its missing cells are empty
    width = len(header)
    body = [row + [""] * (width - len(row)) if len(row) < width else row for row in rows[1:]]

    # First pass: column typing over the whole file.
    col_types: dict[str, str] = {}
    for col in attr_cols:
        i = idx[col]
        col_types[col] = _infer_type([v for row in body if (v := row[i].strip())])

    i_case, i_label, i_start, i_complete = (idx[col] for col in MANDATORY)
    i_resource = idx.get("resource")
    typed = [(col, idx[col], col_types[col]) for col in attr_cols]
    events: list[Event] = []
    for row_num, row in enumerate(body, start=2):
        label = row[i_label].strip()
        if not label:
            raise LogError(f"row {row_num}: empty activity label")
        start = _parse_time(row[i_start].strip(), row_num, "start")
        complete = _parse_time(row[i_complete].strip(), row_num, "complete")
        if start > complete:
            raise LogError(f"row {row_num}: start {start:g} is after complete {complete:g}")
        resource = row[i_resource].strip() or None if has_resource else None
        attrs: dict[str, AttrValue] = {}
        for col, i, typ in typed:
            raw = row[i].strip()
            if raw == "":
                continue
            attrs[col] = value = _coerce(raw, typ)
            if isinstance(value, float) and not math.isfinite(value):
                raise LogError(f"row {row_num}: {col} value {raw!r} is not finite")
        events.append(Event(row[i_case].strip(), label, start, complete, resource, attrs))

    schema = tuple((col, col_types[col]) for col in attr_cols)
    return Log(sort_events(events), schema, has_resource)


def _infer_type(values: list[str]) -> str:
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


def traces(log: Log) -> dict[str, list[Event]]:
    """Group events by case, preserving per-case completion order."""
    out: dict[str, list[Event]] = {}
    for e in log.events:
        out.setdefault(e.case_id, []).append(e)
    return out


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_log(fh.read())
        except UnicodeDecodeError as exc:
            raise LogError(f"log {path!r} is not UTF-8 text: {exc}") from None


def save_log(log: Log, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_log(log))
