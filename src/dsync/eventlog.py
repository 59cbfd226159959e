"""Event-log data model and CSV ingestion/serialization.

Logs are plain CSV (comma separated, UTF-8, ``.`` decimal separator; a
leading byte-order mark is dropped) with mandatory columns ``case, activity,
start, complete``, an optional ``resource`` column, and any further columns
treated as typed event attributes; no column name appears twice. Timestamps are numeric time units;
ISO-8601 timestamps are also accepted on input and converted to fractional
minutes from the epoch. Discovery reads guards off the waits before starts, so
``dsync discover`` and ``check`` warn on a log whose events all take no time.

``parse_log`` reads a text in one pass, feeding ``csv.reader`` blocks of
about 16,000 characters that each end after a line break, so the text is
never copied whole. It accepts a row whose times pass one chained
comparison, explains any other row by checking it cell by cell, and types
the attribute columns once per distinct tuple of cells. Every bad input,
a line the ``csv`` module cannot read included, raises ``LogError``.

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
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Union

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


def _iso_minutes(raw: str) -> float:
    """Minutes from the epoch of the ISO-8601 time ``raw`` (UTC unless it
    names a zone), or NaN if ``raw`` is not one."""
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError:
        return math.nan
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp() / 60.0


def _parse_time(raw: str, row_num: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = _iso_minutes(raw)
        if math.isnan(value):
            raise LogError(f"row {row_num}: {column} value {raw!r} is not numeric") from None
        return value
    if not math.isfinite(value):
        raise LogError(f"row {row_num}: {column} value {raw!r} is not finite")
    return value


def _check_row(row: list[str], row_num: int, width: int, i_label: int, i_start: int,
               i_complete: int) -> tuple[float, float]:
    """The start and complete of a padded record with a non-empty cell, or
    ``LogError`` naming what is wrong with it: cells beyond the header, then
    its label, its start, its complete and their order."""
    if len(row) > width and any(map(str.strip, row[width:])):
        raise LogError(f"row {row_num}: a cell beyond the {width} header columns is not empty")
    if not row[i_label].strip():
        raise LogError(f"row {row_num}: empty activity label")
    start = _parse_time(row[i_start].strip(), row_num, "start")
    complete = _parse_time(row[i_complete].strip(), row_num, "complete")
    if start > complete:
        raise LogError(f"row {row_num}: start {start:g} is after complete {complete:g}")
    return start, complete


# the text is read in blocks of about this many characters, so that no copy
# of it is made whole
_BLOCK = 16_000


def _blocks(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` in blocks that each end just after a line break (the
    last one at the end of the text): the lines of the blocks are the lines
    of ``io.StringIO(text[start:])``."""
    end = len(text)
    while start < end:
        cut = text.find("\n", start + _BLOCK) + 1 or end
        yield text[start:cut]
        start = cut


@acyclic
def parse_log(text: str) -> Log:
    """Parse CSV text into a Log, in one pass over its records.

    Extra columns become attributes typed per column over the whole file:
    numeric if every non-empty value parses as a number, boolean if every
    value is true/false, text otherwise. Trailing empty header cells are
    dropped, and a row may end in empty cells beyond the header, but a
    non-empty one raises ``LogError``. One leading byte-order mark (U+FEFF)
    is skipped. A line that the ``csv`` module cannot read, such as a cell
    over its field size limit, ends the pass: it raises ``LogError`` naming
    that row, or the first bad row before it if there is one. Runs with the
    cyclic garbage collector paused (``acyclic``).

    The text is fed to ``csv.reader`` in blocks of about 16,000 characters,
    each ending after a line break, so it is never copied whole; a quoted
    cell may span blocks. A row is accepted when its label is not empty, it
    has no non-empty cell beyond the header, and its times pass one chained
    comparison, ``-inf < start <= complete < inf``: ``float`` of the raw
    cell (which strips the same whitespace as ``str.strip``), or where that
    fails the stripped cell read as an ISO-8601 time, else NaN. Any other
    row is checked cell by cell, which names what is wrong with it, and a
    record whose cells are all empty is skipped.

    The columns are typed as the pass reads, once per distinct tuple of
    stripped attribute cells, at the first row that holds it: a column's
    type and its first number that is not finite depend only on its distinct
    cells in first-seen order. So the attribute maps are filled after the
    pass: a numeric cell that is not finite is an error only once its column
    turns out numeric, and it is reported when its row comes before the
    first other bad row, as a row is checked before the next one is read.

    Equal values are stored once: all events share one ``str`` per distinct
    case id, label and resource, rows whose attribute cells are identical
    share one attribute dict, and rows with no attribute value hold
    ``EMPTY_ATTRS``.
    """
    # a byte-order mark is skipped, not sliced off, which would copy the text
    blocks = _blocks(text, 1 if text.startswith("\ufeff") else 0)
    reader = csv.reader(chain.from_iterable(map(io.StringIO, blocks)))
    try:
        return _read_records(reader)
    except csv.Error as exc:  # e.g. a cell over the field size limit, or a lone \r
        raise LogError(f"row {reader.line_num}: {exc}") from None


def _read_records(reader) -> Log:
    """``parse_log`` of the records of a ``csv.reader``; ``reader.line_num``
    is the line a record ends on."""
    header: list[str] = []
    for row in reader:
        if any(map(str.strip, row)):  # the first record with a non-empty cell
            header = [h.strip() for h in row]
            break
    while header and not header[-1]:  # trailing empty cells name no column
        header.pop()
    if not header:
        raise LogError("log has no header row")
    for i, col in enumerate(header):
        if col in header[:i]:
            raise LogError(f"column {col!r} appears more than once in the header")
    for col in MANDATORY:
        if col not in header:
            raise LogError(f"missing mandatory column {col!r}")
    idx = {name: i for i, name in enumerate(header)}
    has_resource = "resource" in idx
    attr_cols = [h for h in header if h not in COLUMNS]
    width = len(header)
    i_case, i_label, i_start, i_complete = (idx[col] for col in MANDATORY)
    i_resource = idx.get("resource")
    i_attrs = [idx[col] for col in attr_cols]
    # per attribute column: its type over the rows read so far (None before
    # its first value), and the first row holding a number that is not finite
    types: list[Optional[str]] = [None] * len(attr_cols)
    not_finite: list[Optional[tuple[int, str]]] = [None] * len(attr_cols)
    # one object per distinct string, and per distinct tuple of stripped
    # attribute cells (raw text, so that ``-0`` and ``0`` stay apart)
    strs: dict[str, str] = {}
    maps: dict[tuple[str, ...], Mapping[str, AttrValue]] = {(("",) * len(attr_cols)): EMPTY_ATTRS}
    attrs = EMPTY_ATTRS
    events: list[Event] = []
    error: Optional[tuple[int, str]] = None  # the first bad row and its message
    inf = math.inf
    try:
        for row in reader:
            if len(row) < width:  # its missing cells are empty
                row += [""] * (width - len(row))
            if i_attrs:
                cells = tuple(map(str.strip, map(row.__getitem__, i_attrs)))
                attrs = maps.get(cells)
                if attrs is None:  # the first row with these cells types them
                    attrs = maps[cells] = {}  # filled once the columns are typed
                    for j, raw in enumerate(cells):
                        if raw and types[j] != "text":
                            typ = types[j] = _narrow(types[j], raw)
                            if (typ == "number" and not_finite[j] is None
                                    and not math.isfinite(float(raw))):
                                not_finite[j] = (reader.line_num, raw)
            label = row[i_label].strip()
            try:
                start = float(row[i_start])
            except ValueError:  # NaN unless an ISO-8601 time
                start = _iso_minutes(row[i_start].strip())
            try:
                complete = float(row[i_complete])
            except ValueError:
                complete = _iso_minutes(row[i_complete].strip())
            if not (label and -inf < start <= complete < inf) or (
                    len(row) > width and any(map(str.strip, row[width:]))):
                if not any(map(str.strip, row)):  # a record of empty cells
                    continue
                try:
                    start, complete = _check_row(row, reader.line_num, width,
                                                 i_label, i_start, i_complete)
                except LogError as exc:
                    if error is None:
                        error = (reader.line_num, str(exc))
                    continue
            # past a bad row the events are built but never returned
            case_id = row[i_case].strip()
            resource = row[i_resource].strip() if has_resource else ""
            # ``tuple.__new__`` skips the named tuple's ``__new__``, a Python function
            events.append(tuple.__new__(Event, (
                strs.setdefault(case_id, case_id), strs.setdefault(label, label), start, complete,
                strs.setdefault(resource, resource) if resource else None, attrs)))
    except csv.Error:  # parse_log names its row, unless an earlier row is bad
        if error is not None:
            raise LogError(error[1]) from None
        raise

    col_types = [typ or "text" for typ in types]
    # a number that is not finite is reported if its row is the first bad one
    bad = [(found[0], j, found[1]) for j, found in enumerate(not_finite)
           if found is not None and col_types[j] == "number"]
    if bad:
        row_num, j, raw = min(bad)
        if error is None or row_num < error[0]:
            error = (row_num, f"row {row_num}: {attr_cols[j]} value {raw!r} is not finite")
    if error is not None:
        raise LogError(error[1])
    for cells, attrs in maps.items():
        if attrs is not EMPTY_ATTRS:
            for col, typ, raw in zip(attr_cols, col_types, cells):
                if raw:
                    attrs[col] = _coerce(raw, typ)
    return Log(sort_events(events), tuple(zip(attr_cols, col_types)), has_resource)


def _narrow(typ: Optional[str], raw: str) -> str:
    """The type of a log column whose non-empty cells so far read as ``typ``
    (None before the first), once it also holds the stripped cell ``raw``:
    it stays a number while its cells parse as numbers, boolean while they
    are true/false, and is text otherwise."""
    if typ == "text":
        return typ
    if typ != "boolean":
        try:
            float(raw)
        except ValueError:
            pass
        else:
            return "number"
    return "boolean" if typ != "number" and raw.lower() in ("true", "false") else "text"


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
    """Serialize a log; ``parse_log(write_log(log)) == log`` on valid logs.

    A text cell that holds a carriage return raises ``LogError``: ``parse_log``
    rejects it unquoted, and ``load_log`` reads even a quoted one as ``\\n``.
    """
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
        for col, typ in log.schema:
            cell = fmt_cell(e.attrs[col]) if col in e.attrs else ""
            if typ == "text" and "\r" in cell:
                raise LogError(f"column {col!r}: text cell {cell!r} holds a carriage return, "
                               "which a log cannot give back")
            row.append(cell)
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
