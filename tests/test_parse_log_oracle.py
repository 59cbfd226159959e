"""``parse_log`` against the reader it replaced.

``oracle_parse_log`` is the earlier reader, kept verbatim: it copies the
whole text into one ``io.StringIO``, strips every cell before reading it,
checks each row's times one at a time, and types every attribute cell of
every row. The reader under test must give the same log, or the same
``LogError`` message, on every text.
"""
from __future__ import annotations

import csv
import io
import math
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from typing import Mapping, Optional

import pytest

from dsync import eventlog
from dsync.errors import LogError
from dsync.eventlog import (
    COLUMNS, EMPTY_ATTRS, MANDATORY, AttrValue, Event, Log, _coerce, _narrow, parse_log,
    sort_events, write_log,
)
from dsync.modelfile import load_model
from dsync.simulate import SimConfig, simulate
from tests.conftest import MODELS, model_path


def _oracle_parse_time(raw: str, row_num: int, column: str) -> float:
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


def oracle_parse_log(text: str) -> Log:
    if text.startswith("\ufeff"):
        text = text[1:]
    reader = csv.reader(io.StringIO(text))
    # the records with a non-empty cell; ``reader.line_num`` is the line a
    # record ends on
    records = (row for row in reader if any(map(str.strip, row)))
    header = [h.strip() for h in next(records, ())]
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
    events: list[Event] = []
    error: Optional[tuple[int, str]] = None  # the first bad row and its message
    for row in records:
        row_num = reader.line_num
        if len(row) < width:  # its missing cells are empty
            row = row + [""] * (width - len(row))
        cells = tuple(row[i].strip() for i in i_attrs)
        for j, raw in enumerate(cells):
            if raw and types[j] != "text":
                typ = types[j] = _narrow(types[j], raw)
                if typ == "number" and not_finite[j] is None and not math.isfinite(float(raw)):
                    not_finite[j] = (row_num, raw)
        if error is not None:  # past a bad row only the columns are typed
            continue
        try:
            if len(row) > width and any(map(str.strip, row[width:])):
                raise LogError(f"row {row_num}: a cell beyond the {width} header columns is not empty")
            label = row[i_label].strip()
            if not label:
                raise LogError(f"row {row_num}: empty activity label")
            start = _oracle_parse_time(row[i_start].strip(), row_num, "start")
            complete = _oracle_parse_time(row[i_complete].strip(), row_num, "complete")
            if start > complete:
                raise LogError(f"row {row_num}: start {start:g} is after complete {complete:g}")
        except LogError as exc:
            error = (row_num, str(exc))
            continue
        resource = row[i_resource].strip() if has_resource else ""
        resource = strs.setdefault(resource, resource) if resource else None
        attrs = maps.get(cells)
        if attrs is None:
            attrs = maps[cells] = {}  # filled once the columns are typed
        case_id = row[i_case].strip()
        events.append(Event(strs.setdefault(case_id, case_id), strs.setdefault(label, label),
                            start, complete, resource, attrs))

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


def _outcome(parse, text: str):
    """A parse's log, with floats by their repr so that -0.0 and 0.0 differ,
    or its ``LogError`` message."""
    try:
        log = parse(text)
    except LogError as exc:
        return "LogError", str(exc)
    return repr(log.events), log.schema, log.has_resource


def assert_reads_as_the_oracle(text: str) -> None:
    assert _outcome(parse_log, text) == _outcome(oracle_parse_log, text), text


# -- the bundled models' logs -------------------------------------------------


@pytest.mark.parametrize("model", sorted(path.stem for path in MODELS.glob("*.json")))
def test_simulated_logs_read_as_the_oracle(model):
    net = load_model(model_path(model))
    for seed in (1, 2):
        text = write_log(simulate(net, SimConfig(seed=seed, max_cases=300)))
        assert len(text) > eventlog._BLOCK  # read in more than one block
        for variant in (text, "\ufeff" + text, text.replace("\n", "\r\n"),
                        text.replace("\n", ", ,\n"), _with_iso_times(text)):
            assert_reads_as_the_oracle(variant)


def _with_iso_times(text: str) -> str:
    """``text`` with its times as ISO-8601 stamps of the same instants (UTC),
    by turns without a zone, with one and padded."""
    rows = list(csv.reader(io.StringIO(text)))
    cols = [rows[0].index("start"), rows[0].index("complete")]
    base = datetime(2024, 3, 1)
    for n, row in enumerate(rows[1:]):
        for i in cols:
            stamp = base + timedelta(minutes=float(row[i]))
            zoned = (stamp + timedelta(hours=2)).isoformat() + "+02:00"  # the same instant
            row[i] = (stamp.isoformat(), zoned, f" {stamp.isoformat()} ")[n % 3]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# -- generated texts ----------------------------------------------------------

# times that ``float`` reads, also past whitespace that is not ASCII, ISO-8601
# times, and bad ones
_TIMES = ("0", "1", "2.5", " 3 ", "10", "1e3", "-0", "-4", "\t7 ", "1_0", "\u00a08\u2003", "\x1c9",
          "2024-01-01T00:00:00", " 2024-01-01 00:30 ", "2024-01-01T01:00:00+02:00",
          "nan", "inf", "-inf", "1e400", "zero", "", " ")
_LABELS = ("a", "b c", " a ", "d,e", 'q"t', "x\ny", "", "  ")
_CASES = ("1", "2", " 3 ", "c,4", "", "\u20035")
_RESOURCES = ("w1", " w1 ", "w 2", "", " ", "r,3")
# attribute cells by kind; the first kind keeps a column numeric
_ATTRS = {
    "number": ("1", "-0", "0", "2.5", " 3 ", "1e2", "1_000", "nan", "inf", "-inf", "1e400", "", " "),
    "boolean": ("true", "false", "TRUE", " False ", "", " "),
    "mixed": ("1", "inf", "true", "x", "a,b", 'q"t', "multi\nline", "", " "),
}


def _row(rng, header: list[str], kinds: dict[str, str]) -> list[str]:
    shape = rng.random()
    if shape < 0.05:
        return []  # a blank line
    if shape < 0.1:
        return [rng.choice(("", " ", "\t"))] * rng.randint(1, len(header) + 2)
    row = []
    for col in header:
        if col == "case":
            row.append(rng.choice(_CASES))
        elif col == "activity":
            row.append(rng.choice(_LABELS) if rng.random() < 0.3 else "a")
        elif col in ("start", "complete"):
            row.append(rng.choice(_TIMES) if rng.random() < 0.3 else str(rng.randint(0, 9)))
        elif col == "resource":
            row.append(rng.choice(_RESOURCES))
        else:
            row.append(rng.choice(_ATTRS[kinds[col]]))
    if shape < 0.2:
        del row[rng.randint(0, len(row)):]  # a short row
    elif shape < 0.3:
        row += [rng.choice(("", " ", "", "EXTRA")) for _ in range(rng.randint(1, 3))]
    return row


def _random_text(rng) -> str:
    attrs = [f"at{i}" for i in range(rng.choice((0, 0, 1, 2, 3)))]
    header = [*MANDATORY, *(["resource"] if rng.random() < 0.5 else []), *attrs]
    rng.shuffle(header)
    if rng.random() < 0.04:
        header.remove(rng.choice(MANDATORY))
    if rng.random() < 0.04:
        header.append(rng.choice(header))
    kinds = {col: rng.choice(("number", "number", "boolean", "mixed")) for col in attrs}
    rows = [[f" {col}" if rng.random() < 0.1 else col for col in header]]
    rows[0] += [""] * rng.choice((0, 0, 0, 1, 2))  # trailing empty header cells
    rows += [_row(rng, header, kinds) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.2:
        rows.insert(0, [])  # a blank line before the header
    if rng.random() < 0.02:
        rows = [[], [" ", ""]][:rng.randint(0, 2)]  # no header
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=rng.choice(("\n", "\n", "\r\n")),
                        quoting=rng.choice((csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    writer.writerows(rows)
    text = buf.getvalue()
    if rng.random() < 0.1:
        text = "\ufeff" + text
    if rng.random() < 0.1:
        text = text.rstrip("\r\n")  # no line break after the last row
    return text


def test_generated_texts_read_as_the_oracle(monkeypatch):
    rng = random.Random("parse_log oracle")
    for _ in range(12_000):
        # small blocks put their boundaries in every kind of line and cell
        monkeypatch.setattr(eventlog, "_BLOCK", rng.choice((16_000, 16_000, 1, 7, 40)))
        assert_reads_as_the_oracle(_random_text(rng))


def _rule(outcome) -> str:
    """The rule a parse's outcome shows: "ok", or the kind of its error."""
    if outcome[0] != "LogError":
        return "ok"
    message = outcome[1]
    found = re.match(r"row \d+: (\w+) value .* is not finite", message)
    if found and found.group(1) not in ("start", "complete"):
        return "attribute not finite"
    return next(rule for rule in _RULES if rule in message)


_RULES = ("empty activity label", "is not numeric", "is not finite", "is after", "beyond the",
          "appears more than once", "missing mandatory", "no header")


def test_generated_texts_cover_every_rule():
    rng = random.Random("parse_log oracle")
    outcomes = [_outcome(oracle_parse_log, _random_text(rng)) for _ in range(12_000)]
    assert {_rule(outcome) for outcome in outcomes} == {"ok", "attribute not finite", *_RULES}
    types = {typ for outcome in outcomes if outcome[0] != "LogError" for _, typ in outcome[1]}
    assert types == {"number", "boolean", "text"}


@pytest.mark.parametrize("rows, message", [
    # a number that is not finite before and after another bad row
    (["1,b,1,2,inf", "1,c,zero,3,6"], "row 3: cost value 'inf' is not finite"),
    (["1,b,zero,2,6", "1,c,1,3,inf"], "row 3: start value 'zero' is not numeric"),
    # one tuple of cells in two rows: its first row is named
    (["1,b,1,2,inf", "1,c,1,3,inf", "1,d,zero,4,6"], "row 3: cost value 'inf' is not finite"),
    (["1,b,zero,2,5", "1,c,1,3,inf", "1,d,1,4,inf"], "row 3: start value 'zero' is not numeric"),
    # a tuple first met after the bad row still types the column as text
    (["1,b,1,2,inf", "1,c,zero,3,6", "1,d,1,4,x"], "row 4: start value 'zero' is not numeric"),
])
def test_a_number_that_is_not_finite_and_another_bad_row(rows, message):
    text = "case,activity,start,complete,cost\n1,a,0,1,5\n" + "".join(row + "\n" for row in rows)
    with pytest.raises(LogError) as info:
        parse_log(text)
    assert str(info.value) == message
    assert_reads_as_the_oracle(text)


def test_a_quoted_cell_across_a_block_boundary():
    head = "case,activity,start,complete,note\n"
    filler = "".join(f"c{i},a,{i},{i + 1},short\n" for i in range(500))
    row = 'q,a,0,1,"'
    assert len(head + filler + row) < eventlog._BLOCK
    # the line break in the quoted cell is the first one past the block size
    cell = "x" * (eventlog._BLOCK - len(head + filler + row) + 5) + '\ny,"z'
    text = head + filler + row + cell.replace('"', '""') + '"\r\n' + filler
    first = next(eventlog._blocks(text, 0))
    assert first == text[:text.index("x\n") + 2]
    log = parse_log(text)
    assert [e.attrs["note"] for e in log.events if e.case_id == "q"] == [cell]
    assert_reads_as_the_oracle(text)


# -- memory ---------------------------------------------------------------------


def test_parse_log_does_not_copy_the_text_whole():
    # a whole-text io.StringIO copy alone needs 4 bytes a character
    net = load_model(model_path("blocking"))
    text = write_log(simulate(net, SimConfig(seed=1, max_cases=6_500)))
    assert len(text) >= 1_000_000
    tracemalloc.start()
    try:
        log = parse_log(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.events) == text.count("\n") - 1
    assert peak - held < 2.5 * len(text)
