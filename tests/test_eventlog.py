from __future__ import annotations

import random

import pytest

from dsync.errors import LogError
from dsync.eventlog import Event, Log, parse_log, sort_events, write_log

TABLE1 = """case,activity,start,complete,value
1,pre-processing,0,5,100
2,pre-processing,5,10,118
3,pre-processing,10,15,855
4,pre-processing,15,20,801
3,handling,15,22,855
5,pre-processing,20,25,146
4,handling,22,29,801
6,pre-processing,25,30,222
7,pre-processing,30,35,317
"""


def test_parse_running_example():
    log = parse_log(TABLE1)
    assert len(log.events) == 9
    assert log.schema == (("value", "number"),)
    handling3 = [e for e in log.events if e.case_id == "3" and e.label == "handling"][0]
    assert handling3.start == 15 and handling3.complete == 22
    assert handling3.attrs["value"] == 855


def test_traces_group_by_case():
    # each case's events keep their completion order
    log = parse_log(TABLE1)
    assert [e.label for e in log.events if e.case_id == "3"] == ["pre-processing", "handling"]
    assert len({e.case_id for e in log.events}) == 7


def test_header_only_file():
    log = parse_log("case,activity,start,complete,value\n")
    # no values to inspect: the column falls back to text
    assert log.events == [] and log.schema == (("value", "text"),)


def test_missing_mandatory_column():
    with pytest.raises(LogError, match="activity"):
        parse_log("case,start,complete\n1,0,1\n")


@pytest.mark.parametrize("header", ["value,value", "start"])
def test_duplicate_column_is_rejected(header):
    # the last cell would win, and write_log would repeat it in both columns
    text = f"case,activity,start,complete,{header}\n1,pre-processing,0,5,1,abc\n"
    column = header.split(",")[0]
    with pytest.raises(LogError, match=f"column '{column}' appears more than once"):
        parse_log(text)


def test_complete_before_start_names_row():
    text = "case,activity,start,complete\n1,a,0,5\n2,b,9,7\n"
    with pytest.raises(LogError, match="row 3"):
        parse_log(text)


def test_non_numeric_time_rejected():
    with pytest.raises(LogError, match="not numeric"):
        parse_log("case,activity,start,complete\n1,a,zero,5\n")


@pytest.mark.parametrize("row", ["1,a,inf,5", "1,a,0,nan", "1,a,-inf,inf"])
def test_non_finite_time_rejected(row):
    with pytest.raises(LogError, match="not finite"):
        parse_log("case,activity,start,complete\n" + row + "\n")


@pytest.mark.parametrize("cell", ["\x1c9", "9\x1f", "\x1d\x1e9"])
def test_a_time_cell_with_a_separator_character_reads_as_its_number(cell):
    # float keeps U+001C-U+001F, which str.strip drops: the one comparison
    # refuses the row, and the cell by cell check reads the stripped cell
    with pytest.raises(ValueError):
        float(cell)
    log = parse_log(f"case,activity,start,complete\n1,a,{cell},12\n")
    assert log.events[0].start == 9.0


def test_short_row_parses_missing_cells_as_absent():
    text = (
        "case,activity,start,complete,resource,value,code\n"
        "1,a,0,1,w1,3,x\n"
        "2,a,1,2\n"
        "3,a,2,3,w2,4\n"
    )
    log = parse_log(text)
    assert log.schema == (("value", "number"), ("code", "text"))
    by_case = {e.case_id: e for e in log.events}
    assert (by_case["1"].resource, by_case["1"].attrs) == ("w1", {"value": 3.0, "code": "x"})
    assert (by_case["2"].resource, by_case["2"].attrs) == (None, {})
    assert (by_case["3"].resource, by_case["3"].attrs) == ("w2", {"value": 4.0})


@pytest.mark.parametrize("row, message", [
    ("9,,0,5", "row 4: empty activity label"),
    ("9,a,zero,5", "row 4: start value 'zero' is not numeric"),
    ("9,a,0,inf", "row 4: complete value 'inf' is not finite"),
    ("9,a,7,5", "row 4: start 7 is after complete 5"),
    ("9,a,0,5,w1,nan", "row 4: value value 'nan' is not finite"),
    ("9,a,0,5,w1,3,EXTRA", "row 4: a cell beyond the 6 header columns is not empty"),
])
def test_bad_cell_names_its_row(row, message):
    # row 3 is short, so the padding must not shift the row count; a blank
    # line and a row of empty cells are skipped but still count as lines
    header = "case,activity,start,complete,resource,value\n"
    for before in ("1,a,0,1,w1,3\n2,a,1,2\n", "\n,,,\n"):
        text = header + before + row + "\n"
        with pytest.raises(LogError) as info:
            parse_log(text)
        assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    # a number that is not finite comes before a bad start
    (["1,b,1,2,inf", "1,c,2,3,6", "1,d,zero,4,7"], "row {0}: cost value 'inf' is not finite"),
    # the bad start comes first
    (["1,b,zero,2,6", "1,c,2,3,6", "1,d,3,4,inf"], "row {0}: start value 'zero' is not numeric"),
    # both in one row: the row's times are checked before its attributes
    (["1,b,zero,2,inf", "1,c,2,3,6"], "row {0}: start value 'zero' is not numeric"),
    # two not finite numbers in one row: the first column is named
    (["1,b,1,2,nan,inf"], "row {0}: cost value 'nan' is not finite"),
    # a later text cell makes the column text, so ``inf`` is no error there
    (["1,b,1,2,inf", "1,c,2,3,cheap", "1,d,zero,4,7"], "row {2}: start value 'zero' is not numeric"),
])
def test_the_first_bad_row_is_named(rows, message):
    # the columns are typed over the whole file, so a number that is not
    # finite is an error only in a numeric column; the row it names is the
    # first bad one, also when a quoted cell before it spans two lines
    header = "case,activity,start,complete,cost,share\n"
    for before, first in (("1,a,0,1,5,1\n", 3), ('1,a,0,1,5,"two\nlines"\n', 4)):
        text = header + before + "".join(row + "\n" for row in rows)
        with pytest.raises(LogError) as info:
            parse_log(text)
        assert str(info.value) == message.format(first, first + 1, first + 2)


def test_empty_cells_beyond_the_header_are_ignored():
    log = parse_log("case,activity,start,complete\nc1,a,1,2,,\nc2,a,2,3, \n")
    assert [(e.case_id, e.attrs) for e in log.events] == [("c1", {}), ("c2", {})]
    with pytest.raises(LogError, match="row 2: a cell beyond the 4 header columns"):
        parse_log("case,activity,start,complete\nc1,a,1,2,EXTRA\n")


@pytest.mark.parametrize("tail", [",", ",,", ", ,"])
def test_trailing_empty_header_cells_are_ignored(tail):
    # spreadsheet exports end a header in empty cells; they name no column
    header, rows = TABLE1.split("\n", 1)
    assert parse_log(header + tail + "\n" + rows) == parse_log(TABLE1)
    padded = "".join(row + tail + "\n" for row in rows.splitlines())
    assert parse_log(header + tail + "\n" + padded) == parse_log(TABLE1)
    with pytest.raises(LogError) as info:
        parse_log("case,activity,start,complete" + tail + "\nc1,a,1,2,x\n")
    assert str(info.value) == "row 2: a cell beyond the 4 header columns is not empty"


@pytest.mark.parametrize("text, message", [
    # a cell over the csv module's field size limit (131,072 characters)
    ("case,activity,start,complete,note\n1,a,0,1," + "x" * 140_000 + "\n",
     "row 2: field larger than field limit (131072)"),
    # a lone carriage return ends no line but is no cell content either
    ("case,activity,start,complete\n1,a,0,1\n2,a\r1,2\n",
     "row 3: new-line character seen in unquoted field"),
    # the first bad row is named, also when a later line ends the pass
    ("case,activity,start,complete\n1,,0,1\n2,a\r1,2\n",
     "row 2: empty activity label"),
], ids=["field-limit", "lone-cr", "earlier-bad-row"])
def test_a_line_the_csv_reader_rejects_names_its_row(text, message):
    with pytest.raises(LogError) as info:
        parse_log(text)
    assert str(info.value).startswith(message)


def test_round_trip_identity():
    log = parse_log(TABLE1)
    assert parse_log(write_log(log)) == log


def test_round_trip_preserves_byte_form():
    text = write_log(parse_log(TABLE1))
    assert write_log(parse_log(text)) == text


@pytest.mark.parametrize("value", ["x\ry", "a\r\nb"])
def test_write_log_rejects_a_text_cell_with_a_carriage_return(value):
    # parse_log rejects the cell unquoted, and load_log's universal newlines
    # read even a quoted one as "\n": no reader gives it back
    def log(tag):
        return Log([Event("c1", "t", 0.0, 1.0, attrs={"tag": tag})], (("tag", "text"),))

    with pytest.raises(LogError, match="column 'tag': text cell .* holds a carriage return"):
        write_log(log(value))
    assert parse_log(write_log(log("x y"))) == log("x y")


def test_boolean_attribute_round_trip():
    text = "case,activity,start,complete,urgent\n1,a,0,1,true\n2,a,1,2,false\n"
    log = parse_log(text)
    assert log.schema == (("urgent", "boolean"),)
    assert log.events[0].attrs["urgent"] is True
    assert parse_log(write_log(log)) == log


def test_mixed_column_defaults_to_text():
    text = "case,activity,start,complete,code\n1,a,0,1,12\n2,a,1,2,x9\n"
    log = parse_log(text)
    assert log.schema == (("code", "text"),)
    assert log.events[0].attrs["code"] == "12"


def test_resource_column_recognized():
    text = "case,activity,start,complete,resource\n1,a,0,1,w1\n"
    log = parse_log(text)
    assert log.has_resource and log.events[0].resource == "w1"
    assert parse_log(write_log(log)) == log


def test_global_order_is_stable():
    shuffled = (
        "case,activity,start,complete\n"
        "2,b,4,9\n"
        "1,a,0,5\n"
        "3,c,5,5\n"
    )
    log = parse_log(shuffled)
    assert [e.case_id for e in log.events] == ["1", "3", "2"]
    assert parse_log(write_log(log)).events == log.events


def test_iso_timestamps_become_minutes():
    text = (
        "case,activity,start,complete\n"
        "1,a,2024-01-01T00:00:00,2024-01-01T00:30:00\n"
    )
    log = parse_log(text)
    e = log.events[0]
    assert e.complete - e.start == pytest.approx(30.0)


# -- round trips of generated logs ---------------------------------------------

_TEXT_CHARS = "abcxyz019 ,;'\"-_."


def _text_value(rng) -> str:
    # starts and ends with a letter, so it never parses as a number or a
    # boolean and has no surrounding whitespace to strip
    middle = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randint(0, 6)))
    return rng.choice("abxyz") + middle + rng.choice("cxz") if middle else rng.choice("abxyz")


def _number(rng) -> float:
    return rng.choice((
        float(rng.randint(-5, 5)),
        rng.uniform(-1e3, 1e3),
        rng.uniform(0, 1) * 10 ** rng.randint(-8, 20),
        0.1,
        1e15,
    ))


def _random_log(rng) -> Log:
    schema = [
        (f"col{i}", rng.choice(("number", "boolean", "text")))
        for i in range(rng.randint(0, 4))
    ]
    has_resource = rng.random() < 0.5
    events = []
    for _ in range(rng.randint(1, 30)):
        start = _number(rng)
        complete = start + rng.choice((0.0, 1.0, abs(_number(rng))))
        attrs = {}
        for col, typ in schema:
            if rng.random() < 0.3:
                continue  # empty cell
            if typ == "number":
                attrs[col] = _number(rng)
            elif typ == "boolean":
                attrs[col] = rng.random() < 0.5
            else:
                attrs[col] = _text_value(rng)
        resource = rng.choice((None, "w1", "w 2", "r,3")) if has_resource else None
        events.append(Event(_text_value(rng), rng.choice(("a", "b c", "d,e")), start, complete,
                            resource, attrs))
    # a column whose cells are all empty reads back as text
    filled = {col for e in events for col in e.attrs}
    schema = [(col, typ if col in filled else "text") for col, typ in schema]
    return Log(sort_events(events), tuple(schema), has_resource)


def test_generated_logs_round_trip():
    rng = random.Random("logs")
    for _ in range(300):
        log = _random_log(rng)
        text = write_log(log)
        assert parse_log(text) == log
        assert write_log(parse_log(text)) == text


@pytest.mark.parametrize("column", ["start", "complete", "size"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_write_log_rejects_a_number_that_is_not_finite(column, value):
    # parse_log rejects such a cell, so no log gives it back
    good = Event("c1", "a", 0.0, 1.0, attrs={"size": 2.0})
    cells = {"start": 0.0, "complete": 1.0, "size": 2.0, column: value}
    bad = Event("c2", "b", cells["start"], cells["complete"], attrs={"size": cells["size"]})
    log = Log([good, bad], (("size", "number"),))
    with pytest.raises(LogError, match=rf"row \d \(case 'c2', activity 'b'\): {column} value "):
        write_log(log)
    assert parse_log(write_log(Log([good], log.schema))) == Log([good], log.schema)
