from __future__ import annotations

import csv
import json
import urllib.parse

import pytest

from dsync.cli import main, read_config
from dsync.eventlog import load_log
from dsync.extract import discover_run
from dsync.modelfile import load_model
from dsync.replay import replay
from dsync.report import build_report, report_to_json
from tests.conftest import MODELS, model_path


@pytest.fixture(scope="module")
def sim_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "blocking.csv"
    code = main([
        "simulate", "--model", model_path("blocking"),
        "--seed", "1", "--max-cases", "120", "--out", str(out),
    ])
    assert code == 0
    return out


def test_simulate_writes_log(sim_log):
    lines = sim_log.read_text().splitlines()
    assert lines[0].startswith("case,activity,start,complete")
    assert len(lines) > 300


def test_simulate_missing_model_exits_2(tmp_path):
    code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_invalid_config_exits_3(tmp_path):
    code = main(["simulate", "--model", model_path("blocking"),
                 "--seed", "1", "--max-cases", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("horizon", ["nan", "inf", "-1"])
def test_simulate_bad_horizon_exits_3(tmp_path, capsys, horizon):
    # max_cases is set, so a horizon that slips through ends the run anyway
    out = str(tmp_path / "x.csv")
    code = main(["simulate", "--model", model_path("holdbatch"), "--seed", "1",
                 "--max-cases", "5", "--horizon", horizon, "--out", out])
    assert code == 3
    assert "horizon must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format": "dsync-net/1", "places": [{"kind": "case"}]}', "missing key 'id'"),
        ("{bad", "malformed"),
        ('{"format": "dsync-net/1", "places": [{"id": 7}]}', "place id should be str"),
    ],
    ids=["missing-key", "invalid-json", "ill-typed-key"],
)
def test_simulate_bad_model_exits_3(tmp_path, capsys, text, message):
    model = tmp_path / "bad.json"
    model.write_text(text)
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


def test_discover_writes_report(sim_log, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    ptdir = tmp_path / "ptlogs"
    code = main([
        "discover", "--model", model_path("blocking"), "--log", str(sim_log),
        "--out", str(report_path), "--dump-ptlogs", str(ptdir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "blocking on pre-processing" in out
    report = json.loads(report_path.read_text())
    for section in ("config", "candidates", "trees", "constraints", "ground_truth", "replayability"):
        assert section in report
    assert report["constraints"][0]["constraint"] == "nrtokens(q1) <= 4.5"
    assert report["replayability"]["unmatched"] == 0
    dumps = list(ptdir.glob("*.csv"))
    assert any("blocking__pre-processing" in p.name for p in dumps)


def test_discover_zero_constraints_exits_0(tmp_path, capsys):
    log_path = tmp_path / "tiny.csv"
    code = main(["simulate", "--model", model_path("blocking"),
                 "--seed", "3", "--max-cases", "4", "--out", str(log_path)])
    assert code == 0
    code = main(["discover", "--model", model_path("blocking"), "--log", str(log_path)])
    assert code == 0
    assert "no synchronization constraints discovered" in capsys.readouterr().out


def test_discover_unknown_activity_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("case,activity,start,complete\n1,teleport,0,1\n")
    code = main(["discover", "--model", model_path("blocking"), "--log", str(bad)])
    assert code == 3


def test_check_annotated_model(sim_log, tmp_path, capsys):
    code = main(["check", "--model", model_path("blocking"), "--log", str(sim_log)])
    assert code == 0
    assert "100.0%" in capsys.readouterr().out


def test_check_wrong_guard_exits_1(sim_log, tmp_path, capsys):
    doc = json.loads((MODELS / "blocking.json").read_text())
    for t in doc["transitions"]:
        if t["id"] == "pre-processing":
            t["guard"] = "nrtokens(q1) <= 0"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    code = main(["check", "--model", str(wrong), "--log", str(sim_log)])
    assert code == 1
    assert "unmatched" in capsys.readouterr().out


def test_check_prints_an_unmatched_start_as_its_log_cell(tmp_path, capsys):
    # handling has no token in q1 to take, so its move is unmatched; the start
    # prints as the log writes it, so the event can be found in the file
    log = tmp_path / "log.csv"
    log.write_text("case,activity,start,complete,resource\n1,handling,1234.56789,1235,w1\n")
    assert main(["check", "--model", model_path("blocking"), "--log", str(log)]) == 1
    assert "case=1 activity=handling start=1234.56789: no binding" in capsys.readouterr().out


def test_check_log_with_empty_case_ids_exits_3(tmp_path, capsys):
    out = tmp_path / "blocking.csv"
    args = ["--model", model_path("blocking"), "--log", str(out)]
    assert main(["simulate", "--model", model_path("blocking"), "--seed", "1",
                 "--max-cases", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(line[line.index(","):] if line.split(",")[0] in ("3", "4") else line
                           for line in lines))
    assert main(["check", *args]) == 3
    assert "has an empty case id" in capsys.readouterr().err


def _zero_durations(src, dst) -> None:
    """``src`` with every event's start set to its complete."""
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    start, complete = rows[0].index("start"), rows[0].index("complete")
    for row in rows[1:]:
        row[start] = row[complete]
    with dst.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


ZERO_DURATIONS = (
    "warning: every event in {} has start == complete; discovery and the check read "
    "start times, which this log may not record\n"
)


def test_a_log_without_durations_is_named_on_stderr(sim_log, tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    _zero_durations(sim_log, flat)
    net, log = load_model(model_path("blocking")), load_log(str(flat))
    assert all(e.start == e.complete for e in log.events)
    report = tmp_path / "report.json"
    args = ["--model", model_path("blocking"), "--log", str(flat)]
    assert main(["discover", *args, "--out", str(report)]) == 0
    assert capsys.readouterr().err == ZERO_DURATIONS.format(flat)
    # the warning changes neither the report nor the exit codes
    assert report.read_text() == report_to_json(build_report(discover_run(log, net), net, log))
    unmatched = replay(log, net, check_guards=True)[1].unmatched
    assert main(["check", *args]) == (1 if unmatched else 0)
    assert capsys.readouterr().err == ZERO_DURATIONS.format(flat)
    # a log with durations, or with no events, gets no warning
    empty = tmp_path / "empty.csv"
    empty.write_text("case,activity,start,complete\n")
    for path in (sim_log, empty):
        main(["check", "--model", model_path("blocking"), "--log", str(path)])
        assert capsys.readouterr().err == ""


def test_blank_guard_exits_3(tmp_path, capsys):
    doc = json.loads((MODELS / "blocking.json").read_text())
    doc["transitions"][1]["guard"] = "   "
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(tmp_path / "model.json"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "guard of 'pre-processing': empty constraint (at offset 0)" in capsys.readouterr().err


def test_a_plain_input_that_outputs_to_a_case_place_exits_3(tmp_path, capsys):
    # a firing of 't' binds no case token, so there is no case for 'q'
    doc = json.loads((MODELS / "blocking.json").read_text())
    doc["places"].append({"id": "q", "kind": "case", "attributes": []})
    doc["transitions"].append(
        {"id": "t", "is_task": True, "delay": {"kind": "uniform", "lo": 0.1, "hi": 0.2}}
    )
    doc["flows"] += [["done", "t"], ["t", "q"]]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(tmp_path / "model.json"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "transition 't' outputs to case place 'q' but no case was supplied" in (
        capsys.readouterr().err
    )


def test_check_unguarded_model_exits_0(sim_log, tmp_path):
    doc = json.loads((MODELS / "blocking.json").read_text())
    for t in doc["transitions"]:
        t.pop("guard", None)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    assert main(["check", "--model", str(plain), "--log", str(sim_log)]) == 0


def test_report_renders_markdown(sim_log, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    main(["discover", "--model", model_path("blocking"), "--log", str(sim_log),
          "--out", str(report_path)])
    code = main(["report", "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "| Pattern | Transition | Modeled constraint | Discovered constraint |" in out
    assert "nrtokens(q1) < 5" in out and "nrtokens(q1) <= 4.5" in out


def test_report_out_writes_the_missed_row(tmp_path, capsys):
    log, report, md = tmp_path / "log.csv", tmp_path / "r.json", tmp_path / "r.md"
    assert main(["simulate", "--model", model_path("blocking"), "--seed", "1",
                 "--max-cases", "60", "--out", str(log)]) == 0
    # no candidate has that many samples, so nothing is discovered
    assert main(["discover", "--model", model_path("blocking"), "--log", str(log),
                 "--tau-s", "100000", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["report", "--report", str(report), "--out", str(md)]) == 0
    assert capsys.readouterr().out == ""
    assert "| (missed) | pre-processing | nrtokens(q1) < 5 | (none) |" in md.read_text()


def test_config_file_supplies_defaults(sim_log, tmp_path, capsys):
    cfg = tmp_path / "dsync.conf"
    cfg.write_text("tau_s = 10\ntau_g = 0.1\nmax_depth = 5\n")
    code = main(["--config", str(cfg), "discover",
                 "--model", model_path("blocking"), "--log", str(sim_log)])
    assert code == 0
    assert "blocking on pre-processing" in capsys.readouterr().out


def test_reports_are_reproducible(sim_log, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["discover", "--model", model_path("blocking"),
                     "--log", str(sim_log), "--out", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize(
    "key, value, command",
    [
        ("seed", "x", "simulate"),
        ("max_cases", "many", "simulate"),
        ("horizon", "soon", "simulate"),
        ("tau_s", "1.5", "discover"),
        ("tau_g", "abc", "discover"),
    ],
)
def test_config_value_that_does_not_parse_exits_3(
    sim_log, tmp_path, capsys, key, value, command
):
    cfg = tmp_path / "dsync.conf"
    cfg.write_text(f"{key} = {value}\n")
    if command == "simulate":
        args = ["simulate", "--model", model_path("blocking"), "--out", str(tmp_path / "x.csv")]
        flags = {"seed": "1", "max_cases": "5", "horizon": "10"}
        del flags[key]  # the config file supplies this one
        for name, flag_value in flags.items():
            args += ["--" + name.replace("_", "-"), flag_value]
    else:
        args = ["discover", "--model", model_path("blocking"), "--log", str(sim_log)]
    code = main(["--config", str(cfg)] + args)
    assert code == 3
    assert f"config value {key} = {value!r}" in capsys.readouterr().err


def test_config_not_utf8_exits_3(tmp_path, capsys):
    cfg = tmp_path / "dsync.conf"
    cfg.write_bytes(b"seed = 1\xff\n")
    code = main(["--config", str(cfg), "simulate", "--model", model_path("blocking"),
                 "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"config {str(cfg)!r} is not UTF-8 text" in capsys.readouterr().err


def test_config_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "dsync.conf"
    cfg.write_text("\n# discovery settings\n   \n  # indented comment\ntau_s = 12  # rows\n\n")
    assert read_config(str(cfg)) == {"tau_s": "12"}


def test_config_line_without_equals_exits_3(tmp_path, capsys):
    cfg = tmp_path / "dsync.conf"
    cfg.write_text("seed 1\n")
    code = main(["--config", str(cfg), "simulate", "--model", model_path("blocking"),
                 "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "config line 'seed 1' is not key = value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("discover", "--tau-s", "0", "tau_s must be >= 1"),
        ("discover", "--tau-g", "0.7", "tau_g must be within [0, 0.5]"),
        ("discover", "--max-depth", "0", "max_depth must be >= 1"),
        ("discover", "--min-samples-leaf", "0", "min_samples_leaf must be >= 1"),
        ("simulate", "--max-cases", "-1", "max_cases must not be negative"),
    ],
    ids=["tau-s", "tau-g", "max-depth", "min-samples-leaf", "max-cases"],
)
def test_setting_out_of_range_exits_3(sim_log, tmp_path, capsys, command, flag, value, message):
    if command == "simulate":
        args = ["--out", str(tmp_path / "x.csv")]
    else:
        args = ["--log", str(sim_log)]
    code = main([command, "--model", model_path("blocking"), *args, flag, value])
    assert code == 3
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau-s", "bogus"])
def test_config_unknown_key_exits_3(tmp_path, capsys, key):
    cfg = tmp_path / "dsync.conf"
    cfg.write_text(f"seed = 1\n{key} = 3\n")
    code = main(["--config", str(cfg), "simulate", "--model", model_path("blocking"),
                 "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"config key {key!r} is unknown" in err
    assert "seed, max_cases, horizon, tau_s, tau_g, max_depth, min_samples_leaf" in err
    assert not (tmp_path / "x.csv").exists()


def _doc_with(path: tuple, value, model: str = "priority") -> dict:
    """A bundled model with one field replaced; ``path`` ends at a key or index."""
    doc = json.loads((MODELS / f"{model}.json").read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


_SOURCE = ("transitions", 0, "arrival_spec")


@pytest.mark.parametrize(
    "path, value, message",
    [
        (_SOURCE + ("attributes", "value", "lo"), float("nan"), "job_arrival attribute value lo"),
        (_SOURCE + ("attributes", "value", "hi"), 1e400, "job_arrival attribute value hi"),
        (_SOURCE + ("attributes", "value"), {"kind": "constant", "value": float("nan")},
         "job_arrival attribute value value"),
        (_SOURCE + ("attributes", "value"), {"kind": "choice", "values": [1.0, float("inf")]},
         "job_arrival attribute value values"),
        (_SOURCE + ("interarrival", "hi"), float("inf"), "job_arrival interarrival hi"),
        (("transitions", 1, "delay", "value"), float("nan"), "pre-processing delay value"),
        (("transitions", 2, "delay"), float("nan"), "handling delay"),
        (("initial_marking", "r0", 0, "available_at"), float("-inf"),
         "initial token in r0: available_at"),
        (("initial_marking", "r0", 0, "attrs"), {"load": float("nan")},
         "initial token in r0: load"),
    ],
    ids=["generator-lo", "generator-hi", "generator-value", "generator-values",
         "interarrival", "delay", "delay-number", "token-time", "token-attr"],
)
def test_non_finite_model_number_exits_3(tmp_path, capsys, path, value, message):
    # json writes NaN and Infinity literals, which Python's json reads back
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(path, value)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and "must be finite" in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (_SOURCE + ("interarrival",), {"kind": "uniform", "lo": True, "hi": "3"},
         "job_arrival interarrival lo should be int or float, found True"),
        (_SOURCE + ("interarrival", "hi"), "3",
         "job_arrival interarrival hi should be int or float"),
        (_SOURCE + ("attributes", "value", "lo"), True, "job_arrival attribute value lo should be"),
        (("transitions", 1, "delay", "value"), "3", "pre-processing delay value should be"),
        (("transitions", 2, "delay"), True, "handling delay should be int or float, found True"),
        (("initial_marking", "r0", 0, "available_at"), "3",
         "initial token in r0: available_at should be int or float, found '3'"),
    ],
    ids=["interarrival-bool", "interarrival-text", "generator-bool", "delay-text",
         "delay-bool", "token-time-text"],
)
def test_model_number_that_is_no_json_number_exits_3(tmp_path, capsys, path, value, message):
    # a JSON true or "3" is no number, though Python's float() would take both
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(path, value)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, path, message",
    [
        ("priority", ("transitions", 1, "delay"), "'pre-processing': completion time"),
        ("priority", _SOURCE + ("interarrival",), "'job_arrival': next firing time"),
        ("blocking", _SOURCE + ("interarrival",), "'arriving': next firing time"),
    ],
    ids=["delay", "interarrival-non-task-source", "interarrival-task-source"],
)
def test_simulate_time_that_overflows_exits_3(tmp_path, capsys, model, path, message):
    # each delay and interarrival is finite, but a sum of two is not
    doc = _doc_with(path, {"kind": "constant", "value": 1e308}, model)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(tmp_path / "model.json"),
                 "--seed", "1", "--max-cases", "20", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"transition {message} overflows to inf" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "delay, message",
    [
        ({"kind": "gamma"}, "pre-processing delay: unknown delay kind 'gamma'"),
        ({"kind": "uniform", "lo": 1}, "missing key 'hi'"),
    ],
    ids=["unknown-kind", "missing-bound"],
)
def test_bad_delay_exits_3(tmp_path, capsys, delay, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(("transitions", 1, "delay"), delay)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, path, value, message",
    [
        # errors while the model is read
        ("blocking", ("transitions", 1, "guard"), "ratio(nrtokens(q1), nrtokens(arrival)) < 5",
         "guard of 'pre-processing': ratio composes exactly two attrval features"),
        ("blocking", ("format",), "dsync-net/2", "unsupported model format 'dsync-net/2'"),
        ("priority", ("places", 0, "id"), 7, "place id should be str, found 7"),
        ("priority", ("transitions", 1, "delay"), {"kind": "gamma"},
         "pre-processing delay: unknown delay kind 'gamma'"),
        # violations ``validate_net`` finds
        ("blocking", ("transitions", 1, "guard"), "nrtokens(q9) < 5",
         "guard of 'pre-processing' references unknown place 'q9'"),
        ("priority", ("transitions", 2, "guard"), "attrval(q1, size, max) < 5",
         "guard of 'handling' references undeclared attribute 'size' of place 'q1'"),
        ("priority", ("places", 0, "kind"), "queue", "place 'arrival' has unknown kind 'queue'"),
        ("priority", ("places", 0, "attributes"), [["value", "float"]],
         "place 'arrival' attribute 'value' has unknown type 'float'"),
        ("priority", ("initial_marking", "ghost"), [{"case_id": "g1"}],
         "initial marking references unknown place 'ghost'"),
        ("priority", ("initial_marking", "r0", 0, "attrs"), {"load": 1},
         "initial token in 'r0': token in resource place carries attributes"),
        ("priority", ("transitions", 1, "delay"), -1,
         "transition 'pre-processing': constant delay is negative"),
        ("priority", _SOURCE[:2] + ("guard",), "nrtokens(q1) < 5",
         "non-task source 'job_arrival' cannot carry a guard"),
    ],
    ids=["guard-syntax", "format", "place-id", "delay-kind", "guard-place", "guard-attribute",
         "place-kind", "attribute-type", "marking-place", "resource-token-attribute",
         "negative-delay", "non-task-source-guard"],
)
def test_bad_model_exits_3_naming_the_file(tmp_path, capsys, model, path, value, message):
    doc = _doc_with(path, value, model)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(tmp_path / "model.json"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: model {str(tmp_path / 'model.json')!r}" in err
    assert message in err


@pytest.mark.parametrize(
    "gen, message",
    [
        ({"kind": "uniform_int", "lo": 100, "hi": 0},
         "uniform_int attribute generator bounds are inverted"),
        ({"kind": "choice", "values": []},
         "choice attribute generator values must be finite numbers, bools or text, at least one"),
        ({"kind": "choice", "values": [1, None]},
         "choice attribute generator values must be finite numbers, bools or text"),
        ({"kind": "constant", "value": {}},
         "constant attribute generator values must be finite numbers, bools or text"),
        ({"kind": "choice", "values": [1, 2], "weights": [1]},
         "choice attribute generator has 2 values but 1 weights"),
        ({"kind": "choice", "values": [1, 2], "weights": [0, 0]},
         "choice attribute generator weights must be finite, non-negative and not all zero"),
        ({"kind": "choice", "values": [1, 2], "weights": [-1, 2]},
         "choice attribute generator weights must be finite, non-negative and not all zero"),
        ({"kind": "choice", "values": [1, 2], "weights": ["x", 2]},
         "choice attribute generator weights must be finite, non-negative and not all zero"),
        ({"kind": "choice", "values": ["x", 2]},
         "choice attribute generator yields number/text values but place 'arrival' "
         "declares number"),
        ({"kind": "constant", "value": True},
         "constant attribute generator yields boolean values but place 'arrival' "
         "declares number"),
    ],
    ids=["inverted", "no-values", "null-value", "object-value", "weights-length",
         "zero-weights", "negative-weight", "text-weight", "text-value", "bool-value"],
)
def test_bad_attribute_generator_exits_3(tmp_path, capsys, gen, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(_SOURCE + ("attributes", "value"), gen)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"transition 'job_arrival' attribute 'value': {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gen, message",
    [
        ({"kind": "choice", "values": "12"}, "job_arrival attribute value values should be list"),
        ({"kind": "choice", "values": [1], "weights": {}},
         "job_arrival attribute value weights should be list"),
        ({"kind": "exponential", "mean": 1},
         "job_arrival attribute value: unknown attribute generator kind 'exponential'"),
        ({"kind": "uniform_int", "lo": 1}, "missing key 'hi'"),
    ],
    ids=["values-text", "weights-object", "exponential", "missing-bound"],
)
def test_malformed_attribute_generator_exits_3(tmp_path, capsys, gen, message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(_SOURCE + ("attributes", "value"), gen)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


def _priority_with_tag(values, guard=None) -> dict:
    """The priority model whose cases also carry a text attribute ``tag``
    drawn from ``values``; ``guard``, if given, replaces the guard of
    ``handling``."""
    doc = json.loads((MODELS / "priority.json").read_text())
    for place in doc["places"]:
        if place["id"] in ("arrival", "q1"):
            place["attributes"].append(["tag", "text"])
    doc["transitions"][0]["arrival_spec"]["attributes"]["tag"] = {
        "kind": "choice", "values": list(values),
    }
    for t in doc["transitions"]:
        if guard is not None and t["id"] == "handling":
            t["guard"] = guard
    return doc


def test_text_values_a_log_gives_back_simulate_and_check(tmp_path):
    model, log = tmp_path / "model.json", tmp_path / "log.csv"
    model.write_text(json.dumps(_priority_with_tag(["a", "b c"])))
    assert main(["simulate", "--model", str(model), "--seed", "1",
                 "--max-cases", "30", "--out", str(log)]) == 0
    assert main(["check", "--model", str(model), "--log", str(log)]) == 0


@pytest.mark.parametrize(
    "values, problem",
    [
        ([" true ", " false "], "text value ' true ' reads back from a log as boolean"),
        (["", "x"], "text value '' reads back from a log as no value"),
        ([" x", "y"], "text value ' x' reads back from a log as 'x'"),
        (["x\ry", "y"], "text value 'x\\ry' holds a carriage return"),
        (["a\r\nb", "y"], "text value 'a\\r\\nb' holds a carriage return"),
    ],
    ids=["padded-boolean", "empty", "padded", "carriage-return", "crlf"],
)
def test_text_value_a_log_does_not_give_back_exits_3(tmp_path, capsys, values, problem):
    # parse_log strips each cell and reads an empty one as no value: the
    # model's own log would not check, or would check other values
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_priority_with_tag(values)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"transition 'job_arrival' attribute 'tag': {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "discover"])
def test_a_text_value_with_a_carriage_return_exits_3_before_reading_the_log(
    tmp_path, capsys, command
):
    # simulate used to write such a value unquoted, and its own log then
    # failed with "empty activity label"
    plain, model, log = tmp_path / "plain.json", tmp_path / "model.json", tmp_path / "log.csv"
    plain.write_text(json.dumps(_priority_with_tag(["a", "b"])))
    assert main(["simulate", "--model", str(plain), "--seed", "1",
                 "--max-cases", "5", "--out", str(log)]) == 0
    model.write_text(json.dumps(_priority_with_tag(["x\ry", "b"])))
    capsys.readouterr()
    assert main([command, "--model", str(model), "--log", str(log)]) == 3
    assert "text value 'x\\ry' holds a carriage return" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize(
    "guard",
    ["attrval(q1, tag, max) <= 1", "ratio(attrval(arrival, value, max), attrval(q1, tag, max)) <= 1"],
    ids=["attrval", "ratio"],
)
def test_attrval_of_a_text_attribute_exits_3(tmp_path, capsys, command, guard):
    # attrval reads a number; over text it was a ValueError traceback, exit 1
    plain, model, log = tmp_path / "plain.json", tmp_path / "model.json", tmp_path / "log.csv"
    plain.write_text(json.dumps(_priority_with_tag(["a", "b"])))
    assert main(["simulate", "--model", str(plain), "--seed", "1",
                 "--max-cases", "30", "--out", str(log)]) == 0
    model.write_text(json.dumps(_priority_with_tag(["a", "b"], guard)))
    capsys.readouterr()
    if command == "simulate":
        code = main(["simulate", "--model", str(model), "--seed", "1",
                     "--max-cases", "30", "--out", str(tmp_path / "x.csv")])
    else:
        code = main(["check", "--model", str(model), "--log", str(log)])
    assert code == 3
    assert "guard of 'handling' takes attrval of text attribute 'tag' of place 'q1'" in (
        capsys.readouterr().err
    )


def test_initial_token_attribute_of_another_type_exits_3(tmp_path, capsys):
    doc = _doc_with(("initial_marking", "q1"), [{"case_id": "j0", "attrs": {"value": True}}])
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(tmp_path / "model.json"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "initial token in 'q1': attribute 'value' should be number, found True" in (
        capsys.readouterr().err
    )


def test_case_prefix_that_is_no_string_exits_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(_SOURCE + ("case_prefix",), 7)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "case_prefix should be str, found 7" in capsys.readouterr().err


@pytest.mark.parametrize("max_count", [0, -3])
def test_source_max_count_below_one_exits_3(tmp_path, capsys, max_count):
    # such a source ignores --max-cases; the horizon ends the run should the
    # check ever be lost, so the test fails instead of hanging
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_doc_with(_SOURCE + ("max_count",), max_count)))
    code = main(["simulate", "--model", str(model), "--seed", "1", "--max-cases", "10",
                 "--horizon", "50", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"source 'job_arrival' max_count must be >= 1, got {max_count}" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_log_attribute_exits_3(tmp_path, capsys, cell):
    log = tmp_path / "log.csv"
    log.write_text(
        "case,activity,start,complete,value\n"
        "1,pre-processing,0,5,120\n"
        f"2,pre-processing,5,10,{cell}\n"
    )
    code = main(["discover", "--model", model_path("priority"), "--log", str(log)])
    assert code == 3
    assert f"row 3: value value {cell!r} is not finite" in capsys.readouterr().err


def test_simulate_duplicate_place_id_exits_3(tmp_path, capsys):
    doc = json.loads((MODELS / "priority.json").read_text())
    doc["places"].append(dict(doc["places"][0]))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert f"duplicate place id {doc['places'][0]['id']!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name, message", [
    ("q-1", "place id 'q-1' is no identifier"),
    ("size-kg", "place 'arrival' attribute 'size-kg' is no identifier"),
])
def test_name_no_guard_can_read_back_exits_3(tmp_path, capsys, name, message):
    # a discovered guard on ``nrtokens(q-1)`` would be written to the annotated
    # model but fail to parse when that model is loaded again
    doc = json.loads((MODELS / "blocking.json").read_text())
    if name == "q-1":
        doc["places"] = [dict(p, id=name if p["id"] == "q1" else p["id"]) for p in doc["places"]]
        doc["flows"] = [[name if node == "q1" else node for node in f] for f in doc["flows"]]
        for t in doc["transitions"]:
            t.pop("guard", None)
    else:
        doc["places"][0]["attributes"] = [[name, "number"]]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


def test_simulate_out_directory_exits_2(tmp_path, capsys):
    code = main(["simulate", "--model", model_path("blocking"),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path)])
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_check_model_directory_exits_2(sim_log, tmp_path):
    assert main(["check", "--model", str(tmp_path), "--log", str(sim_log)]) == 2


def test_config_directory_exits_2(sim_log, tmp_path):
    code = main(["--config", str(tmp_path), "check",
                 "--model", model_path("blocking"), "--log", str(sim_log)])
    assert code == 2


def test_check_log_not_utf8_exits_3(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_bytes(b"case,activity,start,complete\n1,pre-processing,0,1\xff\n")
    code = main(["check", "--model", model_path("blocking"), "--log", str(log)])
    assert code == 3
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_check_log_with_a_cell_over_the_csv_field_limit_exits_3(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("case,activity,start,complete,note\n1,pre-processing,0,1," + "x" * 140_000 + "\n")
    code = main(["check", "--model", model_path("blocking"), "--log", str(log)])
    assert code == 3
    # one error line, and no traceback
    assert capsys.readouterr().err == "error: row 2: field larger than field limit (131072)\n"


BOM = "\ufeff"  # the UTF-8 byte-order mark that Excel and many Windows tools write


def test_check_log_with_a_byte_order_mark(sim_log, tmp_path, capsys):
    bom_log = tmp_path / "bom.csv"
    bom_log.write_text(BOM + sim_log.read_text(encoding="utf-8"), encoding="utf-8")
    outs = []
    for log in (sim_log, bom_log):
        assert main(["check", "--model", model_path("blocking"), "--log", str(log)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_check_log_whose_lines_end_in_empty_cells(sim_log, tmp_path, capsys):
    # as a spreadsheet exports it: the header and every row end in two empty cells
    padded = tmp_path / "padded.csv"
    padded.write_text("".join(line + ",,\n" for line in sim_log.read_text().splitlines()))
    outs = []
    for log in (sim_log, padded):
        assert main(["check", "--model", model_path("blocking"), "--log", str(log)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_model_config_and_report_with_a_byte_order_mark(sim_log, tmp_path, capsys):
    model, cfg, report = tmp_path / "bom.json", tmp_path / "bom.conf", tmp_path / "bom-report.json"
    model.write_text(BOM + (MODELS / "blocking.json").read_text(encoding="utf-8"),
                     encoding="utf-8")
    cfg.write_text(BOM + "tau_s = 10\n", encoding="utf-8")
    assert main(["check", "--model", str(model), "--log", str(sim_log)]) == 0
    assert main(["--config", str(cfg), "discover", "--model", str(model),
                 "--log", str(sim_log), "--out", str(report)]) == 0
    report.write_text(BOM + report.read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--report", str(report)]) == 0
    assert "nrtokens(q1) <= 4.5" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text", ["not json", '{"constraints": []}', "[1, 2]"],
    ids=["not-json", "incomplete", "not-an-object"],
)
def test_report_malformed_exits_3(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--report", str(path)]) == 3
    assert "is malformed or incomplete" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discover", "check"])
def test_log_column_of_another_type_than_the_place_exits_3(tmp_path, capsys, command):
    log = tmp_path / "log.csv"
    main(["simulate", "--model", model_path("priority"), "--seed", "1",
          "--max-cases", "60", "--out", str(log)])
    header, first, *rest = log.read_text().splitlines()
    column = header.split(",").index("value")
    cells = first.split(",")
    cells[column] = "abc"
    log.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    capsys.readouterr()
    code = main([command, "--model", model_path("priority"), "--log", str(log)])
    assert code == 3
    assert ("log column 'value' holds text values but case place 'arrival' "
            "declares 'value' as number") in capsys.readouterr().err


@pytest.mark.parametrize("t_id", ["pre/processing", "pre processing", "pre%2Fprocessing"])
def test_dump_ptlogs_writes_one_file_per_candidate_inside_the_directory(tmp_path, t_id):
    model = tmp_path / "model.json"
    model.write_text((MODELS / "blocking.json").read_text().replace("pre-processing", t_id))
    log, report, pt = tmp_path / "log.csv", tmp_path / "report.json", tmp_path / "pt"
    assert main(["simulate", "--model", str(model), "--seed", "1",
                 "--max-cases", "150", "--out", str(log)]) == 0
    assert main(["discover", "--model", str(model), "--log", str(log),
                 "--out", str(report), "--dump-ptlogs", str(pt)]) == 0
    candidates = [c for c in json.loads(report.read_text())["candidates"] if c["rows"]]
    files = sorted(pt.iterdir())
    assert all(f.is_file() for f in files) and len(files) == len(candidates) >= 1
    # the names decode to the candidates' own, the renamed transition's too
    decoded = {urllib.parse.unquote(f.name).split("__")[1] for f in files}
    assert decoded == {c["transition"] for c in candidates} and t_id in decoded


def test_dump_ptlogs_names_a_priority_candidate_by_its_attr(tmp_path):
    log, report, pt = tmp_path / "log.csv", tmp_path / "report.json", tmp_path / "pt"
    assert main(["simulate", "--model", model_path("priority"), "--seed", "1",
                 "--max-cases", "150", "--out", str(log)]) == 0
    assert main(["discover", "--model", model_path("priority"), "--log", str(log),
                 "--out", str(report), "--dump-ptlogs", str(pt)]) == 0
    rows = {}  # each candidate's row count by its file name, which ends in its attr
    for c in json.loads(report.read_text())["candidates"]:
        parts = [c["kind"], c["transition"], *(place for _, place in sorted(c["roles"].items()))]
        rows["__".join(parts + ([c["attr"]] if "attr" in c else []))] = c["rows"]
    # job_arrival is no task, so the log never starts it: its candidate has no rows
    assert rows["blocking__job_arrival__arrival"] == 0
    assert rows["priority__handling__q1__arrival__value"] > 0
    assert sorted(f.name for f in pt.iterdir()) == sorted(
        name + ".csv" for name, n in rows.items() if n
    )
    for name, n in rows.items():
        if n:
            assert len((pt / (name + ".csv")).read_text().splitlines()) == n + 1


@pytest.mark.parametrize("command", ["discover", "check"])
def test_log_with_a_duplicate_column_exits_3(tmp_path, capsys, command):
    log = tmp_path / "log.csv"
    log.write_text("case,activity,start,complete,value,value\n1,pre-processing,0,5,1,abc\n")
    code = main([command, "--model", model_path("priority"), "--log", str(log)])
    assert code == 3
    assert "column 'value' appears more than once in the header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discover", "check"])
def test_empty_log_exits_3(tmp_path, capsys, command):
    log = tmp_path / "log.csv"
    log.write_text("")
    code = main([command, "--model", model_path("blocking"), "--log", str(log)])
    assert code == 3
    assert "log has no header row" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["case", "activity", "start", "complete", "resource"])
@pytest.mark.parametrize("command", ["simulate", "discover", "check"])
def test_model_attribute_named_after_a_log_column_exits_3(tmp_path, capsys, column, command):
    # priority's case attribute ``value`` renamed: in both case places, the
    # source's generator and the guard
    doc = json.loads((MODELS / "priority.json").read_text())
    for place in doc["places"][:2]:
        place["attributes"] = [[column, "number"]]
    spec = doc["transitions"][0]["arrival_spec"]
    spec["attributes"] = {column: spec["attributes"]["value"]}
    doc["transitions"][2]["guard"] = doc["transitions"][2]["guard"].replace(
        ", value,", f", {column},"
    )
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    log = tmp_path / "log.csv"
    log.write_text("case,activity,start,complete\n1,pre-processing,0,5\n")
    if command == "simulate":
        args = ["--max-cases", "5", "--out", str(tmp_path / "x.csv")]
    else:
        args = ["--log", str(log)]
    code = main([command, "--model", str(model), *args])
    assert code == 3
    err = capsys.readouterr().err
    assert f"place 'arrival' attribute {column!r} is named after a log column" in err
    assert f"transition 'job_arrival' attribute {column!r}: is named after a log column" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("endpoint", [[], {}, 3, None], ids=["list", "object", "number", "null"])
@pytest.mark.parametrize("end", [0, 1], ids=["source", "target"])
def test_flow_endpoint_that_is_no_string_exits_3(tmp_path, capsys, endpoint, end):
    doc = json.loads((MODELS / "priority.json").read_text())
    flow = doc["flows"][0]
    flow[end] = endpoint
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    role = ("source", "target")[end]
    assert f"flow ({flow[0]!r}, {flow[1]!r}) {role} should be str" in capsys.readouterr().err


def test_two_sources_with_one_case_prefix_exit_3(tmp_path, capsys):
    # both sources would give cases a1, a2, ...: every id twice in the log
    text = (MODELS / "choice.json").read_text()
    assert text.count('"case_prefix": "b"') == 1
    model = tmp_path / "model.json"
    model.write_text(text.replace('"case_prefix": "b"', '"case_prefix": "a"'))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "sources 'arrival_a' and 'arrival_b' can give two cases the same id" in (
        capsys.readouterr().err
    )
