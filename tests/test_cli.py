from __future__ import annotations

import json

import pytest

from dsync.cli import main
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


def _priority_doc_with(path: tuple, value) -> dict:
    """The priority model with one field replaced; ``path`` ends at a key or index."""
    doc = json.loads((MODELS / "priority.json").read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


_SOURCE = ("transitions", 0, "arrival_spec")


@pytest.mark.parametrize(
    "path, value, message",
    [
        (_SOURCE + ("attributes", "value", "lo"), "nan", "job_arrival attribute value lo"),
        (_SOURCE + ("attributes", "value", "hi"), 1e400, "job_arrival attribute value hi"),
        (_SOURCE + ("attributes", "value"), {"kind": "constant", "value": float("nan")},
         "job_arrival attribute value value"),
        (_SOURCE + ("attributes", "value"), {"kind": "choice", "values": [1.0, float("inf")]},
         "job_arrival attribute value values"),
        (_SOURCE + ("interarrival", "hi"), "inf", "job_arrival interarrival hi"),
        (("transitions", 1, "delay", "value"), "nan", "pre-processing delay value"),
        (("transitions", 2, "delay"), float("nan"), "handling delay"),
        (("initial_marking", "r0", 0, "available_at"), "-inf", "initial token in r0: available_at"),
        (("initial_marking", "r0", 0, "attrs"), {"load": float("nan")},
         "initial token in r0: load"),
    ],
    ids=["generator-lo", "generator-hi", "generator-value", "generator-values",
         "interarrival", "delay", "delay-number", "token-time", "token-attr"],
)
def test_non_finite_model_number_exits_3(tmp_path, capsys, path, value, message):
    # json writes NaN and Infinity literals, which Python's json reads back
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_priority_doc_with(path, value)))
    code = main(["simulate", "--model", str(model),
                 "--seed", "1", "--max-cases", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and "must be finite" in err


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
