from __future__ import annotations

import json
import re

import pytest

from dsync.cli import main
from dsync.errors import ModelError
from dsync.eventlog import write_log
from dsync.modelfile import load_model, net_to_json, save_model
from dsync.simulate import SimConfig, simulate
from tests.conftest import model_path


@pytest.mark.parametrize("model", ["priority", "blocking", "holdbatch", "choice", "supplychain"])
def test_saved_model_loads_back_the_same(tmp_path, model):
    net = load_model(model_path(model))
    path = str(tmp_path / "saved.json")
    save_model(net, path)
    again = load_model(path)
    assert net_to_json(again) == net_to_json(net)
    cfg = SimConfig(seed=1, max_cases=100)
    assert write_log(simulate(again, cfg)) == write_log(simulate(net, cfg))


@pytest.mark.parametrize("max_count", [0, -3])
def test_source_max_count_below_one_is_rejected(tmp_path, max_count):
    # such a source would never be exhausted, whatever max_cases says
    with open(model_path("blocking"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["transitions"][0]["id"] == "arriving"
    doc["transitions"][0]["arrival_spec"]["max_count"] = max_count
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    message = f"source 'arriving' max_count must be >= 1, got {max_count}"
    with pytest.raises(ModelError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("case_id", [12, 1.5, True, ["p1"]])
def test_initial_token_case_id_that_is_no_text_is_rejected(tmp_path, capsys, case_id):
    # a numeric resource id would simulate, and the log's resource column,
    # which reads back as text, would never match it
    with open(model_path("blocking"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["initial_marking"]["r0"][0]["case_id"] = case_id
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    message = f"initial token in r0: case_id should be str or null, found {case_id!r}"
    with pytest.raises(ModelError, match=re.escape(message)):
        load_model(str(path))
    code = main(["simulate", "--model", str(path), "--seed", "1", "--max-cases", "5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3 and message in capsys.readouterr().err
