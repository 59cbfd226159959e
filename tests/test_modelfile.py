from __future__ import annotations

import pytest

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
