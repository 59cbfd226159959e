"""Byte-identical logs and reports for inputs the benchmark does not run.

The hashes pin the simulator's schedule (which binding fires, and when the
clock stops) and everything discovery derives from it. In ``choice`` the
production transitions output only into unstored plain sinks, so the clock
must still stop at their completion times for the log to stay the same.
"""
from __future__ import annotations

import hashlib

import pytest

from tests.conftest import model_path
from dsync.eventlog import parse_log, write_log
from dsync.extract import discover_run
from dsync.modelfile import load_model
from dsync.report import build_report, report_to_json
from dsync.simulate import SimConfig, simulate

# (model, seed) -> (sha256 of the log text, sha256 of the report JSON), 300 cases
# unless CASES says otherwise; the priority and supplychain seeds are not the
# benchmark's, so a change tuned to its inputs still meets unseen ones.
# Supplychain seed 6 is the one input whose discovered guards reject moves
# (118 of 2,498), so its replayability comes from a guard-checked replay.
GOLDENS = {
    ("holdbatch", 1): (
        "9b55502064c4d481e81f1189b3c393492785264a44807770b3a3828f85baf763",
        "c8c3893bc4a891d9b00b039e714b584db77072810f22f481c085c7a71e3b0426",
    ),
    ("holdbatch", 2): (
        "58467046f05b3799b85a96316b5c4c3506237c1acbcce582093511aaff072f04",
        "0916311bed2ffaa8627ee6a7e3596a58cb38e3ff25fd2b56aa61025aa5e60a6d",
    ),
    ("choice", 1): (
        "112c2b5ad380e30da16ddd6595539dc0437d5a47e3b6835dbeaf8482dc699e24",
        "78bd248e2769badf52d2fe81bd9731f4fef5d61c74acb62f0d35d9e1a18e61af",
    ),
    ("choice", 2): (
        "c74762f77fc1dd63ca39988482d655b81b8cb55adde98e16826d72e431499b2c",
        "e29162432eb88af163596be3b88b2a9060c971c5114ca90ee53b1a4c4a6dad86",
    ),
    ("priority", 2): (
        "c014898c346fb1638d8776cdb75f3862df69875f51f2500bc9d34a10f897ebb3",
        "c0d7853831b6527bd7419b44f3f138900b2dc386266cacd306f11750445ddf97",
    ),
    ("priority", 3): (
        "9f257cd97d29c574248ad9088dc701a65471def2c219a6124a78b461a9d62ce1",
        "4e7901b875703226fd8ded97ceec012da3b0236e0c45ddd96c2e213472a2200a",
    ),
    ("supplychain", 4): (
        "bf05edea2762526e919cdfc1dd3dd9542dac43ee9dec09854367372d4ccf9cdf",
        "eb8f251e463258129851c29abf55bf93a616f19ec78c351aeac832f0a103a179",
    ),
    ("supplychain", 6): (
        "1dc28b787fa648b8d5a28d17238bc724cb5143ba9edb9c0c8040e47b45cb98b0",
        "0ec46432e507d694413613873c3e5ef01d8dd22d009f3992ea87e44e41ba70ee",
    ),
}
CASES = {("supplychain", 4): 200, ("supplychain", 6): 150}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("model, seed", sorted(GOLDENS))
def test_log_and_report_hashes(model, seed):
    net = load_model(model_path(model))
    log_text = write_log(simulate(net, SimConfig(seed=seed, max_cases=CASES.get((model, seed), 300))))
    parsed = parse_log(log_text)
    report_text = report_to_json(build_report(discover_run(parsed, net), net, parsed))
    assert (_sha256(log_text), _sha256(report_text)) == GOLDENS[model, seed]
