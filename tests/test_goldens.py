"""Byte-identical logs, reports and pattern-transition logs for inputs the
benchmark does not run.

The hashes pin the simulator's schedule (which binding fires, and when the
clock stops) and everything discovery derives from it. In ``choice`` the
production transitions output only into unstored plain sinks, so the clock
must still stop at their completion times for the log to stay the same.
The pattern-transition log hashes pin every candidate's rows, which a report
shows only through the tree fitted to them.
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


# model -> sha256 of the logs of seeds 1-10 at 500 cases, written one after
# another: pins the simulator's schedule on every bundled model and seeds
# that neither the benchmark nor GOLDENS run
SIM_GOLDENS = {
    "blocking": "583e2645f33da1b3f5a0c323cfd023c37ac249f4c69e707773376890f85aed39",
    "choice": "9f4403e161fdab23d35c64d4728aa743f6daf16609e37dcb16d62444e0e0dc10",
    "holdbatch": "adb7fc805744f4053268cb8faadb5d3077fa9fee191c9a0ef6eda832b7006f15",
    "priority": "e8330622e4abaa837e241377422783b61775bf8052298258cc45e9fca8f18133",
    "supplychain": "b322225386fac7e43d60fe83836bbc56f934536f51c99846554b688ed276d809",
}


@pytest.mark.parametrize("model", sorted(SIM_GOLDENS))
def test_simulated_log_hashes(model):
    net = load_model(model_path(model))
    digest = hashlib.sha256()
    for seed in range(1, 11):
        log = simulate(net, SimConfig(seed=seed, max_cases=500))
        digest.update(write_log(log).encode("utf-8"))
    assert digest.hexdigest() == SIM_GOLDENS[model]


# (model, seed, cases) -> candidate -> sha256 of its pattern-transition log CSV
PT_GOLDENS = {
    ("supplychain", 6, 150): {
        "blocking(game_case_arriving; downstream=stock_gc)":
            "eaeac591c660bd3fa48c8a71ac97c2973e5596fc3ccf286a5268c54f5f52c0e4",
        "blocking(move_nl; downstream=phone_nl)":
            "eaa8999876cf5771f4c547eb49581232b4d3e0fceb0179837a590c0b5f3115c3",
        "blocking(order_pc; downstream=ordered_pc)":
            "ccfe21336c87f59f3b0c303b9eb0698ab7860eeb241264b91b4044f73f8072bc",
        "blocking(prep_pc; downstream=stock_pc)":
            "67e2757845f5f80435ed928f5b2ffa5e9fa2b8c8655a5858edafea22f4648fc2",
        "blocking(production_phone; downstream=phone_fin)":
            "132ac983e85febbc665a81d8df8e2f6cf20819065ea466911286fb08ca8a9a87",
        "choice(production_game; other_input=stock_pc, shared=chips)":
            "4bf1be36efd03dff55ffea87f1ca180fb590f54ae164e4f20351c1307653d940",
        "choice(production_phone; other_input=stock_gc, shared=chips)":
            "a11b230036f72c92d19fbd9f15b51c2e1adcf816ffc13594534ea3be3aa8ceff",
        "holdbatch(move_nl; input=phone_fin)":
            "fa1bd5078422f327ae931a2ba5056372b511a1d762a27a27d0462ad53523c1ad",
        "holdbatch(prep_pc; input=ordered_pc)":
            "5aafbd339324ec09d7dbcef63be47e7d903266f4a606cae4434a8953610c219e",
        "holdbatch(production_game; input=stock_gc)":
            "1fa31d9ad69d38f52e4a32b213dac557c19816a28c9de319007353da033686b8",
        "holdbatch(production_phone; input=stock_pc)":
            "592787dbd27858aeaefe167d7ce904138dec9dbf636f4d417957887ca0c7f5f7",
        "holdbatch(transportation; input=phone_nl)":
            "893849d1039050f7bbd64994963b0115653a4dbeb52d10b3a9359e413e99ab64",
        "priority(production_phone; queue=stock_pc, upstream=ordered_pc, attr=value)":
            "fd8c67a010a7f7961ede50d67ee7ddedba1aa7842e043434fe1ea52056addc1f",
    },
    ("priority", 2, 300): {
        "blocking(job_arrival; downstream=arrival)":
            "df2f561449c4296fbc2872d1dca78d90900f4bbb1b0b3e5a62de8fa055a305b5",
        "blocking(pre-processing; downstream=q1)":
            "21ea2f38d3e802c04fffdb0fdbc42969103b809e4ac194928c9fd2db35b65959",
        "holdbatch(handling; input=q1)":
            "ceeab8771723b729cf4c07be613c8025d8e37437d2131aba868d67f0583d5232",
        "holdbatch(pre-processing; input=arrival)":
            "d2d9896fa8db42d85f6e33ffdd38132bef3b68ea2f91f9bdaca0186ed9ddc877",
        "priority(handling; queue=q1, upstream=arrival, attr=value)":
            "44b86d9870a26866119ff8514731dfb391488c247c43cbe484ca8c3007b437d9",
    },
    ("blocking", 1, 300): {
        "blocking(arriving; downstream=arrival)":
            "756c250dd1f9afced87dca201aacf45669d3b0796eea6440e275caddcd478a25",
        "blocking(pre-processing; downstream=q1)":
            "5ee64f0899afbce7cb44c42e164c1e1db141ad03ef71c0ba4b3d820d87b6e2a2",
        "holdbatch(handling; input=q1)":
            "8ba37c7db11d6e33715385b1d08de0eab324e94601ffe37e1c2abde9d4a6d93b",
        "holdbatch(pre-processing; input=arrival)":
            "162840f3dd6c19ade64bdb23d53abd5487e1b3d17935d000d8916422c8478c95",
    },
}


@pytest.mark.parametrize("model, seed, cases", sorted(PT_GOLDENS))
def test_pattern_transition_log_hashes(model, seed, cases):
    net = load_model(model_path(model))
    parsed = parse_log(write_log(simulate(net, SimConfig(seed=seed, max_cases=cases))))
    run = discover_run(parsed, net)
    hashes = {r.candidate.describe(): _sha256(r.ptlog.to_csv()) for r in run.results}
    assert hashes == PT_GOLDENS[model, seed, cases]
