from __future__ import annotations

import pathlib

import pytest

from dsync.eventlog import Log, load_log
from dsync.modelfile import load_model
from dsync.net import Net
from dsync.simulate import SimConfig, simulate

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def model_path(name: str) -> str:
    return str(MODELS / f"{name}.json")


def fifo_key(net: Net, t_id: str, binding: dict, clock: float) -> tuple:
    """The simulator's firing priority of a binding at ``clock``, built from
    the whole binding: the oracle for the key ``simulate.fifo_first`` reads
    off the tokens it chose. The binding whose newest consumed token is oldest
    goes first, then the downstream transition, then the smaller case id,
    then the transition id."""
    newest = max((tok.available_at for tok in binding.values()), default=clock)
    plan = net.plan(t_id)
    case_id = binding[plan.case_inputs[0]].case_id if plan.case_inputs else ""
    return (newest, -plan.depth, case_id, t_id)


@pytest.fixture(scope="session")
def priority_net() -> Net:
    return load_model(model_path("priority"))


@pytest.fixture(scope="session")
def blocking_net() -> Net:
    return load_model(model_path("blocking"))


@pytest.fixture(scope="session")
def holdbatch_net() -> Net:
    return load_model(model_path("holdbatch"))


@pytest.fixture(scope="session")
def choice_net() -> Net:
    return load_model(model_path("choice"))


@pytest.fixture(scope="session")
def supplychain_net() -> Net:
    return load_model(model_path("supplychain"))


@pytest.fixture(scope="session")
def table1_log() -> Log:
    return load_log(str(MODELS / "table1.csv"))


# heavier artifacts shared between test modules and the acceptance suite

@pytest.fixture(scope="session")
def priority_log(priority_net) -> Log:
    return simulate(priority_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def blocking_log(blocking_net) -> Log:
    return simulate(blocking_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def holdbatch_log(holdbatch_net) -> Log:
    return simulate(holdbatch_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def choice_log(choice_net) -> Log:
    return simulate(choice_net, SimConfig(seed=1, max_cases=500))
