"""Discovery reads what it needs off each sample while it replays.

The kept-samples path in ``tests/conftest.py`` (``observe_samples``,
``pt_log_of`` and ``read_off_samples``) is the oracle: ``discover_run`` must
give the same pattern-transition logs, sample count and read-off check
without keeping a sample, and no replay may keep a marking past its
timestamp.
"""
from __future__ import annotations

import gc
import importlib
from functools import lru_cache

import pytest

from dsync.constraints import parse_constraint
from dsync.eventlog import Log
from dsync.extract import annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.net import Marking, Net
from dsync.patterns import Observations, detect_constructs, read_off_check
from dsync.replay import replay
from dsync.simulate import SimConfig, simulate
from tests.conftest import model_path, observe_samples, pt_log_of, read_off_samples

MODELS = ("blocking", "choice", "holdbatch", "priority", "supplychain")


@lru_cache(maxsize=None)
def _simulated(model: str, cases: int, seed: int) -> tuple[Net, Log]:
    net = load_model(model_path(model))
    return net, simulate(net, SimConfig(seed=seed, max_cases=cases))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS)
def test_streamed_discovery_equals_the_kept_samples(model, seed):
    net, log = _simulated(model, 150, seed)
    run = discover_run(log, net)
    samples, report = replay(log, net)
    moments = observe_samples(net, samples, {res.candidate.t_g for res in run.results})
    assert run.samples == len(samples)
    assert [res.candidate for res in run.results] == detect_constructs(net)
    for res in run.results:
        oracle = pt_log_of(res.candidate, moments[res.candidate.t_g])
        assert res.ptlog.to_csv() == oracle.to_csv(), res.candidate.describe()
    annotated = annotate_net(net.without_guards(), run.constraints)
    oracle_check = read_off_samples(net, samples, report, annotated)
    if oracle_check is None:
        assert run.check is None
    else:
        assert run.check is not None
        assert (run.check.matched, run.check.unmatched, run.check.stats) == (
            oracle_check.matched, oracle_check.unmatched, oracle_check.stats
        )


def _read_off_both(net: Net, log: Log, t_id: str, guard: str):
    """The read-off check of ``guard`` on ``t_id``, from the streamed
    observations and from the kept samples."""
    annotated = net.without_guards().with_guards({t_id: parse_constraint(guard)})
    observations = Observations(net, log, detect_constructs(net))
    report = replay(log, net, observer=observations.observe)[1]
    samples, kept_report = replay(log, net)
    return (
        read_off_check(net, observations, report, annotated),
        read_off_samples(net, samples, kept_report, annotated),
    )


@pytest.mark.parametrize("guard, settled", [
    ("nrtokens(q1) <= 4.5", True),  # the discovered guard
    ("nrtokens(q1) <= 2.5", False),  # the same, hand-tightened: it rejects moves
])
def test_read_off_check_of_a_guard_equals_the_oracle(guard, settled):
    net, log = _simulated("blocking", 300, 1)
    streamed, oracle = _read_off_both(net, log, "pre-processing", guard)
    assert (streamed is not None, oracle is not None) == (settled, settled)
    if settled:
        assert (streamed.matched, streamed.unmatched, streamed.stats) == (
            oracle.matched, oracle.unmatched, oracle.stats
        )


def test_read_off_check_declines_a_feature_no_candidate_of_its_transition_has():
    # nrtokens(arrival) is a feature of the candidate on ``arriving`` only; on
    # ``pre-processing`` no value of it was recorded, so the check is not
    # settled, although the kept markings show the guard holding at every move
    net, log = _simulated("blocking", 300, 1)
    streamed, oracle = _read_off_both(net, log, "pre-processing", "nrtokens(arrival) >= 0")
    assert streamed is None
    assert oracle is not None


def _live_markings() -> int:
    return sum(type(o) is Marking for o in gc.get_objects())


def _most_live_markings(call) -> int:
    """The most ``Marking`` objects alive at every 50th ``fire`` of replay
    while ``call()`` runs, beyond those alive before it."""
    # the package's ``replay`` attribute is the function, so fetch the module
    module = importlib.import_module("dsync.replay")
    fire, calls, before, most = module.fire, 0, _live_markings(), 0

    def counted(*args, **kwargs):
        nonlocal calls, most
        calls += 1
        if calls % 50 == 0:
            most = max(most, _live_markings() - before)
        return fire(*args, **kwargs)

    module.fire = counted
    try:
        call()
    finally:
        module.fire = fire
    assert calls >= 50
    return most


@pytest.mark.parametrize("check_guards", [False, True], ids=["discover_run", "check"])
def test_markings_do_not_outlive_their_timestamp(check_guards):
    # kept markings grow with the log: when both replays kept their samples,
    # 449 markings were alive at 150 cases and 1,799 at 600; now 4 at both
    most = {}
    for cases in (150, 600):
        net, log = _simulated("blocking", cases, 1)
        if check_guards:
            most[cases] = _most_live_markings(lambda: replay(log, net, check_guards=True))
        else:
            most[cases] = _most_live_markings(lambda: discover_run(log, net))
    assert most[600] <= most[150], most
