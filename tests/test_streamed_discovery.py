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

from dsync.constraints import OPS, parse_constraint
from dsync.eventlog import Log
from dsync.extract import DiscoveryRun, PatternConstraint, annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.net import Marking, Net
from dsync.patterns import (
    Observations,
    PatternKind,
    detect_constructs,
    features_for,
    read_off_check,
)
from dsync.replay import replay
from dsync.simulate import SimConfig, simulate
from tests.conftest import model_path, observe_samples, pt_log_of, read_off_samples

MODELS = ("blocking", "choice", "holdbatch", "priority", "supplychain")


@lru_cache(maxsize=None)
def _simulated(model: str, cases: int, seed: int) -> tuple[Net, Log]:
    net = load_model(model_path(model))
    return net, simulate(net, SimConfig(seed=seed, max_cases=cases))


@lru_cache(maxsize=None)
def _discovered(model: str, seed: int) -> DiscoveryRun:
    net, log = _simulated(model, 150, seed)
    return discover_run(log, net)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS)
def test_streamed_discovery_equals_the_kept_samples(model, seed):
    net, log = _simulated(model, 150, seed)
    run = _discovered(model, seed)
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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS)
def test_discovered_atoms_read_their_own_candidates_features(model, seed):
    # so ``read_off_check`` finds every atom's values among the moves its
    # constraint's candidate recorded, and can compare them
    run = _discovered(model, seed)
    for pc in run.constraints:
        features = features_for(pc.candidate)
        for atom in pc.expr.atoms:
            assert atom.feature in features, pc.describe()
            assert atom.op in OPS, pc.describe()


def _read_off_both(net: Net, log: Log, pc: PatternConstraint):
    """The read-off check of ``pc``, from the streamed observations and from
    the kept samples."""
    observations = Observations(net, log, detect_constructs(net))
    report = replay(log, net, observer=observations.observe)[1]
    samples, kept_report = replay(log, net)
    return (
        read_off_check(observations, report, [pc]),
        read_off_samples(net, samples, kept_report, annotate_net(net.without_guards(), [pc])),
    )


@pytest.mark.parametrize("guard, settled", [
    ("nrtokens(q1) <= 4.5", True),  # the discovered guard
    ("nrtokens(q1) <= 2.5", False),  # the same, hand-tightened: it rejects moves
])
def test_read_off_check_of_a_guard_equals_the_oracle(guard, settled):
    net, log = _simulated("blocking", 300, 1)
    (candidate,) = [
        c for c in detect_constructs(net)
        if c.kind == PatternKind.BLOCKING and c.t_g == "pre-processing"
    ]
    pc = PatternConstraint(candidate, parse_constraint(guard), support=0)
    streamed, oracle = _read_off_both(net, log, pc)
    assert (streamed is not None, oracle is not None) == (settled, settled)
    if settled:
        assert (streamed.matched, streamed.unmatched, streamed.stats) == (
            oracle.matched, oracle.unmatched, oracle.stats
        )


@pytest.mark.parametrize("agg, settled", [("max", True), ("min", False)])
def test_read_off_check_tests_the_token_a_pin_allows(agg, settled):
    # both guards hold at every handling move, but the min one pins the
    # smallest token of q1, which handling took at only 6 of its 300 moves
    net, log = _simulated("priority", 300, 1)
    (candidate,) = [
        c for c in detect_constructs(net)
        if c.kind == PatternKind.PRIORITY and c.t_g == "handling"
    ]
    guard = parse_constraint(f"attrenabled(q1, value, {agg}) == true")
    pc = PatternConstraint(candidate, guard, support=0)
    streamed, oracle = _read_off_both(net, log, pc)
    assert (streamed is not None, oracle is not None) == (settled, settled)
    check = replay(log, annotate_net(net.without_guards(), [pc]), check_guards=True)[1]
    assert len(check.unmatched) == (0 if settled else 294)


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
