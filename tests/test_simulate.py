from __future__ import annotations

import collections
import importlib

import pytest

from dsync.constraints import parse_constraint
from dsync.errors import SimulationError
from dsync.eventlog import write_log
from dsync.net import ArrivalSpec, DelaySpec, Marking, Net, Place, Token, Transition
from dsync.simulate import SimConfig, ground_truth, simulate


def source_net(interarrival: float = 1.0) -> Net:
    return Net(
        places=[Place("out", "case")],
        transitions=[
            Transition(
                "arrive",
                is_task=True,
                delay=DelaySpec.constant(0),
                arrival_spec=ArrivalSpec(
                    interarrival=DelaySpec.constant(interarrival), case_prefix="c"
                ),
            )
        ],
        flows=[("arrive", "out")],
        name="source-only",
    )


def test_constant_source_timing():
    log = simulate(source_net(1.0), SimConfig(seed=1, max_cases=3))
    assert [(e.case_id, e.start) for e in log.events] == [
        ("c1", 0.0),
        ("c2", 1.0),
        ("c3", 2.0),
    ]


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(seed=1, max_cases=0).check()
    SimConfig(seed=1, max_cases=0, horizon=5.0).check()


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("max_cases", [0, 5])
def test_non_finite_or_negative_horizon_rejected(horizon, max_cases):
    with pytest.raises(SimulationError, match="horizon"):
        SimConfig(seed=1, max_cases=max_cases, horizon=horizon).check()
    with pytest.raises(SimulationError, match="horizon"):
        simulate(source_net(1.0), SimConfig(seed=1, max_cases=max_cases, horizon=horizon))


def test_horizon_caps_run():
    log = simulate(source_net(1.0), SimConfig(seed=1, max_cases=0, horizon=4.5))
    assert max(e.start for e in log.events) <= 4.5
    assert len(log.events) == 5


def test_deadlock_reports_marking():
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t", delay=DelaySpec.constant(1))],
        flows=[("a", "t"), ("t", "b")],
        initial_marking=Marking(),
    )
    with pytest.raises(SimulationError, match="deadlock"):
        simulate(net, SimConfig(seed=1, max_cases=0, horizon=10))


def test_same_seed_byte_identical_logs(priority_net):
    a = simulate(priority_net, SimConfig(seed=7, max_cases=60))
    b = simulate(priority_net, SimConfig(seed=7, max_cases=60))
    assert write_log(a) == write_log(b)


def test_different_seeds_differ(priority_net):
    a = simulate(priority_net, SimConfig(seed=1, max_cases=60))
    b = simulate(priority_net, SimConfig(seed=2, max_cases=60))
    assert write_log(a) != write_log(b)


def test_priority_log_shape(priority_log):
    labels = {e.label for e in priority_log.events}
    assert labels == {"pre-processing", "handling"}
    per_label = {
        label: sum(1 for e in priority_log.events if e.label == label) for label in labels
    }
    assert per_label["pre-processing"] == 500
    assert per_label["handling"] == 500
    assert priority_log.events[0].start == 0.0
    # each handling event binds the single worker
    assert all(
        e.resource == "w1" for e in priority_log.events if e.label == "handling"
    )


def test_values_within_declared_range(priority_log):
    values = [e.attrs["value"] for e in priority_log.events]
    assert all(100 <= v <= 1000 for v in values)


def test_log_passes_ordering_invariants(priority_log):
    from dsync.eventlog import parse_log

    assert parse_log(write_log(priority_log)) == priority_log
    for events in _by_case(priority_log).values():
        completes = [e.complete for e in events]
        assert completes == sorted(completes)


def _by_case(log):
    out = {}
    for e in log.events:
        out.setdefault(e.case_id, []).append(e)
    return out


def test_guard_soundness_on_held_states(blocking_net, blocking_log):
    """Every pre-processing start satisfies the capacity guard in the state
    it fired from."""
    from dsync.replay import replay

    guard = blocking_net.transition("pre-processing").guard
    samples, report = replay(blocking_log, blocking_net)
    assert not report.unmatched
    checked = 0
    for s in samples:
        if "pre-processing" in s.fired:
            marking = s.at_fire["pre-processing"]
            assert guard.holds(marking, s.time)
            checked += 1
    assert checked == 500


def test_ground_truth_lists_guards(blocking_net, supplychain_net):
    gt = ground_truth(blocking_net)
    assert [tid for tid, _ in gt] == ["pre-processing"]
    assert gt[0][1].canonical() == "nrtokens(q1) < 5"
    assert len(ground_truth(supplychain_net)) == 4
    assert ground_truth(blocking_net.without_guards()) == []


def test_zero_delay_cycle_raises():
    # t puts its case straight back into p with no delay, so the clock could
    # never leave 0; the per-instant firing bound turns the hang into an error
    net = Net(
        places=[Place("p", "case")],
        transitions=[
            Transition(
                "src",
                is_task=False,
                arrival_spec=ArrivalSpec(interarrival=DelaySpec.constant(1)),
            ),
            Transition("t", delay=DelaySpec.constant(0)),
        ],
        flows=[("src", "p"), ("p", "t"), ("t", "p")],
    )
    with pytest.raises(SimulationError, match="'t'.*zero-delay cycle"):
        simulate(net, SimConfig(seed=1, horizon=10))


def test_zero_interarrival_source_raises():
    # an uncapped source whose cases all arrive at the same instant
    net = Net(
        places=[Place("p", "case"), Place("q", "case")],
        transitions=[
            Transition(
                "src",
                is_task=False,
                arrival_spec=ArrivalSpec(interarrival=DelaySpec.constant(0)),
            ),
            Transition("t", delay=DelaySpec.constant(1)),
        ],
        flows=[("src", "p"), ("p", "t"), ("t", "q")],
    )
    with pytest.raises(SimulationError, match="'src'.*zero-delay"):
        simulate(net, SimConfig(seed=1, horizon=10))


def test_fifo_key_runs_once_per_transition_per_round(monkeypatch, blocking_net):
    # each scheduling round offers one candidate per ordinary transition, so
    # at one clock value fifo_key runs at most (firings there + 1) times per
    # transition; scoring every enabled binding of the arrival backlog
    # broke this bound
    sim = importlib.import_module("dsync.simulate")

    keys, fires = collections.Counter(), collections.Counter()

    def counting(counter, fn, now_at):
        def wrapper(*args, **kwargs):
            counter[args[now_at]] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sim, "fifo_key", counting(keys, sim.fifo_key, 3))
    monkeypatch.setattr(sim, "fire", counting(fires, sim.fire, 4))
    log = simulate(blocking_net, SimConfig(seed=1, max_cases=500))
    ordinary = {tid for tid, t in blocking_net.transitions.items() if t.arrival_spec is None}
    ordinary_events = sum(1 for e in log.events if e.label in ordinary)
    assert ordinary_events == 1000 and sum(keys.values()) >= ordinary_events
    assert all(n <= len(ordinary) * (fires[clock] + 1) for clock, n in keys.items())


def test_clock_stops_at_unstored_sink_outputs():
    # t1's only output is a plain sink nothing reads, so its token is not
    # stored; the clock must still stop at its completion (3), where t2's
    # guard holds (p's token is 7 away), and not jump to p's availability (10)
    net = Net(
        places=[
            Place("a", "case"), Place("b", "case"), Place("out", "case"),
            Place("sink", "plain"), Place("p", "plain"),
        ],
        transitions=[
            Transition("t1", delay=DelaySpec.constant(3)),
            Transition("t2", delay=DelaySpec.constant(1),
                       guard=parse_constraint("timeuntilnext(p) < 8")),
        ],
        flows=[("a", "t1"), ("t1", "sink"), ("b", "t2"), ("t2", "out")],
        initial_marking=Marking({
            "a": (Token("c1", {}, 0.0),),
            "b": (Token("c2", {}, 0.0),),
            "p": (Token(None, {}, 10.0),),
        }),
    )
    assert net.unread == {"sink"}
    log = simulate(net, SimConfig(seed=1, horizon=100))
    assert [(e.label, e.start) for e in log.events] == [("t1", 0.0), ("t2", 3.0)]
