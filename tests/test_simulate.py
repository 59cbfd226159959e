from __future__ import annotations

import collections
import importlib
import math

import pytest

from dsync.constraints import parse_constraint
from dsync.errors import SimulationError
from dsync.eventlog import write_log
from dsync.modelfile import load_model
from dsync.net import ArrivalSpec, Dist, Marking, Net, Place, Token, Transition
from dsync.replay import replay
from dsync.simulate import SimConfig, ground_truth, simulate
from tests.conftest import fifo_key, fired_from, model_path


def source_net(interarrival: float = 1.0) -> Net:
    return Net(
        places=[Place("out", "case")],
        transitions=[
            Transition(
                "arrive",
                is_task=True,
                delay=Dist.constant(0),
                arrival_spec=ArrivalSpec(
                    interarrival=Dist.constant(interarrival), case_prefix="c"
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
        SimConfig(seed=1, max_cases=0)
    SimConfig(seed=1, max_cases=0, horizon=5.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("max_cases", [0, 5])
def test_non_finite_or_negative_horizon_rejected(horizon, max_cases):
    with pytest.raises(SimulationError, match="horizon"):
        SimConfig(seed=1, max_cases=max_cases, horizon=horizon)


def test_horizon_caps_run():
    log = simulate(source_net(1.0), SimConfig(seed=1, max_cases=0, horizon=4.5))
    assert max(e.start for e in log.events) <= 4.5
    assert len(log.events) == 5


def test_deadlock_reports_marking():
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t", delay=Dist.constant(1))],
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

    guard = blocking_net.transitions["pre-processing"].guard
    samples, report = replay(blocking_log, blocking_net)
    assert not report.unmatched
    checked = 0
    for s in samples:
        if "pre-processing" in s.fired:
            marking = fired_from(s, "pre-processing")
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
                arrival_spec=ArrivalSpec(interarrival=Dist.constant(1)),
            ),
            Transition("t", delay=Dist.constant(0)),
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
                arrival_spec=ArrivalSpec(interarrival=Dist.constant(0)),
            ),
            Transition("t", delay=Dist.constant(1)),
        ],
        flows=[("src", "p"), ("p", "t"), ("t", "q")],
    )
    with pytest.raises(SimulationError, match="'src'.*zero-delay"):
        simulate(net, SimConfig(seed=1, horizon=10))


def test_fifo_key_runs_once_per_transition_per_round(monkeypatch, blocking_net):
    # each scheduling round offers one candidate per ordinary transition, so
    # at one clock value a key is built at most (firings there + 1) times per
    # transition; scoring every enabled binding of the arrival backlog
    # broke this bound. ``fifo_first`` builds the key of each candidate it
    # returns
    sim = importlib.import_module("dsync.simulate")

    keys, fires = collections.Counter(), collections.Counter()
    fifo_first, fire = sim.fifo_first, sim.fire

    def counting_keys(net, m, tid, clock):
        cand = fifo_first(net, m, tid, clock)
        keys[clock] += cand is not None
        return cand

    def counting_fires(net, m, tid, y, now, delay, case=None):
        fires[now] += 1
        return fire(net, m, tid, y, now, delay, case)

    monkeypatch.setattr(sim, "fifo_first", counting_keys)
    monkeypatch.setattr(sim, "fire", counting_fires)
    log = simulate(blocking_net, SimConfig(seed=1, max_cases=500))
    ordinary = {tid for tid, t in blocking_net.transitions.items() if t.arrival_spec is None}
    ordinary_events = sum(1 for e in log.events if e.label in ordinary)
    assert ordinary_events == 1000 and sum(keys.values()) >= ordinary_events
    assert all(n <= len(ordinary) * (fires[clock] + 1) for clock, n in keys.items())


def test_clock_stops_at_unstored_sink_outputs(monkeypatch):
    # t1's only output is a plain sink nothing reads, so its token is not
    # stored; the clock must still stop at its completion (3), where the timed
    # t2 is evaluated again, and not jump to p's availability (10). t2's guard
    # opens as soon as p's token is less than 8 away, just after 2, so it
    # fires at the stop pushed there
    sim = importlib.import_module("dsync.simulate")
    calls, fifo_first = collections.Counter(), sim.fifo_first

    def counting(net, m, tid, clock):
        calls[tid, clock] += 1
        return fifo_first(net, m, tid, clock)

    monkeypatch.setattr(sim, "fifo_first", counting)
    net = Net(
        places=[
            Place("a", "case"), Place("b", "case"), Place("out", "case"),
            Place("sink", "plain"), Place("p", "plain"),
        ],
        transitions=[
            Transition("t1", delay=Dist.constant(3)),
            Transition("t2", delay=Dist.constant(1),
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
    assert [e.label for e in log.events] == ["t1", "t2"] and log.events[0].start == 0.0
    # the first float time at which the guard holds, in float arithmetic
    opens = log.events[1].start
    assert 2.0 < opens < 2.0 + 1e-12
    assert 10.0 - opens < 8 and not 10.0 - math.nextafter(opens, -math.inf) < 8
    assert 3.0 in {clock for tid, clock in calls if tid == "t2"}


def test_clock_stops_skip_a_guard_that_time_alone_cannot_open(monkeypatch):
    # t2's guard ``timeuntilnext(p) > 5`` only closes as time passes; it opens
    # when p's token becomes available at 4, which dirties t2 as a reader of
    # p. t1's cases stop the clock at 0.5, 1, ..., 3.75 and touch nothing t2
    # reads, so t2 is evaluated at 0 and at 4 only
    sim = importlib.import_module("dsync.simulate")
    calls, fifo_first = collections.Counter(), sim.fifo_first

    def counting(net, m, tid, clock):
        calls[tid, clock] += 1
        return fifo_first(net, m, tid, clock)

    monkeypatch.setattr(sim, "fifo_first", counting)
    net = Net(
        places=[
            Place("a", "case"), Place("b", "case"), Place("out", "case"),
            Place("sink", "plain"), Place("p", "plain"),
        ],
        transitions=[
            Transition("t1", delay=Dist.constant(0.25)),
            Transition("t2", delay=Dist.constant(1),
                       guard=parse_constraint("timeuntilnext(p) > 5")),
        ],
        flows=[("a", "t1"), ("t1", "sink"), ("b", "t2"), ("t2", "out")],
        initial_marking=Marking({
            "a": tuple(Token(f"c{i}", {}, 0.5 * i) for i in range(8)),
            "b": (Token("d", {}, 0.0),),
            "p": (Token(None, {}, 4.0),),
        }),
    )
    log = simulate(net, SimConfig(seed=1, horizon=100))
    assert [(e.case_id, e.start) for e in log.events if e.label == "t2"] == [("d", 4.0)]
    assert sum(1 for e in log.events if e.label == "t1") == 8
    assert {clock for tid, clock in calls if tid == "t2"} == {0.0, 4.0}


def test_guard_that_opens_between_two_clock_stops_fires_when_it_opens():
    # t's guard ``timeuntilnext(q) <= 1`` holds on [9, 10) while q's token is
    # pending; no token event happens in between, so only a clock stop pushed
    # at the time the atom opens lets t fire there
    net = Net(
        places=[Place("a", "case"), Place("q", "case"), Place("done_t", "case"),
                Place("done_u", "case")],
        transitions=[
            Transition("t", delay=Dist.constant(1),
                       guard=parse_constraint("timeuntilnext(q) <= 1")),
            Transition("u", delay=Dist.constant(1)),
        ],
        flows=[("a", "t"), ("t", "done_t"), ("q", "u"), ("u", "done_u")],
        initial_marking=Marking({"a": (Token("c1", {}, 0.0),), "q": (Token("c2", {}, 10.0),)}),
    )
    log = simulate(net, SimConfig(seed=1, horizon=100))
    assert [(e.label, e.start) for e in log.events] == [("t", 9.0), ("u", 10.0)]


@pytest.mark.parametrize("op, const", [("<=", 1.0), ("<", 1.0), ("==", 1.0), ("<=", 0.1),
                                       ("<", 0.1), ("==", 0.3), ("<=", 1e-300), ("<=", 2.2)])
@pytest.mark.parametrize("due", [10.0, 0.7, 1e9 + 0.3, 3.3])
def test_a_guard_opening_stop_is_the_first_time_its_atom_holds(op, const, due):
    # 3.3 - 2.2 rounds to a float after the first one at which the atom holds
    sim = importlib.import_module("dsync.simulate")
    atom = parse_constraint(f"timeuntilnext(q) {op} {const!r}").atoms[0]
    m = Marking({"q": (Token("c", {}, due),)})
    opens = sim._opening(atom, m, 0.0)
    if opens is None:
        # the atom holds already, or at no float time in (0, due): not at the
        # last one, where the value is smallest, nor, for an equality, at the
        # time its constant points at
        late, aim = math.nextafter(due, -math.inf), due - const
        assert atom.holds(m, 0.0) or not (atom.holds(m, late) or 0 < aim and atom.holds(m, aim))
        return
    assert 0.0 < opens < due
    assert atom.holds(m, opens)
    assert not atom.holds(m, math.nextafter(opens, -math.inf))


def test_a_guard_that_opens_just_after_clock_zero_fires_there():
    # with p's token due at 22, ``22 - now < 22`` first holds near 1.8e-15;
    # a search stepping one float at a time up from the smallest positive
    # float would take about 2**62 steps to get there
    net = Net(
        places=[Place("a", "case"), Place("b", "case"), Place("p", "plain")],
        transitions=[Transition("t", delay=Dist.constant(1),
                                guard=parse_constraint("timeuntilnext(p) < 22"))],
        flows=[("a", "t"), ("t", "b")],
        initial_marking=Marking({"a": (Token("c1", {}, 0.0),), "p": (Token(None, {}, 22.0),)}),
    )
    (e,) = simulate(net, SimConfig(seed=1, horizon=100)).events
    assert 0.0 < e.start < 1e-14
    assert 22.0 - e.start < 22 and not 22.0 - math.nextafter(e.start, -math.inf) < 22


def test_no_guard_opening_stop_without_a_pending_token_or_for_a_holding_atom():
    sim = importlib.import_module("dsync.simulate")
    atom = parse_constraint("timeuntilnext(q) <= 1").atoms[0]
    assert sim._opening(atom, Marking({"q": (Token("c", {}, 0.0),)}), 0.0) is None
    assert sim._opening(atom, Marking(), 0.0) is None
    assert sim._opening(atom, Marking({"q": (Token("c", {}, 0.5),)}), 0.0) is None
    # an equality the value already passed never holds for this token
    passed = parse_constraint("timeuntilnext(q) == 1").atoms[0]
    assert sim._opening(passed, Marking({"q": (Token("c", {}, 0.5),)}), 0.0) is None


def test_guarded_task_source_arrives_when_its_guard_place_drains():
    # arrive may fire only while q holds fewer than 2 cases; from 3 on it is
    # due but blocked until serve takes from q, so c4 and c5 arrive at the
    # instant serve drains q, which needs arrive re-evaluated when q changes
    net = Net(
        places=[Place("q", "case"), Place("r", "resource"), Place("done", "case")],
        transitions=[
            Transition(
                "arrive",
                delay=Dist.constant(0),
                guard=parse_constraint("nrtokens(q) < 2"),
                arrival_spec=ArrivalSpec(interarrival=Dist.constant(1)),
            ),
            Transition("serve", delay=Dist.constant(3)),
        ],
        flows=[("arrive", "q"), ("q", "serve"), ("r", "serve"), ("serve", "r"),
               ("serve", "done")],
        initial_marking=Marking({"r": (Token("w1", {}, 0.0),)}),
    )
    log = simulate(net, SimConfig(seed=1, max_cases=5))
    assert [(e.case_id, e.label, e.start) for e in log.events] == [
        ("c1", "arrive", 0.0), ("c2", "arrive", 1.0), ("c3", "arrive", 2.0),
        ("c1", "serve", 0.0), ("c4", "arrive", 3.0), ("c2", "serve", 3.0),
        ("c5", "arrive", 6.0), ("c3", "serve", 6.0), ("c4", "serve", 9.0),
        ("c5", "serve", 12.0),
    ]


def test_arrivals_are_injected_before_any_firing_at_their_instant():
    # skip takes a case while another one is on its way into a, t otherwise;
    # each next case is injected the moment the last becomes available, so at
    # 4, where c0 and c2 become available, skip must see c3 arrive before it
    # serves c2 (t and skip are deeper than the source, and c0's arrival at 4
    # makes them evaluate there, so a FIFO tie with the arrival would let t
    # serve c2); only c3 finds no successor
    net = Net(
        places=[Place("a", "case"), Place("done", "plain")],
        transitions=[
            Transition("arrive", is_task=False,
                       arrival_spec=ArrivalSpec(Dist.constant(4), case_prefix="c")),
            Transition("t", delay=Dist.constant(1),
                       guard=parse_constraint("nrtokens(a) < 2")),
            Transition("skip", delay=Dist.constant(1),
                       guard=parse_constraint("nrtokens(a) >= 2")),
        ],
        flows=[("arrive", "a"), ("a", "t"), ("t", "done"), ("a", "skip"), ("skip", "done")],
        initial_marking=Marking({"a": (Token("c0", {}, 4.0),)}),
    )
    log = simulate(net, SimConfig(seed=1, max_cases=3))
    assert [(e.case_id, e.label, e.start) for e in log.events] == [
        ("c1", "skip", 0.0), ("c0", "skip", 4.0), ("c2", "skip", 4.0), ("c3", "t", 8.0),
    ]


def test_same_instant_arrivals_do_not_reevaluate_their_readers(monkeypatch):
    # 300 cases arrive at 0 and t cannot fire before its worker is free at 5;
    # evaluating t after every arrival would take 300 scans of a growing pool
    sim = importlib.import_module("dsync.simulate")
    calls, fifo_first = collections.Counter(), sim.fifo_first

    def counting(net, m, tid, clock):
        calls[clock] += 1
        return fifo_first(net, m, tid, clock)

    monkeypatch.setattr(sim, "fifo_first", counting)
    net = Net(
        places=[Place("p", "case"), Place("r", "resource"), Place("q", "case")],
        transitions=[
            Transition("src", is_task=False,
                       arrival_spec=ArrivalSpec(interarrival=Dist.constant(0))),
            Transition("t", delay=Dist.constant(1)),
        ],
        flows=[("src", "p"), ("p", "t"), ("r", "t"), ("t", "r"), ("t", "q")],
        initial_marking=Marking({"r": (Token("w1", {}, 5.0),)}),
    )
    log = simulate(net, SimConfig(seed=1, max_cases=300))
    assert [e.start for e in log.events] == [5.0 + i for i in range(300)]
    assert calls[0.0] <= 2


def test_a_delay_the_clock_absorbs_makes_its_output_available_at_once():
    # at 1e16 a delay of 0.5 rounds away, so t1's output is available at the
    # instant it fires; the clock stop pushed for it is the current clock,
    # which is dropped, so only the firing itself can make t2 read b
    net = Net(
        places=[Place("a", "case"), Place("b", "case"), Place("c", "case")],
        transitions=[Transition("t1", delay=Dist.constant(0.5)), Transition("t2")],
        flows=[("a", "t1"), ("t1", "b"), ("b", "t2"), ("t2", "c")],
        initial_marking=Marking({"a": (Token("c1", {}, 1e16),)}),
    )
    assert 1e16 + 0.5 == 1e16
    log = simulate(net, SimConfig(seed=1, max_cases=1))
    assert [(e.label, e.start) for e in log.events] == [("t1", 1e16), ("t2", 1e16)]


def test_the_last_injection_announces_the_case_before_it():
    # case 2 becomes available at 1, where case 3, the last, is injected; that
    # injection is what tells t about case 2, although case 3's own token
    # stays pending until 2
    net = Net(
        places=[Place("p", "case"), Place("q", "case")],
        transitions=[
            Transition("src", is_task=False,
                       arrival_spec=ArrivalSpec(interarrival=Dist.constant(1), max_count=3)),
            Transition("t", delay=Dist.constant(0.1)),
        ],
        flows=[("src", "p"), ("p", "t"), ("t", "q")],
    )
    log = simulate(net, SimConfig(seed=1, max_cases=10))
    assert [e.start for e in log.events] == [0.0, 1.0, 2.0]


def _ordinary(net: Net) -> list[str]:
    return sorted(tid for tid, t in net.transitions.items() if t.arrival_spec is None)


def _checked_firings(monkeypatch, net: Net, cfg: SimConfig) -> int:
    """Simulate, asserting at every ordinary firing that the fired binding is
    the smallest ``fifo_key`` over a fresh ``fifo_first`` of every ordinary
    transition, and that each fresh candidate carries its ``fifo_key``;
    returns the number of firings checked."""
    sim = importlib.import_module("dsync.simulate")
    ordinary, fire, checked = _ordinary(net), sim.fire, [0]

    def checking(net_, m, tid, y, now, delay, case=None):
        if tid in ordinary:
            fresh = [c for c in (sim.fifo_first(net_, m, t2, now) for t2 in ordinary) if c]
            assert all(key == fifo_key(net_, t2, y2, now) for key, t2, y2 in fresh)
            best = min(fresh)
            assert (tid, y) == best[1:]
            checked[0] += 1
        return fire(net_, m, tid, y, now, delay, case)

    monkeypatch.setattr(sim, "fire", checking)
    simulate(net, cfg)
    return checked[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", ["priority", "blocking", "holdbatch", "choice", "supplychain"])
def test_cached_candidates_fire_what_a_full_evaluation_fires(monkeypatch, model, seed):
    net = load_model(model_path(model))
    assert _checked_firings(monkeypatch, net, SimConfig(seed=seed, max_cases=60)) >= 30


def reader_net(guard: str) -> Net:
    """t1's guard reads p, which only t2 consumes from; t0 fills p with tokens
    that become available at t0's completion, while no other change to p
    happens, and one worker makes them queue."""
    def source(prefix, **attrs):
        spec = ArrivalSpec(Dist.exponential(1.5), attrs, case_prefix=prefix)
        return Transition(f"src_{prefix}", is_task=False, arrival_spec=spec)

    return Net(
        places=[
            Place("a", "case"), Place("q", "case", (("value", "number"),)),
            Place("p", "case", (("value", "number"),)), Place("r", "resource"),
            Place("done", "plain"),
        ],
        transitions=[
            source("a"), source("p", value=Dist.uniform(0, 100)),
            Transition("t0", delay=Dist.uniform(0.5, 2)),
            Transition("t1", delay=Dist.constant(0.3), guard=parse_constraint(guard)),
            Transition("t2", delay=Dist.uniform(1, 3)),
        ],
        flows=[
            ("src_a", "a"), ("a", "t1"), ("t1", "done"),
            ("src_p", "q"), ("q", "t0"), ("t0", "p"),
            ("p", "t2"), ("r", "t2"), ("t2", "r"), ("t2", "done"),
        ],
        initial_marking=Marking({"r": (Token("w1", {}, 0.0),)}),
    )


@pytest.mark.parametrize(
    "guard", ["nrtokensenabled(p) >= 2", "attrenabled(p, value, max) == true"]
)
def test_cached_candidates_follow_a_guard_on_a_non_preset_place(monkeypatch, guard):
    net = reader_net(guard)
    for seed in (1, 2, 3):
        assert _checked_firings(monkeypatch, net, SimConfig(seed=seed, max_cases=80)) >= 80


def chips_net() -> Net:
    """Shaped like the supply chain's ``chips``: a delayed task source puts
    each plain token there pending, and two transitions take one, of which
    only ``make_a``'s guard reads the place, pending tokens included."""
    def source(prefix):
        spec = ArrivalSpec(Dist.exponential(1.2), case_prefix=prefix)
        return Transition(f"src_{prefix}", is_task=False, arrival_spec=spec)

    chip_spec = ArrivalSpec(Dist.uniform(0.7, 1.0), case_prefix="ch")
    return Net(
        places=[Place("a", "case"), Place("b", "case"), Place("chips", "plain"),
                Place("r", "resource"), Place("done", "plain")],
        transitions=[
            source("a"), source("b"),
            Transition("chip_arrive", delay=Dist.constant(0.3), arrival_spec=chip_spec),
            Transition("make_a", delay=Dist.uniform(0.2, 0.6),
                       guard=parse_constraint("nrtokens(chips) >= 2")),
            Transition("make_b", delay=Dist.uniform(0.2, 0.6)),
        ],
        flows=[
            ("src_a", "a"), ("src_b", "b"), ("chip_arrive", "chips"),
            ("a", "make_a"), ("chips", "make_a"), ("r", "make_a"), ("make_a", "r"),
            ("make_a", "done"),
            ("b", "make_b"), ("chips", "make_b"), ("r", "make_b"), ("make_b", "r"),
            ("make_b", "done"),
        ],
        initial_marking=Marking({"r": (Token("w1", {}, 0.0),)}),
    )


def test_cached_candidates_follow_pending_tokens_of_a_shared_plain_place(monkeypatch):
    net = chips_net()
    for seed in (1, 2, 3):
        assert _checked_firings(monkeypatch, net, SimConfig(seed=seed, max_cases=80)) >= 60


def and_join_net() -> Net:
    """arrive -> split -> (left || right) -> join: an AND-join whose two case
    inputs fill in another order than their cases arrive."""
    arrive = ArrivalSpec(Dist.exponential(1.0))
    return Net(
        places=[Place(p, "case") for p in ("p", "l_in", "r_in", "l_out", "r_out", "done")],
        transitions=[
            Transition("arrive", delay=Dist.uniform(0, 1), arrival_spec=arrive),
            Transition("split", delay=Dist.uniform(0, 1)),
            Transition("left", delay=Dist.uniform(0, 2)),
            Transition("right", delay=Dist.uniform(0, 3)),
            Transition("join", delay=Dist.uniform(0, 1)),
        ],
        flows=[
            ("arrive", "p"), ("p", "split"), ("split", "l_in"), ("split", "r_in"),
            ("l_in", "left"), ("r_in", "right"), ("left", "l_out"), ("right", "r_out"),
            ("l_out", "join"), ("r_out", "join"), ("join", "done"),
        ],
    )


def test_an_and_join_joins_the_branches_of_its_own_case():
    # taking each case input's FIFO-first token on its own, 62 of these 200
    # joins started before their own case's branches completed, and the
    # guard-checked replay of the log matched 99.90%
    net = and_join_net()
    log = simulate(net, SimConfig(seed=1, max_cases=200))
    branches = collections.defaultdict(list)
    for e in log.events:
        if e.label in ("left", "right"):
            branches[e.case_id].append(e.complete)
    joins = [e for e in log.events if e.label == "join"]
    assert len(joins) == 200
    assert all(len(branches[e.case_id]) == 2 and e.start >= max(branches[e.case_id])
               for e in joins)
    _, report = replay(log, net, check_guards=True)
    assert report.unmatched == [] and report.matched == len(log.events) == 1000


def plain_queue_net() -> Net:
    """A task source puts a plain token in ``p`` per case, and ``work``, which
    has no case input, takes one with either of two workers."""
    spec = ArrivalSpec(Dist.exponential(1.0))
    return Net(
        places=[Place("p", "plain"), Place("r", "resource"), Place("done", "plain")],
        transitions=[
            Transition("arrive", delay=Dist.uniform(0, 0.5), arrival_spec=spec),
            Transition("work", delay=Dist.uniform(0.5, 3)),
        ],
        flows=[("arrive", "p"), ("p", "work"), ("r", "work"), ("work", "r"), ("work", "done")],
        initial_marking=Marking({"r": (Token("w1", {}, 0.0), Token("w2", {}, 0.0))}),
    )


@pytest.mark.parametrize("make, firings", [(and_join_net, 960), (plain_queue_net, 240)])
def test_cached_candidates_key_a_join_and_a_transition_without_case_input(
    monkeypatch, make, firings
):
    # the bundled models reach neither branch of ``fifo_first``'s key: two
    # case inputs (``join``) and none (``work``, keyed by case id "")
    net = make()
    checked = sum(_checked_firings(monkeypatch, net, SimConfig(seed=seed, max_cases=80))
                  for seed in (1, 2, 3))
    assert checked == firings


def test_fifo_first_reruns_only_for_dirty_transitions(monkeypatch, supplychain_net):
    # a round is one pick at a clock value, plus the last, empty round there;
    # re-evaluating every ordinary transition each round makes the ratio 1.0
    sim = importlib.import_module("dsync.simulate")
    free = {tid for tid, t in supplychain_net.transitions.items()
            if t.arrival_spec is not None and not t.is_task}
    calls, picks, clocks = [0], [0], set()
    fifo_first, fire = sim.fifo_first, sim.fire

    def counting_first(net, m, tid, clock):
        calls[0] += 1
        clocks.add(clock)
        return fifo_first(net, m, tid, clock)

    def counting_fire(net, m, tid, y, now, delay, case=None):
        if tid not in free:  # an injection is not a pick
            picks[0] += 1
            clocks.add(now)
        return fire(net, m, tid, y, now, delay, case)

    monkeypatch.setattr(sim, "fifo_first", counting_first)
    monkeypatch.setattr(sim, "fire", counting_fire)
    simulate(supplychain_net, SimConfig(seed=2, max_cases=200))
    # clock values where nothing was evaluated or fired are not seen, so this
    # undercounts the rounds and overstates the ratio
    rounds = picks[0] + len(clocks)
    assert calls[0] < 0.25 * len(_ordinary(supplychain_net)) * rounds
