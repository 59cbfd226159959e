from __future__ import annotations

import dataclasses
import importlib
from functools import lru_cache

import pytest

from dsync.constraints import parse_constraint
from dsync.errors import ReplayError
from dsync.eventlog import Event, Log, parse_log
from dsync.extract import annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.net import ArrivalSpec, Dist, Marking, Net, Place, Token, Transition
from dsync.patterns import Observations, detect_constructs, read_off_check
from dsync.replay import _best_move, replay, sim_score
from dsync.report import build_report
from dsync.simulate import SimConfig, simulate
from tests.conftest import Ends, fired_from, model_path, task_firings


def arrivals(prefix: str, gap: float) -> ArrivalSpec:
    return ArrivalSpec(interarrival=Dist.constant(gap), case_prefix=prefix)


def test_sample_times_are_distinct_starts(priority_net, table1_log):
    samples, report = replay(table1_log, priority_net)
    assert [s.time for s in samples] == [0, 5, 10, 15, 20, 22, 25, 30]
    assert report.matched == 9 and not report.unmatched


def test_fired_sets_follow_the_log(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    fired = {s.time: s.fired for s in samples}
    assert "handling" not in fired[5]
    assert fired[15] == {"handling", "pre-processing"}
    assert fired[22] == {"handling"}


def test_handling_fired_state_sees_pre_move_marking(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    s15 = [s for s in samples if s.time == 15][0]
    m = fired_from(s15, "handling")
    assert max(t.attrs["value"] for t in m.tokens("arrival")) == 801
    assert max(t.attrs["value"] for t in m.tokens("q1")) == 855


def test_passed_over_state_sees_post_move_marking(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    s5 = [s for s in samples if s.time == 5][0]
    q1_values = sorted(t.attrs["value"] for t in s5.after.tokens("q1"))
    assert q1_values == [100, 118]
    assert [t.attrs["value"] for t in s5.after.tokens("arrival")] == [855]


def test_empty_log(priority_net):
    samples, report = replay(Log([], ()), priority_net)
    assert samples == [] and report.matched == 0 and report.match_rate == 1.0


def test_unknown_label_rejected(priority_net):
    log = parse_log("case,activity,start,complete\n1,warp,0,1\n")
    with pytest.raises(ReplayError, match="warp"):
        replay(log, priority_net)


def test_empty_case_id_on_a_case_input_is_rejected(blocking_net):
    # blanked cases would match one another's tokens
    log = simulate(blocking_net, SimConfig(seed=1, max_cases=20))
    events = [e._replace(case_id="") if e.case_id in ("3", "4") else e for e in log.events]
    log = Log(events, log.schema, log.has_resource)
    for check_guards in (False, True):
        with pytest.raises(ReplayError, match="event of 'handling' has an empty case id"):
            replay(log, blocking_net, check_guards=check_guards)


def test_empty_case_id_on_a_caseless_task_is_valid():
    # the simulator writes empty case ids for tasks without case inputs
    net = Net(
        places=[Place("s", "plain")],
        transitions=[Transition("tick", delay=Dist.constant(1))],
        flows=[("s", "tick"), ("tick", "s")],
        initial_marking=Marking({"s": (Token(None, {}, 0.0),)}),
    )
    log = simulate(net, SimConfig(seed=1, horizon=5))
    assert len(log.events) > 3 and {e.case_id for e in log.events} == {""}
    _, report = replay(log, net, check_guards=True)
    assert report.matched == len(log.events)


def test_orphan_event_is_repaired_and_flagged(priority_net):
    # case 99 was never produced into q1, so handling cannot bind it
    text = (
        "case,activity,start,complete,value\n"
        "1,pre-processing,0,5,100\n"
        "99,handling,6,13,500\n"
        "1,handling,14,20,100\n"
        "2,pre-processing,30,35,200\n"
    )
    log = parse_log(text)
    samples, report = replay(log, priority_net)
    assert report.matched == 3
    assert len(report.unmatched) == 1
    event, reason = report.unmatched[0]
    assert event.case_id == "99" and reason == "no binding"
    flagged = [s for s in samples if s.time == 6][0]
    assert flagged.repaired
    # the repair stands for a handling move of case 99, which consumes from
    # q1 and produces no case token, so q1 never holds case 99
    later = [s for s in samples if s.time >= 6]
    assert [s.time for s in later] == [6, 14, 30]
    for s in later:
        for m in (s.before, s.after):
            assert all(t.case_id != "99" for t in m.tokens("q1"))


def test_repaired_orphan_lets_its_later_move_match(blocking_net):
    # case 7 never arrived, so its pre-processing is unmatched; the repair
    # puts its token into q1 at the move's completion, as the move would
    # have, so its handling matches
    text = (
        "case,activity,start,complete,resource\n"
        "1,arriving,0,1,\n"
        "1,pre-processing,1,2,\n"
        "7,pre-processing,3,4,\n"
        "1,handling,4,5,w1\n"
        "7,handling,6,7,w1\n"
    )
    samples, report = replay(parse_log(text), blocking_net)
    assert [(e.case_id, e.label, reason) for e, reason in report.unmatched] == [
        ("7", "pre-processing", "no binding")
    ]
    assert report.matched == 4
    after = {s.time: s.after for s in samples}
    assert [(t.case_id, t.available_at) for t in after[3].tokens("q1")] == [
        ("1", 2.0), ("7", 4.0)
    ]
    assert not after[3].tokens("arrival")
    assert not after[6].tokens("q1")


def test_simulated_logs_replay_clean(blocking_net, blocking_log, holdbatch_net, holdbatch_log):
    for net, log in ((blocking_net, blocking_log), (holdbatch_net, holdbatch_log)):
        _, report = replay(log, net)
        assert report.matched == len(log.events)
        assert not report.unmatched


def test_capacity_never_exceeded_at_preprocessing_starts(blocking_net, blocking_log):
    samples, _ = replay(blocking_log, blocking_net)
    for s in samples:
        if "pre-processing" in s.fired:
            assert len(fired_from(s, "pre-processing").tokens("q1")) <= 5


def test_replay_is_deterministic(priority_net, priority_log):
    a_samples, a_report = replay(priority_log, priority_net)
    b_samples, b_report = replay(priority_log, priority_net)
    assert [s.time for s in a_samples] == [s.time for s in b_samples]
    assert all(repr(x.after) == repr(y.after) for x, y in zip(a_samples, b_samples))
    assert a_report.stats == b_report.stats


def _move(net, event, q1, r1=(Token("w1", {}, 0.0),)):
    """The tokens the log move of ``event`` takes from q1 and r1 of priority's
    ``handling``, or None when it has no binding."""
    y = _best_move(net, Marking({"q1": q1, "r1": r1}), event, event.start, False)
    return y and (y["q1"], y["r1"])


def test_sim_score_case_match_is_mandatory(priority_net):
    job1, job3 = Token("1", {"value": 100}, 5.0), Token("3", {"value": 855}, 15.0)
    assert _move(priority_net, Event("3", "handling", 15, 22, None, {"value": 855}),
                 (job1, job3))[0] is job3
    assert _move(priority_net, Event("4", "handling", 15, 22), (job1, job3)) is None


def test_sim_score_resource_tiebreak(priority_net):
    job, w1, w2 = Token("3", {}, 10.0), Token("w1", {}, 0.0), Token("w2", {}, 0.0)
    assert _move(priority_net, Event("3", "handling", 15, 22, "w2"), (job,), (w1, w2))[1] is w2
    # no resource named, or one the pool does not hold: the pool's first token
    assert _move(priority_net, Event("3", "handling", 15, 22), (job,), (w1, w2))[1] is w1
    assert _move(priority_net, Event("3", "handling", 15, 22, "w9"), (job,), (w1, w2))[1] is w1


def test_sim_score_attribute_distance_breaks_ties(priority_net):
    # of the case's tokens the newest comes first, then the closest attributes
    event = Event("3", "handling", 5, 12, None, {"value": 850})
    near, far = Token("3", {"value": 855}, 4.0), Token("3", {"value": 100}, 4.0)
    older = Token("3", {"value": 850}, 3.0)
    assert _move(priority_net, event, (older, far, near))[0] is near
    assert sim_score(near, event) > max(sim_score(far, event), sim_score(older, event))
    # a text or boolean attribute is 1 away when it differs, whatever the values
    for same, other in (("gold", "silver"), (True, False)):
        event = Event("3", "handling", 5, 12, None, {"value": 850, "tag": same})
        alike = Token("3", {"value": 855, "tag": same}, 4.0)
        unlike = Token("3", {"tag": other}, 4.0)
        assert sim_score(alike, event) == (4.0, -5.0)
        assert sim_score(unlike, event) == (4.0, -1.0)
        assert _move(priority_net, event, (alike, unlike))[0] is unlike


def test_guard_checked_replay_flags_wrong_guard(blocking_net, blocking_log):
    wrong = blocking_net.with_guards(
        {"pre-processing": parse_constraint("nrtokens(q1) <= 0")}
    )
    _, report = replay(blocking_log, wrong, check_guards=True)
    assert report.unmatched
    assert any(reason == "guard not satisfied" for _, reason in report.unmatched)


def test_guard_checked_replay_accepts_true_guard(blocking_net, blocking_log):
    _, report = replay(blocking_log, blocking_net, check_guards=True)
    assert not report.unmatched


def zero_delay_chain_net() -> Net:
    """arrive -> p0 -> a -> p1 -> b -> p2 -> c -> p3, every task instantaneous."""
    return Net(
        places=[Place(f"p{i}", "case") for i in range(4)],
        transitions=[Transition("arrive", is_task=False, arrival_spec=arrivals("c", 1))]
        + [Transition(t, delay=Dist.constant(0)) for t in "abc"],
        flows=[
            ("arrive", "p0"), ("p0", "a"), ("a", "p1"),
            ("p1", "b"), ("b", "p2"), ("p2", "c"), ("c", "p3"),
        ],
    )


def test_zero_delay_chain_replays_every_move():
    # a case's a, b and c share one start time; downstream-first tries c
    # before b has produced its input, so the rounds must continue until
    # nothing more applies
    net = zero_delay_chain_net()
    log = simulate(net, SimConfig(seed=1, max_cases=3))
    assert len({(e.case_id, e.start) for e in log.events}) == 3
    samples, report = replay(log, net)
    assert (report.matched, report.total) == (9, 9)
    assert not any(s.repaired for s in samples)


def arrival_with_three_outputs_net() -> Net:
    """arrive -> pa -> a, and arrive -> pb, gate -> b: one arrival, three outputs."""
    return Net(
        places=[Place("pa", "case"), Place("pb", "case"), Place("gate", "plain")],
        transitions=[
            Transition("arrive", is_task=False, arrival_spec=arrivals("c", 2)),
            Transition("a", delay=Dist.constant(1)),
            Transition("b", delay=Dist.constant(3)),
        ],
        flows=[
            ("arrive", "pa"), ("arrive", "pb"), ("arrive", "gate"),
            ("pa", "a"), ("pb", "b"), ("gate", "b"),
        ],
    )


@pytest.mark.parametrize("check_guards", [False, True])
def test_arrival_feeds_every_output_of_its_source(check_guards):
    # an arrival is a firing of the source, so pb and gate receive tokens too,
    # not only the source's first case output
    net = arrival_with_three_outputs_net()
    log = simulate(net, SimConfig(seed=1, max_cases=5))
    assert sorted(e.label for e in log.events) == ["a"] * 5 + ["b"] * 5
    ends = Ends()  # a guard-checked replay keeps no samples
    _, report = replay(log, net, check_guards=check_guards, observer=ends)
    assert (report.matched, report.total) == (10, 10)
    assert ends.repaired and not any(ends.repaired)


def guard_closed_by_downstream_net() -> Net:
    """Unguarded tp (depth 2) refills o, which closes tg's guard (depth 1)."""
    return Net(
        places=[Place(p, "case") for p in ("a0", "p1", "o", "b0", "g")],
        transitions=[
            Transition("arrive_a", is_task=False, arrival_spec=arrivals("a", 1)),
            Transition("arrive_b", is_task=False, arrival_spec=arrivals("b", 9.5)),
            Transition("u", delay=Dist.constant(9)),
            Transition("tp", delay=Dist.constant(1)),
            Transition("tg", guard=parse_constraint("timeuntilnext(o) > 2")),
        ],
        flows=[
            ("arrive_a", "a0"), ("a0", "u"), ("u", "p1"), ("p1", "tp"), ("tp", "o"),
            ("arrive_b", "b0"), ("b0", "tg"), ("tg", "g"),
        ],
    )


def _tp_tg_log():
    net = guard_closed_by_downstream_net()
    log = simulate(net, SimConfig(seed=1, max_cases=2))
    # b2 waits from 9.5 until a1's o token is due at 10; it then fires before
    # a2's tp at 10 because its token is older
    assert {(e.case_id, e.label, e.start) for e in log.events if e.start == 10} == {
        ("b2", "tg", 10.0),
        ("a2", "tp", 10.0),
    }
    return net, log


def test_guard_checked_replay_of_simulated_log_is_complete():
    net, log = _tp_tg_log()
    _, report = replay(log, net, check_guards=True)
    assert (report.matched, report.total) == (6, 6)


def test_downstream_first_alone_misses_the_simulated_order(monkeypatch):
    # one downstream-first pass, with no retry: tp applies first at 10 and
    # closes tg's guard
    net, log = _tp_tg_log()
    # the package's ``replay`` attribute is the function, so fetch the module
    module = importlib.import_module("dsync.replay")

    def first_pass(net, marking, events, tau, check_guards, see=None):
        ordered = sorted(events, key=lambda e: -net.plan(e.label).depth)
        return module._descend(net, marking, ordered, tau, check_guards, see)

    monkeypatch.setattr(module, "_walk", first_pass)
    _, report = replay(log, net, check_guards=True)
    assert (report.matched, report.total) == (5, 6)
    assert [(e.label, reason) for e, reason in report.unmatched] == [
        ("tg", "guard not satisfied")
    ]


@pytest.mark.parametrize("limit, matched", [(2, 6), (1, 5)])
def test_a_group_of_exactly_max_search_group_moves_is_searched(monkeypatch, limit, matched):
    # the group at t=10 holds two moves; with no size limit on the group,
    # only a limit of at least two passes over it (the retry) finds the order
    # in which tg matches
    net, log = _tp_tg_log()
    module = importlib.import_module("dsync.replay")
    walk, descend = module._walk, module._descend
    passes = 0

    def counted_walk(*args):
        nonlocal passes
        passes = 0
        return walk(*args)

    def limited_descend(net, marking, events, tau, check_guards, see=None):
        nonlocal passes
        passes += 1
        if passes > limit:  # a pass beyond the limit matches nothing
            return [], list(events)
        return descend(net, marking, events, tau, check_guards, see)

    monkeypatch.setattr(module, "_walk", counted_walk)
    monkeypatch.setattr(module, "_descend", limited_descend)
    _, report = replay(log, net, check_guards=True)
    assert (report.matched, report.total) == (matched, 6)
    if limit == 1:
        assert [(e.label, reason) for e, reason in report.unmatched] == [
            ("tg", "guard not satisfied")
        ]


def test_retry_puts_the_unmatched_moves_of_a_ten_move_group_first(monkeypatch):
    # tp (downstream of u) refills o, which closes tg's guard: downstream-first
    # matches only the five tp moves, the retry puts the five tg moves first
    net = Net(
        places=[Place(p, "case") for p in ("a0", "p1", "o", "b0", "g")],
        transitions=[
            Transition("u"),
            Transition("tp"),
            Transition("tg", guard=parse_constraint("nrtokens(o) < 1")),
        ],
        flows=[("a0", "u"), ("u", "p1"), ("p1", "tp"), ("tp", "o"), ("b0", "tg"), ("tg", "g")],
        initial_marking=Marking({
            "p1": tuple(Token(f"a{i}", {}, 0.0) for i in range(1, 6)),
            "b0": tuple(Token(f"b{i}", {}, 0.0) for i in range(1, 6)),
        }),
    )
    log = Log(
        [Event(f"a{i}", "tp", 0.0, 1.0) for i in range(1, 6)]
        + [Event(f"b{i}", "tg", 0.0, 0.0) for i in range(1, 6)]
    )
    # a guard-checked replay shows no moves, so take the walk's
    module = importlib.import_module("dsync.replay")
    walk, walked = module._walk, []

    def recorded(*args):
        moves, pending = walk(*args)
        walked.append(moves)
        return moves, pending

    monkeypatch.setattr(module, "_walk", recorded)
    _, report = replay(log, net, check_guards=True)
    assert (report.matched, report.total) == (10, 10)
    assert [e.label for e, _ in walked[0]] == ["tg"] * 5 + ["tp"] * 5


def test_a_group_no_order_matches_costs_two_passes(monkeypatch):
    # eight same-instant t moves but room for only seven: no order matches
    # them all, and an exhaustive search would try over 100,000 moves
    net = Net(
        places=[Place("in", "case"), Place("out", "case")],
        transitions=[Transition("t", guard=parse_constraint("nrtokens(out) < 7"))],
        flows=[("in", "t"), ("t", "out")],
        initial_marking=Marking(
            {"in": tuple(Token(f"c{i}", {}, 0.0) for i in range(1, 9))}
        ),
    )
    log = Log([Event(f"c{i}", "t", 0.0, 1.0) for i in range(1, 9)])
    module = importlib.import_module("dsync.replay")
    calls = 0
    best_move = module._best_move

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return best_move(*args, **kwargs)

    monkeypatch.setattr(module, "_best_move", counted)
    _, report = replay(log, net, check_guards=True)
    assert (report.matched, len(report.unmatched)) == (7, 1)
    # the retry (c8 first) leaves c7 unmatched, so the first pass stands
    assert [e.case_id for e, _ in report.unmatched] == ["c8"]
    # two passes of 7 matched moves and 1 dead end each, and the unmatched
    # move's reason
    assert calls <= 8 + 8 + 1


def test_a_failed_retry_leaves_the_first_pass_standing():
    # seven cap tokens for eight same-instant moves: the first pass leaves c8
    # unmatched, the retry (c8 first) leaves c7; each matched move puts a done
    # token at its completion, c_i at i, so the two passes' markings differ.
    # The report and marking were taken from the replay that returned a new
    # marking per move.
    net = Net(
        places=[Place("in", "case"), Place("cap", "plain"), Place("out", "case"),
                Place("done", "plain")],
        transitions=[Transition("t", guard=parse_constraint("nrtokens(done) < 100"))],
        flows=[("in", "t"), ("cap", "t"), ("t", "out"), ("t", "done")],
        initial_marking=Marking({
            "in": tuple(Token(f"c{i}", {}, 0.0) for i in range(1, 9)),
            "cap": (Token(None, {}, 0.0),) * 7,
        }),
    )
    log = Log([Event(f"c{i}", "t", 0.0, float(i)) for i in range(1, 9)])
    ends = Ends()
    _, report = replay(log, net, check_guards=True, observer=ends)
    assert report.matched == 7
    assert [(e.case_id, reason) for e, reason in report.unmatched] == [("c8", "no binding")]
    assert report.stats == {"events": 8.0, "match_rate": 0.875, "mean_start_gap": 0.0}
    assert ends.markings == [{
        "cap": [],
        "done": [(None, float(i)) for i in range(1, 8)],
        "in": [],
        "out": [(f"c{i}", float(i)) for i in range(1, 9)],  # c8's by its repair
    }]


@pytest.mark.parametrize("check_guards", [False, True])
def test_large_same_instant_group_replays_every_move(check_guards):
    # 1,500 moves share one start time; a walk that recursed once per applied
    # move would run out of stack
    n = 1500
    net = Net(
        places=[Place("in", "case"), Place("out", "case")],
        transitions=[Transition("t")],
        flows=[("in", "t"), ("t", "out")],
        initial_marking=Marking(
            {"in": tuple(Token(f"c{i}", {}, 0.0) for i in range(1, n + 1))}
        ),
    )
    log = Log([Event(f"c{i}", "t", 0.0, 1.0) for i in range(1, n + 1)])
    try:
        _, report = replay(log, net, check_guards=check_guards)
    except RecursionError:  # failed outside: pytest takes minutes to report 1,000 frames
        report = None
    assert report is not None, "replay recursed once per same-instant move"
    assert (report.matched, report.total) == (n, n)


def test_samples_keep_every_applied_move(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    s15 = [s for s in samples if s.time == 15][0]
    # downstream first: handling applies to the state before the timestamp,
    # pre-processing to the state handling left
    assert [e.label for e, _, _ in s15.moves] == ["handling", "pre-processing"]
    assert s15.moves[0][2] is s15.before
    assert {t: fired_from(s15, t) for t in s15.fired} == {e.label: m for e, _, m in s15.moves}
    assert sum(len(s.moves) for s in samples) == 9


@lru_cache(maxsize=None)
def _simulated(model: str, cases: int, seed: int) -> tuple[Net, Log]:
    net = load_model(model_path(model))
    return net, simulate(net, SimConfig(seed=seed, max_cases=cases))


# the five bundled models at 300 cases (the supply chain at 150) for seeds
# 1-3, and supply chain seed 6, whose discovered guards reject 118 moves
READ_OFF_INPUTS = [
    (model, 150 if model == "supplychain" else 300, seed)
    for model in ("blocking", "choice", "holdbatch", "priority", "supplychain")
    for seed in (1, 2, 3)
] + [("supplychain", 150, 6)]


@pytest.mark.parametrize("model, cases, seed", READ_OFF_INPUTS)
def test_read_off_check_equals_the_guard_checked_replay(model, cases, seed):
    net, log = _simulated(model, cases, seed)
    run = discover_run(log, net)
    annotated = annotate_net(net.without_guards(), run.constraints)
    _, check = replay(log, annotated, check_guards=True)
    if (model, seed) == ("supplychain", 6):
        assert run.check is None
        assert (check.matched, len(check.unmatched)) == (2380, 118)
    else:
        assert run.check is not None
        assert (run.check.matched, run.check.unmatched, run.check.stats) == (
            check.matched, check.unmatched, check.stats
        )


def _observed(net: Net, log: Log) -> tuple[Observations, object]:
    """An unguarded replay observed as ``discover_run`` observes it, and its report."""
    observations = Observations(net, log, detect_constructs(net))
    return observations, replay(log, net, observer=observations)[1]


def test_read_off_check_declines_a_tightened_guard():
    net, log = _simulated("blocking", 300, 1)
    observations, report = _observed(net, log)
    # the discovered guard, then the same with a smaller constant
    (found,) = discover_run(log, net).constraints
    assert found.expr == parse_constraint("nrtokens(q1) <= 4.5")
    tight = dataclasses.replace(found, expr=parse_constraint("nrtokens(q1) <= 2.5"))
    assert read_off_check(observations, report, [found]) is not None
    assert read_off_check(observations, report, [tight]) is None
    assert replay(log, annotate_net(net.without_guards(), [tight]), check_guards=True)[1].unmatched


def test_read_off_check_declines_a_replay_with_unmatched_moves(blocking_net):
    text = (
        "case,activity,start,complete,resource\n"
        "1,arriving,0,1,\n"
        "1,pre-processing,1,2,\n"
        "7,pre-processing,3,4,\n"
    )
    observations, report = _observed(blocking_net, parse_log(text))
    assert read_off_check(observations, report, []) is None


@pytest.mark.parametrize("model, cases, seed, calls", [
    ("blocking", 300, 1, 1),
    ("supplychain", 150, 6, 2),
])
def test_discovery_and_its_report_replay_once_unless_guards_reject_moves(
    monkeypatch, model, cases, seed, calls
):
    net, log = _simulated(model, cases, seed)
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return replay(*args, **kwargs)

    for module in ("dsync.extract", "dsync.report"):
        monkeypatch.setattr(importlib.import_module(module), "replay", counted)
    build_report(discover_run(log, net), net, log)
    assert count == calls


# per bundled model, over its logs of seeds 1-3 at 300 cases: the task
# firings, those whose marking differs between the simulator and the
# guard-checked replay of the log over the same net, and those whose binding
# differs. Replay cannot know when a case arrived before its first event
# (priority's ``arrival``), and it orders same-instant moves downstream-first,
# where the simulator may have fired upstream first (supply chain).
FIDELITY = {
    "blocking": (2700, 0, 0),
    "choice": (4875, 0, 0),
    "holdbatch": (1791, 33, 0),
    "priority": (1800, 1052, 518),
    "supplychain": (9294, 2645, 453),
}


@pytest.mark.parametrize("model", sorted(FIDELITY))
def test_replayed_states_differ_from_the_simulated_ones_as_pinned(model):
    net = load_model(model_path(model))
    firings = markings = bindings = 0
    for seed in (1, 2, 3):
        config = SimConfig(seed=seed, max_cases=300)
        simulated, log = task_firings("dsync.simulate", lambda: simulate(net, config))
        replayed, (_, report) = task_firings(
            "dsync.replay", lambda: replay(log, net, check_guards=True)
        )
        assert not report.unmatched and replayed.keys() == simulated.keys()
        for key, (marking, binding) in simulated.items():
            firings += 1
            markings += marking != replayed[key][0]
            bindings += binding != replayed[key][1]
            # a binding may differ in a token's availability, never in its case
            cases = {p: case for p, (case, _) in binding.items()}
            assert cases == {p: case for p, (case, _) in replayed[key][1].items()}, key
    assert (firings, markings, bindings) == FIDELITY[model]
