from __future__ import annotations

from collections import Counter

import pytest

import dsync.patterns as patterns_mod
from dsync.constraints import RATIO_EPSILON, eval_feature
from dsync.eventlog import Event, Log
from dsync.extract import discover_run
from dsync.modelfile import load_model
from dsync.net import Dist, Marking, Net, Place, Token, Transition, has_enabled_binding
from dsync.patterns import (
    Observations,
    PatternCandidate,
    PatternKind,
    PTRow,
    build_pt_log,
    detect_constructs,
    features_for,
)
from dsync.replay import StateSample, replay
from dsync.simulate import SimConfig, simulate
from tests.conftest import fired_from, model_path, shown


def by_kind(candidates, kind):
    return [c for c in candidates if c.kind == kind]


def pt_log(net, c, log):
    """``c``'s pattern-transition log, observed while the log replays."""
    observations = Observations(net, log, [c])
    replay(log, net, observer=observations)
    return build_pt_log(observations, c)


def test_priority_construct_on_running_example(priority_net):
    candidates = detect_constructs(priority_net)
    priority = by_kind(candidates, PatternKind.PRIORITY)
    assert len(priority) == 1
    c = priority[0]
    assert c.t_g == "handling"
    assert c.role("queue") == "q1" and c.role("upstream") == "arrival"
    assert c.attr == "value"
    # over-generation is expected alongside the real construct
    assert any(
        c2.t_g == "handling" and c2.role("input") == "q1"
        for c2 in by_kind(candidates, PatternKind.HOLD_BATCH)
    )


def test_choice_construct(choice_net):
    candidates = by_kind(detect_constructs(choice_net), PatternKind.CHOICE)
    target = [
        c for c in candidates
        if c.t_g == "production_a" and c.role("other_input") == "stock_b"
    ]
    assert len(target) == 1
    assert target[0].role("shared") == "shared"


def test_blocking_construct_excludes_plain_sinks(holdbatch_net):
    candidates = by_kind(detect_constructs(holdbatch_net), PatternKind.BLOCKING)
    # "shipped" is a plain place, so transportation spawns no blocking candidate
    assert all(c.role("downstream") != "shipped" for c in candidates)


def test_resource_places_never_fill_roles(priority_net):
    for c in detect_constructs(priority_net):
        for _, place in c.roles:
            assert priority_net.places[place].kind != "resource"


def test_no_candidates_without_places():
    net = Net(places=[], transitions=[Transition("t", delay=Dist.constant(1))], flows=[])
    assert detect_constructs(net) == []


def looping_net() -> Net:
    """tg loops on q and also takes side; prod consumes from q and refills it;
    up and q share a text attribute."""
    return Net(
        places=[
            Place("up", "case", (("tag", "text"), ("value", "number"))),
            Place("q", "case", (("tag", "text"), ("value", "number"))),
            Place("side", "case", (("value", "number"),)),
            Place("done", "case"),
        ],
        transitions=[Transition("prod"), Transition("tg")],
        flows=[("up", "prod"), ("q", "prod"), ("prod", "q"),
               ("q", "tg"), ("side", "tg"), ("tg", "q"), ("tg", "done")],
    )


def test_priority_skips_the_guarded_transition_the_queue_and_text_attributes():
    priority = by_kind(detect_constructs(looping_net()), PatternKind.PRIORITY)
    assert priority == [
        PatternCandidate(PatternKind.PRIORITY, "prod", (("queue", "q"), ("upstream", "side")),
                         "value"),
        PatternCandidate(PatternKind.PRIORITY, "tg", (("queue", "q"), ("upstream", "up")),
                         "value"),
    ]


def extended_net(net: Net) -> Net:
    """``net`` with an island place that only a new transition consumes."""
    return Net(
        places=list(net.places.values()) + [Place("island", "case")],
        transitions=list(net.transitions.values())
        + [Transition("lonely", delay=Dist.constant(1))],
        flows=list(net.flows) + [("island", "lonely")],
        initial_marking=net.initial_marking,
    )


def test_detection_monotone_under_extension(priority_net):
    base = set(detect_constructs(priority_net))
    assert base <= set(detect_constructs(extended_net(priority_net)))


@pytest.mark.parametrize("name", [
    "blocking", "choice", "holdbatch", "priority", "supplychain", "looping", "extended",
])
def test_no_feature_place_is_unread(name):
    # a role place is a case place or a place with a consumer, never a plain
    # sink that replay leaves empty, so every marking stores what a
    # discovered constraint reads
    if name == "looping":
        net = looping_net()
    elif name == "extended":
        net = extended_net(load_model(model_path("priority")))
    else:
        net = load_model(model_path(name))
    candidates = detect_constructs(net)
    assert candidates
    assert net.unread or name == "looping"  # every other net has a plain sink
    for c in candidates:
        for f in features_for(c):
            assert not {p for p, _ in f.references()} & net.unread, (name, c.describe())


def test_feature_sets_per_kind():
    pri = PatternCandidate(
        PatternKind.PRIORITY, "t", (("queue", "q"), ("upstream", "u")), "value"
    )
    feats = features_for(pri)
    assert len(feats) == 10
    assert sum(1 for f in feats if f.kind == "ratio") == 4
    assert sum(1 for f in feats if f.kind == "attrenabled") == 2
    assert feats[4].canonical() == "ratio(attrval(u, value, max), attrval(q, value, max))"

    blk = PatternCandidate(PatternKind.BLOCKING, "t", (("downstream", "p"),))
    assert [f.canonical() for f in features_for(blk)] == ["nrtokens(p)"]

    hb = PatternCandidate(PatternKind.HOLD_BATCH, "t", (("input", "p"),))
    assert [f.canonical() for f in features_for(hb)] == [
        "nrtokensenabled(p)",
        "timeuntilnext(p)",
    ]

    cho = PatternCandidate(
        PatternKind.CHOICE, "t", (("other_input", "p"), ("shared", "s"))
    )
    assert [f.canonical() for f in features_for(cho)] == ["timeuntilnext(p)"]


def test_observation_rows_of_running_example(priority_net, table1_log):
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = pt_log(priority_net, candidate, table1_log)
    rows = {r.time: r for r in pt.rows}

    assert rows[5].label is False and rows[15].label is True and rows[22].label is True

    at5 = rows[5]
    assert at5.values[0] == 855  # upstream max
    assert at5.values[2] == 118  # queue max
    assert at5.values[4] == pytest.approx(7.25, abs=0.005)
    assert at5.values[8] is False  # queue extremum still pending


def test_rows_only_while_transition_can_fire(priority_net, table1_log):
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = pt_log(priority_net, candidate, table1_log)
    # at t=0 the queue is empty and at t=20/25 the worker is busy
    assert {r.time for r in pt.rows}.isdisjoint({0, 20, 25})


def test_never_fired_candidate_has_no_rows(priority_net, table1_log):
    ghost = PatternCandidate(PatternKind.BLOCKING, "job_arrival", (("downstream", "arrival"),))
    assert pt_log(priority_net, ghost, table1_log).rows == []


def test_repaired_samples_are_not_observed(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    assert candidate.t_g == "handling"
    times = [r.time for r in pt_log(priority_net, candidate, table1_log).rows]
    assert 5 in times and 15 in times
    # a repaired sample's marking is a guess, whether the transition fired or not
    observations = Observations(priority_net, table1_log, [candidate])
    for s in samples:
        shown(observations, s._replace(repaired=s.time in (5, 15)))
    rows = build_pt_log(observations, candidate).rows
    assert [r.time for r in rows] == [t for t in times if t not in (5, 15)]


def test_blocked_rows_respect_capacity(blocking_net, blocking_log):
    candidate = [
        c for c in detect_constructs(blocking_net)
        if c.kind == PatternKind.BLOCKING and c.t_g == "pre-processing"
    ][0]
    pt = pt_log(blocking_net, candidate, blocking_log)
    fired = [r for r in pt.rows if r.label]
    held = [r for r in pt.rows if not r.label]
    assert fired and held
    assert all(r.values[0] <= 4 for r in fired)
    assert all(r.values[0] == 5 for r in held)


def test_pt_log_csv_dump(priority_net, table1_log):
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = pt_log(priority_net, candidate, table1_log)
    text = pt.to_csv()
    header, first = text.splitlines()[:2]
    assert '"time"' in header and '"label"' in header
    assert first.startswith("5,")
    assert first.endswith("false")


def per_candidate_rows(net, c, samples):
    """The rows of ``c`` as they were built before one pass served every
    candidate: a pass over every sample per candidate, testing for an
    enabled binding in each."""
    feats = features_for(c)
    last_start = max((s.time for s in samples if c.t_g in s.fired), default=None)
    if last_start is None:
        return []
    rows = []
    for s in samples:
        if s.repaired or s.time > last_start:
            continue
        fired = c.t_g in s.fired
        marking = fired_from(s, c.t_g) if fired else s.after
        if not has_enabled_binding(net, marking, c.t_g, s.time):
            continue
        rows.append(PTRow(s.time, tuple(eval_feature(f, marking, s.time) for f in feats), fired))
    return rows


@pytest.mark.parametrize("model", ["blocking", "choice", "holdbatch", "priority", "supplychain"])
def test_observed_rows_match_the_per_candidate_pass(model):
    net = load_model(model_path(model))
    candidates = detect_constructs(net)
    for seed in (1, 2, 3):
        log = simulate(net, SimConfig(seed=seed, max_cases=150))
        samples, _ = replay(log, net)
        observations = Observations(net, log, candidates)
        replay(log, net, observer=observations)
        started = set(observations._started)
        assert started == {c.t_g for c in candidates} & {e.label for e in log.events}
        for c in candidates:
            rows = build_pt_log(observations, c).rows
            # repr pins every value's bits and type, not only its equality
            assert repr(rows) == repr(per_candidate_rows(net, c, samples)), (model, seed, c)


def test_enabledness_tested_at_most_once_per_transition_and_sample(supplychain_net, monkeypatch):
    log = simulate(supplychain_net, SimConfig(seed=1, max_cases=150))
    calls = Counter()

    def counting(net, m, t_id, now):
        calls[t_id, now] += 1
        return has_enabled_binding(net, m, t_id, now)

    monkeypatch.setattr(patterns_mod, "has_enabled_binding", counting)
    run = discover_run(log, supplychain_net)
    # several candidates share a guarded transition, and none re-tests it
    assert len({r.candidate.t_g for r in run.results}) < len(run.results)
    assert calls and max(calls.values()) == 1
    fired = {(t, s.time) for s in replay(log, supplychain_net)[0] for t in s.fired}
    assert fired.isdisjoint(calls)


def test_ratio_from_its_parts_is_eval_feature_bit_for_bit(priority_net, monkeypatch):
    c = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    q, u = c.role("queue"), c.role("upstream")

    def tokens(*values):
        return tuple(Token(f"c{i}", {"value": v}, float(i)) for i, v in enumerate(values))

    markings = [
        Marking({u: tokens(855, 12), q: tokens(118, 3)}),
        Marking({u: tokens(7)}),  # empty queue: every denominator is 0
        Marking({u: tokens(1, 2), q: tokens(0.004, 0.0099)}),  # below RATIO_EPSILON
        Marking({u: tokens(0.3), q: tokens(-2, 0.01)}),  # negative and exactly epsilon
        Marking({u: tokens(1 / 3, 2 / 7), q: tokens(0.1, 0.7)}),
    ]
    observations = [(float(i), m, bool(i % 2)) for i, m in enumerate(markings)]
    # each moment is one sample; a fired one holds a lone move of the
    # candidate's transition, and a passed-over one is observed whether or
    # not the transition has a binding there
    monkeypatch.setattr(patterns_mod, "has_enabled_binding", lambda *args: True)
    last = Event("c0", c.t_g, observations[-1][0], observations[-1][0])
    observed = Observations(priority_net, Log([last]), [c])
    inputs = [p for p, _ in priority_net.plan(c.t_g).inputs]
    for now, m, fired in observations:
        binding = {p: Token("c0", {}, now) for p in inputs}
        moves = ((Event("c0", c.t_g, now, now), binding, m),) if fired else ()
        labels = frozenset([c.t_g] if fired else [])
        shown(observed, StateSample(now, m, m, labels, moves))
    pt = build_pt_log(observed, c)
    ratios = [(i, f) for i, f in enumerate(pt.features) if f.kind == "ratio"]
    assert len(ratios) == 4
    assert min(eval_feature(f.den, markings[2], 2.0) for _, f in ratios) < RATIO_EPSILON
    for (now, m, fired), row in zip(observations, pt.rows):
        assert (row.time, row.label) == (now, fired)
        for i, f in ratios:
            assert row.values[i].hex() == eval_feature(f, m, now).hex()
