from __future__ import annotations

import pytest

from dsync.net import Dist, Net, Place, Transition
from dsync.patterns import (
    PatternCandidate,
    PatternKind,
    build_pt_log,
    detect_constructs,
    features_for,
)
from dsync.replay import replay


def by_kind(candidates, kind):
    return [c for c in candidates if c.kind == kind]


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


def test_detection_monotone_under_extension(priority_net):
    base = set(detect_constructs(priority_net))
    extended = Net(
        places=list(priority_net.places.values()) + [Place("island", "case")],
        transitions=list(priority_net.transitions.values())
        + [Transition("lonely", delay=Dist.constant(1))],
        flows=list(priority_net.flows) + [("island", "lonely")],
        initial_marking=priority_net.initial_marking,
    )
    assert base <= set(detect_constructs(extended))


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
    samples, _ = replay(table1_log, priority_net)
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = build_pt_log(priority_net, candidate, samples)
    rows = {r.time: r for r in pt.rows}

    assert rows[5].label is False and rows[15].label is True and rows[22].label is True

    at5 = rows[5]
    assert at5.values[0] == 855  # upstream max
    assert at5.values[2] == 118  # queue max
    assert at5.values[4] == pytest.approx(7.25, abs=0.005)
    assert at5.values[8] is False  # queue extremum still pending


def test_rows_only_while_transition_can_fire(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = build_pt_log(priority_net, candidate, samples)
    # at t=0 the queue is empty and at t=20/25 the worker is busy
    assert {r.time for r in pt.rows}.isdisjoint({0, 20, 25})


def test_never_fired_candidate_has_no_rows(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    ghost = PatternCandidate(PatternKind.BLOCKING, "job_arrival", (("downstream", "arrival"),))
    assert build_pt_log(priority_net, ghost, samples).rows == []


def test_blocked_rows_respect_capacity(blocking_net, blocking_log):
    samples, _ = replay(blocking_log, blocking_net)
    candidate = [
        c for c in detect_constructs(blocking_net)
        if c.kind == PatternKind.BLOCKING and c.t_g == "pre-processing"
    ][0]
    pt = build_pt_log(blocking_net, candidate, samples)
    fired = [r for r in pt.rows if r.label]
    held = [r for r in pt.rows if not r.label]
    assert fired and held
    assert all(r.values[0] <= 4 for r in fired)
    assert all(r.values[0] == 5 for r in held)


def test_pt_log_csv_dump(priority_net, table1_log):
    samples, _ = replay(table1_log, priority_net)
    candidate = by_kind(detect_constructs(priority_net), PatternKind.PRIORITY)[0]
    pt = build_pt_log(priority_net, candidate, samples)
    text = pt.to_csv()
    header, first = text.splitlines()[:2]
    assert '"time"' in header and '"label"' in header
    assert first.startswith("5,")
    assert first.endswith("false")
