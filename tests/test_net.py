from __future__ import annotations

import gc
import importlib
import inspect
import itertools
import random
import sys
from bisect import bisect_left, bisect_right

import pytest

from tests.conftest import fifo_key, model_path
import dsync.extract as extract_mod
import dsync.net as net_mod
from dsync.acyclic import acyclic
from dsync.constraints import parse_constraint
from dsync.errors import ModelError, ReplayError, SimulationError
from dsync.eventlog import Event, Log, parse_log, write_log
from dsync.extract import annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.net import (
    ArrivalSpec,
    Dist,
    Marking,
    Net,
    Place,
    Token,
    Transition,
    _enabled_tokens,
    enabled_bindings,
    fire,
    has_enabled_binding,
    validate_net,
)
from dsync.replay import _best_move, replay
from dsync.simulate import SimConfig, fifo_first, simulate


def fig1_net() -> Net:
    """Arrival/queue/worker net of the running example, without guards."""
    return Net(
        places=[
            Place("arrival", "case", (("value", "number"),)),
            Place("q1", "case", (("value", "number"),)),
            Place("done", "case", (("value", "number"),)),
            Place("r1", "resource"),
        ],
        transitions=[
            Transition("pre-processing", delay=Dist.constant(5)),
            Transition("handling", delay=Dist.constant(7)),
        ],
        flows=[
            ("arrival", "pre-processing"),
            ("pre-processing", "q1"),
            ("q1", "handling"),
            ("r1", "handling"),
            ("handling", "done"),
            ("handling", "r1"),
        ],
    )


def fig1_marking() -> Marking:
    m = Marking()
    m = m.with_added("arrival", Token("3", {"value": 855}, 10.0))
    m = m.with_added("q1", Token("1", {"value": 100}, 5.0))
    m = m.with_added("q1", Token("2", {"value": 118}, 10.0))
    m = m.with_added("r1", Token("w1", {}, 0.0))
    return m


def test_preset_of_handling():
    net = fig1_net()
    assert net.preset["handling"] == ("q1", "r1")


def test_preset_empty_for_node_without_inflows():
    net = fig1_net()
    assert net.preset["arrival"] == ()


def test_enabled_bindings_pairs_worker_with_each_job():
    net, m = fig1_net(), fig1_marking()
    bindings = enabled_bindings(net, m, "handling", now=20.0)
    assert len(bindings) == 2
    assert [y["q1"].case_id for y in bindings] == ["1", "2"]
    assert all(y["r1"].case_id == "w1" for y in bindings)


def test_enabled_bindings_empty_marking():
    assert enabled_bindings(fig1_net(), Marking(), "handling", 100.0) == []


def test_enabled_bindings_respects_token_time():
    net, m = fig1_net(), fig1_marking()
    # at time 7 only job 1 is available in q1
    bindings = enabled_bindings(net, m, "handling", now=7.0)
    assert [y["q1"].case_id for y in bindings] == ["1"]


def test_enabled_bindings_singleton_product():
    net, m = fig1_net(), fig1_marking()
    assert len(enabled_bindings(net, m, "pre-processing", now=10.0)) == 1


def test_fire_moves_job_and_returns_worker():
    net, m = fig1_net(), fig1_marking()
    y = enabled_bindings(net, m, "handling", now=15.0)[0]
    assert y["q1"].case_id == "1"
    out = fire(net, m, "handling", y, now=15.0, delay=7.0, case=(y["q1"].case_id, y["q1"].attrs))
    assert [t.case_id for t in out.tokens("q1")] == ["2"]
    worker = out.tokens("r1")[0]
    assert worker.case_id == "w1" and worker.available_at == 22.0
    produced = out.tokens("done")[0]
    assert produced.case_id == "1" and produced.attrs["value"] == 100
    # the input marking is untouched
    assert len(m.tokens("q1")) == 2 and m.tokens("r1")[0].available_at == 0.0


def test_fire_zero_delay_token_available_now():
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t", delay=Dist.constant(0))],
        flows=[("a", "t"), ("t", "b")],
    )
    m = Marking().with_added("a", Token("c1", {}, 1.0))
    out = fire(net, m, "t", {"a": m.tokens("a")[0]}, now=4.0, delay=0.0, case=("c1", {}))
    assert out.tokens("b")[0].available_at == 4.0


def test_fire_preserves_token_count_on_matched_roles():
    net, m = fig1_net(), fig1_marking()
    y = enabled_bindings(net, m, "handling", now=15.0)[0]
    out = fire(net, m, "handling", y, now=15.0, delay=7.0, case=(y["q1"].case_id, y["q1"].attrs))
    assert out.total_tokens() == m.total_tokens()


def test_fire_missing_token_rejected():
    net, m = fig1_net(), fig1_marking()
    ghost = Token("9", {"value": 1.0}, 0.0)
    with pytest.raises(ModelError):
        fire(net, m, "handling", {"q1": ghost, "r1": m.tokens("r1")[0]}, now=20.0, delay=7.0)


def test_validate_clean_net():
    assert validate_net(fig1_net()) == []


def test_validate_place_to_place_flow():
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t")],
        flows=[("a", "b"), ("a", "t"), ("t", "b")],
    )
    problems = validate_net(net)
    assert any("bipartite" in p for p in problems)


def test_validate_arrival_spec_with_preset():
    spec = ArrivalSpec(interarrival=Dist.constant(1))
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t", arrival_spec=spec)],
        flows=[("a", "t"), ("t", "b")],
    )
    problems = validate_net(net)
    assert any("nonempty preset" in p for p in problems)


def test_validate_source_feeding_resource_place():
    spec = ArrivalSpec(interarrival=Dist.constant(1))
    net = Net(
        places=[Place("r", "resource"), Place("b", "case")],
        transitions=[Transition("arrive", arrival_spec=spec)],
        flows=[("arrive", "r"), ("arrive", "b")],
    )
    assert "source 'arrive' cannot feed resource place 'r'" in validate_net(net)


def test_validate_resource_place_attributes():
    net = Net(
        places=[Place("r", "resource", (("x", "number"),)), Place("b", "case")],
        transitions=[Transition("t")],
        flows=[("r", "t"), ("t", "b")],
    )
    assert any("must not declare attributes" in p for p in validate_net(net))


def test_validate_bad_delay_and_unknown_flow():
    net = Net(
        places=[Place("a", "case")],
        transitions=[Transition("t", delay=Dist.uniform(3, 1))],
        flows=[("a", "t"), ("t", "ghost")],
    )
    problems = validate_net(net)
    assert any("inverted" in p for p in problems)
    assert any("unknown node" in p for p in problems)


def test_validate_initial_token_attributes_of_another_type():
    # a bool is no number and a number no text, as for generators and log columns
    place = Place("a", "case", (("v", "number"), ("w", "text"), ("b", "boolean")))
    net = Net(
        places=[place],
        transitions=[Transition("t")],
        flows=[("a", "t")],
        initial_marking=Marking({"a": [Token("c1", {"v": True, "w": 5.0, "b": 1.0}, 0.0)]}),
    )
    assert validate_net(net) == [
        "initial token in 'a': attribute 'v' should be number, found True",
        "initial token in 'a': attribute 'w' should be text, found 5.0",
        "initial token in 'a': attribute 'b' should be boolean, found 1.0",
    ]
    typed = Marking({"a": [Token("c1", {"v": 2.0, "w": "x", "b": False}, 0.0)]})
    assert validate_net(Net([place], [Transition("t")], [("a", "t")], typed)) == []


def two_sources_net(p: str, q: str, initial: Marking | None = None) -> Net:
    """Two non-task sources with case prefixes ``p`` and ``q`` feeding one place."""
    def source(tid, prefix):
        return Transition(tid, is_task=False,
                          arrival_spec=ArrivalSpec(Dist.constant(1), case_prefix=prefix))

    return Net(
        places=[Place("a", "case"), Place("b", "case"), Place("r", "resource")],
        transitions=[source("src_p", p), source("src_q", q), Transition("t")],
        flows=[("src_p", "a"), ("src_q", "a"), ("a", "t"), ("r", "t"), ("t", "r"), ("t", "b")],
        initial_marking=initial,
    )


@pytest.mark.parametrize("p, q", [("c", "c"), ("a", "a1"), ("", "7")])
def test_validate_two_sources_that_can_give_one_case_id(p, q):
    # a source's n-th case is its prefix followed by n: both c's give c1, a's
    # 11th case and a1's first are both a11, and "" gives 71 as 7 gives 71
    net = two_sources_net(p, q)
    problem = f"sources 'src_p' and 'src_q' can give two cases the same id (prefixes {p!r}, {q!r})"
    assert validate_net(net) == [problem]
    with pytest.raises(SimulationError, match="'src_p' and 'src_q'"):
        simulate(net, SimConfig(seed=1, max_cases=20))


@pytest.mark.parametrize("p, q", [("a", "b"), ("a", "a0"), ("a", "ab")])
def test_validate_two_sources_whose_case_ids_differ(p, q):
    # a count has no leading zero and only digits, so a0 and ab give no id a gives
    net = two_sources_net(p, q, Marking({"r": [Token("w1", {}, 0.0)]}))
    assert validate_net(net) == []
    log = simulate(net, SimConfig(seed=1, max_cases=20))
    assert len({e.case_id for e in log.events}) == len(log.events) == 40


def test_validate_an_initial_case_token_with_an_id_a_source_gives():
    # c0 and c01 have a leading zero, and a resource token holds no case
    initial = Marking({"a": [Token("c12", {}, 0.0), Token("c0", {}, 0.0), Token("c01", {}, 0.0)],
                       "r": [Token("c3", {}, 0.0)]})
    assert validate_net(two_sources_net("c", "x", initial)) == [
        "initial token in 'a': case id 'c12' is one source 'src_p' gives",
    ]


@pytest.mark.parametrize("value, typ", [("1", "number"), ("TRUE", "boolean"),
                                        ("nan", "number"), (" 3", "number"),
                                        (" true ", "boolean"), ("", "no value"),
                                        ("\t", "no value"), (" x", "'x'"), ("x ", "'x'")])
def test_validate_a_text_value_a_log_reads_back_as_another_type(value, typ):
    # written to a log, such a value makes its column another type, and the
    # model's own log then fails its replay; parse_log strips each cell and
    # reads an empty one as no value, so a padded or empty value would come
    # back as another text or as no attribute at all
    spec = ArrivalSpec(Dist.constant(1), {"w": Dist("choice", values=(value, "x"))})
    net = Net(
        places=[Place("a", "case", (("w", "text"),)), Place("b", "case", (("w", "text"),))],
        transitions=[Transition("arrive", arrival_spec=spec), Transition("t")],
        flows=[("arrive", "a"), ("a", "t"), ("t", "b")],
        initial_marking=Marking({"a": [Token("c0", {"w": value}, 0.0)]}),
    )
    problem = f"text value {value!r} reads back from a log as {typ}"
    assert validate_net(net) == [
        f"transition 'arrive' attribute 'w': {problem}",
        f"initial token in 'a': attribute 'w': {problem}",
    ]
    texts = Dist("choice", values=("1a", "true1", "x"))
    net = Net(list(net.places.values()),
              [Transition("arrive", arrival_spec=ArrivalSpec(Dist.constant(1), {"w": texts})),
               Transition("t")], list(net.flows))
    assert validate_net(net) == []
    log = parse_log(write_log(simulate(net, SimConfig(seed=1, max_cases=30))))
    assert log.schema == (("w", "text"),)
    assert replay(log, net, check_guards=True)[1].matched == 60


@pytest.mark.parametrize("guard, problems", [
    ("attrval(a, w, max) <= 1", ["attrval of text attribute 'w' of place 'a'"]),
    ("nrtokens(a) < 3 and attrval(a, w, min) > 0",
     ["attrval of text attribute 'w' of place 'a'"]),
    ("ratio(attrval(a, v, max), attrval(a, w, min)) <= 1",
     ["attrval of text attribute 'w' of place 'a'"]),
    ("ratio(attrval(a, w, max), attrval(a, w, min)) <= 1",
     ["attrval of text attribute 'w' of place 'a'"] * 2),
    # a number, and the extremum of a text attribute, which compares as text
    ("attrval(a, v, max) <= 1 and attrenabled(a, w, max) == true", []),
])
def test_validate_attrval_of_a_text_attribute(guard, problems):
    # attrval reads its extremum as a number, which a text value is not
    net = Net(
        places=[Place("a", "case", (("v", "number"), ("w", "text"))), Place("b", "case")],
        transitions=[Transition("t", guard=parse_constraint(guard))],
        flows=[("a", "t"), ("t", "b")],
    )
    assert validate_net(net) == [f"guard of 't' takes {p}" for p in problems]


def test_duplicate_node_ids_are_rejected():
    # a dict keyed by id would keep only the last place or transition
    with pytest.raises(ModelError, match="duplicate place id 'a'"):
        Net([Place("a", "case"), Place("a", "plain")], [Transition("t")], [("a", "t")])
    with pytest.raises(ModelError, match="duplicate transition id 't'"):
        Net([Place("a", "case")], [Transition("t"), Transition("t", is_task=False)], [])


@pytest.mark.parametrize("column", ["case", "activity", "start", "complete", "resource"])
def test_validate_attributes_named_after_a_log_column(column):
    # the log would carry the attribute in a second column of that name
    spec = ArrivalSpec(Dist.constant(1), {column: Dist.constant(1.0)})
    net = Net(
        places=[Place("a", "case", ((column, "number"),)), Place("b", "case")],
        transitions=[Transition("arrive", arrival_spec=spec), Transition("t")],
        flows=[("arrive", "a"), ("a", "t"), ("t", "b")],
    )
    assert validate_net(net) == [
        f"place 'a' attribute {column!r} is named after a log column",
        f"transition 'arrive' attribute {column!r}: is named after a log column",
    ]


def test_validate_place_and_transition_sharing_an_id():
    net = Net(
        places=[Place("a", "case"), Place("x", "case")],
        transitions=[Transition("x")],
        flows=[("a", "x")],
    )
    assert "id 'x' used by both a place and a transition" in validate_net(net)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make",
    [
        Dist.constant,
        lambda v: Dist.uniform(v, 1.0),
        lambda v: Dist.uniform(0.0, v),
        Dist.exponential,
    ],
    ids=["constant", "uniform-lo", "uniform-hi", "exponential"],
)
def test_validate_non_finite_delay(make, value):
    spec = make(value)
    net = Net(
        places=[Place("a", "case")],
        transitions=[Transition("t", delay=spec)],
        flows=[("a", "t")],
    )
    assert validate_net(net) == [f"transition 't': {spec.kind} delay parameters must be finite"]


def _source_net(gen: Dist, delay: Dist = Dist.constant(0)) -> Net:
    """A non-task source generating attribute ``v`` of case place ``a``."""
    return Net(
        places=[Place("a", "case", (("v", "number"),))],
        transitions=[
            Transition("src", is_task=False,
                       arrival_spec=ArrivalSpec(Dist.constant(1), {"v": gen})),
            Transition("t", delay=delay),
        ],
        flows=[("src", "a"), ("a", "t")],
    )


def test_each_role_takes_its_own_distribution_kinds():
    assert validate_net(_source_net(Dist("uniform_int", lo=1, hi=5))) == []
    assert validate_net(_source_net(Dist("exponential", mean=1))) == [
        "transition 'src' attribute 'v': unknown attribute generator kind 'exponential'"
    ]
    assert validate_net(_source_net(Dist.constant(1), Dist("uniform_int", lo=1, hi=2))) == [
        "transition 't': unknown delay kind 'uniform_int'"
    ]


def test_attribute_generators_may_be_negative_but_not_inverted_or_non_finite():
    assert validate_net(_source_net(Dist.uniform(-5, -1))) == []
    assert validate_net(_source_net(Dist.constant(-3))) == []
    assert validate_net(_source_net(Dist("uniform_int", lo=2, hi=1))) == [
        "transition 'src' attribute 'v': uniform_int attribute generator bounds are inverted"
    ]
    assert validate_net(_source_net(Dist.uniform(-1e308, 1e308))) == [
        "transition 'src' attribute 'v': uniform attribute generator bounds are too far apart"
    ]
    assert validate_net(_source_net(Dist.uniform(0, float("inf")))) == [
        "transition 'src' attribute 'v': uniform attribute generator parameters must be finite"
    ]
    assert validate_net(_source_net(Dist.constant(float("nan")))) == [
        "transition 'src' attribute 'v': constant attribute generator values must be "
        "finite numbers, bools or text, at least one"
    ]


def test_choice_weights_must_fit_the_values():
    assert validate_net(_source_net(Dist("choice", values=(1, 2), weights=(0, 3)))) == []
    too_large = Dist("choice", values=(1, 2), weights=(1e308, 1e308))
    assert validate_net(_source_net(too_large)) == [
        "transition 'src' attribute 'v': choice attribute generator weights must be finite, "
        "non-negative and not all zero"
    ]


def test_validate_initial_marking_conformance():
    net = Net(
        places=[Place("a", "case", (("v", "number"),)), Place("b", "case")],
        transitions=[Transition("t")],
        flows=[("a", "t"), ("t", "b")],
        initial_marking=Marking().with_added("a", Token(None, {"w": "x"}, 0.0)),
    )
    problems = validate_net(net)
    assert any("no identifier" in p for p in problems)
    assert any("not declared" in p for p in problems)


def test_delay_sampling_is_deterministic_per_stream():
    import random

    spec = Dist.uniform(1, 3)
    a = [spec.sample(random.Random(7)) for _ in range(5)]
    b = [spec.sample(random.Random(7)) for _ in range(5)]
    assert a == b


def test_flow_depth_orders_downstream_deeper():
    net = fig1_net()
    assert net.plan("handling").depth > net.plan("pre-processing").depth


def case_cycle_net() -> Net:
    """src -> t1 -> p -> t2 -> q -> t1: case flow with a cycle."""
    return Net(
        places=[Place("src", "case"), Place("p", "case"), Place("q", "case")],
        transitions=[Transition("t1"), Transition("t2")],
        flows=[("src", "t1"), ("t1", "p"), ("p", "t2"), ("t2", "q"), ("q", "t1")],
    )


def test_flow_depth_on_case_cycle_ignores_query_order():
    forward, backward = case_cycle_net(), case_cycle_net()
    asked_t1_first = {t: forward.plan(t).depth for t in ("t1", "t2")}
    asked_t2_first = {t: backward.plan(t).depth for t in ("t2", "t1")}
    assert asked_t1_first == asked_t2_first == {"t1": 2, "t2": 2}


def test_flow_depth_of_an_unknown_transition_raises():
    net = fig1_net()
    for node in ("ghost", "q1"):  # no node, a place
        with pytest.raises(ModelError, match=f"unknown transition '{node}'"):
            net.plan(node)


# the inputs of the reference-cycle check: every bundled model, and supply
# chain 150 cases seed 6, whose discovered guards need a guard-checked replay
# of their own (the report's fallback path)
ACYCLIC_INPUTS = [
    ("blocking", 1, 300),
    ("choice", 1, 150),
    ("holdbatch", 1, 150),
    ("priority", 1, 150),
    ("supplychain", 1, 150),
    ("supplychain", 6, 150),
]


def test_simulate_and_replay_leave_no_reference_cycles():
    # simulate, parse_log, replay and discover_run run with the cyclic
    # collector paused (``dsync.acyclic``), which is safe only while they build
    # no reference cycle: a cycle would be garbage that only a collection
    # frees, and the pause would let it pile up
    def cycles_left(call):
        gc.collect()
        result = call()
        return result, gc.collect()

    gc.collect()
    gc.disable()
    try:
        for model, seed, cases in ACYCLIC_INPUTS:
            net = load_model(model_path(model))
            log, left = cycles_left(lambda: simulate(net, SimConfig(seed=seed, max_cases=cases)))
            assert left == 0, (model, seed, "simulate")
            parsed, left = cycles_left(lambda: parse_log(write_log(log)))
            assert left == 0, (model, seed, "parse_log")
            run, left = cycles_left(lambda: discover_run(parsed, net))
            assert left == 0, (model, seed, "discover_run")
            _, left = cycles_left(lambda: replay(parsed, net))
            assert left == 0, (model, seed, "replay")
            annotated = annotate_net(net.without_guards(), run.constraints)
            _, left = cycles_left(lambda: replay(parsed, annotated, check_guards=True))
            assert left == 0, (model, seed, "guard-checked replay")
            if (model, seed) == ("supplychain", 6):
                assert run.check is None
    finally:
        gc.enable()


def test_acyclic_calls_restore_the_collector_state(blocking_net, monkeypatch):
    log = simulate(blocking_net, SimConfig(seed=1, max_cases=20))
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.append(gc.isenabled())
            return fn(*args, **kwargs)
        return wrapper

    # replay returns inside discover_run before it builds pattern-transition logs
    monkeypatch.setattr(extract_mod, "build_pt_log", spy(extract_mod.build_pt_log))
    was = gc.isenabled()
    try:
        gc.enable()
        acyclic(spy(lambda: None))()
        assert seen == [False] and gc.isenabled()
        # nested: the inner replay leaves the collector to discover_run
        seen.clear()
        discover_run(log, blocking_net)
        assert seen and not any(seen) and gc.isenabled()
        # a call that raises restores the state too
        with pytest.raises(ReplayError):
            replay(Log([Event("c1", "ghost", 0.0, 1.0)]), blocking_net)
        assert gc.isenabled()
        # a collector the caller disabled stays disabled
        gc.disable()
        seen.clear()
        replay(log, blocking_net)
        acyclic(spy(lambda: None))()
        assert seen == [False] and not gc.isenabled()
        with pytest.raises(ReplayError):
            replay(Log([Event("c1", "ghost", 0.0, 1.0)]), blocking_net)
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_starts_inside_a_replay(blocking_net):
    # collections are counted only while a replay frame is on the stack, so
    # the one deferred to the first allocation after the call is left out
    log = simulate(blocking_net, SimConfig(seed=1, max_cases=300))
    code = inspect.unwrap(replay).__code__
    inside = []

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            inside.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        replay(log, blocking_net)
    finally:
        gc.callbacks.remove(count)
    assert inside == []


def test_preset_of_bundled_multi_pattern_model(supplychain_net):
    flows = supplychain_net.flows
    expected = tuple(sorted(src for src, tgt in flows if tgt == "production_game"))
    assert supplychain_net.preset["production_game"] == expected
    assert expected == ("chips", "stock_gc")


def test_tokens_and_events_are_immutable_values():
    tok = Token("c1", {"v": 1.0}, 2.0)
    assert tok == Token("c1", {"v": 1.0}, 2.0) != Token("c1", {"v": 1.0}, 3.0)
    assert tok._replace(available_at=3.0) == Token("c1", {"v": 1.0}, 3.0)
    with pytest.raises(AttributeError):
        tok.case_id = "c2"
    e = Event("c1", "a", 0.0, 1.0)
    assert (e.resource, e.attrs) == (None, {})
    with pytest.raises(TypeError):  # the default attrs are shared, so read-only
        e.attrs["x"] = 1.0
    assert Event("c2", "a", 0.0, 1.0).attrs == {}


# -- sorted per-place stores ---------------------------------------------------


def _store_order(toks):
    return sorted(toks, key=lambda tok: (tok.available_at, tok.case_id or ""))


def test_stores_stay_sorted_with_ties_in_insertion_order():
    # random adds and removes with tied times and ids, against per-place lists
    # kept in insertion order; every marking along the way must stay intact
    net = Net(
        places=[Place("a", "case"), Place("b", "plain"), Place("r", "resource")],
        transitions=[Transition("t")],
        flows=[("a", "t"), ("b", "t"), ("r", "t")],
    )
    rng = random.Random("stores")
    m, ref, history = Marking(), {p: [] for p in net.places}, []
    for step in range(3000):
        p = rng.choice(sorted(net.places))
        if ref[p] and rng.random() < 0.4:
            tok = rng.choice(ref[p])
            m = m.with_removed(p, tok)
            ref[p].remove(tok)  # the first equal token, as ``with_removed`` does
        else:
            case_id = None if p == "b" else rng.choice(("c1", "c2", "c10"))
            attrs = {"n": step} if rng.random() < 0.8 else {}
            tok = Token(case_id, attrs, float(rng.choice((0, 1, 1, 2, 3.5))))
            m = m.with_added(p, tok)
            ref[p].append(tok)
        history.append((m, {q: tuple(_store_order(toks)) for q, toks in ref.items()}))
        now = rng.choice((-1.0, 0.0, 1.0, 2.5, 9.0))
        for q, toks in ref.items():
            enabled = [tok for tok in _store_order(toks) if tok.available_at <= now]
            assert list(_enabled_tokens(m, q, now)) == enabled
        assert has_enabled_binding(net, m, "t", now) == all(
            any(tok.available_at <= now for tok in toks) for toks in ref.values()
        )
    for marking, expected in history:
        assert {p: marking.tokens(p) for p in net.places} == expected


def _key(tok):
    return (tok.available_at, tok.case_id or "")


def _key_inserted(toks, token):
    """Insertion by bisection on the whole store key, the reference order."""
    i = bisect_right(toks, _key(token), key=_key)
    return toks[:i] + (token,) + toks[i:]


def _key_removed(toks, token):
    """Removal of the first token that is or equals ``token`` from its key on."""
    for i in range(bisect_left(toks, _key(token), key=_key), len(toks)):
        if toks[i] is token or toks[i] == token:
            return toks[:i] + toks[i + 1 :]
        if _key(toks[i]) != _key(token):
            break
    raise AssertionError(f"{token} not in the reference store")


def test_adds_removes_and_firings_keep_the_store_key_order():
    # random adds, removes and firings with tied times, None, empty and string
    # case ids and tokens equal by value, against stores kept by bisecting on
    # the whole store key; the same token objects must sit in the same order
    net = Net(
        places=[
            Place("q", "case"), Place("r", "resource"), Place("s", "plain"),
            Place("o", "case"), Place("x", "plain"),
        ],
        transitions=[Transition("t")],
        flows=[("q", "t"), ("r", "t"), ("s", "t"), ("t", "r"), ("t", "s"), ("t", "o")],
    )
    ids = {"q": ("", "c1", "c2", "c10"), "r": ("w1", "w2"), "s": (None,), "o": ("c1",),
           "x": (None, "", "c1", "c2")}
    rng = random.Random("store-key order")
    m, fired = Marking(), 0
    for step in range(4000):
        if step % 400 == 0:
            m = Marking()
        before = {p: m.tokens(p) for p in net.places}
        action = rng.random()
        if action < 0.15 and all(before[p] for p in ("q", "r", "s")):
            binding = {p: rng.choice(before[p]) for p in ("q", "r", "s")}
            now, case = float(rng.choice((0, 1, 2))), (binding["q"].case_id, binding["q"].attrs)
            m = fire(net, m, "t", binding, now, float(rng.choice((0, 0, 1))), case)
            fired += 1
            for p in net.places:
                want = before[p]
                if p in binding:
                    want = _key_removed(want, binding[p])
                old = set(map(id, before[p]))
                for tok in [tok for tok in m.tokens(p) if id(tok) not in old]:
                    want = _key_inserted(want, tok)
                assert list(map(id, m.tokens(p))) == list(map(id, want)), p
            continue
        p = rng.choice(sorted(net.places))
        if before[p] and action < 0.5:
            tok = rng.choice(before[p])
            if rng.random() < 0.5:  # an equal copy removes the first equal token
                tok = Token(tok.case_id, dict(tok.attrs), tok.available_at)
            m, want = m.with_removed(p, tok), _key_removed(before[p], tok)
        else:
            tok = Token(rng.choice(ids[p]), {"n": rng.choice((0, 1))} if p != "r" else {},
                        float(rng.choice((0, 1, 1, 2))))
            if before[p] and rng.random() < 0.3:  # a duplicate equal by value
                tok = rng.choice(before[p])
                tok = Token(tok.case_id, dict(tok.attrs), tok.available_at)
            m, want = m.with_added(p, tok), _key_inserted(before[p], tok)
        assert list(map(id, m.tokens(p))) == list(map(id, want)), p
        assert all(m.tokens(q) is before[q] for q in net.places if q != p)
    assert fired > 100


# -- binding filters against the full product ---------------------------------


def _random_marking(net: Net, rng) -> Marking:
    """0-40 tokens per place, availabilities and attribute values with ties."""
    by_place = {}
    for place in net.places.values():
        toks = []
        for _ in range(rng.randint(0, 40)):
            avail = float(rng.choice((0, 1, 1, 2, 3, 5)))
            if place.kind == "plain":
                attrs = {n: float(rng.choice((0, 1, 5))) for n in place.attr_names()}
                toks.append(Token(None, attrs, avail))
            elif place.kind == "resource":
                toks.append(Token(rng.choice(("w1", "w2", "w3")), {}, avail))
            else:
                attrs = {n: float(rng.choice((0, 1, 100, 700, 700))) for n in place.attr_names()}
                toks.append(Token(f"c{rng.randint(1, 25)}", attrs, avail))
        by_place[place.id] = tuple(toks)
    return Marking(by_place)


def _full_product(net: Net, m: Marking, t_id: str, now: float, check_guards: bool):
    """Every enabled binding, guards checked binding by binding."""
    places = net.preset[t_id]
    pools = [
        sorted(
            (tok for tok in m.tokens(p) if tok.available_at <= now),
            key=lambda tok: (tok.available_at, tok.case_id or ""),
        )
        for p in places
    ]
    guard = net.transitions[t_id].guard if check_guards else None
    if guard is not None and not guard.holds(m, now):
        return []
    bindings = [dict(zip(places, combo)) for combo in itertools.product(*pools)]
    return [y for y in bindings if guard is None or guard.binding_ok(m, now, y)]


def _fifo_choice(net: Net, bindings, t_id: str, now: float):
    """The binding the simulator fires first among ``bindings`` of ``t_id``."""
    return min(bindings, key=lambda y: fifo_key(net, t_id, y, now)) if bindings else None


def _fifo_candidate(net: Net, bindings, t_id: str, now: float):
    """``_fifo_choice`` as the ``(key, t_id, binding)`` that ``fifo_first`` returns."""
    y = _fifo_choice(net, bindings, t_id, now)
    return None if y is None else (fifo_key(net, t_id, y, now), t_id, y)


def _one_case(net: Net, t_id: str, bindings, case_id=None):
    """The bindings whose case inputs all hold a token of one case (of
    ``case_id`` when given)."""
    case_inputs = net.plan(t_id).case_inputs
    kept = []
    for y in bindings:
        cases = {y[p].case_id for p in case_inputs}
        if len(cases) <= 1 and (case_id is None or cases <= {case_id}):
            kept.append(y)
    return kept


def _attr_dist(tok: Token, e: Event) -> float:
    dist = 0.0
    for name, value in e.attrs.items():
        have = tok.attrs.get(name)
        if have is None:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool) and isinstance(
            have, (int, float)
        ):
            dist += abs(float(have) - float(value))
        elif have != value:
            dist += 1.0
    return dist


def _whole_binding_score(net: Net, t_id: str, y, e: Event) -> tuple:
    """The similarity of a whole binding to an event, higher is better:
    whether each resource input holds the event's resource, then for each
    case input whether its token is available at or before the start, how
    close that is to the start, and how close its attributes are. With one
    resource and one case input this is the replay's former binding score
    less its mandatory case match, which ``_one_case`` applies."""
    score = [int(bool(e.resource) and y[p].case_id == e.resource)
             for p in net.plan(t_id).resource_inputs]
    for p in net.plan(t_id).case_inputs:
        tok = y[p]
        closeness = -abs(tok.available_at - e.start)
        score += [tok.available_at <= e.start, closeness, -_attr_dist(tok, e)]
    return tuple(score)


def _first_max_score(net: Net, bindings, e: Event):
    """The first binding of the event's case attaining the best whole-binding
    score, in the order given: the product-and-score pick of a log move."""
    best = None
    for y in _one_case(net, e.label, bindings, e.case_id):
        score = _whole_binding_score(net, e.label, y, e)
        if best is None or score > best[0]:
            best = (score, y)
    return best[1] if best else None


def merge_net() -> Net:
    """A pinned case input, a second case input and a plain input on one transition."""
    return Net(
        places=[
            Place("a", "case", (("value", "number"),)),
            Place("b", "case", (("value", "number"),)),
            Place("s", "plain"),
            Place("o", "case", (("value", "number"),)),
        ],
        transitions=[
            Transition("merge", guard=parse_constraint("attrenabled(a, value, min) == true"))
        ],
        flows=[("a", "merge"), ("b", "merge"), ("s", "merge"), ("merge", "o")],
    )


def plain_pin_net() -> Net:
    """A guard that pins a plain input, whose earliest token it may drop."""
    return Net(
        places=[
            Place("q", "case"), Place("s", "plain", (("size", "number"),)), Place("o", "case"),
        ],
        transitions=[
            Transition("pack", guard=parse_constraint("attrenabled(s, size, max) == true"))
        ],
        flows=[("q", "pack"), ("s", "pack"), ("pack", "o")],
    )


@pytest.mark.parametrize(
    "model", ["priority", "blocking", "holdbatch", "choice", "supplychain", "merge", "plainpin"]
)
def test_filtered_bindings_pick_what_the_full_product_picks(model):
    # the five bundled models, a net whose transition has two case inputs and
    # one whose guard pins a plain input
    nets = {"merge": merge_net, "plainpin": plain_pin_net}
    net = nets[model]() if model in nets else load_model(model_path(model))
    rng = random.Random(f"bindings-{model}")
    checked = 0
    for _ in range(4):
        m = _random_marking(net, rng)
        case_ids = sorted({tok.case_id for p in net.places for tok in m.tokens(p)} - {None})
        for t_id in sorted(net.transitions):
            for now in (0.0, 1.0, 2.5, 5.0):
                for check_guards in (False, True):
                    full = _full_product(net, m, t_id, now, check_guards)
                    filtered = enabled_bindings(net, m, t_id, now, check_guards=check_guards)
                    assert _fifo_choice(net, filtered, t_id, now) == _fifo_choice(
                        net, full, t_id, now
                    )
                    if check_guards:
                        # the simulator's direct pick, without the product
                        assert fifo_first(net, m, t_id, now) == _fifo_candidate(
                            net, _one_case(net, t_id, full), t_id, now
                        )
                    event = Event(
                        rng.choice(case_ids + ["absent"]),
                        t_id,
                        now,
                        now + 1.0,
                        rng.choice((None, "w1", "w2")),
                        {"value": float(rng.choice((1, 100, 700)))},
                    )
                    chosen = _best_move(net, m, event, now, check_guards)
                    assert chosen == _first_max_score(net, full, event)
                    checked += chosen is not None
    assert checked > 0


def test_two_case_inputs_bind_one_case():
    # the unfiltered product pairs tokens of two cases; a log move and the
    # simulator both take the tokens of one case from both case inputs
    net = merge_net()
    m = Marking({
        "a": (Token("c1", {"value": 1.0}, 0.0), Token("c2", {"value": 1.0}, 0.0)),
        "b": (Token("c2", {"value": 1.0}, 0.0), Token("c1", {"value": 1.0}, 1.0),
              Token("c3", {"value": 1.0}, 1.0)),
        "s": (Token(None, {}, 0.0),),
    })
    assert len(enabled_bindings(net, m, "merge", 0.5)) == 2
    for case_id in ("c1", "c2"):
        y = _best_move(net, m, Event(case_id, "merge", 1.0, 2.0), 1.0, False)
        assert {p: tok.case_id for p, tok in y.items()} == {"a": case_id, "b": case_id, "s": None}
    assert _best_move(net, m, Event("c1", "merge", 0.5, 2.0), 0.5, False) is None
    assert _best_move(net, m, Event("c3", "merge", 1.0, 2.0), 1.0, False) is None
    # c1's tokens are both enabled only at 1.0, c2's at 0.0: c2 fires first
    key, _, y = fifo_first(net, m, "merge", 1.0)
    assert key[0] == 0.0 and key[2] == "c2"
    assert {p: tok.case_id for p, tok in y.items()} == {"a": "c2", "b": "c2", "s": None}
    assert fifo_first(net, m.with_removed("a", m.tokens("a")[1]), "merge", 0.5) is None


@pytest.mark.parametrize("resource_at, expected", [
    (0.5, ("c5", 0.0)),  # nothing waits by then: the pool's first token
    (3.0, ("c2", 1.0)),  # the two c2 tokens available at exactly 3 tie; the first wins
    (4.0, ("c1", 0.0)),  # every token waits by then: the smallest case id
])
def test_fifo_first_bisects_the_case_pool_at_the_other_inputs(resource_at, expected):
    net = Net(
        places=[Place("q", "case", (("v", "number"),)), Place("r", "resource")],
        transitions=[Transition("t")],
        flows=[("q", "t"), ("r", "t"), ("t", "r")],
    )
    m = Marking({
        "q": (
            Token("c5", {"v": 0.0}, 1.0),
            Token("c2", {"v": 1.0}, 3.0),
            Token("c2", {"v": 2.0}, 3.0),
            Token("c1", {"v": 0.0}, 4.0),
        ),
        "r": (Token("w1", {}, resource_at),),
    })
    _, _, chosen = fifo_first(net, m, "t", 5.0)
    assert (chosen["q"].case_id, chosen["q"].attrs["v"]) == expected
    assert fifo_first(net, m, "t", 5.0) == _fifo_candidate(
        net, enabled_bindings(net, m, "t", 5.0), "t", 5.0
    )


def _check_best_moves(monkeypatch) -> dict:
    """Pin every ``replay._best_move`` call against scoring every enabled
    binding of the transition that holds the event's case; counts the calls."""
    replay_mod = importlib.import_module("dsync.replay")
    best_move = replay_mod._best_move
    counts = {"moves": 0}

    def checked(net_, marking, e, tau, check_guards):
        counts["moves"] += 1
        chosen = best_move(net_, marking, e, tau, check_guards)
        full = enabled_bindings(net_, marking, e.label, tau, check_guards=check_guards)
        assert chosen == _first_max_score(net_, full, e)
        return chosen

    monkeypatch.setattr(replay_mod, "_best_move", checked)
    return counts


@pytest.mark.parametrize("model, seed", [
    (model, seed)
    for model in ("blocking", "choice", "holdbatch", "priority", "supplychain")
    for seed in (1, 2, 3)
] + [("supplychain", 6)])
def test_replay_moves_are_the_first_best_scored_bindings(monkeypatch, model, seed):
    # every move of the discovery and check replays, the unscored lone
    # bindings included
    net = load_model(model_path(model))
    log = simulate(net, SimConfig(seed=seed, max_cases=150))
    counts = _check_best_moves(monkeypatch)
    run = discover_run(log, net)
    replay(log, annotate_net(net.without_guards(), run.constraints), check_guards=True)
    assert counts["moves"] >= 2 * len(log.events)


def two_workers_net() -> Net:
    """A guarded task that takes a case and one of two workers."""
    return Net(
        places=[Place("q", "case"), Place("r", "resource"), Place("o", "case")],
        transitions=[Transition("work", guard=parse_constraint("nrtokens(q) < 9"))],
        flows=[("q", "work"), ("r", "work"), ("work", "r"), ("work", "o")],
        initial_marking=Marking({
            "q": (Token("c1", {}, 0.0), Token("c2", {}, 0.0)),
            "r": (Token("w1", {}, 0.0), Token("w2", {}, 0.0)),
        }),
    )


@pytest.mark.parametrize("check_guards", [False, True])
@pytest.mark.parametrize("inputs", ["two workers", "two case inputs"])
def test_scored_replay_moves_are_the_first_best_scored_bindings(
    monkeypatch, inputs, check_guards
):
    # pools no bundled model fills: a two-token resource pool whose event
    # names the second worker, and two case inputs that each hold two tokens
    # of the event's case; the third merge has no token of its case
    if inputs == "two workers":
        net = two_workers_net()
        log = Log([Event("c1", "work", 1.0, 2.0, "w2"), Event("c2", "work", 3.0, 4.0, "w1")])
        expected = [{"q": ("c1", 0.0, None), "r": ("w2", 0.0, None)},
                    {"q": ("c2", 0.0, None), "r": ("w1", 0.0, None)}]
    else:
        bare = merge_net()
        net = Net(list(bare.places.values()), list(bare.transitions.values()), list(bare.flows),
                  Marking({
                      "a": (Token("c1", {"value": 1.0}, 0.0), Token("c1", {"value": 1.0}, 0.5),
                            Token("c2", {"value": 1.0}, 0.0)),
                      "b": (Token("c1", {"value": 5.0}, 0.0), Token("c1", {"value": 2.0}, 0.0),
                            Token("c2", {"value": 1.0}, 0.0), Token("c2", {"value": 1.0}, 2.0)),
                      "s": (Token(None, {}, 0.0),) * 3,
                  }))
        log = Log([Event("c1", "merge", 1.0, 2.0, None, {"value": 2.0}),
                   Event("c2", "merge", 3.0, 4.0), Event("c5", "merge", 5.0, 6.0)])
        # a: the newest c1 token; b: the c1 token closest to the event's value,
        # then the newest c2 token
        expected = [{"a": ("c1", 0.5, 1.0), "b": ("c1", 0.0, 2.0), "s": (None, 0.0, None)},
                    {"a": ("c2", 0.0, 1.0), "b": ("c2", 2.0, 1.0), "s": (None, 0.0, None)}]
    counts = _check_best_moves(monkeypatch)
    samples = []  # a guard-checked replay keeps none, so collect them
    _, report = replay(log, net, check_guards=check_guards, observer=samples.append)
    assert report.matched == 2 and report.total == len(log.events)
    assert counts["moves"] >= len(log.events)
    moves = [
        {p: (tok.case_id, tok.available_at, tok.attrs.get("value")) for p, tok in y.items()}
        for s in samples for _, y, _ in s.moves
    ]
    assert moves == expected


def test_bindings_per_fired_move_stay_small(monkeypatch, priority_net):
    # bindings enumerated per fired move (simulator injections and firings,
    # discovery and check log moves) on a priority round trip; enumerating
    # the full product of enabled tokens gave 4.6 here and 8.5 at 800 cases
    counts = {"bindings": 0, "moves": 0}

    def counting(module, name, key, size):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[key] += size(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    for name in ("dsync.simulate", "dsync.replay"):
        module = importlib.import_module(name)
        counting(module, "enabled_bindings", "bindings", len)
        counting(module, "fire", "moves", lambda _: 1)

    log = simulate(priority_net, SimConfig(seed=1, max_cases=300))
    run = discover_run(parse_log(write_log(log)), priority_net.without_guards())
    replay(log, annotate_net(priority_net.without_guards(), run.constraints), check_guards=True)
    assert counts["moves"] >= 3 * len(log.events)
    assert counts["bindings"] <= 2 * counts["moves"]


def test_attribute_passes_stay_within_memo_misses(monkeypatch, priority_net):
    # full-store attribute passes on a priority round trip: one per distinct
    # (place, attr, agg) per marking, where every query (guards, pinning, the
    # 14 priority features per row) used to scan the store on its own
    counts = {"passes": 0, "queries": 0, "misses": 0}
    one_pass, query = net_mod._extremum, Marking.extremum

    def counted_pass(*args):
        counts["passes"] += 1
        return one_pass(*args)

    def counted_query(m, place_id, attr, agg):
        counts["queries"] += 1
        counts["misses"] += m._memo is None or (place_id, attr, agg) not in m._memo
        return query(m, place_id, attr, agg)

    monkeypatch.setattr(net_mod, "_extremum", counted_pass)
    monkeypatch.setattr(Marking, "extremum", counted_query)
    text = write_log(simulate(priority_net, SimConfig(seed=1, max_cases=300)))
    run = discover_run(parse_log(text), priority_net)
    replay(parse_log(text), annotate_net(priority_net, run.constraints), check_guards=True)
    assert counts["passes"] == counts["misses"] > 0
    assert 2 * counts["passes"] < counts["queries"]


# -- fire against removing and adding token by token ---------------------------


def fire_net() -> Net:
    """A transition with two case inputs, a plain and a resource input, whose
    outputs are a narrower case place, the resource, an unread plain sink and
    a plain place another transition's guard reads."""
    return Net(
        places=[
            Place("a", "case", (("value", "number"), ("n", "number"))),
            Place("b", "case", (("value", "number"),)),
            Place("s", "plain"),
            Place("r", "resource"),
            Place("o", "case", (("value", "number"),)),
            Place("sink", "plain"),
            Place("kept", "plain"),
        ],
        transitions=[
            Transition("t"),
            Transition("u", guard=parse_constraint("nrtokens(kept) >= 0")),
        ],
        flows=[
            ("a", "t"), ("b", "t"), ("s", "t"), ("r", "t"),
            ("t", "o"), ("t", "r"), ("t", "sink"), ("t", "kept"), ("o", "u"),
        ],
    )


def _fire_by_token(net: Net, m: Marking, t_id: str, binding, now, delay, produced_case=None):
    """``fire`` as a sequence of ``with_removed`` and ``with_added`` calls."""
    for p, tok in sorted(binding.items()):
        m = m.with_removed(p, tok)
    case_id, attrs = produced_case or (binding["a"].case_id, binding["a"].attrs)
    for p in net.postset[t_id]:
        place = net.places[p]
        if p in net.unread:
            continue
        if place.kind == "case":
            tok = Token(case_id, {k: v for k, v in attrs.items() if k in place.attr_names()},
                        now + delay)
        elif place.kind == "resource":
            tok = Token(binding[p].case_id, binding[p].attrs, now + delay)
        else:
            tok = Token(None, {}, now + delay)
        m = m.with_added(p, tok)
    return m


def test_fire_matches_removing_and_adding_token_by_token():
    net = fire_net()
    assert net.unread == {"sink"}
    rng = random.Random("fire")
    fired = 0
    for _ in range(300):
        m = _random_marking(net, rng)
        if any(not m.tokens(p) for p in net.preset["t"]):
            continue
        m.extremum("a", "value", "max")  # the input carries a memo
        before = {p: m.tokens(p) for p in net.places}
        binding = {p: rng.choice(m.tokens(p)) for p in net.preset["t"]}
        now, delay = float(rng.choice((0, 1, 2))), float(rng.choice((0, 0.5, 1)))
        produced = rng.choice((None, ("c7", {"value": 5.0, "n": 1.0, "extra": True})))
        case = produced or (binding["a"].case_id, binding["a"].attrs)
        out = fire(net, m, "t", binding, now, delay, case)
        expected = _fire_by_token(net, m, "t", binding, now, delay, produced)
        assert {p: out.tokens(p) for p in net.places} == {
            p: expected.tokens(p) for p in net.places
        }
        assert out.tokens("sink") == before["sink"]  # unread: receives nothing
        assert {p: m.tokens(p) for p in net.places} == before
        assert out._memo is None
        fired += 1
    assert fired > 50


def test_fire_missing_token_raises_before_negative_delay():
    net, m = fire_net(), Marking({"s": (Token(None, {}, 0.0),)})
    ghost = {"a": Token("c1", {}, 0.0), "s": m.tokens("s")[0]}
    with pytest.raises(ModelError, match="not present in place 'a'"):
        fire(net, m, "t", ghost, now=0.0, delay=-1.0)
    with pytest.raises(ModelError, match="negative delay"):
        fire(net, m, "t", {"s": m.tokens("s")[0]}, now=0.0, delay=-1.0)
