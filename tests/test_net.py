from __future__ import annotations

import pytest

from dsync.errors import ModelError
from dsync.net import (
    ArrivalSpec,
    DelaySpec,
    Marking,
    Net,
    Place,
    Token,
    Transition,
    enabled_bindings,
    fire,
    preset,
    validate_net,
)


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
            Transition("pre-processing", delay=DelaySpec.constant(5)),
            Transition("handling", delay=DelaySpec.constant(7)),
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
    assert preset(net, "handling") == ("q1", "r1")


def test_preset_empty_for_node_without_inflows():
    net = fig1_net()
    assert preset(net, "arrival") == ()


def test_preset_unknown_node():
    with pytest.raises(ModelError):
        preset(fig1_net(), "nope")


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
    out = fire(net, m, "handling", y, now=15.0)
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
        transitions=[Transition("t", delay=DelaySpec.constant(0))],
        flows=[("a", "t"), ("t", "b")],
    )
    m = Marking().with_added("a", Token("c1", {}, 1.0))
    out = fire(net, m, "t", {"a": m.tokens("a")[0]}, now=4.0)
    assert out.tokens("b")[0].available_at == 4.0


def test_fire_preserves_token_count_on_matched_roles():
    net, m = fig1_net(), fig1_marking()
    y = enabled_bindings(net, m, "handling", now=15.0)[0]
    out = fire(net, m, "handling", y, now=15.0)
    assert out.total_tokens() == m.total_tokens()


def test_fire_missing_token_rejected():
    net, m = fig1_net(), fig1_marking()
    ghost = Token("9", {"value": 1.0}, 0.0)
    with pytest.raises(ModelError):
        fire(net, m, "handling", {"q1": ghost, "r1": m.tokens("r1")[0]}, now=20.0)


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
    spec = ArrivalSpec(interarrival=DelaySpec.constant(1))
    net = Net(
        places=[Place("a", "case"), Place("b", "case")],
        transitions=[Transition("t", arrival_spec=spec)],
        flows=[("a", "t"), ("t", "b")],
    )
    problems = validate_net(net)
    assert any("nonempty preset" in p for p in problems)


def test_validate_source_feeding_resource_place():
    spec = ArrivalSpec(interarrival=DelaySpec.constant(1))
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
        transitions=[Transition("t", delay=DelaySpec.uniform(3, 1))],
        flows=[("a", "t"), ("t", "ghost")],
    )
    problems = validate_net(net)
    assert any("inverted" in p for p in problems)
    assert any("unknown node" in p for p in problems)


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

    spec = DelaySpec.uniform(1, 3)
    a = [spec.sample(random.Random(7)) for _ in range(5)]
    b = [spec.sample(random.Random(7)) for _ in range(5)]
    assert a == b
    assert DelaySpec.constant(4).sample(None) == 4


def test_flow_depth_orders_downstream_deeper():
    net = fig1_net()
    assert net.flow_depth("handling") > net.flow_depth("pre-processing")


def case_cycle_net() -> Net:
    """src -> t1 -> p -> t2 -> q -> t1: case flow with a cycle."""
    return Net(
        places=[Place("src", "case"), Place("p", "case"), Place("q", "case")],
        transitions=[Transition("t1"), Transition("t2")],
        flows=[("src", "t1"), ("t1", "p"), ("p", "t2"), ("t2", "q"), ("q", "t1")],
    )


def test_flow_depth_on_case_cycle_ignores_query_order():
    forward, backward = case_cycle_net(), case_cycle_net()
    asked_t1_first = {t: forward.flow_depth(t) for t in ("t1", "t2")}
    asked_t2_first = {t: backward.flow_depth(t) for t in ("t2", "t1")}
    assert asked_t1_first == asked_t2_first == {"t1": 2, "t2": 2}


def test_preset_of_bundled_multi_pattern_model(supplychain_net):
    flows = supplychain_net.flows
    expected = tuple(sorted(src for src, tgt in flows if tgt == "production_game"))
    assert preset(supplychain_net, "production_game") == expected
    assert expected == ("chips", "stock_gc")
