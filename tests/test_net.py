from __future__ import annotations

import gc
import importlib
import itertools
import random

import pytest

from tests.conftest import model_path
import dsync.net as net_mod
from dsync.constraints import parse_constraint
from dsync.errors import ModelError
from dsync.eventlog import Event, parse_log, write_log
from dsync.extract import annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.net import (
    ArrivalSpec,
    DelaySpec,
    Marking,
    Net,
    Place,
    Token,
    Transition,
    _enabled_tokens,
    enabled_bindings,
    fire,
    has_enabled_binding,
    postset,
    preset,
    validate_net,
)
from dsync.replay import _best_move, replay, sim_score
from dsync.simulate import SimConfig, fifo_first, fifo_key, simulate


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
    out = fire(net, m, "handling", y, now=15.0, delay=7.0)
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
    out = fire(net, m, "t", {"a": m.tokens("a")[0]}, now=4.0, delay=0.0)
    assert out.tokens("b")[0].available_at == 4.0


def test_fire_preserves_token_count_on_matched_roles():
    net, m = fig1_net(), fig1_marking()
    y = enabled_bindings(net, m, "handling", now=15.0)[0]
    out = fire(net, m, "handling", y, now=15.0, delay=7.0)
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


def test_duplicate_node_ids_are_rejected():
    # a dict keyed by id would keep only the last place or transition
    with pytest.raises(ModelError, match="duplicate place id 'a'"):
        Net([Place("a", "case"), Place("a", "plain")], [Transition("t")], [("a", "t")])
    with pytest.raises(ModelError, match="duplicate transition id 't'"):
        Net([Place("a", "case")], [Transition("t"), Transition("t", is_task=False)], [])


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
        DelaySpec.constant,
        lambda v: DelaySpec.uniform(v, 1.0),
        lambda v: DelaySpec.uniform(0.0, v),
        DelaySpec.exponential,
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


def test_simulate_and_replay_leave_no_reference_cycles(blocking_net):
    # replay calls ``flow_depth`` once per event and the simulator once per
    # FIFO key; a cycle left per call is garbage that only a collection frees,
    # and that collection then lands in whichever step runs next
    gc.collect()
    gc.disable()
    try:
        replay(simulate(blocking_net, SimConfig(seed=1, max_cases=300)), blocking_net)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_preset_of_bundled_multi_pattern_model(supplychain_net):
    flows = supplychain_net.flows
    expected = tuple(sorted(src for src, tgt in flows if tgt == "production_game"))
    assert preset(supplychain_net, "production_game") == expected
    assert expected == ("chips", "stock_gc")


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


# -- binding filters against the full product ---------------------------------


def _random_marking(net: Net, rng) -> Marking:
    """0-40 tokens per place, availabilities and attribute values with ties."""
    by_place = {}
    for place in net.places.values():
        toks = []
        for _ in range(rng.randint(0, 40)):
            avail = float(rng.choice((0, 1, 1, 2, 3, 5)))
            if place.kind == "plain":
                toks.append(Token(None, {}, avail))
            elif place.kind == "resource":
                toks.append(Token(rng.choice(("w1", "w2", "w3")), {}, avail))
            else:
                attrs = {n: float(rng.choice((0, 1, 100, 700, 700))) for n in place.attr_names()}
                toks.append(Token(f"c{rng.randint(1, 25)}", attrs, avail))
        by_place[place.id] = tuple(toks)
    return Marking(by_place)


def _full_product(net: Net, m: Marking, t_id: str, now: float, check_guards: bool):
    """Every enabled binding, guards checked binding by binding."""
    places = preset(net, t_id)
    pools = [
        sorted(
            (tok for tok in m.tokens(p) if tok.available_at <= now),
            key=lambda tok: (tok.available_at, tok.case_id or ""),
        )
        for p in places
    ]
    guard = net.transition(t_id).guard if check_guards else None
    if guard is not None and not guard.holds(m, now):
        return []
    bindings = [dict(zip(places, combo)) for combo in itertools.product(*pools)]
    return [y for y in bindings if guard is None or guard.binding_ok(m, now, y)]


def _fifo_choice(net: Net, bindings, t_id: str, now: float):
    """The binding the simulator fires first among ``bindings`` of ``t_id``."""
    return min(bindings, key=lambda y: fifo_key(net, t_id, y, now)) if bindings else None


def _first_max_score(net: Net, bindings, e: Event):
    best = None
    for y in bindings:
        score = sim_score(net, e.label, y, e)
        if score[0] == 1 and (best is None or score > best[0]):
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


@pytest.mark.parametrize(
    "model", ["priority", "blocking", "holdbatch", "choice", "supplychain", "merge"]
)
def test_filtered_bindings_pick_what_the_full_product_picks(model):
    # the five bundled models, and a net whose transition has two case inputs
    net = merge_net() if model == "merge" else load_model(model_path(model))
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
                        assert fifo_first(net, m, t_id, now) == _fifo_choice(net, full, t_id, now)
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


def test_a_lone_binding_over_two_case_inputs_is_still_scored():
    # several case inputs are not filtered by case, so a transition's only
    # binding may hold no token of the event's case
    net = merge_net()
    m = Marking({
        "a": (Token("c1", {"value": 1.0}, 0.0),),
        "b": (Token("c2", {"value": 1.0}, 0.0),),
        "s": (Token(None, {}, 0.0),),
    })
    lone = enabled_bindings(net, m, "merge", 1.0)
    assert len(lone) == 1
    for case_id, expected in (("c2", lone[0]), ("c3", None)):
        assert _best_move(net, m, Event(case_id, "merge", 1.0, 2.0), 1.0, False) == expected


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
    chosen = fifo_first(net, m, "t", 5.0)
    assert (chosen["q"].case_id, chosen["q"].attrs["v"]) == expected
    assert chosen == _fifo_choice(net, enabled_bindings(net, m, "t", 5.0), "t", 5.0)


@pytest.mark.parametrize("model, seed", [
    (model, seed)
    for model in ("blocking", "choice", "holdbatch", "priority", "supplychain")
    for seed in (1, 2, 3)
] + [("supplychain", 6)])
def test_replay_moves_are_the_first_best_scored_bindings(monkeypatch, model, seed):
    # every move of the discovery and check replays, the unscored lone
    # bindings included, against scoring every enabled binding of the
    # transition, unfiltered by case
    net = load_model(model_path(model))
    log = simulate(net, SimConfig(seed=seed, max_cases=150))
    replay_mod = importlib.import_module("dsync.replay")
    best_move, calls = replay_mod._best_move, 0

    def checked(net_, marking, e, tau, check_guards):
        nonlocal calls
        calls += 1
        chosen = best_move(net_, marking, e, tau, check_guards)
        full = enabled_bindings(net_, marking, e.label, tau, check_guards=check_guards)
        assert chosen == _first_max_score(net_, full, e)
        return chosen

    monkeypatch.setattr(replay_mod, "_best_move", checked)
    run = discover_run(log, net)
    replay(log, annotate_net(net.without_guards(), run.constraints), check_guards=True)
    assert calls >= 2 * len(log.events)


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
    for p in postset(net, t_id):
        place = net.places[p]
        if p in net.unread:
            continue
        if place.kind == "case":
            tok = Token(case_id, place.project(attrs), now + delay)
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
        if any(not m.tokens(p) for p in preset(net, "t")):
            continue
        m.extremum("a", "value", "max")  # the input carries a memo
        before = {p: m.tokens(p) for p in net.places}
        binding = {p: rng.choice(m.tokens(p)) for p in preset(net, "t")}
        now, delay = float(rng.choice((0, 1, 2))), float(rng.choice((0, 0.5, 1)))
        produced = rng.choice((None, ("c7", {"value": 5.0, "n": 1.0, "extra": True})))
        out = fire(net, m, "t", binding, now, delay, produced)
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
