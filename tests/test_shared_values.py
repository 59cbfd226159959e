"""Equal values are stored once along simulate -> write -> parse -> replay ->
pattern-transition logs, and the shared values still pickle and copy."""
from __future__ import annotations

import copy
import csv
import io
import pickle

import pytest

from dsync.eventlog import EMPTY_ATTRS, parse_log, write_log
from dsync.extract import discover_run
from dsync.net import Marking, Net, Place, Token, Transition, fire
from dsync.replay import replay
from dsync.simulate import SimConfig, simulate


@pytest.fixture(scope="module")
def blocking_text(blocking_net) -> str:
    return write_log(simulate(blocking_net, SimConfig(seed=1, max_cases=2000)))


@pytest.fixture(scope="module")
def priority_text(priority_net) -> str:
    return write_log(simulate(priority_net, SimConfig(seed=1, max_cases=300)))


def _tokens(samples):
    return [tok for s in samples for p in s.after.places() for tok in s.after.tokens(p)]


def test_parse_log_keeps_one_string_per_distinct_value(blocking_text):
    log = parse_log(blocking_text)
    strings = [x for e in log.events for x in (e.case_id, e.label, e.resource) if x is not None]
    assert len({id(x) for x in strings}) == len(set(strings)) > 2000


def test_every_event_and_token_without_attributes_holds_the_shared_map(
    blocking_net, blocking_text
):
    simulated = simulate(blocking_net, SimConfig(seed=1, max_cases=200))
    log = parse_log(blocking_text)
    assert all(e.attrs is EMPTY_ATTRS for e in simulated.events + log.events)
    samples, _ = replay(log, blocking_net)
    assert all(tok.attrs is EMPTY_ATTRS for tok in _tokens(samples))


def test_events_with_identical_attribute_cells_share_one_dict(priority_text):
    log = parse_log(priority_text)
    reader = csv.reader(io.StringIO(priority_text))
    attr_cols = [i for i, col in enumerate(next(reader)) if col == "value"]
    # write_log writes the events in the order parse_log returns them
    cells = [tuple(row[i] for i in attr_cols) for row in reader]
    assert len(cells) == len(log.events)
    maps: dict[tuple, set] = {}
    for key, e in zip(cells, log.events):
        maps.setdefault(key, set()).add(id(e.attrs))
    assert all(len(ids) == 1 for ids in maps.values())
    assert len({id(e.attrs) for e in log.events}) == len(maps) > 1


def test_case_tokens_share_the_event_map_their_place_declares(priority_net, priority_text):
    log = parse_log(priority_text)
    case_map = {}
    for e in log.events:
        assert case_map.setdefault(e.case_id, e.attrs) is e.attrs  # one map per case
    samples, _ = replay(log, priority_net)
    case_tokens = [tok for tok in _tokens(samples) if tok.attrs]
    assert case_tokens  # every case place declares "value", so no token is filtered
    assert all(tok.attrs is case_map[tok.case_id] for tok in case_tokens)


def test_fire_shares_a_case_map_its_place_declares_and_filters_the_rest():
    places = [Place("in", "case", (("a", "number"), ("b", "number"))),
              Place("some", "case", (("a", "number"),)), Place("none", "case")]
    net = Net(places, [Transition("t")], [("in", "t"), ("t", "some"), ("t", "none")])
    attrs = {"a": 1.0, "b": 2.0}
    tok = Token("c1", attrs, 0.0)
    m = fire(net, Marking({"in": (tok,)}), "t", {"in": tok}, 0.0, 1.0, (tok.case_id, tok.attrs))
    (some,), (none,) = m.tokens("some"), m.tokens("none")
    assert some.attrs == {"a": 1.0} and some.attrs is not attrs
    assert none.attrs is EMPTY_ATTRS
    produced = {"a": 3.0}  # every name declared by "some": taken as it is
    m = fire(net, Marking({"in": (tok,)}), "t", {"in": tok}, 0.0, 1.0, ("c2", produced))
    (some,), (none,) = m.tokens("some"), m.tokens("none")
    assert some.attrs is produced and none.attrs is EMPTY_ATTRS


def test_replay_samples_share_one_frozenset_per_label_set(blocking_net, blocking_text):
    samples, _ = replay(parse_log(blocking_text), blocking_net)
    assert len({id(s.fired) for s in samples}) == len({s.fired for s in samples})
    assert len(samples) > 100 * len({s.fired for s in samples})


def test_pattern_transition_rows_share_one_values_tuple(blocking_net, blocking_text):
    run = discover_run(parse_log(blocking_text), blocking_net)
    for res in run.results:
        values = [row.values for row in res.ptlog.rows]
        assert len({id(v) for v in values}) == len(set(values))
    assert sum(len(res.ptlog.rows) for res in run.results) > 1000


@pytest.mark.parametrize("source", ["parsed-with-attributes", "parsed-without", "simulated"])
@pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_logs_and_tokens_round_trip_through_pickle_and_deepcopy(
    blocking_net, priority_text, source, copier
):
    if source == "simulated":
        log = simulate(blocking_net, SimConfig(seed=1, max_cases=50))
    else:
        log = parse_log(priority_text if source == "parsed-with-attributes" else
                        "case,activity,start,complete\nc1,a,0,1\nc2,a,1,2\n")
    assert copier(log) == log
    for tok in (Token("c1", EMPTY_ATTRS, 1.0), Token("c1", log.events[0].attrs, 1.0)):
        assert copier(tok) == tok
