"""One mutable marking: its stores, memo, copies and journal against
oracles, and no call of the pipeline changes a net's initial marking."""
from __future__ import annotations

import random

import pytest

from dsync.eventlog import write_log
from dsync.extract import discover_run
from dsync.modelfile import load_model
from dsync.net import Marking, Token
from dsync.replay import replay
from dsync.simulate import SimConfig, simulate
from tests.conftest import model_path

PLACES = ("p", "q")
ATTRS = ("v", "w")


def _token(rng: random.Random) -> Token:
    """Ties in availability and case id, ``-0.0`` next to ``0.0``, and tokens
    without one attribute or both."""
    attrs = {a: rng.choice((-1.0, -0.0, 0.0, 2.0, 2.0)) for a in ATTRS if rng.random() < 0.7}
    return Token(rng.choice((None, "c1", "c2", "c10")), attrs, rng.choice((-0.0, 0.0, 1.0, 1.0, 2.5)))


def _sorted(toks: list) -> list:
    """The store order: availability, then case id, ties in insertion order."""
    return sorted(toks, key=lambda tok: (tok.available_at, tok.case_id or ""))


def _extremum(toks: list, attr: str, agg: str):
    """A scan of the store order: the first extremal value and its token's time."""
    having = [tok for tok in toks if attr in tok.attrs]
    if not having:
        return None
    pick = max if agg == "max" else min
    best = pick(tok.attrs[attr] for tok in having)
    return best, next(tok.available_at for tok in having if tok.attrs[attr] == best)


def _assert_equal(m: Marking, oracle: dict) -> None:
    for p in PLACES:
        want = _sorted(oracle[p])
        assert list(map(id, m.tokens(p))) == list(map(id, want)), p
        for attr in ATTRS:
            for agg in ("max", "min"):
                got, expected = m.extremum(p, attr, agg), _extremum(want, attr, agg)
                # repr tells -0.0 from 0.0
                assert repr(got) == repr(expected), (p, attr, agg)


@pytest.mark.parametrize("seed", range(5))
def test_adds_removes_copies_and_undo_against_sorted_oracles(seed):
    rng = random.Random(seed)
    m, oracle = Marking(), {p: [] for p in PLACES}  # oracle: tokens in insertion order
    copies = []  # (copy, the oracle when it was taken)
    journal = None  # (journal, the oracle when it started)
    for _ in range(1500):
        p = rng.choice(PLACES)
        action = rng.random()
        if oracle[p] and action < 0.35:
            tok = rng.choice(oracle[p])
            if rng.random() < 0.5:  # an equal copy removes the first equal token
                tok = Token(tok.case_id, dict(tok.attrs), tok.available_at)
            m.remove(p, tok)
            oracle[p].remove(tok)
        elif action < 0.45:
            copies.append((m.copy(), {q: list(toks) for q, toks in oracle.items()}))
        elif action < 0.5 and journal is None:
            m.journal = []
            journal = (m.journal, {q: list(toks) for q, toks in oracle.items()})
        elif action < 0.55 and journal is not None:
            changes, start = journal
            m.journal, journal = None, None
            m.undo(changes)
            _assert_equal(m, start)
            m.undo(changes, redo=True)
        else:
            tok = _token(rng)
            m.add(p, tok)
            oracle[p].append(tok)
        _assert_equal(m, oracle)
    assert len(copies) > 50
    for copy, snapshot in copies:  # later changes to the source left each copy alone
        _assert_equal(copy, snapshot)


def test_changing_a_copy_leaves_its_source_alone():
    tok = Token("c1", {"v": 1.0}, 0.0)
    m = Marking({"p": (tok,)})
    m.extremum("p", "v", "max")
    copy = m.copy()
    copy.remove("p", tok)
    copy.add("q", tok)
    assert list(m.tokens("p")) == [tok] and not m.tokens("q")
    assert m.extremum("p", "v", "max") == (1.0, 0.0) and copy.extremum("p", "v", "max") is None


@pytest.mark.parametrize("model", ["blocking", "choice", "holdbatch", "priority", "supplychain"])
def test_no_call_changes_the_initial_marking_and_each_runs_twice_alike(model):
    net = load_model(model_path(model))
    initial = repr(net.initial_marking)
    cfg = SimConfig(seed=1, max_cases=60)
    logs = [write_log(simulate(net, cfg)) for _ in range(2)]
    assert logs[0] == logs[1] and repr(net.initial_marking) == initial
    log = simulate(net, cfg)
    for check_guards in (False, True):
        runs = [replay(log, net, check_guards=check_guards) for _ in range(2)]
        assert repr(net.initial_marking) == initial
        (a_samples, a), (b_samples, b) = runs
        assert (a.matched, a.unmatched, a.stats) == (b.matched, b.unmatched, b.stats)
        assert [repr(s.after) for s in a_samples] == [repr(s.after) for s in b_samples]
    runs = [discover_run(log, net) for _ in range(2)]
    assert repr(net.initial_marking) == initial
    a, b = runs
    assert [pc.describe() for pc in a.constraints] == [pc.describe() for pc in b.constraints]
    assert [r.ptlog.to_csv() for r in a.results] == [r.ptlog.to_csv() for r in b.results]
    assert (a.check is None) == (b.check is None)
    if a.check is not None:
        assert (a.check.matched, a.check.stats) == (b.check.matched, b.check.stats)
