"""Replays an event log over a net via log moves.

Every event is executed as a log move at its start time: the binding with
the highest similarity to the event is consumed and the produced tokens
become available at the event's completion time. Cases enter as the
simulator lets them in: each arrival is a zero-delay ``fire`` of its
non-task source with the case's first-event data, one interarrival ahead
(``_arrival_plan``). One state sample is emitted per distinct start time; it
captures the marking both before and after that timestamp's moves, because a
transition that fired is observed in the state it fired from, while a
transition that was passed over is observed in the state that remained after
everything else happened.

The moves of one start time are applied by a single greedy loop, in both
modes: downstream moves first (larger ``Net.flow_depth``, ties in log
order), in rounds until a round applies nothing, so a move whose input a
same-instant producer supplies still matches. Guard checks are off by
default: the discovery input is the unguarded process model. With
``check_guards`` on (the replayability check) each move must also satisfy
its transition's guard at the moment it applies. Downstream-first can close
a guard that the simulator's order left open, so when the greedy loop leaves
a guard-checked group of at most ``MAX_SEARCH_GROUP`` moves unmatched, a
depth-first search for an order under which every move matches takes over
as the fallback, for at most ``MAX_SEARCH_MOVES`` candidate moves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ReplayError
from .eventlog import Event, Log
from .net import Binding, Marking, Net, Token, enabled_bindings, fire, postset, preset

# guard-checked timestamp groups larger than this get no order-search fallback
MAX_SEARCH_GROUP = 8
# calls of ``_best_move`` after which the fallback search gives up: enough to
# try every order of a group of up to 6 moves, while a group of 8 with no
# order would otherwise take over 100,000
MAX_SEARCH_MOVES = 2_000


@dataclass(frozen=True)
class StateSample:
    """State observed at one distinct event start time.

    ``before``/``after`` bracket the timestamp's log moves. ``at_fire`` maps
    each transition that started here to the marking just before its own
    (first) move: the state it actually fired from, in the order the greedy
    loop applied the same-instant moves (downstream-first, like the
    simulator's FIFO policy resolves them), or in the order the search found
    when the guard-checked fallback ran.
    """

    time: float
    before: Marking
    after: Marking
    fired: frozenset[str]
    at_fire: Mapping[str, Marking] = field(default_factory=dict)
    repaired: bool = False


@dataclass
class MatchReport:
    matched: int = 0
    unmatched: list[tuple[Event, str]] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.matched + len(self.unmatched)

    @property
    def match_rate(self) -> float:
        return self.matched / self.total if self.total else 1.0


NEVER = (0, -1, -1, float("-inf"), float("-inf"))


def sim_score(net: Net, t_id: str, binding: Binding, e: Event) -> tuple:
    """Similarity of a binding to an event, higher is better.

    Lexicographic components: case-id match (mandatory; a miss scores below
    everything), resource match when both sides name one, preference for a
    case token available at or before the event start, closeness of that
    token's availability to the start, and closeness of the attributes.
    Transitions without case inputs match any binding.
    """
    case_token = net.case_token(t_id, binding, e.case_id)
    if case_token is None and net.case_inputs(t_id):
        return NEVER

    resource_match = 0
    if e.resource:
        for p in net.resource_inputs(t_id):
            tok = binding.get(p)
            if tok is not None and tok.case_id == e.resource:
                resource_match = 1
                break

    if case_token is None:
        leq, closeness = 1, 0.0
    else:
        leq = 1 if case_token.available_at <= e.start else 0
        closeness = -abs(case_token.available_at - e.start)

    attr_dist = 0.0
    if case_token is not None:
        for name, value in e.attrs.items():
            have = case_token.attrs.get(name)
            if have is None:
                continue
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and isinstance(have, (int, float))
            ):
                attr_dist += abs(float(have) - float(value))
            elif have != value:
                attr_dist += 1.0
    return (1, resource_match, leq, closeness, -attr_dist)


def _best_move(
    net: Net, marking: Marking, e: Event, tau: float, check_guards: bool
) -> Optional[Binding]:
    """Best case-matching (and, when checking, guard-satisfying) binding."""
    bindings = enabled_bindings(
        net, marking, e.label, tau, check_guards=check_guards, case_id=e.case_id
    )
    best: Optional[tuple[tuple, int, Binding]] = None
    for i, y in enumerate(bindings):
        score = sim_score(net, e.label, y, e)
        if score[0] != 1:
            continue
        if best is None or (score, -i) > (best[0], -best[1]):
            best = (score, i, y)
    return best[2] if best else None


def _apply(net: Net, marking: Marking, e: Event, binding: Binding, tau: float) -> Marking:
    return fire(net, marking, e.label, binding, tau, e.complete - e.start, (e.case_id, e.attrs))


# an applied log move: the event, its binding and the marking it applied to
Move = tuple[Event, Binding, Marking]


def _greedy(
    net: Net, marking: Marking, events: list[Event], tau: float, check_guards: bool
) -> tuple[Marking, list[Move], list[Event]]:
    """Apply same-instant moves in rounds until a round applies none.

    Each round tries the still-pending events in the given order and applies
    every one that has a binding. Returns the final marking, the applied moves
    in order, and the events left unmatched.
    """
    moves: list[Move] = []
    pending = events
    while pending:
        left = []
        for e in pending:
            binding = _best_move(net, marking, e, tau, check_guards)
            if binding is None:
                left.append(e)
                continue
            moves.append((e, binding, marking))
            marking = _apply(net, marking, e, binding, tau)
        if len(left) == len(pending):
            break
        pending = left
    return marking, moves, pending


def _search_order(
    net: Net, marking: Marking, events: list[Event], tau: float
) -> Optional[tuple[Marking, list[Move]]]:
    """An order of same-instant moves under which every guard holds.

    Depth-first over the events in the given order; returns the final
    marking and the applied moves, or None when no order matches them all or
    none was found within ``MAX_SEARCH_MOVES`` calls of ``_best_move``.
    """
    budget = MAX_SEARCH_MOVES

    def search(marking: Marking, events: list[Event]) -> Optional[tuple[Marking, list[Move]]]:
        nonlocal budget
        if not events:
            return marking, []
        for i, e in enumerate(events):
            if budget == 0:
                return None
            budget -= 1
            binding = _best_move(net, marking, e, tau, check_guards=True)
            if binding is None:
                continue
            sub = search(_apply(net, marking, e, binding, tau), events[:i] + events[i + 1 :])
            if sub is not None:
                return sub[0], [(e, binding, marking)] + sub[1]
        return None

    return search(marking, events)


def replay(
    log: Log, net: Net, check_guards: bool = False
) -> tuple[list[StateSample], MatchReport]:
    """Execute all log moves; returns the sample sequence and a match report.

    Events with no enabled (or, when checking, guard-satisfying) binding are
    recorded as unmatched and skipped; the marking is repaired by injecting
    the event's case token into the transition's case input place so later
    moves of the same case still line up. Samples at repaired timestamps are
    flagged and excluded from pattern mining.
    """
    for label in sorted({e.label for e in log.events}):
        if label not in net.transitions or not net.transitions[label].is_task:
            raise ReplayError(f"log label {label!r} is not a task transition of the net")

    marking = net.initial_marking
    injections = _arrival_plan(log, net)
    inject_idx = 0

    groups: dict[float, list[Event]] = {}
    for e in log.events:  # already in global order
        groups.setdefault(e.start, []).append(e)

    samples: list[StateSample] = []
    report = MatchReport()
    gap_sum, gap_n = 0.0, 0

    for tau in sorted(groups):
        while inject_idx < len(injections) and injections[inject_idx][0] <= tau:
            _, source, case_id, attrs, avail = injections[inject_idx]
            marking = fire(net, marking, source, {}, avail, 0.0, (case_id, attrs))
            inject_idx += 1

        before = marking
        group = groups[tau]
        # downstream moves first (the order the FIFO policy fires them); the
        # sort is stable, so ties keep log order
        ordered = sorted(group, key=lambda e: -net.flow_depth(e.label))
        marking, moves, pending = _greedy(net, before, ordered, tau, check_guards)
        if pending and check_guards and len(group) <= MAX_SEARCH_GROUP:
            found = _search_order(net, before, ordered, tau)
            if found is not None:
                (marking, moves), pending = found, []

        at_fire: dict[str, Marking] = {}
        for e, binding, fired_from in moves:
            at_fire.setdefault(e.label, fired_from)
            report.matched += 1
            tok = net.case_token(e.label, binding, e.case_id)
            if tok is not None:
                gap_sum += abs(tok.available_at - e.start)
                gap_n += 1

        for e in pending:
            reason = "no binding"
            if check_guards and net.transitions[e.label].guard is not None and _best_move(
                net, marking, e, tau, check_guards=False
            ):
                reason = "guard not satisfied"
            report.unmatched.append((e, reason))
            case_inputs = net.case_inputs(e.label)
            if case_inputs:
                place = net.place(case_inputs[0])
                token = Token(e.case_id, place.project(e.attrs), tau)
                marking = marking.with_added(place.id, token)

        samples.append(
            StateSample(
                time=tau,
                before=before,
                after=marking,
                fired=frozenset(e.label for e in group),
                at_fire=at_fire,
                repaired=bool(pending),
            )
        )

    report.stats = {
        "events": float(report.total),
        "match_rate": report.match_rate,
        "mean_start_gap": (gap_sum / gap_n) if gap_n else 0.0,
    }
    return samples, report


def _arrival_plan(log: Log, net: Net) -> list[tuple[float, str, str, Mapping, float]]:
    """Non-task source firings reconstructed from first-event times.

    Each entry is ``(inject_at, source, case_id, attrs, avail)``: once the
    replay clock reaches ``inject_at``, the source fires at ``avail`` with the
    case's first-event data. A source claims every unclaimed case whose first
    event consumes from any of its case outputs. Mirrors the simulator's
    one-ahead behaviour: case k+1 enters the moment case k becomes available,
    so upcoming cases are visible as pending tokens one interarrival early.
    """
    first_events: dict[str, Event] = {}
    for e in log.events:
        current = first_events.get(e.case_id)
        if current is None or (e.start, e.complete) < (current.start, current.complete):
            first_events[e.case_id] = e

    plan: list[tuple[float, str, str, Mapping, float]] = []
    claimed: set[str] = set()
    for src in sorted(t.id for t in net.transitions.values() if t.arrival_spec and not t.is_task):
        outs = {p for p in postset(net, src) if net.places[p].kind == "case"}
        cases = sorted(
            (e.start, case_id, e)
            for case_id, e in first_events.items()
            if case_id not in claimed and outs.intersection(preset(net, e.label))
        )
        for i, (avail, case_id, e) in enumerate(cases):
            claimed.add(case_id)
            inject_at = cases[i - 1][0] if i > 0 else float("-inf")
            plan.append((inject_at, src, case_id, e.attrs, avail))
    plan.sort(key=lambda item: item[:3])
    return plan
