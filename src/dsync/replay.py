"""Replays an event log over a net via log moves.

Every event is executed as a log move at its start time: it consumes one
token off each binding pool, every case input giving a token of the event's
case (``_best_move``), and the produced tokens become available at the
event's completion time. Cases enter as the simulator lets them in: each
arrival is a zero-delay ``fire`` of its non-task source with the case's
first-event data, one interarrival ahead (``_arrival_plan``). One state
sample is made per distinct start time; it captures the marking both
before and after that timestamp's moves, and every move applied in between
with the marking it applied to, because a transition that fired is observed
in the state it fired from, while a transition that was passed over is
observed in the state that remained after everything else happened.

The moves of one start time are applied by a cyclic pass (``_walk``), in
both modes. It tries downstream moves first (larger ``Net.plan`` depth, ties
in log order) and, after each applied move, the remaining ones cyclically
from the one after it, until none applies; so a move whose input a
same-instant producer supplies still matches. Guard checks are off by
default: the discovery input is the unguarded process model. With
``check_guards`` on (the replayability check) each move must also satisfy
its transition's guard at the moment it applies. Downstream-first can close
a guard that the simulator's order left open, so a guard-checked group that
the pass leaves unmatched gets one more pass from the same marking, with the
unmatched moves first; it stands only if it matches every move.

An unmatched move repairs the marking as if it had happened for its case:
the case's token leaves the case inputs, and each case output gets a token
with the event's data at its completion; other places stay as they are.

Each sample is handed to an observer as soon as its timestamp is done and
kept only by an unguarded replay without one, so a marking outlives its
timestamp only where the caller keeps it: discovery reads what it needs off
each sample while it replays (``patterns.Observations``), and a
guard-checked replay needs only its match report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .acyclic import acyclic
from .errors import ReplayError
from .eventlog import Event, Log
from .net import Binding, Marking, Net, Token, binding_pools, fire, projected
from .net import enabled_bindings  # noqa: F401  unused; bench/tracer.py wraps this name

# an applied log move: the event, its binding and the marking it applied to
Move = tuple[Event, Binding, Marking]


class StateSample(NamedTuple):
    """State observed at one distinct event start time, an immutable named tuple.

    ``before``/``after`` bracket the timestamp's log moves. ``moves`` holds
    every move applied in between, in the order the walk applied them
    (downstream-first, like the simulator's FIFO policy resolves them, or,
    after a guard-checked retry, the unmatched moves first); a label's first
    move holds the marking its transition fired from. ``fired`` is the set
    of labels that start here; the samples of one replay share one
    ``frozenset`` per distinct set.
    """

    time: float
    before: Marking
    after: Marking
    fired: frozenset[str]
    moves: tuple[Move, ...] = ()
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


def sim_score(tok: Token, e: Event) -> tuple:
    """How well a case token matches an event, higher is better: the newest
    availability, as a pool holds only tokens enabled at the event's start,
    then the closest attributes."""
    attr_dist = 0.0
    for name, value in e.attrs.items():
        have = tok.attrs.get(name)
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
    return (tok.available_at, -attr_dist)


def _best_move(
    net: Net, marking: Marking, e: Event, tau: float, check_guards: bool
) -> Optional[Binding]:
    """The binding the log move of ``e`` consumes, one token per pool of
    ``binding_pools``, which keeps only the event's case in every case input
    (and, when checking, only what the guard lets through); None when a pool
    is empty.

    A case pool gives its first token maximising ``sim_score``; a resource
    pool gives the event's resource when it holds it, else its first token;
    any other pool gives its first token.
    """
    pools = binding_pools(net, marking, e.label, tau, check_guards, e.case_id)
    if pools is None:
        return None
    plan = net.plan(e.label)
    binding = {}
    for (p, _), pool in zip(plan.inputs, pools):
        tok = pool[0]
        if len(pool) > 1:
            if p in plan.case_inputs:
                tok = max(pool, key=lambda t: sim_score(t, e))
            elif p in plan.resource_inputs:
                tok = next((t for t in pool if t.case_id == e.resource), tok)
        binding[p] = tok
    return binding


def _descend(
    net: Net, marking: Marking, events: list[Event], tau: float, check_guards: bool
) -> tuple[Marking, list[Move], list[Event]]:
    """One cyclic pass over same-instant moves: each step tries the events
    left cyclically, from the one after the last applied move (from the first
    at the start), and applies the first that has a binding, until a full
    cycle applies none. Returns the final marking, the applied moves in order
    and the unmatched events in the given order."""
    m, rest, i = marking, events, 0
    moves: list[Move] = []
    while i < len(rest):
        e = rest[i]
        binding = _best_move(net, m, e, tau, check_guards)
        if binding is None:
            i += 1
            continue
        moves.append((e, binding, m))
        m = fire(net, m, e.label, binding, tau, e.complete - e.start, (e.case_id, e.attrs))
        rest, i = rest[i + 1 :] + rest[:i], 0
    left = set(map(id, rest))
    return m, moves, [e for e in events if id(e) in left]


def _walk(
    net: Net, marking: Marking, events: list[Event], tau: float, check_guards: bool
) -> tuple[Marking, Sequence[Move], list[Event]]:
    """Apply the moves of one start time, ``events`` in log order.

    One pass (``_descend``) tries downstream moves first (larger
    ``Net.plan`` depth, ties in log order), the order the simulator's FIFO
    policy fires them. When it leaves a guard-checked group unmatched, a
    second pass from the same marking tries the unmatched events first and
    the rest downstream-first; it is kept only when it matches every event.
    Returns the final marking, the applied moves in order (a tuple for a lone
    event, which ``replay`` keeps as it is), and the unmatched events in
    downstream-first order.
    """
    if len(events) == 1:  # one order, nothing to retry
        (e,) = events
        y = _best_move(net, marking, e, tau, check_guards)
        if y is None:
            return marking, (), [e]
        m = fire(net, marking, e.label, y, tau, e.complete - e.start, (e.case_id, e.attrs))
        return m, ((e, y, marking),), []
    ordered = sorted(events, key=lambda e: -net.plan(e.label).depth)  # stable
    first = _descend(net, marking, ordered, tau, check_guards)
    pending = first[2]
    if check_guards and pending:
        left = set(map(id, pending))
        retry = pending + [e for e in ordered if id(e) not in left]
        second = _descend(net, marking, retry, tau, check_guards)
        if not second[2]:
            return second
    return first


@acyclic
def replay(
    log: Log,
    net: Net,
    check_guards: bool = False,
    observer: Optional[Callable[[StateSample], None]] = None,
) -> tuple[list[StateSample], MatchReport]:
    """Execute all log moves; returns the samples it kept and a match report.

    Each timestamp's sample goes to ``observer`` once its moves are applied,
    and the replay keeps none. Without an observer, an unguarded replay keeps
    every sample and returns them in time order, and a guard-checked replay
    (``check_guards``) returns none.

    Before the first move, a log label that is no task of the net, an empty
    case id on a transition with a case input, or a log column holding values
    of another type than a case place declares, raises ``ReplayError``. Events
    with no enabled (or, when checking, guard-satisfying) binding are recorded
    as unmatched and skipped; the marking is repaired as if the move had
    happened for its case, so later moves of the same case still line up.
    Samples at repaired timestamps are flagged and excluded from pattern
    mining. Runs with the cyclic garbage collector paused (``acyclic``).
    """
    for label in sorted({e.label for e in log.events}):
        if label not in net.transitions or not net.transitions[label].is_task:
            raise ReplayError(f"log label {label!r} is not a task transition of the net")
    for label in sorted({e.label for e in log.events if not e.case_id}):
        if net.plan(label).case_inputs:
            raise ReplayError(f"an event of {label!r} has an empty case id but takes a case token")
    for col, typ in log.schema:
        for p, place in sorted(net.places.items()):
            declared = dict(place.attributes).get(col, typ)
            if place.kind == "case" and declared != typ and any(col in e.attrs for e in log.events):
                raise ReplayError(
                    f"log column {col!r} holds {typ} values but case place {p!r} "
                    f"declares {col!r} as {declared}"
                )

    marking = net.initial_marking
    injections = _arrival_plan(log, net)
    inject_idx = 0

    groups: dict[float, list[Event]] = {}
    for e in log.events:  # already in global order
        groups.setdefault(e.start, []).append(e)

    samples: list[StateSample] = []
    if observer is None and not check_guards:
        observer = samples.append
    fired_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct set
    report = MatchReport()
    gap_sum, gap_n = 0.0, 0

    for tau in sorted(groups):
        while inject_idx < len(injections) and injections[inject_idx][0] <= tau:
            _, source, case_id, attrs, avail = injections[inject_idx]
            marking = fire(net, marking, source, {}, avail, 0.0, (case_id, attrs))
            inject_idx += 1

        before = marking
        group = groups[tau]
        marking, moves, pending = _walk(net, before, group, tau, check_guards)

        for e, binding, _ in moves:
            report.matched += 1
            case_inputs = net.plan(e.label).case_inputs
            if case_inputs:
                gap_sum += abs(binding[case_inputs[0]].available_at - e.start)
                gap_n += 1

        for e in pending:
            reason = "no binding"
            if check_guards and net.transitions[e.label].guard is not None and _best_move(
                net, marking, e, tau, check_guards=False
            ):
                reason = "guard not satisfied"
            report.unmatched.append((e, reason))
            plan = net.plan(e.label)
            for p in plan.case_inputs:
                own = [tok for tok in marking.tokens(p) if tok.case_id == e.case_id]
                if own:
                    marking = marking.with_removed(p, own[0])
            for p, kind, names in plan.outputs:
                if kind == "case":
                    token = Token(e.case_id, projected(e.attrs, names), e.complete)
                    marking = marking.with_added(p, token)

        if observer is not None:
            fired = frozenset([e.label for e in group])
            fired = fired_sets.setdefault(fired, fired)
            observer(StateSample(tau, before, marking, fired, tuple(moves), bool(pending)))

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
        outs = {p for p, kind, _ in net.plan(src).outputs if kind == "case"}
        cases = sorted(
            (e.start, case_id, e)
            for case_id, e in first_events.items()
            if case_id not in claimed and outs.intersection(net.preset[e.label])
        )
        for i, (avail, case_id, e) in enumerate(cases):
            claimed.add(case_id)
            inject_at = cases[i - 1][0] if i > 0 else float("-inf")
            plan.append((inject_at, src, case_id, e.attrs, avail))
    plan.sort(key=lambda item: item[:3])
    return plan
