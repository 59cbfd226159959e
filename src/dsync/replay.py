"""Replays an event log over a net via log moves.

Every event is executed as a log move at its start time: it consumes one
token off each binding pool, every case input giving a token of the event's
case (``_best_move``), and the produced tokens become available at the
event's completion time. Cases enter as the simulator lets them in: each
arrival is a zero-delay ``fire`` of its non-task source with the case's
first-event data, one interarrival ahead (``_arrival_plan``). Every move
changes one marking, a copy of the net's initial one, in place. An observer
sees each move before it applies, because a transition that fired is
observed in the state it fired from, and the marking at the end of each
distinct start time, because a transition that was passed over is observed
in the state that remained after everything else happened.

The moves of one start time are applied by a cyclic pass (``_walk``), in
both modes. It tries downstream moves first (larger ``Net.plan`` depth, ties
in log order) and, after each applied move, the remaining ones cyclically
from the one after it, until none applies; so a move whose input a
same-instant producer supplies still matches. Guard checks are off by
default: the discovery input is the unguarded process model. With
``check_guards`` on (the replayability check) each move must also satisfy
its transition's guard at the moment it applies. Downstream-first can close
a guard that the simulator's order left open, so a guard-checked group that
the pass leaves unmatched gets one more pass from the same marking (undone
through its journal), with the unmatched moves first; it stands only if it
matches every move.

An unmatched move repairs the marking as if it had happened for its case:
the case's token leaves the case inputs, and each case output gets a token
with the event's data at its completion; other places stay as they are.

Discovery reads what it needs while it replays (``patterns.Observations``);
only an unguarded replay without an observer keeps samples, of copies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

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
    (downstream-first, like the simulator's FIFO policy resolves them); a
    label's first move holds the marking its transition fired from (a copy).
    ``fired`` is the set of labels that start here; the samples of one replay
    share one ``frozenset`` per distinct set.
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
    net: Net, marking: Marking, events: list[Event], tau: float, check_guards: bool, see=None
) -> tuple[list[tuple[Event, Binding]], list[Event]]:
    """One cyclic pass over same-instant moves, applied to ``marking``: each
    step tries the events left cyclically, from the one after the last
    applied move (from the first at the start), and applies the first that
    has a binding (shown to ``see`` first), until a full cycle applies none.
    Returns the applied moves in order and the unmatched events in order."""
    rest, i = events, 0
    moves = []
    while i < len(rest):
        e = rest[i]
        binding = _best_move(net, marking, e, tau, check_guards)
        if binding is None:
            i += 1
            continue
        moves.append((e, binding))
        if see is not None:
            see(e, binding, marking, tau)
        fire(net, marking, e.label, binding, tau, e.complete - e.start, (e.case_id, e.attrs))
        rest, i = rest[i + 1 :] + rest[:i], 0
    left = set(map(id, rest))
    return moves, [e for e in events if id(e) in left]


def _walk(
    net: Net, marking: Marking, events: list[Event], tau: float, check_guards: bool, see=None
) -> tuple[Sequence[tuple[Event, Binding]], list[Event]]:
    """Apply the moves of one start time, ``events`` in log order, to ``marking``.

    One pass (``_descend``) tries downstream moves first (larger
    ``Net.plan`` depth, ties in log order), the order the simulator's FIFO
    policy fires them. When it leaves a guard-checked group unmatched, it is
    undone through the marking's journal, and a second pass tries the
    unmatched events first and the rest downstream-first; it is kept only
    when it matches every event, else the first pass is redone. Returns the
    applied moves in order, and the unmatched events in downstream-first order.
    """
    if len(events) == 1:  # one order, nothing to retry
        (e,) = events
        y = _best_move(net, marking, e, tau, check_guards)
        if y is None:
            return (), [e]
        if see is not None:
            see(e, y, marking, tau)
        fire(net, marking, e.label, y, tau, e.complete - e.start, (e.case_id, e.attrs))
        return ((e, y),), []
    ordered = sorted(events, key=lambda e: -net.plan(e.label).depth)  # stable
    marking.journal = first = [] if check_guards else None
    moves, pending = _descend(net, marking, ordered, tau, check_guards, see)
    if check_guards and pending:
        marking.undo(first)
        marking.journal = second = []
        left = set(map(id, pending))
        retry = _descend(net, marking, pending + [e for e in ordered if id(e) not in left], tau, True)
        if retry[1]:
            marking.undo(second)
            marking.undo(first, redo=True)
        else:
            moves, pending = retry
    marking.journal = None
    return moves, pending


class _Kept:
    """The observer behind an unguarded replay's samples, of marking copies;
    a timestamp's first move applies to the marking it began with."""

    def __init__(self) -> None:
        self.samples: list[StateSample] = []
        self.before: Optional[Marking] = None
        self.moves: list[Move] = []

    def move(self, e: Event, binding: Binding, marking: Marking, now: float) -> None:
        self.moves.append((e, binding, marking.copy() if self.moves else self.before))

    def step(self, now: float, marking: Marking, fired: frozenset[str], repaired: bool) -> None:
        moves, self.moves = tuple(self.moves), []
        self.samples.append(StateSample(now, self.before, marking.copy(), fired, moves, repaired))


@acyclic
def replay(
    log: Log,
    net: Net,
    check_guards: bool = False,
    observer=None,
) -> tuple[list[StateSample], MatchReport]:
    """Execute all log moves; returns the samples it kept and a match report.

    ``observer.move(e, binding, marking, now)`` precedes each move of an
    unguarded replay (a guard-checked one's retry can undo a move), and
    ``observer.step(now, marking, fired, repaired)`` ends each timestamp; the
    replay's ``marking`` changes with the next move, and no sample is kept.
    Else an unguarded replay returns a ``StateSample`` per timestamp.

    Before the first move, a log label that is no task of the net, an empty
    case id on a transition with a case input, or a log column holding values
    of another type than a case place declares, raises ``ReplayError``. Events
    with no enabled (or, when checking, guard-satisfying) binding are recorded
    as unmatched and skipped; the marking is repaired as if the move had
    happened for its case, so later moves of the same case still line up.
    Timestamps with a repair are flagged and excluded from pattern mining.
    Runs with the cyclic garbage collector paused (``acyclic``).
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

    marking = net.initial_marking.copy()
    injections = _arrival_plan(log, net)
    inject_idx = 0

    groups: dict[float, list[Event]] = {}
    for e in log.events:  # already in global order
        groups.setdefault(e.start, []).append(e)

    kept = _Kept() if observer is None and not check_guards else None
    observer = observer or kept
    see = observer.move if observer is not None and not check_guards else None
    fired_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct set
    report = MatchReport()
    gap_sum, gap_n = 0.0, 0

    for tau in sorted(groups):
        while inject_idx < len(injections) and injections[inject_idx][0] <= tau:
            _, source, case_id, attrs, avail = injections[inject_idx]
            fire(net, marking, source, {}, avail, 0.0, (case_id, attrs))
            inject_idx += 1

        if kept is not None:
            kept.before = marking.copy()
        group = groups[tau]
        moves, pending = _walk(net, marking, group, tau, check_guards, see)

        for e, binding in moves:
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
                    marking.remove(p, own[0])
            for p, kind, names in plan.outputs:
                if kind == "case":
                    marking.add(p, Token(e.case_id, projected(e.attrs, names), e.complete))

        if observer is not None:
            fired = frozenset([e.label for e in group])
            observer.step(tau, marking, fired_sets.setdefault(fired, fired), bool(pending))

    report.stats = {
        "events": float(report.total),
        "match_rate": report.match_rate,
        "mean_start_gap": (gap_sum / gap_n) if gap_n else 0.0,
    }
    return (kept.samples if kept is not None else []), report


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
