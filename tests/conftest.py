from __future__ import annotations

import importlib
import pathlib
from typing import Callable, Iterable, Optional

import pytest

from dsync.constraints import RATIO_EPSILON, eval_feature
from dsync.eventlog import Log, load_log
from dsync.modelfile import load_model
from dsync.net import Net, has_enabled_binding
from dsync.patterns import PatternCandidate, PatternTransitionLog, PTRow, features_for
from dsync.replay import MatchReport, StateSample
from dsync.simulate import SimConfig, simulate

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def model_path(name: str) -> str:
    return str(MODELS / f"{name}.json")


def fifo_key(net: Net, t_id: str, binding: dict, clock: float) -> tuple:
    """The simulator's firing priority of a binding at ``clock``, built from
    the whole binding: the oracle for the key ``simulate.fifo_first`` reads
    off the tokens it chose. The binding whose newest consumed token is oldest
    goes first, then the downstream transition, then the smaller case id,
    then the transition id."""
    newest = max((tok.available_at for tok in binding.values()), default=clock)
    plan = net.plan(t_id)
    case_id = binding[plan.case_inputs[0]].case_id if plan.case_inputs else ""
    return (newest, -plan.depth, case_id, t_id)


# -- the kept-samples oracle of the streamed discovery ------------------------
# Discovery once kept every sample of its replay and read them afterwards:
# ``observe_samples`` found each guarded transition's moments, ``pt_log_of``
# read a candidate's features off those moments' markings, and
# ``read_off_samples`` tested the annotated guards on every kept move's
# marking and binding. ``patterns.Observations`` does all three while the
# replay runs and keeps no marking; these are the oracle it must equal.


class Ends:
    """A replay observer that keeps each timestamp's end: whether it was
    repaired, and its marking as (case id, availability) pairs per place."""

    def __init__(self) -> None:
        self.repaired: list[bool] = []
        self.markings: list[dict] = []

    def move(self, e, binding, marking, now) -> None:
        pass

    def step(self, now, marking, fired, repaired) -> None:
        self.repaired.append(repaired)
        self.markings.append({p: [(tok.case_id, tok.available_at) for tok in marking.tokens(p)]
                              for p in marking.places()})


def shown(observer, s: StateSample) -> None:
    """Show a kept sample to ``observer`` as ``replay`` shows a timestamp:
    each move with the marking it applied to, then the timestamp's end."""
    for e, binding, m in s.moves:
        observer.move(e, binding, m, s.time)
    observer.step(s.time, s.after, s.fired, s.repaired)


def fired_from(s: StateSample, t: str):
    """The marking before ``t``'s first move in ``s``: the state it fired from."""
    return next(m for e, _, m in s.moves if e.label == t)


def observe_samples(
    net: Net, samples: list[StateSample], transitions: Iterable[str]
) -> dict[str, list[tuple[float, object, bool]]]:
    """Each transition's (time, marking, fired) moments, up to its last start:
    in the state it fired from when it fired, in the post-move marking when
    it was passed over with an enabled binding; repaired samples skipped."""
    out: dict[str, list] = {t: [] for t in sorted(set(transitions))}
    last: dict[str, float] = {}
    for s in samples:
        for t in s.fired.intersection(out):
            last[t] = max(s.time, last.get(t, s.time))
    for s in samples:
        if s.repaired:
            continue
        for t in out:
            if t not in last or s.time > last[t]:
                continue
            if t in s.fired:
                out[t].append((s.time, fired_from(s, t), True))
            elif has_enabled_binding(net, s.after, t, s.time):
                out[t].append((s.time, s.after, False))
    return out


def pt_log_of(c: PatternCandidate, observations) -> PatternTransitionLog:
    """``c``'s features evaluated on each observed marking; a ratio whose
    parts come before it is computed from their values."""
    feats = tuple(features_for(c))
    index = {f: i for i, f in enumerate(feats)}
    rows = []
    for now, marking, fired in observations:
        values: list = []
        for i, f in enumerate(feats):
            if f.kind == "ratio" and index.get(f.num, i) < i and index.get(f.den, i) < i:
                values.append(values[index[f.num]] / max(values[index[f.den]], RATIO_EPSILON))
            else:
                values.append(eval_feature(f, marking, now))
        rows.append(PTRow(now, tuple(values), fired))
    return PatternTransitionLog(c, feats, rows)


def read_off_samples(
    net: Net, samples: list[StateSample], report: MatchReport, annotated: Net
) -> Optional[MatchReport]:
    """The guard-checked replay's report, read off the kept moves of an
    unguarded replay; None when they do not settle it."""
    if report.unmatched:
        return None
    guards = {t: tr.guard for t, tr in annotated.transitions.items() if tr.guard is not None}
    if any(p in net.unread for g in guards.values() for p, _ in g.references()):
        return None
    for s in samples:
        for e, binding, m in s.moves:
            guard = guards.get(e.label)
            if guard is not None and not (
                guard.holds(m, s.time) and guard.binding_ok(m, s.time, binding)
            ):
                return None
    return MatchReport(report.matched, [], dict(report.stats))


# -- replay fidelity: the simulator's states against replay's ------------------


def task_firings(module_name: str, call: Callable[[], object]) -> tuple[dict, object]:
    """Run ``call()`` with the ``fire`` that ``module_name`` (``dsync.simulate``
    or ``dsync.replay``) calls wrapped, and return its result and each task
    firing keyed by (case id, label, start): the marking the firing applied
    to, each place as sorted (case id, availability) pairs, and its binding,
    each bound token as (case id, availability)."""
    # the package binds ``simulate`` and ``replay`` to functions, so fetch the modules
    module = importlib.import_module(module_name)
    fire, firings = module.fire, {}

    def recorded(net, m, t_id, binding, now, delay, case=None):
        if net.transitions[t_id].is_task:
            key = (case[0] if case else "", t_id, now)
            # a replay that retried a group would apply some moves twice
            assert key not in firings, f"{key} fired twice"
            firings[key] = (
                {p: sorted((tok.case_id or "", tok.available_at) for tok in m.tokens(p))
                 for p in net.places},
                {p: (tok.case_id, tok.available_at) for p, tok in binding.items()},
            )
        return fire(net, m, t_id, binding, now, delay, case)

    module.fire = recorded
    try:
        result = call()
    finally:
        module.fire = fire
    return firings, result


@pytest.fixture(scope="session")
def priority_net() -> Net:
    return load_model(model_path("priority"))


@pytest.fixture(scope="session")
def blocking_net() -> Net:
    return load_model(model_path("blocking"))


@pytest.fixture(scope="session")
def holdbatch_net() -> Net:
    return load_model(model_path("holdbatch"))


@pytest.fixture(scope="session")
def choice_net() -> Net:
    return load_model(model_path("choice"))


@pytest.fixture(scope="session")
def supplychain_net() -> Net:
    return load_model(model_path("supplychain"))


@pytest.fixture(scope="session")
def table1_log() -> Log:
    return load_log(str(MODELS / "table1.csv"))


# heavier artifacts shared between test modules and the acceptance suite

@pytest.fixture(scope="session")
def priority_log(priority_net) -> Log:
    return simulate(priority_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def blocking_log(blocking_net) -> Log:
    return simulate(blocking_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def holdbatch_log(holdbatch_net) -> Log:
    return simulate(holdbatch_net, SimConfig(seed=1, max_cases=500))


@pytest.fixture(scope="session")
def choice_log(choice_net) -> Log:
    return simulate(choice_net, SimConfig(seed=1, max_cases=500))
