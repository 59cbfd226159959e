"""Acceptance suite: end-to-end round trips at pinned tolerances.

Each criterion prints one PASS line when it holds (run with ``-s`` to see
them); a failing assertion marks the criterion FAIL. Round trips simulate
at least 500 cases per model and must run in well under a minute each.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from dsync.eventlog import write_log
from dsync.extract import annotate_net, discover_run
from dsync.modelfile import load_model
from dsync.patterns import PatternKind, build_pt_log, detect_constructs, observe
from dsync.replay import replay
from dsync.report import build_report, report_to_json
from dsync.simulate import SimConfig, simulate
from dsync.tree import TreeParams, fit, gini, predict, training_accuracy

from tests.conftest import model_path


def ok(line: str) -> None:
    print(f"[PASS] {line}")


def atom_const(pc, kind: str) -> float:
    return [a.const for a in pc.expr.atoms if a.feature.kind == kind][0]


def run_round_trip(name: str, seed: int = 1, max_cases: int = 500):
    net = load_model(model_path(name))
    log = simulate(net, SimConfig(seed=seed, max_cases=max_cases))
    run = discover_run(log, net)
    return net, log, run


# -- criterion 1: single-pattern round trips ---------------------------------

def test_criterion_1_priority():
    start = time.time()
    net, log, run = run_round_trip("priority")
    assert len(run.constraints) == 1, [c.describe() for c in run.constraints]
    pc = run.constraints[0]
    assert pc.kind == PatternKind.PRIORITY and pc.t_g == "handling"
    ratio = atom_const(pc, "ratio")
    assert abs(ratio - 1.5) <= 0.075  # within 5% of the modeled factor
    enabled = [a for a in pc.expr.atoms if a.feature.kind == "attrenabled"]
    assert len(enabled) == 1 and enabled[0].const is True
    elapsed = time.time() - start
    assert elapsed < 60
    ok(f"criterion 1 (priority): ratio <= {ratio:.4f} and availability atom, "
       f"single constraint, {elapsed:.1f}s")


def test_criterion_1_blocking():
    start = time.time()
    net, log, run = run_round_trip("blocking")
    assert len(run.constraints) == 1, [c.describe() for c in run.constraints]
    pc = run.constraints[0]
    assert pc.kind == PatternKind.BLOCKING and pc.t_g == "pre-processing"
    threshold = atom_const(pc, "nrtokens")
    assert 4 < threshold < 5
    elapsed = time.time() - start
    assert elapsed < 60
    ok(f"criterion 1 (blocking): nrtokens <= {threshold}, single constraint, "
       f"{elapsed:.1f}s")


def test_criterion_1_holdbatch():
    start = time.time()
    net, log, run = run_round_trip("holdbatch")
    assert len(run.constraints) == 1, [c.describe() for c in run.constraints]
    pc = run.constraints[0]
    assert pc.kind == PatternKind.HOLD_BATCH and pc.t_g == "transportation"
    count = atom_const(pc, "nrtokensenabled")
    until = atom_const(pc, "timeuntilnext")
    assert 3 < count < 4
    assert abs(until - 2.0) <= 0.2  # within 10% of the modeled 2.0
    elapsed = time.time() - start
    assert elapsed < 60
    ok(f"criterion 1 (hold-batch): count > {count}, time > {until:.3f}, "
       f"single constraint, {elapsed:.1f}s")


def test_criterion_1_choice():
    start = time.time()
    net, log, run = run_round_trip("choice")
    assert len(run.constraints) == 1, [c.describe() for c in run.constraints]
    pc = run.constraints[0]
    assert pc.kind == PatternKind.CHOICE and pc.t_g == "production_a"
    until = atom_const(pc, "timeuntilnext")
    assert abs(until - 2.0) <= 0.2  # within 10% of the modeled 2.0
    elapsed = time.time() - start
    assert elapsed < 60
    ok(f"criterion 1 (choice): time > {until:.3f}, single constraint, {elapsed:.1f}s")


# -- criterion 2: multi-pattern round trip over ten seeds --------------------

EXPECTED_MULTI = {
    ("game_case_arriving", PatternKind.BLOCKING),
    ("production_game", PatternKind.CHOICE),
    ("production_phone", PatternKind.PRIORITY),
    ("transportation", PatternKind.HOLD_BATCH),
}


@pytest.fixture(scope="session")
def multi_runs(supplychain_net):
    runs = {}
    for seed in range(1, 11):
        log = simulate(supplychain_net, SimConfig(seed=seed, max_cases=500))
        runs[seed] = (log, discover_run(log, supplychain_net))
    return runs


def test_criterion_2_supply_chain(supplychain_net, multi_runs):
    threshold_misses = []
    for seed, (log, run) in multi_runs.items():
        got = {(pc.t_g, pc.kind) for pc in run.constraints}
        assert got == EXPECTED_MULTI, f"seed {seed}: {sorted(got)}"
        in_band = True
        for pc in run.constraints:
            if pc.kind == PatternKind.BLOCKING:
                in_band &= 2 < atom_const(pc, "nrtokens") < 3
            elif pc.kind == PatternKind.CHOICE:
                in_band &= abs(atom_const(pc, "timeuntilnext") - 0.5) <= 0.075
            elif pc.kind == PatternKind.HOLD_BATCH:
                in_band &= 2 < atom_const(pc, "nrtokensenabled") < 3
                in_band &= abs(atom_const(pc, "timeuntilnext") - 1.0) <= 0.15
            else:
                ratio = atom_const(pc, "ratio")
                in_band &= 1 < ratio < 100
                in_band &= any(a.feature.kind == "attrenabled" for a in pc.expr.atoms)
        if not in_band:
            threshold_misses.append(seed)
    # kind/target correctness must hold in 10/10; threshold bands may be
    # missed in at most 2 of 10 runs
    assert len(threshold_misses) <= 2, threshold_misses
    ok(f"criterion 2 (supply chain): all four patterns on the right transitions "
       f"in 10/10 seeds, thresholds in band in {10 - len(threshold_misses)}/10")


# -- criterion 3: replayability of annotated nets ----------------------------

def test_criterion_3_replayability(
    priority_net, priority_log, blocking_net, blocking_log,
    holdbatch_net, holdbatch_log, choice_net, choice_log,
    supplychain_net, multi_runs,
):
    cases = [
        ("priority", priority_net, priority_log),
        ("blocking", blocking_net, blocking_log),
        ("holdbatch", holdbatch_net, holdbatch_log),
        ("choice", choice_net, choice_log),
    ]
    for name, net, log in cases:
        run = discover_run(log, net)
        annotated = annotate_net(net.without_guards(), run.constraints)
        _, report = replay(log, annotated, check_guards=True)
        assert report.matched == len(log.events), name
        assert not report.unmatched, (name, report.unmatched[:3])
    for seed, (log, run) in multi_runs.items():
        annotated = annotate_net(supplychain_net.without_guards(), run.constraints)
        _, report = replay(log, annotated, check_guards=True)
        assert not report.unmatched, (seed, report.unmatched[:3])
    ok("criterion 3: discovered guards replay every training log 100% matched")


# -- criterion 4: no false positives on unguarded models ---------------------

def test_criterion_4_unguarded_controls():
    for name in ("priority", "blocking", "holdbatch", "choice", "supplychain"):
        net = load_model(model_path(name)).without_guards()
        log = simulate(net, SimConfig(seed=1, max_cases=500))
        run = discover_run(log, net)
        assert run.constraints == [], (name, [c.describe() for c in run.constraints])
    ok("criterion 4: guard-stripped controls discover zero constraints")


# -- criterion 5: component oracles ------------------------------------------

def test_criterion_5a_gini_exact():
    rng = random.Random(424242)
    for _ in range(1000):
        f, t = rng.randint(0, 1_000_000), rng.randint(0, 1_000_000)
        if f + t == 0:
            f = 1
        exact = 1 - Fraction(f, f + t) ** 2 - Fraction(t, f + t) ** 2
        assert gini(f, t) == float(exact)
    ok("criterion 5a: gini matches the closed form exactly on 1000 count pairs")


def _oracle_depth2_accuracy(xs, ys) -> float:
    n = len(ys)

    def best_leaf(idx):
        t = sum(ys[i] for i in idx)
        return max(t, len(idx) - t)

    def candidate_splits(idx, f):
        values = sorted({xs[i][f] for i in idx})
        return [(a + b) / 2 for a, b in zip(values, values[1:])]

    def best_depth1(idx):
        best = best_leaf(idx)
        for f in range(len(xs[0])):
            for thr in candidate_splits(idx, f):
                left = [i for i in idx if xs[i][f] > thr]
                right = [i for i in idx if xs[i][f] <= thr]
                best = max(best, best_leaf(left) + best_leaf(right))
        return best

    everything = list(range(n))
    best = best_depth1(everything)
    for f in range(len(xs[0])):
        for thr in candidate_splits(everything, f):
            left = [i for i in everything if xs[i][f] > thr]
            right = [i for i in everything if xs[i][f] <= thr]
            best = max(best, best_depth1(left) + best_depth1(right))
    return best / n


def test_criterion_5b_fit_attains_depth2_oracle():
    rng = random.Random(20260808)
    for _ in range(200):
        n = rng.randint(4, 12)
        d = rng.randint(1, 3)
        xs = [[rng.uniform(0, 10) for _ in range(d)] for _ in range(n)]
        ys = [rng.random() < 0.5 for _ in range(n)]
        if all(ys) or not any(ys):
            ys[0] = not ys[0]
        tree = fit(xs, ys, TreeParams(max_depth=5, min_samples_leaf=1))
        assert training_accuracy(tree, xs, ys) >= _oracle_depth2_accuracy(xs, ys) - 1e-12
    ok("criterion 5b: fit attains the exhaustive depth-2 oracle's accuracy "
       "on 200 random small datasets")


def test_criterion_5c_observation_table_reproduction(priority_net, table1_log):
    samples, report = replay(table1_log, priority_net)
    assert report.matched == 9 and not report.unmatched
    candidate = [
        c for c in detect_constructs(priority_net) if c.kind == PatternKind.PRIORITY
    ][0]
    observations = observe(priority_net, samples, [candidate.t_g])[candidate.t_g]
    pt = build_pt_log(priority_net, candidate, observations)
    rows = {r.time: r for r in pt.rows}
    assert rows[5].label is False
    assert rows[15].label is True
    assert rows[22].label is True
    at5 = rows[5]
    assert at5.values[0] == 855
    assert at5.values[2] == 118
    assert at5.values[4] == pytest.approx(7.25, abs=0.005)
    assert at5.values[8] is False
    ok("criterion 5c: replay of the bundled nine-event log reproduces the "
       "observation-outcome rows (855/118/7.25/false at t=5; labels F/T/T)")


def test_criterion_5d_log_round_trips(table1_log, priority_log, blocking_log,
                                       holdbatch_log, choice_log):
    from dsync.eventlog import parse_log

    for log in (table1_log, priority_log, blocking_log, holdbatch_log, choice_log):
        assert parse_log(write_log(log)) == log
    ok("criterion 5d: parse/write round-trip identity on all bundled logs")


# -- criterion 6: determinism -------------------------------------------------

def test_criterion_6_determinism(blocking_net):
    log_a = simulate(blocking_net, SimConfig(seed=11, max_cases=200))
    log_b = simulate(blocking_net, SimConfig(seed=11, max_cases=200))
    assert write_log(log_a) == write_log(log_b)
    report_a = report_to_json(build_report(discover_run(log_a, blocking_net), blocking_net, log_a))
    report_b = report_to_json(build_report(discover_run(log_b, blocking_net), blocking_net, log_b))
    assert report_a == report_b
    ok("criterion 6: identical seeds give byte-identical logs and reports")
