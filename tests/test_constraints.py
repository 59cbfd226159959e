from __future__ import annotations

import random

import pytest

from dsync.constraints import (
    AGGS,
    NO_PENDING_SENTINEL,
    RATIO_EPSILON,
    Atom,
    ConstraintExpr,
    FeatureRef,
    eval_feature,
    parse_constraint,
)
from dsync.errors import ConstraintSyntaxError
from dsync.modelfile import load_model
from dsync.net import Marking, Token
from dsync.patterns import detect_constructs, features_for
from dsync.replay import replay
from dsync.simulate import SimConfig, simulate
from tests.conftest import model_path

PRIORITY_GUARD = (
    "ratio(attrval(arrival, value, max), attrval(q1, value, max)) <= 1.5 "
    "and attrenabled(q1, value, max) == true"
)


def marking(arrival=(), q1=()):
    m = Marking()
    for cid, value, at in arrival:
        m.add("arrival", Token(cid, {"value": value}, at))
    for cid, value, at in q1:
        m.add("q1", Token(cid, {"value": value}, at))
    return m


def by_case(m, place):
    return {tok.case_id: tok for tok in m.tokens(place)}


def test_parse_priority_guard():
    expr = parse_constraint(PRIORITY_GUARD)
    assert len(expr.atoms) == 2
    ratio, enabled = expr.atoms
    assert ratio.feature.kind == "ratio" and ratio.op == "<=" and ratio.const == 1.5
    assert enabled.feature.kind == "attrenabled" and enabled.const is True


def test_parse_single_atom():
    expr = parse_constraint("nrtokens(q1) < 5")
    assert len(expr.atoms) == 1
    assert expr.atoms[0].canonical() == "nrtokens(q1) < 5"


def test_parse_error_reports_position():
    text = "nrtokens(q1) <"
    with pytest.raises(ConstraintSyntaxError) as err:
        parse_constraint(text)
    assert err.value.position == len(text)


@pytest.mark.parametrize("text", ["", "   "])
def test_parse_rejects_an_empty_constraint_at_offset_0(text):
    with pytest.raises(ConstraintSyntaxError, match="empty constraint") as err:
        parse_constraint(text)
    assert err.value.position == 0


def test_parse_rejects_boolean_misuse():
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint("attrenabled(q1, value, max) <= 1")
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint("nrtokens(q1) == true")


def test_canonical_round_trip():
    expr = parse_constraint(PRIORITY_GUARD)
    again = parse_constraint(expr.canonical())
    assert again == expr


def test_ratio_and_enabled_on_pending_state():
    # arrival holds the next job (801) still in transit; the queue's best
    # (855) just became available
    m = marking(arrival=[("4", 801, 15.0)], q1=[("1", 100, 5.0), ("3", 855, 15.0)])
    ratio = FeatureRef.ratio(
        FeatureRef.attrval("arrival", "value", "max"),
        FeatureRef.attrval("q1", "value", "max"),
    )
    assert eval_feature(ratio, m, 15.0) == pytest.approx(801 / 855)
    assert eval_feature(FeatureRef.attrenabled("q1", "value", "max"), m, 15.0) is True
    assert eval_feature(FeatureRef.attrenabled("q1", "value", "max"), m, 14.0) is False


def test_time_until_next_sentinel():
    m = marking(q1=[("1", 100, 5.0)])
    f = FeatureRef.timeuntilnext("q1")
    assert eval_feature(f, m, 3.0) == pytest.approx(2.0)
    assert eval_feature(f, m, 5.0) == NO_PENDING_SENTINEL


def test_ratio_epsilon_guard():
    m = marking(arrival=[("1", 400, 0.0)])
    ratio = FeatureRef.ratio(
        FeatureRef.attrval("arrival", "value", "max"),
        FeatureRef.attrval("q1", "value", "max"),
    )
    # empty denominator place evaluates to 0, substituted by 0.01
    assert eval_feature(ratio, m, 0.0) == pytest.approx(400 / 0.01)


def test_attrval_empty_place_is_zero_and_not_enabled():
    m = Marking()
    assert eval_feature(FeatureRef.attrval("q1", "value", "max"), m, 0.0) == 0.0
    assert eval_feature(FeatureRef.attrenabled("q1", "value", "max"), m, 0.0) is False


def test_counts_enabled_never_exceed_totals():
    rng = random.Random(42)
    for _ in range(50):
        m = Marking()
        for i in range(rng.randint(0, 10)):
            m.add("q1", Token(str(i), {"value": rng.randint(1, 9)}, rng.uniform(0, 10)))
        now = rng.uniform(0, 10)
        n_enabled = eval_feature(FeatureRef.nrtokensenabled("q1"), m, now)
        n_total = eval_feature(FeatureRef.nrtokens("q1"), m, now)
        assert n_enabled <= n_total


def test_conjunction_decomposes():
    expr = parse_constraint(PRIORITY_GUARD)
    first, second = expr.atoms
    m = marking(arrival=[("4", 801, 15.0)], q1=[("3", 855, 15.0)])
    assert expr.holds(m, 15.0) == (first.holds(m, 15.0) and second.holds(m, 15.0))


def test_observation_states_of_running_example():
    guard = parse_constraint(PRIORITY_GUARD)
    # time 5: queue max 118 still pending, incoming 855 far above the factor
    at5 = marking(arrival=[("3", 855, 10.0)], q1=[("1", 100, 5.0), ("2", 118, 10.0)])
    assert guard.holds(at5, 5.0) is False
    # time 22: queue max 801 available, incoming 222 within the factor
    at22 = marking(
        arrival=[("6", 222, 25.0)],
        q1=[("1", 100, 5.0), ("2", 118, 10.0), ("4", 801, 20.0), ("5", 146, 25.0)],
    )
    assert guard.holds(at22, 22.0) is True


def test_empty_conjunction_is_true():
    from dsync.constraints import ConstraintExpr

    assert ConstraintExpr(()).holds(Marking(), 0.0) is True


def test_binding_selectivity_pins_the_extremum_token():
    expr = parse_constraint("attrenabled(q1, value, max) == true")
    m = marking(q1=[("lo", 100, 0.0), ("hi", 900, 0.0)])
    lo, hi = (by_case(m, "q1")[c] for c in ("lo", "hi"))
    assert expr.binding_ok(m, 5.0, {"q1": hi})
    assert not expr.binding_ok(m, 5.0, {"q1": lo})
    # ties: any extremum-attaining token qualifies
    tie = marking(q1=[("a", 700, 0.0), ("b", 700, 0.0)])
    a, b = (by_case(tie, "q1")[c] for c in ("a", "b"))
    assert expr.binding_ok(tie, 5.0, {"q1": a}) and expr.binding_ok(tie, 5.0, {"q1": b})


def test_pin_keeps_the_pool_under_an_enabled_false_atom():
    # only ``== true`` pins a token: a pool under ``== false`` comes back as is
    expr = parse_constraint("attrenabled(q1, value, max) == false")
    m = marking(q1=[("lo", 100, 0.0), ("hi", 900, 0.0)])
    pool = list(m.tokens("q1"))
    assert expr.pin(m, "q1", pool) == pool


def _pins_every_bound_place(expr, m, binding) -> bool:
    """``binding_ok`` as it was: ``pin`` called on every bound place."""
    return all(expr.pin(m, p, [tok]) for p, tok in binding.items())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("model", ["priority", "supplychain"])
def test_binding_ok_equals_pinning_every_bound_place(model, seed):
    # on every move a replay records, for every candidate's pinned guard (the
    # ones discovery tests), its ``== false`` twin and the model's own guards
    net = load_model(model_path(model))
    log = simulate(net, SimConfig(seed=seed, max_cases=150))
    feats = {f for c in detect_constructs(net) for f in features_for(c) if f.is_boolean}
    guards = [ConstraintExpr((Atom(f, "==", const),))
              for f in sorted(feats, key=FeatureRef.canonical) for const in (True, False)]
    guards += [t.guard for t in net.transitions.values() if t.guard is not None]
    verdicts = []
    for s in replay(log, net)[0]:
        for _, binding, m in s.moves:
            for g in guards:
                verdicts.append(g.binding_ok(m, s.time, binding))
                assert verdicts[-1] == _pins_every_bound_place(g, m, binding), g.canonical()
    assert len(verdicts) > 1000 and True in verdicts and False in verdicts


def test_binding_ok_computes_no_extremum_for_an_unpinned_place(monkeypatch):
    # the guard reads arrival through a ratio, and pins only q1's token
    expr = parse_constraint(PRIORITY_GUARD)
    m = marking(arrival=[("3", 855, 10.0)], q1=[("lo", 100, 0.0), ("hi", 900, 0.0)])
    m.add("r1", Token("w1", {}, 0.0))
    extremum, places = Marking.extremum, []

    def counted(self, place_id, attr, agg):
        places.append(place_id)
        return extremum(self, place_id, attr, agg)

    monkeypatch.setattr(Marking, "extremum", counted)
    q1, arrival, r1 = by_case(m, "q1"), m.tokens("arrival")[0], m.tokens("r1")[0]
    assert expr.binding_ok(m, 5.0, {"arrival": arrival, "q1": q1["hi"], "r1": r1})
    assert not expr.binding_ok(m, 5.0, {"arrival": arrival, "q1": q1["lo"], "r1": r1})
    assert places == ["q1", "q1"]


def test_parse_accepts_trailing_whitespace():
    assert parse_constraint("nrtokens(q1) < 5  ").canonical() == "nrtokens(q1) < 5"


# -- memoised attribute extrema against brute force ---------------------------


def _brute_extremum(m, place, attr, agg):
    values = [tok.attrs[attr] for tok in m.tokens(place) if attr in tok.attrs]
    return (max if agg == "max" else min)(values) if values else None


def _brute_feature(f, m, now):
    """Each feature straight from its definition: no memo, no store order."""
    toks = m.tokens(f.place)
    if f.kind == "ratio":
        den = _brute_feature(f.den, m, now)
        return _brute_feature(f.num, m, now) / max(den, RATIO_EPSILON)
    if f.kind == "nrtokens":
        return float(len(toks))
    if f.kind == "nrtokensenabled":
        return float(sum(1 for tok in toks if tok.available_at <= now))
    if f.kind == "timeuntilnext":
        pending = [tok.available_at - now for tok in toks if tok.available_at > now]
        return min(pending) if pending else NO_PENDING_SENTINEL
    best = _brute_extremum(m, f.place, f.attr, f.agg)
    if f.kind == "attrval":
        return 0.0 if best is None else float(best)
    return any(
        tok.available_at <= now
        for tok in toks
        if f.attr in tok.attrs and tok.attrs[f.attr] == best
    )


MEMO_PLACES = ("a", "b", "empty")


def _memo_features():
    feats = []
    for p in MEMO_PLACES:
        feats += [FeatureRef.nrtokens(p), FeatureRef.nrtokensenabled(p)]
        feats.append(FeatureRef.timeuntilnext(p))
        for attr in ("v", "w"):
            for agg in AGGS:
                feats += [FeatureRef.attrval(p, attr, agg), FeatureRef.attrenabled(p, attr, agg)]
    ratios = ((("a", "v", "max"), ("b", "v", "min")), (("b", "w", "min"), ("empty", "v", "max")))
    for num, den in ratios:
        feats.append(FeatureRef.ratio(FeatureRef.attrval(*num), FeatureRef.attrval(*den)))
    return feats


def _memo_token(rng):
    """Tied values and availabilities; some tokens lack ``v`` or ``w``."""
    attrs = {}
    for attr, p_missing in (("v", 0.2), ("w", 0.6)):
        if rng.random() >= p_missing:
            attrs[attr] = rng.choice((1.0, 5.0, 5.0, 9.0, -3.0))
    return Token(f"c{rng.randint(1, 30)}", attrs, float(rng.choice((0, 1, 1, 2, 3.5))))


def test_memoised_extrema_match_brute_force():
    # seeded chains of derived markings; every marking is queried in random
    # order, twice, and again after later markings were derived from it
    rng = random.Random("memo")
    feats = _memo_features()
    checked = 0
    for _ in range(25):
        m = Marking({
            p: tuple(_memo_token(rng) for _ in range(rng.randint(0, 40)))
            for p in MEMO_PLACES[:2]
        })
        history = [m.copy()]
        for _ in range(12):
            times = (-1.0, 0.0, 1.0, 2.0, 3.0, 9.0)
            queries = [("feature", f, rng.choice(times)) for f in feats]
            for p in MEMO_PLACES:
                for agg in AGGS:
                    queries.append(("pin", (p, rng.choice(("v", "w")), agg), rng.choice(times)))
            for mk in (m, rng.choice(history)):
                for kind, what, now in rng.sample(queries * 2, 2 * len(queries)):
                    if kind == "feature":
                        assert eval_feature(what, mk, now) == _brute_feature(what, mk, now)
                    else:
                        place, attr, agg = what
                        expr = parse_constraint(f"attrenabled({place}, {attr}, {agg}) == true")
                        pool = [tok for tok in mk.tokens(place) if tok.available_at <= now]
                        best = _brute_extremum(mk, place, attr, agg)
                        expected = [] if best is None else [
                            tok for tok in pool if tok.attrs.get(attr) == best
                        ]
                        assert expr.pin(mk, place, pool) == expected
                    checked += 1
            p = rng.choice(MEMO_PLACES[:2])
            if m.tokens(p) and rng.random() < 0.5:
                m.remove(p, rng.choice(m.tokens(p)))
            else:
                m.add(p, _memo_token(rng))
            history.append(m.copy())
    assert checked > 40_000


# -- parser fuzzing ------------------------------------------------------------

_VALID = (
    PRIORITY_GUARD,
    "nrtokens(q1) < 5",
    "nrtokensenabled(buffer) >= 2 and timeuntilnext(buffer) > 0.5",
    "attrval(q1, value, min) == -3.25e2",
    "ratio(attrval(a, v, min), attrval(b, v, max)) <= 1e-3",
)
_FUZZ_CHARS = "(),<>=!.-+eE019 \tandtruefalsexyz_é٣"


def _mutate(rng, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i + 1 :]
        elif op == 3:
            j = rng.randint(0, len(text))
            text = text[:i] + text[min(i, j) : max(i, j)] + text[i:]
        else:
            text = text[:i] + rng.choice(("9" * 400, " and ", "ratio(", ")", "1e999")) + text[i:]
    return text


def test_mutated_constraints_reparse_or_raise_syntax_errors():
    rng = random.Random("parser")
    parsed = rejected = 0
    for _ in range(5000):
        text = _mutate(rng, rng.choice(_VALID))
        try:
            expr = parse_constraint(text)
        except ConstraintSyntaxError:
            rejected += 1
            continue
        canonical = expr.canonical()
        assert parse_constraint(canonical).canonical() == canonical, text
        parsed += 1
    assert parsed > 200 and rejected > 2000
