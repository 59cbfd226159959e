"""Constraint expression language over marking-level features.

A constraint is a conjunction of atoms, each comparing one feature of the
current marking against a constant. The same small language serves two
roles: ground-truth guards injected into simulation models and the output
form of discovered constraints.

Grammar::

    expr    := atom ("and" atom)*
    atom    := feature op const
    feature := kind "(" place ["," attr] ["," agg] ")"
             | "ratio" "(" feature "," feature ")"
    op      := "<=" | "<" | ">=" | ">" | "=="
    const   := number | "true" | "false"

Feature kinds: ``attrval`` and ``attrenabled`` take (place, attr, agg) with
agg in {max, min}; ``nrtokens``, ``nrtokensenabled`` and ``timeuntilnext``
take a place; ``ratio`` composes two attrval features.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .errors import ConstraintEvalError, ConstraintSyntaxError

if TYPE_CHECKING:
    from .net import Binding, Marking, Token

# Pending tokens further away than this are reported as "no token coming";
# finite so decision trees can still split on the value.
NO_PENDING_SENTINEL = 1e9

# Denominator floor for ratio features, avoiding division by zero when a
# place is empty or its extremum attribute value is 0.
RATIO_EPSILON = 0.01

KINDS_WITH_ATTR = ("attrval", "attrenabled")
KINDS_PLACE_ONLY = ("nrtokens", "nrtokensenabled", "timeuntilnext")
AGGS = ("max", "min")
OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


@dataclass(frozen=True)
class FeatureRef:
    """Reference to one extractable feature of a marking."""

    kind: str
    place: str = ""
    attr: Optional[str] = None
    agg: Optional[str] = None
    num: Optional["FeatureRef"] = None  # ratio numerator
    den: Optional["FeatureRef"] = None  # ratio denominator

    @staticmethod
    def attrval(place: str, attr: str, agg: str) -> "FeatureRef":
        return FeatureRef("attrval", place, attr, agg)

    @staticmethod
    def attrenabled(place: str, attr: str, agg: str) -> "FeatureRef":
        return FeatureRef("attrenabled", place, attr, agg)

    @staticmethod
    def nrtokens(place: str) -> "FeatureRef":
        return FeatureRef("nrtokens", place)

    @staticmethod
    def nrtokensenabled(place: str) -> "FeatureRef":
        return FeatureRef("nrtokensenabled", place)

    @staticmethod
    def timeuntilnext(place: str) -> "FeatureRef":
        return FeatureRef("timeuntilnext", place)

    @staticmethod
    def ratio(num: "FeatureRef", den: "FeatureRef") -> "FeatureRef":
        return FeatureRef("ratio", num=num, den=den)

    @property
    def is_boolean(self) -> bool:
        return self.kind == "attrenabled"

    def canonical(self) -> str:
        if self.kind == "ratio":
            return f"ratio({self.num.canonical()}, {self.den.canonical()})"
        if self.kind in KINDS_WITH_ATTR:
            return f"{self.kind}({self.place}, {self.attr}, {self.agg})"
        return f"{self.kind}({self.place})"

    def references(self) -> Iterator[tuple[str, Optional[str]]]:
        if self.kind == "ratio":
            yield from self.num.references()
            yield from self.den.references()
        else:
            yield (self.place, self.attr)


@dataclass(frozen=True)
class Atom:
    feature: FeatureRef
    op: str
    const: Union[float, bool]

    def canonical(self) -> str:
        if isinstance(self.const, bool):
            rhs = "true" if self.const else "false"
        else:
            rhs = f"{self.const:g}"
        return f"{self.feature.canonical()} {self.op} {rhs}"

    def holds(self, m: "Marking", now: float) -> bool:
        compare = OPS.get(self.op)
        if compare is None:
            raise ConstraintEvalError(f"unknown operator {self.op!r}")
        return compare(eval_feature(self.feature, m, now), self.const)


@dataclass(frozen=True)
class ConstraintExpr:
    """Conjunction of atoms; the empty conjunction is vacuously true."""

    atoms: tuple[Atom, ...]

    def holds(self, m: "Marking", now: float) -> bool:
        return all(atom.holds(m, now) for atom in self.atoms)

    def pin(self, m: "Marking", place: str, tokens: list["Token"]) -> list["Token"]:
        """The ``tokens`` of ``place`` that a binding may consume, in order.

        ``attrenabled(p, a, agg) == true`` atoms over ``place`` pin the token a
        binding takes from it: the token must attain the aggregate value over
        the whole marking. That is what routes the extremum case (and not an
        arbitrary enabled one) through the guarded transition. Each pinning
        atom's extremum is computed once per call.
        """
        for atom in self.atoms:
            f = atom.feature
            if f.kind != "attrenabled" or f.place != place:
                continue
            if atom.op != "==" or atom.const is not True:
                continue
            found = m.extremum(place, f.attr, f.agg)
            if found is None:
                return []
            tokens = [tok for tok in tokens if tok.attrs.get(f.attr) == found[0]]
        return tokens

    def binding_ok(self, m: "Marking", now: float, binding: "Binding") -> bool:
        """Whether ``pin`` lets ``binding`` take each of its tokens; only the
        places an ``attrenabled`` atom names are tested, as ``pin`` keeps the rest.

        ``net.binding_pools`` applies ``pin`` to whole pools instead of
        calling this per binding; ``patterns.Observations`` calls it on
        bindings already applied, with one single-atom guard at a time.
        """
        return all(self.pin(m, a.feature.place, [binding[a.feature.place]]) for a in self.atoms
                   if a.feature.kind == "attrenabled" and a.feature.place in binding)

    def references(self) -> Iterator[tuple[str, Optional[str]]]:
        for atom in self.atoms:
            yield from atom.feature.references()

    def canonical(self) -> str:
        return " and ".join(atom.canonical() for atom in self.atoms)


# -- feature evaluation ------------------------------------------------------


def eval_feature(f: FeatureRef, m: "Marking", now: float) -> Union[float, bool]:
    """Evaluate one feature on a marking at a moment in time.

    Attribute aggregates range over both enabled and pending tokens, one pass
    per place and aggregate per marking (``Marking.extremum``); ``attrenabled``
    reports whether a token attaining the aggregate is already available. An
    attribute aggregate over an empty place is 0 (and its enabled flag false)
    so guards stay evaluable before warm-up. Counts of enabled tokens and the
    time until the next pending one are read off the store's order.
    """
    if f.kind == "attrval":
        found = m.extremum(f.place, f.attr, f.agg)
        return 0.0 if found is None else float(found[0])
    if f.kind == "attrenabled":
        found = m.extremum(f.place, f.attr, f.agg)
        return found is not None and found[1] <= now
    if f.kind == "nrtokens":
        return float(len(m.tokens(f.place)))
    if f.kind == "nrtokensenabled":
        return float(m.n_enabled(f.place, now))
    if f.kind == "timeuntilnext":
        toks, i = m.tokens(f.place), m.n_enabled(f.place, now)
        return toks[i].available_at - now if i < len(toks) else NO_PENDING_SENTINEL
    if f.kind == "ratio":
        return eval_feature(f.num, m, now) / max(eval_feature(f.den, m, now), RATIO_EPSILON)
    raise ConstraintEvalError(f"unknown feature kind {f.kind!r}")


# -- parsing -----------------------------------------------------------------

# the place ids and attribute names a constraint can name; ``validate_net``
# rejects the others, so that every discovered guard reads back
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    rf"|(?P<ident>{IDENT.pattern})"
    r"|(?P<op><=|>=|==|<|>)"
    r"|(?P<punct>[(),]))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ConstraintSyntaxError:
        return ConstraintSyntaxError(message, self.pos)

    def peek(self) -> Optional[tuple[str, str, int]]:
        """The next token as (kind, text, end offset), or None at the end."""
        match = _TOKEN_RE.match(self.text, self.pos)
        if match is None:
            rest = self.text[self.pos :].strip()
            if not rest:
                return None
            raise self.error(f"unexpected character {rest[0]!r}")
        return match.lastgroup, match.group(match.lastgroup), match.end()

    def next(self, expect_kind: Optional[str] = None, expect_value: Optional[str] = None):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        kind, value, end = tok
        if expect_kind is not None and kind != expect_kind:
            raise self.error(f"expected {expect_kind}, found {value!r}")
        if expect_value is not None and value != expect_value:
            raise self.error(f"expected {expect_value!r}, found {value!r}")
        self.pos = end
        return kind, value

    def parse_expr(self) -> ConstraintExpr:
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok is None:
                break
            kind, value, _ = tok
            if kind == "ident" and value.lower() == "and":
                self.next()
                atoms.append(self.parse_atom())
            else:
                raise self.error(f"expected 'and' or end of input, found {value!r}")
        return ConstraintExpr(tuple(atoms))

    def parse_atom(self) -> Atom:
        feature = self.parse_feature()
        _, op = self.next("op")
        tok = self.peek()
        if tok is None:
            raise self.error("expected a constant after operator")
        kind, value, _ = tok
        const: Union[float, bool]
        if kind == "num":
            const = float(value)
            if not math.isfinite(const):
                raise self.error(f"constant {value} is out of range")
            self.next()
        elif kind == "ident" and value.lower() in ("true", "false"):
            self.next()
            const = value.lower() == "true"
        else:
            raise self.error(f"expected a number or true/false, found {value!r}")
        if feature.is_boolean:
            if op != "==" or not isinstance(const, bool):
                raise self.error("boolean features compare only with == true/false")
        elif isinstance(const, bool):
            raise self.error("numeric features cannot be compared against booleans")
        return Atom(feature, op, const)

    def parse_feature(self) -> FeatureRef:
        _, name = self.next("ident")
        name = name.lower()
        self.next("punct", "(")
        if name == "ratio":
            num = self.parse_feature()
            self.next("punct", ",")
            den = self.parse_feature()
            self.next("punct", ")")
            if num.kind != "attrval" or den.kind != "attrval":
                raise self.error("ratio composes exactly two attrval features")
            return FeatureRef.ratio(num, den)
        if name in KINDS_WITH_ATTR:
            _, place = self.next("ident")
            self.next("punct", ",")
            _, attr = self.next("ident")
            self.next("punct", ",")
            _, agg = self.next("ident")
            if agg.lower() not in AGGS:
                raise self.error(f"aggregate must be max or min, found {agg!r}")
            self.next("punct", ")")
            return FeatureRef(name, place, attr, agg.lower())
        if name in KINDS_PLACE_ONLY:
            _, place = self.next("ident")
            self.next("punct", ")")
            return FeatureRef(name, place)
        raise self.error(f"unknown feature kind {name!r}")


def parse_constraint(text: str) -> ConstraintExpr:
    """Parse constraint text; raises ConstraintSyntaxError with the offset."""
    parser = _Parser(text)
    if parser.peek() is None:
        raise parser.error("empty constraint")
    return parser.parse_expr()
