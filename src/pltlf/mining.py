"""Discover probability-bounded temporal constraints from event logs.

Cases become traces of singleton valuations (one activity per event).
Frequent activity sets are found Apriori-style, up to the largest arity
in the template catalog, declarative templates are instantiated over them
in every argument order, and each instance's support (fraction of cases
satisfying it) becomes an exact probability: a constraint with support p
is reported as the pair P>=p, P<=p.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable

from .fragment import Pltlf0Formula, ProbConstraint
from .syntax import (
    Always,
    Comparison,
    Eventually,
    Formula,
    Implies,
    Not,
    Or,
    Prop,
    Trace,
    Until,
    eval_trace,
    is_proposition_name,
)


@dataclass(frozen=True)
class Case:
    case_id: str
    activities: tuple

    def trace(self) -> Trace:
        return tuple(frozenset((activity,)) for activity in self.activities)


@dataclass(frozen=True)
class EventLog:
    cases: tuple

    def __len__(self) -> int:
        return len(self.cases)

    def activities(self) -> tuple:
        seen = set()
        for case in self.cases:
            seen.update(case.activities)
        return tuple(sorted(seen))


def load_log(path) -> EventLog:
    """Read a CSV event log with header ``case_id,activity[,order]``.

    Cases keep their first-appearance order; events follow file order, or
    the ``order`` column when present, whose values must be contiguous
    integers, in ASCII digits with an optional ``-``, within each case.
    An error names the file line on which its record ends.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty log file")
        fields = set(reader.fieldnames)
        missing = {"case_id", "activity"} - fields
        if missing:
            raise ValueError(f"{path}: missing required columns: {', '.join(sorted(missing))}")
        has_order = "order" in fields
        grouped = {}
        for row in reader:
            lineno = reader.line_num
            case_id = (row.get("case_id") or "").strip()
            activity = (row.get("activity") or "").strip()
            if not case_id or not activity:
                raise ValueError(f"{path}:{lineno}: empty case_id or activity")
            if not is_proposition_name(activity):
                raise ValueError(
                    f"{path}:{lineno}: activity {activity!r} is not a usable proposition name"
                )
            if has_order:
                text = (row.get("order") or "").strip()
                digits = text.removeprefix("-")
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(
                        f"{path}:{lineno}: order value {row.get('order')!r} is not an integer"
                    )
                key = int(text)
            else:
                key = lineno
            grouped.setdefault(case_id, []).append((key, activity))
    if not grouped:
        raise ValueError(f"{path}: log contains no events")
    cases = []
    broken = []
    for case_id, events in grouped.items():
        keys = sorted(key for key, _ in events)
        if has_order and keys != list(range(keys[0], keys[0] + len(keys))):
            broken.append(case_id)
            continue
        events.sort(key=lambda pair: pair[0])
        cases.append(Case(case_id, tuple(activity for _, activity in events)))
    if broken:
        raise ValueError(
            f"{path}: non-contiguous order values in cases: {', '.join(broken)}"
        )
    return EventLog(tuple(cases))


def set_support(log: EventLog, items: frozenset) -> Fraction:
    """Fraction of cases whose activities include every item."""
    hits = sum(1 for case in log.cases if items <= set(case.activities))
    return Fraction(hits, len(log.cases))


def frequent_sets(log: EventLog, min_support: Fraction, max_size: int = 2) -> list:
    """Apriori over activity sets: a set is frequent when enough cases
    contain all its members; supersets of infrequent sets are pruned."""
    min_support = Fraction(min_support)
    if not 0 <= min_support <= 1:
        raise ValueError(f"min_support out of range: {min_support}")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    level = [
        frozenset((activity,))
        for activity in log.activities()
        if set_support(log, frozenset((activity,))) >= min_support
    ]
    result = list(level)
    size = 1
    while level and size < max_size:
        frequent = set(level)
        candidates = sorted(
            {a | b for a, b in combinations(level, 2) if len(a | b) == size + 1},
            key=sorted,
        )
        level = [
            candidate
            for candidate in candidates
            if all(frozenset(sub) in frequent for sub in combinations(candidate, size))
            and set_support(log, candidate) >= min_support
        ]
        result.extend(level)
        size += 1
    return result


@dataclass(frozen=True)
class Template:
    name: str
    arity: int
    build: Callable


def default_catalog() -> tuple:
    return (
        Template("absence", 1, lambda a: Not(Eventually(Prop(a)))),
        Template("existence", 1, lambda a: Eventually(Prop(a))),
        Template("precedence", 2, lambda a, b: Or((Until(Not(Prop(b)), Prop(a)), Always(Not(Prop(b)))))),
        Template("response", 2, lambda a, b: Always(Implies(Prop(a), Eventually(Prop(b))))),
    )


@dataclass(frozen=True)
class MinedConstraint:
    template: str
    args: tuple
    formula: Formula
    support: Fraction

    def provenance(self) -> str:
        return f"# support={self.support} template={self.template}({','.join(self.args)})"

    def bounds(self) -> tuple:
        """The bound pair P>=p, P<=p of support p."""
        return tuple(
            ProbConstraint(cmp, self.support, self.formula) for cmp in (Comparison.GE, Comparison.LE)
        )


def constraint_support(log: EventLog, formula: Formula) -> Fraction:
    hits = sum(1 for case in log.cases if eval_trace(formula, case.trace()))
    return Fraction(hits, len(log.cases))


def mine_constraints(log: EventLog, min_support: Fraction, catalog: tuple = None) -> list:
    """Instantiate every template over the frequent sets matching its
    arity, in every argument order, keeping instances whose exact support
    clears the threshold.  Frequent sets grow only to the largest arity in
    the catalog.  Output is ordered by template name, then argument tuple."""
    min_support = Fraction(min_support)
    if catalog is None:
        catalog = default_catalog()
    frequent = frequent_sets(log, min_support, max((t.arity for t in catalog), default=1))
    by_size = {}
    for items in frequent:
        by_size.setdefault(len(items), []).append(items)
    instances = []
    for template in catalog:
        for items in by_size.get(template.arity, ()):
            for args in permutations(sorted(items)):
                instances.append((template.name, args, template.build(*args)))
    instances.sort(key=lambda inst: (inst[0], inst[1]))
    mined = []
    for name, args, formula in instances:
        support = constraint_support(log, formula)
        if support >= min_support:
            mined.append(MinedConstraint(name, args, formula, support))
    return mined


def to_pltlf0(mined: list) -> Pltlf0Formula:
    """Each support-p constraint becomes the bound pair P>=p, P<=p."""
    return Pltlf0Formula(tuple(c for item in mined for c in item.bounds()))


def mine(log: EventLog, min_support: Fraction, catalog: tuple = None) -> Pltlf0Formula:
    return to_pltlf0(mine_constraints(log, min_support, catalog))


def render_mined(mined: list) -> str:
    """The constraint-per-line format, one provenance comment per
    discovered instance above its bound pair."""
    lines = []
    for item in mined:
        lines.append(item.provenance())
        lines += (c.text() for c in item.bounds())
    return "".join(line + "\n" for line in lines)
