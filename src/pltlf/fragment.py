"""Probability-bounded constraint sets over plain finite-trace formulas.

A constraint set puts one probability bound on each of n probability-free
formulas.  Semantically, mass is distributed over the 2^n scenarios (sign
patterns choosing which constraint formulas hold), so satisfiability,
per-scenario maxima, most-likely-scenario selection, and prefix
monitoring all reduce to one shared linear system plus one plain
satisfiability check per scenario.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .automaton import TreeAutomaton
from .linsolve import LinearSystem, Rel, maximize, solve_feasibility
from .syntax import (
    Comparison,
    Formula,
    Not,
    ParseError,
    Prob,
    Trace,
    conj,
    formula_text,
    has_prob,
    parse_formula,
    parse_number,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class ProbConstraint:
    """One probability bound on a probability-free formula."""

    cmp: Comparison
    bound: Fraction
    formula: Formula

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        if not 0 <= self.bound <= 1:
            raise ValueError(f"probability bound out of range: {self.bound}")
        if has_prob(self.formula):
            raise ValueError(
                f"constraint formulas must be probability-free: {self.formula}"
            )

    def text(self) -> str:
        return f"P{self.cmp.value}{self.bound} : {formula_text(self.formula)}"


@dataclass(frozen=True)
class Pltlf0Formula:
    """An ordered finite set of probability constraints."""

    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


@dataclass(frozen=True)
class Scenario:
    """One sign pattern over the constraints.

    The index is read as a binary string of length n, most significant
    bit first: a 1 at string position j keeps formula j, a 0 negates it.
    """

    index: int
    n: int
    formulas: tuple

    @property
    def label(self) -> str:
        return format(self.index, f"0{self.n}b") if self.n else ""

    def includes(self, j: int) -> bool:
        return bool(self.index >> (self.n - 1 - j) & 1)

    def describe(self) -> str:
        if not self.formulas:
            return "true"
        return ", ".join(formula_text(f) for f in self.formulas)


def scenarios_of(phi: Pltlf0Formula) -> tuple:
    n = len(phi)
    result = []
    for index in range(1 << n):
        members = tuple(
            c.formula if index >> (n - 1 - j) & 1 else Not(c.formula)
            for j, c in enumerate(phi.constraints)
        )
        result.append(Scenario(index, n, members))
    return tuple(result)


def _scenario_satisfiable(formulas: tuple) -> bool:
    # single-child transitions only: the probability-free automaton
    return bool(TreeAutomaton(conj(*formulas)).reduce().initial)


@dataclass(frozen=True)
class ScenarioTable:
    """Shared analysis of one constraint set: the per-scenario
    satisfiability flags, the mass system, and (once computed) the
    per-scenario maxima."""

    formula: Pltlf0Formula
    scenarios: tuple
    satisfiable: tuple
    system: LinearSystem
    maxima: Optional[tuple] = None

    def variable(self, index: int) -> str:
        return "x" + self.scenarios[index].label

    def rows_text(self) -> list:
        return list(self.system.render_rows())


def build_lphi(phi: Pltlf0Formula, jobs: int = 1) -> ScenarioTable:
    """Assemble the scenario mass system.

    Row order: one row per scenario in index order (pinned to zero when
    the scenario's conjunction is unsatisfiable, nonnegative otherwise),
    the total-mass row, then one row per constraint in declaration order
    summing the scenarios that keep the constraint's formula.
    """
    scenarios = scenarios_of(phi)
    member_lists = [s.formulas for s in scenarios]
    if jobs > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            satisfiable = tuple(pool.map(_scenario_satisfiable, member_lists))
    else:
        satisfiable = tuple(_scenario_satisfiable(ms) for ms in member_lists)
    names = tuple("x" + s.label for s in scenarios)
    rows = []
    for name, sat in zip(names, satisfiable):
        rows.append(({name: 1}, Rel.EQ if not sat else Rel.GE, ZERO))
    rows.append(({name: 1 for name in names}, Rel.EQ, Fraction(1)))
    for j, constraint in enumerate(phi.constraints):
        coeffs = {names[s.index]: 1 for s in scenarios if s.includes(j)}
        rows.append((coeffs, Rel.from_comparison(constraint.cmp), constraint.bound))
    system = LinearSystem.from_rows(names, rows)
    return ScenarioTable(phi, scenarios, satisfiable, system)


def is_satisfiable0(phi: Pltlf0Formula, jobs: int = 1) -> bool:
    return solve_feasibility(build_lphi(phi, jobs).system).feasible


def scenario_maxima(source, jobs: int = 1) -> ScenarioTable:
    """Independently maximise each scenario's mass over the shared system.

    Raises InfeasibleSystemError when the constraint set is unsatisfiable.
    """
    table = source if isinstance(source, ScenarioTable) else build_lphi(source, jobs)
    if table.maxima is not None:
        return table
    maxima = tuple(
        maximize(table.system, table.variable(i)).supremum
        for i in range(len(table.scenarios))
    )
    return replace(table, maxima=maxima)


class PrefixAcceptor:
    """Subset simulation deciding whether a prefix extends to a trace
    satisfying a set of probability-free formulas."""

    def __init__(self, formulas: tuple):
        reduced = TreeAutomaton(conj(*formulas)).reduce()
        aut = reduced.automaton
        self.satisfiable = bool(reduced.initial)
        self.initial = frozenset(reduced.initial)
        good = reduced.good
        self._succ = {
            aid: tuple(c for c in aut.successors(aid) if c in good) for aid in good
        }
        self._val = {aid: aut.atoms[aid].valuation() for aid in good}

    def start(self, valuation: frozenset) -> frozenset:
        return frozenset(q for q in self.initial if self._val[q] == valuation)

    def advance(self, states: frozenset, valuation: frozenset) -> frozenset:
        return frozenset(
            c for q in states for c in self._succ[q] if self._val[c] == valuation
        )

    def accepts(self, trace: Trace) -> bool:
        # every surviving state is good, so reaching one means the prefix
        # extends to an accepted trace; the empty prefix needs only a model
        if not trace:
            return self.satisfiable
        states = self.start(trace[0])
        for valuation in trace[1:]:
            if not states:
                return False
            states = self.advance(states, valuation)
        return bool(states)


def accepts_prefix(scenario: Scenario, trace: Trace) -> bool:
    return PrefixAcceptor(scenario.formulas).accepts(trace)


def most_likely_scenario(source, trace: Trace, jobs: int = 1) -> int:
    """Index of the accepting scenario with the largest maximum.

    Scans indices in ascending order with a strict-improvement test, so
    the smallest index among tied maxima wins; scenarios whose maximum is
    zero are never tested for acceptance.  Returns -1 when no scenario
    with positive maximum accepts the prefix.
    """
    table = scenario_maxima(source, jobs)
    best = ZERO
    best_index = -1
    for i, scenario in enumerate(table.scenarios):
        if table.maxima[i] > best and accepts_prefix(scenario, trace):
            best = table.maxima[i]
            best_index = i
    return best_index


def monitor_with_property(
    phi, prop: Formula, trace: Trace, jobs: int = 1
) -> int:
    """Most likely scenario among those that accept the prefix together
    with an additional property the continuation must satisfy."""
    if has_prob(prop):
        raise ValueError("the monitored property must be probability-free")
    table = scenario_maxima(phi, jobs)
    best = ZERO
    best_index = -1
    for i, scenario in enumerate(table.scenarios):
        if table.maxima[i] > best:
            acceptor = PrefixAcceptor(scenario.formulas + (prop,))
            if acceptor.accepts(trace):
                best = table.maxima[i]
                best_index = i
    return best_index


@dataclass(frozen=True, eq=False)
class MonitorState:
    """One step of scenario monitoring; stepping returns a new state.

    ``entries`` pairs each live scenario index with its acceptor and the
    current subset-simulation state (None before the first valuation).
    Dead scenarios are dropped and never tested again.

    The prefix is the first ``length`` valuations of a list shared with
    the states stepped from this one.  Stepping the newest state appends to
    the list; stepping an older one copies its part first, so no state's
    prefix ever changes and a step costs no copy of the prefix.
    """

    table: ScenarioTable
    entries: tuple
    best_index: int
    length: int = 0
    _valuations: list = field(default_factory=list, repr=False)

    @property
    def prefix(self) -> Trace:
        return tuple(self._valuations[: self.length])

    @property
    def alive(self) -> tuple:
        return tuple(i for i, _, _ in self.entries)

    @property
    def violated(self) -> bool:
        return self.best_index == -1

    @property
    def probability(self) -> Fraction:
        if self.best_index == -1:
            return ZERO
        return self.table.maxima[self.best_index]

    def describe_best(self) -> str:
        if self.best_index == -1:
            return "none"
        return self.table.scenarios[self.best_index].describe()


def _best_of(table: ScenarioTable, entries: tuple) -> int:
    best = ZERO
    best_index = -1
    for i, _, _ in entries:
        if table.maxima[i] > best:
            best = table.maxima[i]
            best_index = i
    return best_index


def start_monitor(source, jobs: int = 1) -> MonitorState:
    """Monitor state for the empty prefix.

    Scenarios with maximum zero can never be the most likely one, so they
    are excluded from the live set up front.
    """
    table = scenario_maxima(source, jobs)
    entries = []
    for i, scenario in enumerate(table.scenarios):
        if table.maxima[i] == 0:
            continue
        entries.append((i, PrefixAcceptor(scenario.formulas), None))
    entries = tuple(entries)
    return MonitorState(table, entries, _best_of(table, entries))


def monitor_step(monitor: MonitorState, valuation: frozenset) -> MonitorState:
    survivors = []
    for i, acceptor, states in monitor.entries:
        states = (
            acceptor.start(valuation)
            if states is None
            else acceptor.advance(states, valuation)
        )
        if states:
            survivors.append((i, acceptor, states))
    survivors = tuple(survivors)
    valuations = monitor._valuations
    if len(valuations) != monitor.length:
        valuations = valuations[: monitor.length]
    valuations.append(valuation)
    return MonitorState(
        monitor.table,
        survivors,
        _best_of(monitor.table, survivors),
        monitor.length + 1,
        valuations,
    )


def to_pltlf(phi: Pltlf0Formula) -> Formula:
    """The equivalent single formula: a conjunction of probability bounds
    read at the anchoring root."""
    return conj(*(Prob(c.cmp, c.bound, c.formula) for c in phi.constraints))


_CMP = {c.value: c for c in Comparison}
_LINE_RE = re.compile(r"^P\s*(<=|>=|<|>)\s*([0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)\s*:\s*(.+)$")


def parse_pltlf0(text: str) -> Pltlf0Formula:
    """Parse the one-constraint-per-line format ``P<cmp><number> : <formula>``.

    Blank lines are skipped and ``#`` starts a comment.
    """
    constraints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        hit = _LINE_RE.match(line)
        if hit is None:
            raise ValueError(
                f"line {lineno}: expected 'P<cmp><number> : <formula>', got {line!r}"
            )
        try:
            bound = parse_number(hit.group(2))
            formula = parse_formula(hit.group(3))
            constraints.append(ProbConstraint(_CMP[hit.group(1)], bound, formula))
        except (ParseError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Pltlf0Formula(tuple(constraints))


def format_pltlf0(phi: Pltlf0Formula) -> str:
    return "".join(c.text() + "\n" for c in phi.constraints)
