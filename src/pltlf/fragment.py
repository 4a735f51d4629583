"""Probability-bounded constraint sets over plain finite-trace formulas.

A constraint set puts one probability bound on each of n probability-free
formulas.  A constraint's comparison and bound follow the rules of a
formula's :class:`~pltlf.syntax.Prob` node, which checks them, and each
line of a ``.p0`` file is read by the formula parser's
:func:`~pltlf.syntax.parse_constraint`.  Semantically, mass is
distributed over the 2^n scenarios (sign patterns choosing which
constraint formulas hold), so satisfiability, per-scenario maxima,
most-likely-scenario selection, and prefix monitoring all reduce to one
shared mass system plus one plain automaton.

:func:`build_lphi` compiles a constraint set once into a
:class:`ScenarioTable`: one tree automaton over the conjunction of the
distinct constraint formulas and one prefix acceptor per scenario, whose
start set of good atoms gives the scenario's satisfiability flag.
Without bounds the automaton's weighted automaton has every weight equal
to 1, so it is a plain automaton over traces: every acceptor steps it,
each from its own start set.  It is built the first time an acceptor
steps, on a nonempty prefix or a monitor step, so satisfiability and the
maxima never build it.  The mass system is a branch system whose
profiles are the scenarios, decided by the tree engine's
:class:`~pltlf.automaton.Branches` over the live scenarios only, as an
unsatisfiable scenario's mass is pinned to zero: profile certificates
settle most answers, and a program is built only for what they leave.
Feasibility and the maxima are computed on first use and kept.  Every
query and the monitor reuse the table's acceptors and maxima; a query
given a :class:`Pltlf0Formula` compiles it first.

One rule picks the most likely scenario, :meth:`ScenarioTable.most_likely`:
the largest positive maximum, the smallest index on ties.  The queries and
the monitor all ask it.

The monitor is a deterministic automaton over valuations, built lazily on
the table.  A :class:`MonitorState` is one of its states: the live
scenarios with their acceptor state sets, and the best index among them,
made once per distinct live set and carrying no prefix.  A state's
successor on a valuation is computed once, by stepping the acceptors, and
kept on the state, so every later step on that valuation is one lookup.
The table keeps one state per distinct live set reached and at most one
successor entry per event stepped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_

from .automaton import Branches, TreeAutomaton
from .closure import transpose
from .linsolve import InfeasibleSystemError
from .syntax import (
    Comparison,
    Formula,
    Not,
    Prob,
    Trace,
    conj,
    formula_text,
    has_prob,
    normalize,
    parse_constraint,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class ProbConstraint:
    """One probability bound on a probability-free formula.  Its
    comparison and bound are checked by building the :class:`Prob` node
    they make, whose exact bound it keeps."""

    cmp: Comparison
    bound: Fraction
    formula: Formula

    def __post_init__(self):
        object.__setattr__(self, "bound", Prob(self.cmp, self.bound, self.formula).bound)
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
    """Every sign pattern over the constraints, in index order.  Each
    constraint's negated and kept formula are made once, and every
    scenario picks one of the two by its bit."""
    n = len(phi)
    signs = [(Not(c.formula), c.formula) for c in phi.constraints]
    return tuple(
        Scenario(index, n, tuple(pair[index >> (n - 1 - j) & 1] for j, pair in enumerate(signs)))
        for index in range(1 << n)
    )


class PrefixAcceptor:
    """Subset simulation over the weighted automaton of a plain formula's
    tree automaton, whose weights are all 1, started from a set of its good
    atoms: whether a prefix extends to a trace that one of those states
    accepts.  The weighted automaton is read only for a nonempty prefix, so
    it is built on the first one, and every acceptor read off the same tree
    automaton steps the same weighted one."""

    def __init__(self, initial: frozenset, automaton: TreeAutomaton):
        self.initial = initial
        self.satisfiable = bool(initial)
        self.automaton = automaton

    def accepts(self, trace: Trace) -> bool:
        # every surviving state is good, so reaching one means the prefix
        # extends to an accepted trace; the empty prefix needs only a model
        if not trace:
            return self.satisfiable
        return bool(self.automaton.weighted.run(self.initial, trace))


def _column(closure, f: Formula) -> int:
    """Column of a normalised formula over the closure's atoms.  A formula
    that is not a closure member is a conjunction the shared conjunction
    flattened into its conjuncts, which are members."""
    i = closure.index.get(f)
    if i is not None:
        return closure.columns[i]
    return reduce(and_, (_column(closure, g) for g in f.operands))


def scenario_acceptors(formulas: tuple, required: tuple = ()) -> tuple:
    """One prefix acceptor per sign pattern over ``formulas``, in scenario
    index order, all read off one tree automaton.

    The automaton is built for the conjunction of the distinct normalised
    formulas and ``required``.  Its closure holds each formula and its
    negation, the conjunction of any sign pattern is a derived member, and
    without probability bounds goodness does not depend on the root, so
    the automaton of every sign pattern has these atoms, good states and
    successors.  Pattern s starts from the good atoms whose truth values on
    ``formulas`` spell s and where every ``required`` formula holds.
    """
    formulas = tuple(normalize(f) for f in formulas)
    required = tuple(normalize(f) for f in required)
    aut = TreeAutomaton(conj(*dict.fromkeys(formulas + required)))
    clo, n = aut.closure, len(aut)
    required_hold = transpose(
        [reduce(and_, (_column(clo, g) for g in required), (1 << n) - 1)], n
    )
    # the last formula is the low bit of a scenario index
    index_of = transpose([_column(clo, f) for f in reversed(formulas)], n)
    initial = [[] for _ in range(1 << len(formulas))]
    for aid in aut.good_states().good:
        if required_hold[aid]:
            initial[index_of[aid]].append(aid)
    return tuple(PrefixAcceptor(frozenset(states), aut) for states in initial)


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """One constraint set compiled once: its scenarios and one prefix
    acceptor per scenario, all read off one automaton.  The mass system's
    answers, the per-scenario maxima and the monitor's states are computed
    on first use and kept."""

    formula: Pltlf0Formula
    scenarios: tuple
    acceptors: tuple
    _monitor_states: dict = field(default_factory=dict, repr=False)

    @property
    def satisfiable(self) -> tuple:
        return tuple(a.satisfiable for a in self.acceptors)

    @cached_property
    def _branches(self) -> Branches:
        """The mass system as a branch system over the constraints in
        reverse order, whose bound j reads bit j of an index: profile i is
        scenario i."""
        return Branches(tuple(reversed(self.formula.constraints)))

    @cached_property
    def _live(self) -> tuple:
        """The family of the mass system, its satisfiable scenarios: an
        unsatisfiable one's mass is pinned to zero."""
        return tuple(i for i, sat in enumerate(self.satisfiable) if sat)

    @cached_property
    def feasible(self) -> bool:
        """Whether the mass system, strict rows included, has a point."""
        return self._branches.feasible(self._live)

    @cached_property
    def maxima(self) -> tuple:
        """Each scenario's mass maximised on its own over the shared system.

        A live scenario's supremum is its cap when a mixer settles it, and
        otherwise a phase 2 from the basis the mass system's program kept;
        a pinned one's is zero.  Raises InfeasibleSystemError when the
        constraint set is unsatisfiable.
        """
        if not self.feasible:
            raise InfeasibleSystemError("system is infeasible")
        return tuple(
            self._branches.maximum(self._live, i) if sat else ZERO
            for i, sat in enumerate(self.satisfiable)
        )

    def variable(self, index: int) -> str:
        return "x" + self.scenarios[index].label

    def configuration(self, entries: tuple) -> MonitorState:
        """The monitor state with these entries, made once."""
        state = self._monitor_states.get(entries)
        if state is None:
            best_index = self.most_likely(i for i, _ in entries)
            state = self._monitor_states[entries] = MonitorState(self, entries, best_index)
        return state

    def most_likely(self, indices) -> int:
        """The scenario among ``indices`` with the largest positive
        maximum, the smallest index among tied ones; -1 when none of them
        has a positive maximum."""
        maxima = self.maxima
        best = max(indices, key=lambda i: (maxima[i], -i), default=-1)
        return best if best >= 0 and maxima[best] > 0 else -1

    def successor(self, state: MonitorState, valuation: frozenset) -> MonitorState:
        """The monitor state after ``valuation``, kept on ``state``: every
        live scenario's acceptor steps once, and the dead ones are
        dropped."""
        survivors = []
        for i, states in state.entries:
            acceptor = self.acceptors[i]
            weighted = acceptor.automaton.weighted
            states = (
                weighted.run(acceptor.initial, (valuation,))
                if states is None
                else weighted.advance(states, valuation)
            )
            if states:
                survivors.append((i, states))
        successor = state.successors[valuation] = self.configuration(tuple(survivors))
        return successor

    def rows_text(self) -> list:
        """The mass system's rows as text: one row per scenario in index
        order, pinned to zero when the scenario's conjunction is
        unsatisfiable and nonnegative otherwise, the total-mass row, then
        one row per constraint in declaration order summing the scenarios
        that keep the constraint's formula."""
        names = [self.variable(i) for i in range(len(self.scenarios))]
        rows = [f"{name} {'>=' if sat else '='} 0" for name, sat in zip(names, self.satisfiable)]
        rows.append(f"{' + '.join(names)} = 1")
        for j, c in enumerate(self.formula.constraints):
            kept = " + ".join(names[s.index] for s in self.scenarios if s.includes(j))
            rows.append(f"{kept} {c.cmp.value} {c.bound}")
        return rows


def build_lphi(phi: Pltlf0Formula) -> ScenarioTable:
    """Compile the constraint set: one automaton and one acceptor per
    scenario read off it."""
    scenarios = scenarios_of(phi)
    acceptors = scenario_acceptors(tuple(c.formula for c in phi.constraints))
    return ScenarioTable(phi, scenarios, acceptors)


def _compiled(source) -> ScenarioTable:
    return source if isinstance(source, ScenarioTable) else build_lphi(source)


def is_satisfiable0(source) -> bool:
    return _compiled(source).feasible


def scenario_maxima(source) -> ScenarioTable:
    """The compiled table with its per-scenario maxima computed.

    Raises InfeasibleSystemError when the constraint set is unsatisfiable.
    """
    table = _compiled(source)
    table.maxima  # computed once and kept on the table
    return table


def accepts_prefix(scenario: Scenario, trace: Trace) -> bool:
    return scenario_acceptors((), scenario.formulas)[0].accepts(trace)


def most_likely_scenario(source, trace: Trace) -> int:
    """Index of the accepting scenario with the largest maximum, or -1
    when no scenario with positive maximum accepts the prefix."""
    table = scenario_maxima(source)
    return table.most_likely(i for i, a in enumerate(table.acceptors) if a.accepts(trace))


def monitor_with_property(source, prop: Formula, trace: Trace) -> int:
    """Most likely scenario among those that accept the prefix together
    with an additional property the continuation must satisfy."""
    if has_prob(prop):
        raise ValueError("the monitored property must be probability-free")
    table = scenario_maxima(source)
    formulas = tuple(c.formula for c in table.formula.constraints)
    acceptors = scenario_acceptors(formulas, (prop,))
    return table.most_likely(i for i, a in enumerate(acceptors) if a.accepts(trace))


@dataclass(frozen=True, eq=False)
class MonitorState:
    """One state of a table's determinised monitor, made once per distinct
    live set.

    ``entries`` pairs each live scenario index with the states its
    acceptor reached (None before the first valuation); dead scenarios are
    dropped and never tested again.  ``best_index`` is the most likely
    scenario among them, and ``successors`` keeps the state after each
    valuation stepped from this one, so the acceptors step only the first
    time a state meets a valuation.
    """

    table: ScenarioTable = field(repr=False)
    entries: tuple
    best_index: int
    successors: dict = field(default_factory=dict, repr=False)

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


def start_monitor(source) -> MonitorState:
    """Monitor state for the empty prefix.

    Scenarios with maximum zero can never be the most likely one, so they
    are excluded from the live set up front.
    """
    table = scenario_maxima(source)
    return table.configuration(
        tuple((i, None) for i, value in enumerate(table.maxima) if value > 0)
    )


def monitor_step(monitor: MonitorState, valuation: frozenset) -> MonitorState:
    return monitor.successors.get(valuation) or monitor.table.successor(monitor, valuation)


def to_pltlf(phi: Pltlf0Formula) -> Formula:
    """The equivalent single formula: a conjunction of probability bounds
    read at the anchoring root."""
    return conj(*(Prob(c.cmp, c.bound, c.formula) for c in phi.constraints))


def parse_pltlf0(text: str) -> Pltlf0Formula:
    """Parse the one-constraint-per-line format ``P<cmp><number> : <formula>``
    with :func:`~pltlf.syntax.parse_constraint`.

    Blank lines are skipped and ``#`` starts a comment.  Lines end at a
    line feed only, and a carriage return before one is white space.  An
    error names its line, then the position in that line.
    """
    constraints = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            constraints.append(ProbConstraint(*parse_constraint(line)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Pltlf0Formula(tuple(constraints))


def format_pltlf0(phi: Pltlf0Formula) -> str:
    return "".join(c.text() + "\n" for c in phi.constraints)
