"""Per-scenario reference for the flat engine's scenario table.

The engine reads every scenario's acceptor off one automaton over the
distinct constraint formulas and maximises only the live variables.  The
code here does it the way the construction reads: one good-state automaton
per sign pattern (and per tested scenario plus property), and every
variable maximised over the whole relaxed mass system, pinned columns
included.  Tests compare the two paths on random constraint sets.  The
engine also reads each scenario's initial atoms off the closure's columns;
``initial_sets`` tests every good atom's members one by one.
"""

from __future__ import annotations

from fractions import Fraction

import atom_reference
from oracles import relaxed
from pltlf.automaton import TreeAutomaton
from pltlf.fragment import scenarios_of
from pltlf.linsolve import LinearSystem, maximize, solve_feasibility
from pltlf.syntax import Comparison, conj, normalize

ZERO = Fraction(0)


def successor_map(aut, good) -> dict:
    """Each good atom's good children, in candidate order, read off the
    reference search's unary child tuples (no bounds, so one profile)."""
    return {
        aid: tuple(t[0] for t in atom_reference.transition_tuples(aut, aid, (0,), good))
        for aid in good
    }


def holds(closure, bits: int, f) -> bool:
    """Truth of a normalised formula on an atom.  A formula that is not a
    closure member is a conjunction the shared conjunction flattened into
    its conjuncts, which are members."""
    i = closure.index.get(f)
    if i is not None:
        return bool(bits >> i & 1)
    return all(holds(closure, bits, g) for g in f.operands)


def initial_sets(formulas: tuple, required: tuple = ()) -> list:
    """Per sign pattern over ``formulas``, the good atoms of the shared
    automaton whose truth values spell it and where ``required`` holds."""
    formulas = tuple(normalize(f) for f in formulas)
    required = tuple(normalize(f) for f in required)
    aut = TreeAutomaton(conj(*dict.fromkeys(formulas + required)))
    initial = [set() for _ in range(1 << len(formulas))]
    for aid in aut.good_states().good:
        bits = aut.atoms[aid].bits
        if all(holds(aut.closure, bits, g) for g in required):
            index = 0
            for f in formulas:
                index = index << 1 | holds(aut.closure, bits, f)
            initial[index].add(aid)
    return [frozenset(states) for states in initial]


class PrefixAcceptor:
    """Subset simulation deciding whether a prefix extends to a trace
    satisfying a set of probability-free formulas, on the automaton of
    their conjunction."""

    def __init__(self, formulas: tuple):
        aut = TreeAutomaton(conj(*formulas))
        good = aut.good_states().good
        self.initial = frozenset(a for a in aut.initial if a in good)
        self.satisfiable = bool(self.initial)
        self._succ = successor_map(aut, good)
        self._val = {aid: aut.atoms[aid].valuation() for aid in good}

    def start(self, valuation: frozenset) -> frozenset:
        return frozenset(q for q in self.initial if self._val[q] == valuation)

    def advance(self, states: frozenset, valuation: frozenset) -> frozenset:
        return frozenset(
            c for q in states for c in self._succ[q] if self._val[c] == valuation
        )

    def accepts(self, trace) -> bool:
        if not trace:
            return self.satisfiable
        states = self.start(trace[0])
        for valuation in trace[1:]:
            if not states:
                return False
            states = self.advance(states, valuation)
        return bool(states)


class ReferenceTable:
    """Scenarios, one acceptor per scenario, the mass system in
    ``build_lphi``'s row order, and maxima over the full relaxed system
    (None when the system is infeasible)."""

    def __init__(self, phi):
        self.scenarios = scenarios_of(phi)
        self.acceptors = tuple(PrefixAcceptor(s.formulas) for s in self.scenarios)
        self.satisfiable = tuple(a.satisfiable for a in self.acceptors)
        names = tuple("x" + s.label for s in self.scenarios)
        rows = [
            ({name: 1}, Comparison.GE if sat else Comparison.EQ, ZERO)
            for name, sat in zip(names, self.satisfiable)
        ]
        rows.append(({name: 1 for name in names}, Comparison.EQ, Fraction(1)))
        for j, constraint in enumerate(phi.constraints):
            coeffs = {names[s.index]: 1 for s in self.scenarios if s.includes(j)}
            rows.append((coeffs, constraint.cmp, constraint.bound))
        self.system = LinearSystem.from_rows(names, rows)
        self.maxima = None
        if solve_feasibility(self.system).feasible:
            system = relaxed(self.system)
            self.maxima = tuple(maximize(system, name).supremum for name in names)

    def best(self, accepts) -> int:
        """Smallest index among the accepting scenarios with the largest
        positive maximum, or -1."""
        best, best_index = ZERO, -1
        for i, value in enumerate(self.maxima):
            if value > best and accepts(i):
                best, best_index = value, i
        return best_index

    def most_likely_scenario(self, trace) -> int:
        return self.best(lambda i: self.acceptors[i].accepts(trace))

    def monitor_with_property(self, prop, trace) -> int:
        return self.best(
            lambda i: PrefixAcceptor(self.scenarios[i].formulas + (prop,)).accepts(trace)
        )

    def monitor_records(self, trace) -> list:
        """The ``p0-monitor`` record of every step, each decided from
        scratch on the prefix read so far."""
        records = []
        for step in range(1, len(trace) + 1):
            index = self.most_likely_scenario(trace[:step])
            records.append({
                "step": step,
                "scenario_index": index,
                "scenario_description": (
                    "none" if index == -1 else self.scenarios[index].describe()
                ),
                "probability": str(ZERO if index == -1 else self.maxima[index]),
                "violated": index == -1,
            })
        return records

