"""Dense reference for the weighted automaton and its mlt acceptor.

``pltlf.weighted`` stores edges in groups, one weight per (source,
position) over a shared tuple of children, and its mlt acceptor is the
tight part of those groups.  The classes and functions here are the
representation it replaced: one ``Fraction`` entry per (source, child)
edge, a fixpoint that multiplies along every edge in sweeps until nothing
changes (and counts them), a tight-edge test per edge, an acceptor
holding its edge set and sorted successor lists, an enumeration over
those lists, and a product that copies every edge.  Tests feed them the
dense view ``wa.weights`` and compare the answers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class WeightedAutomaton:
    """Max-times automaton over traces.

    A run starts in an initial state, follows weighted edges, and ends in
    a final state; its weight is the product of the edge weights (1 for a
    single-state run) and the trace it spells is the sequence of state
    valuations.  Absent edges have weight zero.
    """

    def __init__(self, states, initial, finals, weights, valuations):
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self.finals = frozenset(finals)
        self.weights = dict(weights)
        self.valuations = dict(valuations)
        succ = {q: [] for q in self.states}
        for src, dst in self.weights:
            succ[src].append(dst)
        self.succ = {q: tuple(sorted(targets, key=str)) for q, targets in succ.items()}
        self._table: Optional[BehaviourTable] = None

    def weight(self, src, dst) -> Fraction:
        return self.weights.get((src, dst), ZERO)

    def behaviour_table(self) -> BehaviourTable:
        if self._table is None:
            self._table = _fixpoint(self)
        return self._table


@dataclass(frozen=True)
class BehaviourTable:
    """Largest run weight from each state, with the sweep count that the
    fixpoint iteration needed."""

    values: dict
    sweeps: int
    value: Fraction


def _fixpoint(wa: WeightedAutomaton) -> BehaviourTable:
    # Finals start at one (the empty run); everything else grows
    # monotonically, one edge per sweep, so simple runs suffice and the
    # iteration stabilizes within |states| sweeps.
    base = {q: ONE if q in wa.finals else ZERO for q in wa.states}
    current = dict(base)
    sweeps = 0
    while True:
        updated = {}
        for q in wa.states:
            best = base[q]
            for dst in wa.succ[q]:
                cand = wa.weights[(q, dst)] * current[dst]
                if cand > best:
                    best = cand
            updated[q] = best
        if updated == current:
            break
        current = updated
        sweeps += 1
    value = max((current[q] for q in wa.initial), default=ZERO)
    return BehaviourTable(current, sweeps, value)


class MltAcceptor:
    """Acceptor of exactly the traces whose probability equals the
    behaviour of the weighted automaton it was carved from: one entry per
    tight edge, and each state's successors sorted by ``str``."""

    def __init__(self, states, initial, finals, edges, valuations, value):
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self.finals = frozenset(finals)
        self.edges = frozenset(edges)
        self.valuations = dict(valuations)
        self.value = value
        succ = {q: [] for q in self.states}
        for src, dst in self.edges:
            succ[src].append(dst)
        self.succ = {q: tuple(sorted(targets, key=str)) for q, targets in succ.items()}

    def accepts(self, trace) -> bool:
        if not trace:
            raise ValueError("traces are nonempty")
        current = {q for q in self.initial if self.valuations[q] == trace[0]}
        for valuation in trace[1:]:
            current = {
                dst
                for q in current
                for dst in self.succ[q]
                if self.valuations[dst] == valuation
            }
            if not current:
                return False
        return bool(current & self.finals)


def mlt_acceptor(wa: WeightedAutomaton) -> MltAcceptor:
    """Carve the acceptor of most likely traces out of ``wa``.

    Initial states must realize the behaviour, and every edge must be
    tight: taking it keeps the remaining run weight on track.  When the
    behaviour is zero nothing is accepted and the acceptor is empty.
    """
    table = wa.behaviour_table()
    if table.value == 0:
        return MltAcceptor((), (), (), (), {}, ZERO)
    w = table.values
    states = tuple(q for q in wa.states if w[q] > 0)
    kept = frozenset(states)
    initial = frozenset(q for q in wa.initial if w[q] == table.value)
    finals = frozenset(q for q in wa.finals if q in kept)
    edges = frozenset(
        (src, dst)
        for (src, dst), wt in wa.weights.items()
        if src in kept and dst in kept and wt * w[dst] == w[src]
    )
    valuations = {q: wa.valuations[q] for q in states}
    return MltAcceptor(states, initial, finals, edges, valuations, table.value)


def _trace_key(trace) -> tuple:
    return tuple(tuple(sorted(v)) for v in trace)


def enumerate_mlts(acc: MltAcceptor, max_count: int, max_len: int) -> list:
    """List accepted traces, shortest first and then lexicographically by
    sorted valuations, growing every accepted prefix along the successor
    lists one level at a time."""
    if max_count < 1 or max_len < 1:
        raise ValueError("max_count and max_len must be at least 1")
    results = []
    level = {}
    for q in acc.initial:
        level.setdefault((acc.valuations[q],), set()).add(q)
    length = 1
    while level and len(results) < max_count:
        for trace in sorted(level, key=_trace_key):
            if level[trace] & acc.finals:
                results.append(trace)
                if len(results) >= max_count:
                    break
        if length >= max_len:
            break
        grown = {}
        for trace, reached in level.items():
            for q in reached:
                for dst in acc.succ[q]:
                    grown.setdefault(trace + (acc.valuations[dst],), set()).add(dst)
        level = grown
        length += 1
    return results[:max_count]


def product(nfa, wa: WeightedAutomaton) -> WeightedAutomaton:
    """Pair the weighted automaton with an NFA reading its valuations.

    A product state is a weighted state together with an NFA state
    reached after reading that state's valuation, so runs of the product
    are exactly the weighted runs whose traces the NFA accepts.
    """
    seeds = []
    for b in sorted(wa.initial, key=str):
        for s in sorted(nfa.step(nfa.initial, wa.valuations[b]), key=str):
            seeds.append((b, s))
    states = []
    seen = set()
    queue = deque(seeds)
    weights = {}
    while queue:
        state = queue.popleft()
        if state in seen:
            continue
        seen.add(state)
        states.append(state)
        b, s = state
        for b2 in wa.succ[b]:
            for s2 in sorted(nfa.step((s,), wa.valuations[b2]), key=str):
                weights[(state, (b2, s2))] = wa.weights[(b, b2)]
                if (b2, s2) not in seen:
                    queue.append((b2, s2))
    finals = frozenset(
        (b, s) for b, s in states if b in wa.finals and s in nfa.finals
    )
    valuations = {(b, s): wa.valuations[b] for b, s in states}
    return WeightedAutomaton(states, frozenset(seeds), finals, weights, valuations)
