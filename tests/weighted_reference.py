"""Dense reference for the weighted automaton.

``pltlf.weighted`` stores edges in groups, one weight per (source,
position) over a shared tuple of children.  The classes and functions here
are the representation it replaced: one ``Fraction`` entry per (source,
child) edge, a fixpoint that multiplies along every edge, a tight-edge test
per edge and a product that copies every edge.  Tests feed them the dense
view ``wa.weights`` and compare the answers.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Optional

from pltlf.weighted import BehaviourTable, MltAcceptor

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
