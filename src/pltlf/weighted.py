"""Most likely traces and probability queries over trace languages.

The good part of a tree automaton is flattened, by
:func:`~pltlf.automaton.build_weighted`, into a max-times weighted
automaton whose runs are traces: states are the good atoms and keep their
valuation, an edge carries the largest mass any branch system lets the
child subset absorb, and the behaviour (maximum run weight from a good
initial atom to a final one) is the probability of the most likely trace.
Its tight part, the edges on best runs, is the acceptor of exactly the
traces attaining that probability.  A trace or a prefix is answered by one
forward max-times pass along it over the compiled automaton, and products
with ordinary finite automata answer probability queries for whole trace
languages.  Without bounds every weight is 1, and the flat engine's
acceptors step it too.
Every query takes a formula or a compiled tree automaton, which keeps its
weighted automaton.  :meth:`WeightedAutomaton.run` reads a trace from a
set of states; the acceptor of most likely traces and the flat engine's
acceptors all read traces through it.

Every child at one position of a source gets that position's weight, so
edges are stored in groups: one weight per (source, position), pointing at
an interned tuple of children that all sources with the same occupants
share.  A child's probability arguments pin its position, so the groups of
a source partition its children.  A state's value depends only on its row,
whether it is final together with its groups, and many states share one.
Every weight is a mass in (0, 1], so a run never gains weight by growing:
the behaviour settles the rows from the highest value down, as Dijkstra's
algorithm settles distances, one bucket of rows per distinct value.
Each settle and each trace or prefix query keeps its numbers in one
:class:`Numbers` table, so equal values are one object, a product of a
value and a weight is made once and values compare by ``is``.  A child
tuple's best value is that of the first of its rows to settle.  A group
is tight exactly when its weight times that best value is its row's
value; the acceptor keeps each tight group, found once per row, over its
child tuple cut once to the best children.  Most likely traces are
listed by a depth-first search over the acceptor's subsets, pruned by
each subset's distance to a final state.

The forward pass reads a trace letter by letter and keeps the best run
weight into each state carrying the last letter.  A prefix is worth the
best forward weight times the behaviour value at its end.  Its letters
are fixed and tightness is local, so its acceptor is a chain of one state
per earlier letter, joined by edges of weight 1, in front of the mlt
acceptor: the chain's last state enters each end state that attains the
worth, through that state's forward weight.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from math import inf
from types import MappingProxyType
from typing import Optional

from .automaton import ONE, ZERO, TreeAutomaton, _compiled, build_weighted
from .syntax import Trace, all_valuations, vars_of


class WeightedAutomaton:
    """Max-times automaton over traces.

    A run starts in an initial state, follows weighted edges, and ends in
    a final state; its weight is the product of the edge weights (1 for a
    single-state run) and the trace it spells is the sequence of state
    valuations.  Absent edges have weight zero.

    Edges are grouped: ``groups[q]`` is a tuple of ``(weight, k)`` pairs,
    and ``q`` reaches every state of ``children[k]`` with that positive
    weight.  Child tuples are nonempty and shared between sources, and no
    state lies in two groups of one source.
    """

    def __init__(self, states, initial, finals, groups, children, valuations):
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self.finals = frozenset(finals)
        self.groups = {q: tuple(groups.get(q, ())) for q in self.states}
        self.children = tuple(children)
        self.valuations = dict(valuations)
        self._table: Optional[BehaviourTable] = None
        self._acceptor: Optional[MltAcceptor] = None

    @cached_property
    def weights(self) -> Mapping:
        """Read-only dense view, one entry per (source, child) edge; built
        on first access, and no query reads it."""
        return MappingProxyType({
            (q, child): wt
            for q in self.states
            for wt, k in self.groups[q]
            for child in self.children[k]
        })

    def weight(self, src, dst) -> Fraction:
        for wt, k in self.groups.get(src, ()):
            if dst in self.children[k]:
                return wt
        return ZERO

    def advance(self, states, valuation: frozenset) -> frozenset:
        """The children of the states' groups that carry the valuation;
        each child tuple is read once however many states share it."""
        tuples = {k for q in states for _, k in self.groups[q]}
        return frozenset(
            c for k in tuples for c in self.children[k] if self.valuations[c] == valuation
        )

    def run(self, start, trace: Trace) -> frozenset:
        """The states reached by reading a nonempty trace from the set
        ``start``: the first valuation keeps the start states that carry
        it, and each later one advances."""
        if not trace:
            raise ValueError("traces are nonempty")
        states = frozenset(q for q in start if self.valuations[q] == trace[0])
        for valuation in trace[1:]:
            states = self.advance(states, valuation)
        return states

    def behaviour_table(self) -> "BehaviourTable":
        """The table of :func:`_settle`, made on first use.  The settle
        order needs every group weight in (0, 1]; another raises
        ValueError."""
        if self._table is None:
            self._table = _settle(self)
        return self._table


class Numbers:
    """Each exact value as one object, so values compare by ``is``.

    ``one(x)`` is the object for ``x``'s integer ratio, ``ZERO`` and
    ``ONE`` to begin with, and ``times(v, wt)`` the one for ``v * wt``,
    multiplied once per pair of objects.  The table keeps every object it
    returns, and the caller keeps the arguments of ``times`` alive while
    the table is in use, so their ids stay unique."""

    def __init__(self):
        self._objects = {(0, 1): ZERO, (1, 1): ONE}
        self._products = {}

    def one(self, x: Fraction) -> Fraction:
        return self._objects.setdefault(x.as_integer_ratio(), x)

    def times(self, v: Fraction, wt: Fraction) -> Fraction:
        if wt is ONE:
            return v
        x = self._products.get((id(v), id(wt)))
        if x is None:
            x = self._products[id(v), id(wt)] = self.one(v * wt)
        return x


@dataclass(frozen=True)
class BehaviourTable:
    """Largest run weight from each state and from an initial one.

    ``rows`` holds a ``(groups, members)`` pair per row, the states that
    agree on being final and on their groups, in the order of ``states``;
    its groups carry the weights of ``numbers``, the settle's table, which
    holds every value.  ``best[k]`` is the largest value in
    ``children[k]``, and an open state's value is ``ZERO``."""

    values: dict
    value: Fraction
    rows: tuple
    best: tuple
    numbers: Numbers


def _settle(wa: WeightedAutomaton) -> BehaviourTable:
    # Knuth's generalisation of Dijkstra's algorithm over the rows:
    # finals settle at one (the empty run), and a weight in (0, 1] never
    # raises a value, so values leave the heap in decreasing order and
    # each child tuple's best value is the first of its rows to settle.
    # Each number is the object of one table, and each weight object is
    # range-checked once.
    numbers, checked = Numbers(), {}  # id of a weight object -> its table's object
    rows, row_of, finals = [], {}, []
    parents = [[] for _ in wa.children]  # child tuple -> (weight, source row)
    shared = {}  # (final, id of a groups tuple) -> its row
    keyed = {}  # final, then each group's weight id and child tuple -> row
    for q in wa.states:
        groups, final = wa.groups[q], q in wa.finals
        r = shared.get((final, id(groups)))
        if r is None:
            for wt, _ in groups:
                if id(wt) not in checked:
                    if not 0 < wt <= 1:
                        raise ValueError(f"group weight {wt} of state {q!r} is outside (0, 1]")
                    checked[id(wt)] = numbers.one(wt)
            canonical = groups  # kept as it is when its weights are canonical
            if any(checked[id(wt)] is not wt for wt, _ in groups):
                canonical = tuple((checked[id(wt)], k) for wt, k in groups)
            key = (final, *chain.from_iterable((id(wt), k) for wt, k in canonical))
            r = keyed.get(key)
            if r is None:
                r = keyed[key] = len(rows)
                rows.append((canonical, []))
                if final:
                    finals.append(r)
                for wt, k in canonical:
                    parents[k].append((wt, r))
            shared[final, id(groups)] = r
        rows[r][1].append(q)
        row_of[q] = r
    tuples_of = [[] for _ in rows]  # row -> child tuples holding one of its states
    for k, kids in enumerate(wa.children):
        for r in {row_of[c] for c in kids}:
            tuples_of[r].append(k)
    # a settled value is positive, so ZERO marks a row or tuple still open
    value = [ZERO] * len(rows)
    best = [ZERO] * len(wa.children)
    # one bucket of rows per open value, and a heap of those values,
    # negated; a row reached through a weight of one joins the bucket read
    buckets = {id(ONE): finals}
    heap = [-ONE] if finals else []
    while heap:
        v = numbers.one(-heappop(heap))
        bucket = buckets[id(v)]
        for r in bucket:  # grows while it is read
            if value[r] is not ZERO:
                continue
            value[r] = v
            for k in tuples_of[r]:
                if best[k] is ZERO:
                    best[k] = v
                    for wt, src in parents[k]:
                        if value[src] is not ZERO:
                            continue
                        if wt is ONE:
                            bucket.append(src)
                            continue
                        x = numbers.times(v, wt)
                        if id(x) not in buckets:
                            buckets[id(x)] = []
                            heappush(heap, -x)
                        buckets[id(x)].append(src)
    values = {q: value[row_of[q]] for q in wa.states}
    top = _largest(map(values.__getitem__, wa.initial))
    return BehaviourTable(values, top, tuple(rows), tuple(best), numbers)


def _largest(values) -> Fraction:
    """The largest of ``values``, ``ZERO`` if there are none, comparing
    each distinct object once."""
    return max({id(v): v for v in values}.values(), default=ZERO)


def behaviour(wa: WeightedAutomaton) -> Fraction:
    """Probability of the most likely trace: the largest run weight."""
    return wa.behaviour_table().value


class MltAcceptor(WeightedAutomaton):
    """Acceptor of exactly the traces whose probability equals ``value``,
    the behaviour of the weighted automaton it is the tight part of: its
    runs are the runs of that automaton that stay on a best run."""

    def __init__(self, states, initial, finals, groups, children, valuations, value):
        super().__init__(states, initial, finals, groups, children, valuations)
        self.value = value

    def accepts(self, trace: Trace) -> bool:
        return bool(self.run(self.initial, trace) & self.finals)


def mlt_acceptor(wa: WeightedAutomaton) -> MltAcceptor:
    """The acceptor of most likely traces of ``wa``, carved on first use
    and kept, as the behaviour table is."""
    if wa._acceptor is None:
        wa._acceptor = _tight_part(wa)
    return wa._acceptor


def _tight_part(wa: WeightedAutomaton) -> MltAcceptor:
    """Carve the acceptor of most likely traces out of ``wa``.

    Initial states must realize the behaviour, and every edge must be
    tight: taking it keeps the remaining run weight on track.  A tight edge
    leads to a best child of a tight group, so each row keeps its tight
    groups, found once per row, over their child tuples cut, once per
    tuple, to the best children.  When the behaviour is zero nothing is
    accepted and the acceptor is empty.
    """
    table = wa.behaviour_table()
    if table.value is ZERO:
        return MltAcceptor((), (), (), {}, (), {}, ZERO)
    w, best, times = table.values, table.best, table.numbers.times
    states = tuple(q for q in wa.states if w[q] is not ZERO)
    initial = frozenset(q for q in wa.initial if w[q] is table.value)
    # finals are worth at least 1, and a best child of a tight group from a
    # kept source is worth w[src] / wt > 0, so both are kept
    cut = {}
    groups = {}
    for row_groups, members in table.rows:
        value = w[members[0]]
        if value is not ZERO:
            tight = tuple(
                (wt, cut.setdefault(k, len(cut))) for wt, k in row_groups
                if best[k] is not ZERO and times(best[k], wt) is value
            )
            groups.update(dict.fromkeys(members, tight))
    children = tuple(
        tuple(c for c in wa.children[k] if w[c] is best[k]) for k in cut
    )
    valuations = {q: wa.valuations[q] for q in states}
    return MltAcceptor(states, initial, wa.finals, groups, children, valuations, table.value)


def _trace_key(trace: Trace) -> tuple:
    return tuple(tuple(sorted(v)) for v in trace)


def _distances(acc: WeightedAutomaton) -> dict:
    """Fewest edges from each state to a final one, infinite when it
    reaches none, by a backward breadth-first search that reaches each
    child tuple once, through its first child to be reached."""
    sources = [[] for _ in acc.children]  # child tuple -> states with a group over it
    for q in acc.states:
        for _, k in acc.groups[q]:
            sources[k].append(q)
    holding = {}  # state -> child tuples holding it
    for k, kids in enumerate(acc.children):
        for c in kids:
            holding.setdefault(c, []).append(k)
    dist = dict.fromkeys(acc.states, inf)
    frontier, reached = list(acc.finals & dist.keys()), set()
    dist.update(dict.fromkeys(frontier, 0))
    while frontier:
        grown = []
        for c in frontier:
            for k in holding.get(c, ()):
                if k not in reached:
                    reached.add(k)
                    for q in sources[k]:
                        if dist[q] == inf:
                            dist[q] = dist[c] + 1
                            grown.append(q)
        frontier = grown
    return dist


def enumerate_mlts(acc: MltAcceptor, max_count: int, max_len: int) -> list:
    """List accepted traces, shortest first and then lexicographically by
    sorted valuations.  The accepted language may be infinite, so both
    bounds are required.

    For each length in turn, a depth-first search walks the determinised
    acceptor: a node is the set of states a prefix reaches, its successors
    are listed once per set in ``_trace_key`` order, and a set whose
    nearest final state lies more letters away than remain is pruned (the
    min-length pruning of Ackerman and Shallit).  So the traces of one
    length come out in order, and the search stops at ``max_count``.
    """
    if max_count < 1 or max_len < 1:
        raise ValueError("max_count and max_len must be at least 1")
    dist = _distances(acc)

    def split(states) -> list:
        """(sort key, valuation, states carrying it, their nearest final's
        distance) per valuation, in ``_trace_key`` order."""
        by_letter = {}
        for q in states:
            by_letter.setdefault(acc.valuations[q], set()).add(q)
        return sorted(
            (_trace_key((valuation,)), valuation, frozenset(held), min(map(dist.__getitem__, held)))
            for valuation, held in by_letter.items()
        )

    successors = {}

    def after(subset: frozenset) -> list:
        if subset not in successors:
            tuples = {k for q in subset for _, k in acc.groups[q]}
            successors[subset] = split(c for k in tuples for c in acc.children[k])
        return successors[subset]

    first = split(acc.initial)
    results = []
    for length in range(1, max_len + 1):
        stack, trace = [iter(first)], []
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if trace:
                    trace.pop()
                continue
            _, valuation, subset, reach = step
            left = length - len(trace) - 1  # letters still to read after this one
            if reach > left:
                continue
            if left == 0:
                results.append((*trace, valuation))
                if len(results) == max_count:
                    return results
                continue
            trace.append(valuation)
            stack.append(iter(after(subset)))
    return results


class TraceNFA:
    """Nondeterministic finite automaton over valuations, built in code by
    the constructor, :meth:`from_trace` or :meth:`extends_prefix`; it has
    no JSON form."""

    def __init__(self, states, initial, finals, transitions):
        self.states = tuple(states)
        self.initial = frozenset(initial)
        self.finals = frozenset(finals)
        self.transitions = tuple(
            (src, frozenset(valuation), dst) for src, valuation, dst in transitions
        )
        known = set(self.states)
        for src, _, dst in self.transitions:
            if src not in known or dst not in known:
                raise ValueError(f"transition uses undeclared state: {src!r} -> {dst!r}")
        if not self.initial <= known or not self.finals <= known:
            raise ValueError("initial and final states must be declared states")
        delta = {}
        for src, valuation, dst in self.transitions:
            delta.setdefault((src, valuation), set()).add(dst)
        self._delta = {key: frozenset(dsts) for key, dsts in delta.items()}

    def step(self, sources, valuation: frozenset) -> frozenset:
        reached = set()
        for src in sources:
            reached.update(self._delta.get((src, valuation), ()))
        return frozenset(reached)

    def accepts(self, trace: Trace) -> bool:
        current = self.initial
        for valuation in trace:
            current = self.step(current, valuation)
        return bool(current & self.finals)

    def labels(self) -> frozenset:
        return frozenset(valuation for _, valuation, _ in self.transitions)

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceNFA":
        """Acceptor of the single given trace."""
        if not trace:
            raise ValueError("traces are nonempty")
        states = tuple(range(len(trace) + 1))
        transitions = [(i, trace[i], i + 1) for i in range(len(trace))]
        return cls(states, (0,), (len(trace),), transitions)

    @classmethod
    def extends_prefix(cls, prefix: Trace, variables) -> "TraceNFA":
        """Acceptor of the traces that start with ``prefix``."""
        if not prefix:
            raise ValueError("the prefix must be nonempty")
        n = len(prefix)
        states = tuple(range(n + 1))
        transitions = [(i, prefix[i], i + 1) for i in range(n)]
        transitions += [(n, v, n) for v in all_valuations(variables)]
        return cls(states, (0,), (n,), transitions)


def product(nfa: TraceNFA, wa: WeightedAutomaton) -> WeightedAutomaton:
    """Pair the weighted automaton with an NFA reading its valuations.

    A product state is a weighted state together with an NFA state
    reached after reading that state's valuation, so runs of the product
    are exactly the weighted runs whose traces the NFA accepts.  A group
    of ``b`` read from NFA state ``s`` keeps its weight, so every weight
    still lies in (0, 1]; its children depend only on the child tuple and
    ``s``, so they are built, and queued for the search, once per such
    pair, and the states whose ``b`` shares a groups tuple read from the
    same ``s`` share one groups tuple too.
    """
    seeds = []
    for b in sorted(wa.initial, key=str):
        for s in sorted(nfa.step(nfa.initial, wa.valuations[b]), key=str):
            seeds.append((b, s))
    states = []
    seen = set()
    queue = deque(seeds)
    groups = {}
    rows = {}  # (groups tuple of b, s) -> the groups of every such state
    children = []
    interned = {}
    while queue:
        state = queue.popleft()
        if state in seen:
            continue
        seen.add(state)
        states.append(state)
        b, s = state
        row = (id(wa.groups[b]), s)
        if row in rows:
            groups[state] = rows[row]
            continue
        out = []
        for wt, k in wa.groups[b]:
            key = (k, s)
            if key not in interned:
                kids = tuple(
                    (b2, s2)
                    for b2 in wa.children[k]
                    for s2 in sorted(nfa.step((s,), wa.valuations[b2]), key=str)
                )
                interned[key] = len(children) if kids else None
                if kids:
                    children.append(kids)
                    queue.extend(kids)
            if interned[key] is not None:
                out.append((wt, interned[key]))
        groups[state] = rows[row] = tuple(out)
    finals = frozenset(
        (b, s) for b, s in states if b in wa.finals and s in nfa.finals
    )
    valuations = {(b, s): wa.valuations[b] for b, s in states}
    return WeightedAutomaton(states, frozenset(seeds), finals, groups, children, valuations)


def _check_vars(source, valuations) -> None:
    """Reject a query over propositions the source's formula does not use."""
    known = vars_of(source.formula if isinstance(source, TreeAutomaton) else source)
    for valuation in valuations:
        unknown = valuation - known
        if unknown:
            raise ValueError(
                f"query mentions propositions the formula does not use: "
                f"{', '.join(sorted(unknown))}"
            )


def _keep_max(best: dict, key, x: Fraction) -> None:
    """Keep ``x`` as ``best[key]`` unless that is already at least as
    large.  Both are objects of one :class:`Numbers` table, so only
    distinct values are ever compared."""
    y = best.get(key)
    if y is None or (x is not y and x > y):
        best[key] = x


def _forward(wa: WeightedAutomaton, trace: Trace, numbers: Numbers) -> dict:
    """The best run weight from an initial state to each state that
    carries the trace's last valuation, each an object of ``numbers``."""
    layer = {q: ONE for q in wa.initial if wa.valuations[q] == trace[0]}
    for valuation in trace[1:]:
        into = {}  # child tuple -> best value * weight into it
        for q, v in layer.items():
            for wt, k in wa.groups[q]:
                _keep_max(into, k, numbers.times(v, wt))
        layer = {}
        for k, x in into.items():
            for c in wa.children[k]:
                if wa.valuations[c] == valuation:
                    _keep_max(layer, c, x)
    return layer


def trace_probability(source, trace: Trace) -> Fraction:
    """Largest probability any satisfying interpretation gives the trace."""
    if not trace:
        raise ValueError("traces are nonempty")
    _check_vars(source, trace)
    wa = _compiled(source).weighted
    return _largest(v for q, v in _forward(wa, trace, Numbers()).items() if q in wa.finals)


def language_probability(source, nfa: TraceNFA) -> tuple:
    """Probability of the likeliest accepted trace, with its acceptor."""
    _check_vars(source, nfa.labels())
    prod = product(nfa, _compiled(source).weighted)
    return behaviour(prod), mlt_acceptor(prod)


def prefix_extension_query(source, prefix: Trace) -> tuple:
    """Probability that a trace starts with ``prefix``, with the acceptor
    of the likeliest such traces."""
    if not prefix:
        raise ValueError("the prefix must be nonempty")
    _check_vars(source, prefix)
    wa = _compiled(source).weighted
    numbers, w = Numbers(), wa.behaviour_table().values
    last = _forward(wa, prefix, numbers)
    worth = {q: numbers.times(x, w[q]) for q, x in last.items()}
    value = _largest(worth.values())
    if value is ZERO:
        return ZERO, MltAcceptor((), (), (), {}, (), {}, ZERO)
    into = {}  # id of a forward weight -> (it, the end states it enters)
    for q, x in last.items():
        if worth[q] is value:
            into.setdefault(id(x), (x, []))[1].append(q)
    return value, _prefix_acceptor(mlt_acceptor(wa), prefix, into.values(), value)


def _prefix_acceptor(acc: MltAcceptor, prefix: Trace, into, value: Fraction) -> MltAcceptor:
    """The mlt acceptor ``acc`` behind a chain for the prefix: a state
    ``("prefix", i)`` for each earlier letter ``i``, joined to the next by
    an edge of weight 1.  The last enters the end states, states of
    ``acc``, through ``into``'s ``(forward weight, end states)`` pairs; a
    one-letter prefix starts in its end states."""
    links = [("prefix", i) for i in range(len(prefix) - 1)]
    outs = [((ONE, (dst,)),) for dst in links[1:]] + [tuple((x, tuple(ends)) for x, ends in into)]
    groups, children = {}, list(acc.children)
    for src, out in zip(links, outs):
        groups[src] = tuple((wt, len(children) + j) for j, (wt, _) in enumerate(out))
        children.extend(kids for _, kids in out)
    initial = links[:1] or [q for _, ends in into for q in ends]
    valuations = acc.valuations | dict(zip(links, prefix))
    return MltAcceptor(
        acc.states + tuple(links), initial, acc.finals, acc.groups | groups, children, valuations, value
    )
