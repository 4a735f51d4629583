"""Most likely traces and probability queries over trace languages.

The good part of a tree automaton is flattened, by
:func:`~pltlf.automaton.build_weighted`, into a max-times weighted
automaton in Mealy form, as in Mohri's "Weighted automata algorithms": its
states are rows and its letters sit on the edges.  A row is a class of
good atoms that agree on their edges and on being final and differ only
in their valuation, the letter read on entering the row.  An edge carries
the largest mass any branch system lets the child subset absorb, and the
behaviour (maximum run weight from a row a first letter enters to a final
one) is the probability of the most likely trace.  Its tight part, the
edges on best runs, is the acceptor of exactly the traces attaining it.
A trace or a prefix is answered by one forward max-times pass over the
compiled automaton, and products with ordinary finite automata answer
probability queries for whole trace languages.  Without bounds every
weight is 1, and the flat engine's acceptors step it with
:meth:`WeightedAutomaton.run`, as the mlt acceptor reads traces.

Every child at one position of a row gets that position's weight, so
edges are stored in groups: one weight per (row, position), pointing at an
interned child tuple, split by letter into the rows the letter enters.
Every weight is a mass in (0, 1], so a run never gains weight by growing:
the behaviour settles the rows from the highest value down, by Knuth's
generalisation of Dijkstra's algorithm, one bucket of rows per distinct
value.  Each settle and each trace or prefix query keeps its numbers in
one :class:`Numbers` table, so equal values are one object, a product of
a value and a weight is made once and values compare by ``is``.  A group
is tight exactly when its weight times the best value in its child tuple
is its row's value; the acceptor keeps each tight group over its child
tuple cut once to the best rows.  Most likely traces are listed by a
depth-first search over the acceptor's sets of rows, pruned by each row's
distance to a final one, which the acceptor keeps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
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
    """Max-times automaton over traces, in Mealy form: its states are the
    rows ``0 .. len(groups) - 1``, and letters sit on the edges.

    ``initial`` maps each first letter to the rows it enters.  Reading
    ``letter``, row ``r`` enters every row of ``children[k][letter]`` with
    the positive weight of the group ``(weight, k)`` in ``groups[r]``; a
    child tuple is shared between rows, and no row is entered by one letter
    from two groups of one row.  A run ends in a row of ``finals``, weighs
    the product of its edge weights and spells the letters it reads.  The
    dense view names each (row, letter) pair that the initial map or a
    child tuple holds as one state, ``name(row, letter)``."""

    def __init__(self, initial, finals, groups, children, name=lambda r, letter: (r, letter)):
        self.initial = initial
        self.finals = frozenset(finals)
        self.groups = groups
        self.children = children
        self.name = name
        self._table: Optional[BehaviourTable] = None
        self._acceptor: Optional[MltAcceptor] = None

    @cached_property
    def pairs(self) -> dict:
        """The dense view's states, each mapped to its (row, letter)."""
        held = chain(self.initial.items(), *(kids.items() for kids in self.children))
        entered = dict.fromkeys((r, letter) for letter, rows in held for r in rows)
        return {self.name(r, letter): (r, letter) for r, letter in entered}

    @property
    def states(self) -> tuple:
        return tuple(self.pairs)

    @cached_property
    def weights(self) -> Mapping:
        """Read-only dense view, one entry per (state, child) edge, built
        on first access; the benchmark's spans count it and the tests'
        dense reference reads it."""
        return MappingProxyType({
            (q, self.name(c, letter)): wt
            for q, (r, _) in self.pairs.items()
            for wt, k in self.groups[r]
            for letter, rows in self.children[k].items()
            for c in rows
        })

    def weight(self, src, dst) -> Fraction:
        """The weight of an edge of the dense view, zero when it is absent."""
        return self.weights.get((src, dst), ZERO)

    def advance(self, rows, letter: frozenset) -> frozenset:
        """The rows that ``letter`` enters from ``rows``; each child tuple
        is read once however many rows share it."""
        tuples = {k for r in rows for _, k in self.groups[r]}
        return frozenset(chain.from_iterable(self.children[k].get(letter, ()) for k in tuples))

    def run(self, start, trace: Trace) -> frozenset:
        """The rows reached by reading a nonempty trace, whose first letter
        enters the rows ``start`` maps it to."""
        if not trace:
            raise ValueError("traces are nonempty")
        rows = frozenset(start.get(trace[0], ()))
        for letter in trace[1:]:
            rows = self.advance(rows, letter)
        return rows

    def behaviour_table(self) -> "BehaviourTable":
        """The table of :func:`_settle`, made on first use; its order needs
        every group weight in (0, 1], and another raises ValueError."""
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
    """Largest run weight from each row and from a first letter.

    ``rows[r]`` is row ``r``'s value, ``ZERO`` when it reaches no final
    row, and ``best[k]`` the largest value in ``children[k]``; each is an
    object of ``numbers``, the settle's table.  ``values`` is the dense
    view, each state's value, built on access."""

    rows: tuple
    value: Fraction
    best: tuple
    numbers: Numbers
    automaton: WeightedAutomaton = field(repr=False, compare=False)

    @property
    def values(self) -> dict:
        return {q: self.rows[r] for q, (r, _) in self.automaton.pairs.items()}


def _inverse(wa: WeightedAutomaton) -> tuple:
    """Per child tuple, the ``(weight, row)`` of each group over it, and
    per row, the child tuples that hold it under some letter."""
    parents, holding = [[] for _ in wa.children], [[] for _ in wa.groups]
    for r, groups in enumerate(wa.groups):
        for wt, k in groups:
            parents[k].append((wt, r))
    for k, kids in enumerate(wa.children):
        for r in set(chain.from_iterable(kids.values())):
            holding[r].append(k)
    return parents, holding


def _settle(wa: WeightedAutomaton) -> BehaviourTable:
    # Knuth's generalisation of Dijkstra's algorithm over the rows:
    # finals settle at one (the empty run), and a weight in (0, 1] never
    # raises a value, so values leave the heap in decreasing order and
    # each child tuple's best value is the first of its rows to settle.
    # Each number is the object of one table, and each weight object is
    # range-checked once.
    numbers, checked = Numbers(), set()  # ids of the weight objects checked
    for r, groups in enumerate(wa.groups):
        for wt, _ in groups:
            if id(wt) not in checked:
                if not 0 < wt <= 1:
                    raise ValueError(f"group weight {wt} of row {r} is outside (0, 1]")
                checked.add(id(wt))
    parents, holding = _inverse(wa)
    # a settled value is positive, so ZERO marks a row or tuple still open
    value = [ZERO] * len(wa.groups)
    best = [ZERO] * len(wa.children)
    # one bucket of rows per open value, and a heap of those values,
    # negated; a row reached through a weight of one joins the bucket read
    finals = sorted(wa.finals)
    buckets = {id(ONE): finals}
    heap = [-ONE] if finals else []
    while heap:
        v = numbers.one(-heappop(heap))
        bucket = buckets[id(v)]
        for r in bucket:  # grows while it is read
            if value[r] is not ZERO:
                continue
            value[r] = v
            for k in holding[r]:
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
    top = _largest(value[r] for rows in wa.initial.values() for r in rows)
    return BehaviourTable(tuple(value), top, tuple(best), numbers, wa)


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
    runs are the runs of that automaton that stay on a best run.  It is
    made from ``value`` and then a weighted automaton's arguments."""

    def __init__(self, value, *automaton):
        super().__init__(*automaton)
        self.value = value

    def accepts(self, trace: Trace) -> bool:
        return bool(self.run(self.initial, trace) & self.finals)

    @cached_property
    def distances(self) -> tuple:
        """Each row's :func:`_distances`, found on first use and kept."""
        return _distances(self)


def mlt_acceptor(wa: WeightedAutomaton) -> MltAcceptor:
    """The acceptor of most likely traces of ``wa``, carved on first use
    and kept, as the behaviour table is."""
    if wa._acceptor is None:
        wa._acceptor = _tight_part(wa)
    return wa._acceptor


def _tight_part(wa: WeightedAutomaton) -> MltAcceptor:
    """Carve the acceptor of most likely traces out of ``wa``, whose row
    numbers and names it keeps.

    Runs must start in a row that realizes the behaviour, and every edge
    must be tight: taking it keeps the remaining run weight on track.  A
    tight edge enters a best row of a tight group, so each row keeps its
    tight groups over their child tuples cut, once per tuple, to the best
    rows.  When the behaviour is zero the acceptor is empty.
    """
    table = wa.behaviour_table()
    if table.value is ZERO:
        return MltAcceptor(ZERO, {}, (), (), ())
    values, best, times = table.rows, table.best, table.numbers.times
    cut = {}  # child tuple of wa -> its number in the acceptor
    groups = tuple(
        tuple(
            (wt, cut.setdefault(k, len(cut))) for wt, k in row_groups
            if best[k] is not ZERO and times(best[k], wt) is value
        ) if (value := values[r]) is not ZERO else ()
        for r, row_groups in enumerate(wa.groups)
    )
    children = tuple(_worth(wa.children[k], values, best[k]) for k in cut)
    initial = _worth(wa.initial, values, table.value)
    return MltAcceptor(table.value, initial, wa.finals, groups, children, wa.name)


def _worth(kids: dict, values, v: Fraction) -> dict:
    """The rows of ``kids`` whose value is ``v``, by the letters entering some."""
    return {
        letter: kept for letter, rows in kids.items()
        if (kept := tuple(r for r in rows if values[r] is v))
    }


def _trace_key(trace: Trace) -> tuple:
    return tuple(tuple(sorted(v)) for v in trace)


def _distances(acc: WeightedAutomaton) -> tuple:
    """Fewest edges from each row to a final one, infinite when it reaches
    none, by a backward breadth-first search that reaches each child tuple
    once, through its first row to be reached."""
    (parents, holding), reached = _inverse(acc), set()
    dist = [inf] * len(acc.groups)
    frontier = sorted(acc.finals)
    for r in frontier:
        dist[r] = 0
    while frontier:
        grown = []
        for c in frontier:
            for k in holding[c]:
                if k not in reached:
                    reached.add(k)
                    for _, r in parents[k]:
                        if dist[r] == inf:
                            dist[r] = dist[c] + 1
                            grown.append(r)
        frontier = grown
    return tuple(dist)


def enumerate_mlts(acc: MltAcceptor, max_count: int, max_len: int) -> list:
    """List accepted traces, shortest first and then lexicographically by
    sorted valuations.  The accepted language may be infinite, so both
    bounds are required.

    For each length in turn, a depth-first search walks the determinised
    acceptor: a node is the set of rows a prefix reaches, its successors
    are listed once per set in ``_trace_key`` order, and a set whose
    nearest final row lies more letters away than remain is pruned (the
    min-length pruning of Ackerman and Shallit), by the distances the
    acceptor keeps.  So the traces of one length come out in order, and
    the search stops at ``max_count``.
    """
    if max_count < 1 or max_len < 1:
        raise ValueError("max_count and max_len must be at least 1")
    dist = acc.distances

    def split(entered: dict) -> list:
        """(sort key, letter, the rows it enters, their nearest final's
        distance) per letter, in ``_trace_key`` order."""
        return sorted(
            (_trace_key((letter,)), letter, frozenset(rows), min(map(dist.__getitem__, rows)))
            for letter, rows in entered.items()
        )

    successors = {}

    def after(rows: frozenset) -> list:
        if rows not in successors:
            entered = {}
            for k in {k for r in rows for _, k in acc.groups[r]}:
                for letter, kids in acc.children[k].items():
                    entered.setdefault(letter, set()).update(kids)
            successors[rows] = split(entered)
        return successors[rows]

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
            _, letter, rows, reach = step
            left = length - len(trace) - 1  # letters still to read after this one
            if reach > left:
                continue
            if left == 0:
                results.append((*trace, letter))
                if len(results) == max_count:
                    return results
                continue
            trace.append(letter)
            stack.append(iter(after(rows)))
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
    """Pair the weighted automaton with an NFA reading its letters.

    A product row, numbered when first entered, is a row of ``wa`` with an
    NFA state reached by reading the letter that entered it, so runs of
    the product are exactly the weighted runs whose traces the NFA
    accepts.  A group of row ``r`` read from NFA state ``s`` keeps its
    weight, and its child tuple is built once per child tuple and ``s``.
    A state of the dense view is named by its state of ``wa`` and ``s``.
    """
    pairs, index = [], {}  # product row -> (row of wa, NFA state), and back

    def enter(kids: dict, sources) -> dict:
        """The product rows each letter of ``kids`` enters from the NFA
        states ``sources``."""
        entered = {}
        for letter, rows in kids.items():
            targets = sorted(nfa.step(sources, letter), key=str)
            for pair in ((r, s) for r in rows for s in targets):
                if pair not in index:
                    index[pair] = len(pairs)
                    pairs.append(pair)
                entered.setdefault(letter, []).append(index[pair])
        return {letter: tuple(rows) for letter, rows in entered.items()}

    initial = enter(wa.initial, nfa.initial)
    groups, children, interned = [], [], {}
    while len(groups) < len(pairs):
        r, s = pairs[len(groups)]
        out = []
        for wt, k in wa.groups[r]:
            if (k, s) not in interned:
                kids = enter(wa.children[k], (s,))
                interned[k, s] = len(children) if kids else None
                if kids:
                    children.append(kids)
            if interned[k, s] is not None:
                out.append((wt, interned[k, s]))
        groups.append(tuple(out))
    finals = (i for i, (r, s) in enumerate(pairs) if r in wa.finals and s in nfa.finals)
    return WeightedAutomaton(
        initial, finals, tuple(groups), tuple(children),
        lambda i, letter: (wa.name(pairs[i][0], letter), pairs[i][1]),
    )


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
    """The best run weight reading the trace into each row its last letter
    enters, each an object of ``numbers``."""
    layer = dict.fromkeys(wa.initial.get(trace[0], ()), ONE)
    for letter in trace[1:]:
        into = {}  # child tuple -> best value * weight into it
        for r, v in layer.items():
            for wt, k in wa.groups[r]:
                _keep_max(into, k, numbers.times(v, wt))
        layer = {}
        for k, x in into.items():
            for c in wa.children[k].get(letter, ()):
                _keep_max(layer, c, x)
    return layer


def trace_probability(source, trace: Trace) -> Fraction:
    """Largest probability any satisfying interpretation gives the trace."""
    if not trace:
        raise ValueError("traces are nonempty")
    _check_vars(source, trace)
    wa = _compiled(source).weighted
    return _largest(v for r, v in _forward(wa, trace, Numbers()).items() if r in wa.finals)


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
    numbers, w = Numbers(), wa.behaviour_table().rows
    last = _forward(wa, prefix, numbers)
    worth = {r: numbers.times(x, w[r]) for r, x in last.items()}
    value = _largest(worth.values())
    if value is ZERO:
        return ZERO, MltAcceptor(ZERO, {}, (), (), ())
    into = {}  # id of a forward weight -> (it, the end rows it enters)
    for r, x in last.items():
        if worth[r] is value:
            into.setdefault(id(x), (x, []))[1].append(r)
    return value, _prefix_acceptor(mlt_acceptor(wa), prefix, into.values(), value)


def _prefix_acceptor(acc: MltAcceptor, prefix: Trace, into, value: Fraction) -> MltAcceptor:
    """The mlt acceptor ``acc`` behind a chain of one row per earlier
    letter of the prefix, ``("prefix", i)``, each entering the next by the
    next letter through an edge of weight 1; tightness is local, so every
    run weighs ``value``.  The last enters the end rows by the last letter,
    through ``into``'s ``(forward weight, end rows)`` pairs; a one-letter
    prefix starts in its end rows.  The chain's distances extend the ones
    ``acc`` keeps."""
    n, links, last = len(acc.groups), len(prefix) - 1, prefix[-1]
    ends = [(x, {last: tuple(rows)}) for x, rows in into]
    if not links:
        initial, outs = {last: tuple(chain.from_iterable(kids[last] for _, kids in ends))}, []
    else:
        initial = {prefix[0]: (n,)}
        outs = [[(ONE, {prefix[i]: (n + i,)})] for i in range(1, links)] + [ends]
    groups, children = [], []
    for out in outs:
        first = len(acc.children) + len(children)
        groups.append(tuple((wt, first + j) for j, (wt, _) in enumerate(out)))
        children += [kids for _, kids in out]
    reach = 1 + min(acc.distances[r] for _, kids in ends for r in kids[last])
    prefixed = MltAcceptor(
        value, initial, acc.finals, acc.groups + tuple(groups), acc.children + tuple(children),
        lambda r, letter: acc.name(r, letter) if r < n else ("prefix", r - n),
    )
    prefixed.distances = acc.distances + tuple(reach + links - 1 - i for i in range(links))
    return prefixed
