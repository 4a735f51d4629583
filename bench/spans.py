"""Per-layer spans recorded from outside the program.

The traced run replaces the public functions and methods of each ``pltlf``
layer with wrappers that open a span (name, start, end, parent) and add to
the layer's counters.  The modules bind names with ``from .x import y``, so
a function is replaced in every loaded ``pltlf`` module that holds it, not
just where it is defined.  Spans stay in memory, in columns, until the run
writes them out.  A layer's self time is the time its spans cover minus the
time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


def _first(tracer, result) -> bool:
    """True the first time a cached object is returned; repeat returns of
    the same object are cache hits and record no span."""
    key = id(result)
    if key in tracer.seen:
        return False
    tracer.seen[key] = result
    return True


# (module, attribute, span, counters) for functions; counters map a metric
# to a function of (args, result) giving the amount to add.
FUNCTIONS = (
    ("pltlf.syntax", "parse_formula", "syntax.parse", {}),
    ("pltlf.syntax", "parse_trace", "syntax.parse", {}),
    ("pltlf.fragment", "parse_pltlf0", "syntax.parse", {}),
    ("pltlf.closure", "enumerate_atoms", "closure.enumerate", {"closure.atoms": lambda a, r: len(r)}),
    ("pltlf.linsolve", "solve_feasibility", "linsolve.feasibility", {
        "linsolve.feasibility_calls": lambda a, r: 1,
        "linsolve.lp_variables": lambda a, r: len(a[0].variables),
    }),
    ("pltlf.linsolve", "maximize", "linsolve.maximize", {
        "linsolve.maximize_calls": lambda a, r: 1,
        "linsolve.lp_variables": lambda a, r: len(a[0].variables),
    }),
    ("pltlf.automaton", "witness_model", "automaton.witness", {}),
    ("pltlf.weighted", "build_weighted", "weighted.build", {
        "weighted.builds": lambda a, r: 1,
        "weighted.edges": lambda a, r: len(r.weights),
    }),
    ("pltlf.weighted", "product", "weighted.product", {"weighted.product_states": lambda a, r: len(r.states)}),
    ("pltlf.weighted", "behaviour", "weighted.behaviour", {}),
    ("pltlf.weighted", "mlt_acceptor", "weighted.enumerate", {}),
    ("pltlf.weighted", "enumerate_mlts", "weighted.enumerate", {}),
    ("pltlf.fragment", "build_lphi", "fragment.lphi", {
        "fragment.scenarios": lambda a, r: len(r.scenarios),
        "fragment.satisfiable_scenarios": lambda a, r: sum(r.satisfiable),
    }),
    ("pltlf.fragment", "scenario_maxima", "fragment.maxima", {}),
    ("pltlf.fragment", "start_monitor", "fragment.start", {"fragment.live_scenarios": lambda a, r: len(r.entries)}),
    ("pltlf.fragment", "monitor_step", "fragment.step", {"fragment.events": lambda a, r: 1}),
    ("pltlf.mining", "load_log", "mining.load", {"mining.cases": lambda a, r: len(r)}),
    ("pltlf.mining", "mine_constraints", "mining.mine", {"mining.mined": lambda a, r: len(r)}),
    ("pltlf.cli", "main", "cli.self", {}),
)

# (module, class, method, span, counters, cached): a cached method returns
# the same object again on a hit, which then records no span and no count.
METHODS = (
    ("pltlf.automaton", "TreeAutomaton", "__init__", "automaton.build", {"automaton.builds": lambda a, r: 1}, False),
    ("pltlf.automaton", "TreeAutomaton", "good_states", "automaton.fixpoint",
     {"automaton.good_states": lambda a, r: len(r.good)}, True),
    ("pltlf.automaton", "TreeAutomaton", "scenario_family", "automaton.family",
     {"automaton.families": lambda a, r: len(r)}, True),
    ("pltlf.fragment", "PrefixAcceptor", "__init__", "fragment.acceptor", {"fragment.acceptors": lambda a, r: 1}, False),
    ("pltlf.weighted", "WeightedAutomaton", "behaviour_table", "weighted.behaviour", {}, True),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [span for _, _, span, _ in FUNCTIONS] + [span for _, _, _, span, _, _ in METHODS]
))
COUNTERS = tuple(dict.fromkeys(
    [c for *_, counts in FUNCTIONS for c in counts]
    + [c for _, _, _, _, counts, _ in METHODS for c in counts]
))


class Tracer:
    """Column store of spans plus per-round counters."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round_of = array("i")
        self.counts = []  # one dict per round
        self.seen = {}
        self.enabled = True
        self._stack = []
        self.mark_owner = array("i")  # innermost open span, -1 for none
        self.mark_s = array("d")
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}

    def begin_round(self) -> None:
        self.counts.append(dict.fromkeys(COUNTERS, 0))
        self.seen.clear()

    def checkpoint(self) -> tuple:
        """Where the next operation's spans and counts begin."""
        return len(self.name), dict(self.counts[-1])

    def discard(self, checkpoint: tuple) -> None:
        """Drop what was recorded since ``checkpoint``.  An operation
        stopped at its cap got a pace-dependent way through its work, so
        its spans and counts would make the per-layer metrics vary between
        runs; its spans stay in the written file with round -1."""
        first, counts = checkpoint
        for i in range(first, len(self.name)):
            self.round_of[i] = -1
        self.counts[-1] = counts

    def mark_taken(self, seconds: float) -> None:
        """A pace mark ran inside the innermost open span: its time is
        taken out of that span's self time like a child span's."""
        self.mark_owner.append(self._stack[-1] if self._stack else -1)
        self.mark_s.append(seconds)

    def wrap(self, fn, span: str, counters: dict, cached: bool = False, eager: bool = False):
        name_id = self._ids[span]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.start.append(time.perf_counter())
            tracer.end.append(0.0)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.round_of.append(len(tracer.counts) - 1)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = tuple(result)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if cached and not _first(tracer, result):
                if idx == len(tracer.name) - 1:
                    for column in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.round_of):
                        column.pop()
                return result
            counts = tracer.counts[-1]
            for metric, amount in counters.items():
                counts[metric] += amount(args, result)
            return iter(result) if eager else result

        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions in loaded pltlf
        modules, and the traced methods on their classes."""
        modules = [m for n, m in sys.modules.items() if n == "pltlf" or n.startswith("pltlf.")]
        for modname, attr, span, counters in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(original, span, counters, eager=attr == "enumerate_atoms")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for modname, cls_name, method, span, counters, cached in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            setattr(cls, method, self.wrap(getattr(cls, method), span, counters, cached))

    def round_metrics(self) -> list:
        """Per round: each span name's self time (``<span>_s``) and each
        counter."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for owner, seconds in zip(self.mark_owner, self.mark_s):
            if owner >= 0:
                child[owner] += seconds
        rounds = [dict(counts) for counts in self.counts]
        for r in rounds:
            for span in SPAN_NAMES:
                r[span + "_s"] = 0.0
        for i in range(n):
            if self.round_of[i] >= 0:
                key = SPAN_NAMES[self.name[i]] + "_s"
                rounds[self.round_of[i]][key] += self.end[i] - self.start[i] - child[i]
        return rounds

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": list(SPAN_NAMES),
                    "columns": ["name", "start", "end", "parent", "round"],
                    "spans": [
                        [self.name[i], round(self.start[i], 7), round(self.end[i], 7),
                         self.parent[i], self.round_of[i]]
                        for i in range(len(self.name))
                    ],
                    "counts": self.counts,
                },
                handle,
                separators=(",", ":"),
            )
