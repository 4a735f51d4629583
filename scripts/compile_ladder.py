#!/usr/bin/env python3
"""Library seconds of the tree and flat engines on a ladder of inputs.

    python3 scripts/compile_ladder.py [--only NAME ...] [--repeat N]

The tree rungs are ``X^k a`` for k = 10, 12 and 14, the same chain with
one bound, ``X^k a & P>=0.5[b]`` for k = 6, 8 and 10, and the
conjunctions of the first three, four, five and six bounds of ``BOUNDS``.
The off-ladder rung ``X^12 a & P>=0.5[b]``, whose listing alone takes
seconds, runs only when ``--only`` names it.
For each it compiles the automaton and times, in CPU seconds, eight
layers in order: construction, good states, ``build_weighted``, the
behaviour, ``mlt_acceptor`` and ``enumerate_mlts(acc, 5, 20)``, then two
queries on the compiled and carved automaton.  ``trace`` is one
``trace_probability`` call, on k empty letters then ``a`` for the
``X^k a`` rungs and on ``a;b;c`` for the bound rungs.  ``prefix`` is one
``prefix_extension_query`` on that trace's first two letters, with
``enumerate_mlts(acc, 3, 20)`` on its acceptor.  The flat rungs
are the first 9 and 11 lines of ``LINES``; for each it times
``build_lphi``, ``describe`` (every scenario's ``describe()``),
feasibility, the maxima and ``rows_text``.  Every rung
also counts the LP programs built (``LinearProgram`` constructions, each
one phase 1) and the phase 2s run (``LinearProgram._optimum`` calls)
over all its layers.  With
``--repeat N`` each layer reports its least time over N fresh compiles.
It prints one JSON line mapping each rung's name to its sizes (a tree
rung's atom count and the rows of its weighted automaton, a flat rung's
scenarios and live scenarios), its LP
counts, its layers' times and ``peak_mib``, the process's peak resident
memory once the rung is done.  That peak never falls, so it is the rung's
own only when the rung runs alone:

    python3 scripts/compile_ladder.py --only "6 bounds"
"""

import argparse
import json
import resource
import time

from pltlf import (
    TreeAutomaton,
    behaviour,
    build_lphi,
    build_weighted,
    enumerate_mlts,
    mlt_acceptor,
    parse_formula,
    parse_pltlf0,
    parse_trace,
    prefix_extension_query,
    trace_probability,
)
from pltlf.linsolve import LinearProgram

BOUNDS = ("P<=0.5[a]", "P>=0.6[X b]", "P>0.2[F c]", "P<0.7[G d]", "P>=0.3[F e]", "P<=0.4[X X f]")
LINES = (
    "P<=0.7 : F a", "P<=0.8 : F b", "P>=0.3 : G(a -> F b)", "P<=0.6 : a U b",
    "P>=0.2 : X c", "P<=0.9 : F(c & X d)", "P>=0.1 : G !d", "P<=0.5 : F(a & b)",
    "P>=0.2 : G(c -> X a)", "P<=0.75 : F d", "P>=0.05 : b U c", "P<=0.95 : G(d -> F a)",
)


def timed(run) -> tuple:
    start = time.process_time()
    result = run()
    return result, time.process_time() - start


def tree_rung(text: str, trace: str) -> tuple:
    """Atom count and CPU seconds of each layer, on one fresh compile."""
    aut, construct = timed(lambda: TreeAutomaton(parse_formula(text)))
    _, good = timed(aut.good_states)
    wa, weighted = timed(lambda: build_weighted(aut))
    _, value = timed(lambda: behaviour(wa))
    acc, carve = timed(lambda: mlt_acceptor(wa))
    _, listing = timed(lambda: enumerate_mlts(acc, 5, 20))
    letters = parse_trace(trace)
    _, query = timed(lambda: trace_probability(aut, letters))
    _, prefix = timed(lambda: enumerate_mlts(prefix_extension_query(aut, letters[:2])[1], 3, 20))
    layers = (
        "construct", "good", "weighted", "behaviour", "mlt_acceptor", "enumerate_mlts", "trace",
        "prefix",
    )
    times = (construct, good, weighted, value, carve, listing, query, prefix)
    return {"atoms": len(aut), "rows": len(wa.groups)}, dict(zip(layers, times))


def flat_rung(text: str) -> tuple:
    """Scenario counts and CPU seconds of each layer, on one fresh compile."""
    phi = parse_pltlf0(text)
    table, build = timed(lambda: build_lphi(phi))
    _, describe = timed(lambda: [s.describe() for s in table.scenarios])
    _, feasible = timed(lambda: table.feasible)
    _, maxima = timed(lambda: table.maxima)
    _, rows = timed(table.rows_text)
    sizes = {"scenarios": len(table.scenarios), "live": sum(table.satisfiable)}
    layers = ("build_lphi", "describe", "feasible", "maxima", "rows_text")
    return sizes, dict(zip(layers, (build, describe, feasible, maxima, rows)))


def counted(measure, *args) -> tuple:
    """The rung's sizes and times, its sizes joined by the programs built
    and the phase 2s run, counted by wrapping the LP's one constructor and
    its one phase-2 entry while the rung runs."""
    counts = {"programs": 0, "phase2s": 0}
    init, optimum = LinearProgram.__init__, LinearProgram._optimum

    def counting_init(self, variables, rows):
        counts["programs"] += 1
        init(self, variables, rows)

    def counting_optimum(self, column):
        counts["phase2s"] += 1
        return optimum(self, column)

    LinearProgram.__init__, LinearProgram._optimum = counting_init, counting_optimum
    try:
        sizes, times = measure(*args)
    finally:
        LinearProgram.__init__, LinearProgram._optimum = init, optimum
    return {**sizes, **counts}, times


RUNGS = {
    **{f"X^{k} a": (tree_rung, "X " * k + "a", "-;" * k + "a") for k in (10, 12, 14)},
    **{
        f"X^{k} a & P>=0.5[b]": (tree_rung, "X " * k + "a & P>=0.5[b]", "-;" * k + "a")
        for k in (6, 8, 10)
    },
    **{f"{w} bounds": (tree_rung, " & ".join(BOUNDS[:w]), "a;b;c") for w in (3, 4, 5, 6)},
    **{f"flat n={n}": (flat_rung, "\n".join(LINES[:n])) for n in (9, 11)},
}
OFF_LADDER = {"X^12 a & P>=0.5[b]": (tree_rung, "X " * 12 + "a & P>=0.5[b]", "-;" * 12 + "a")}


def main() -> None:
    rungs = {**RUNGS, **OFF_LADDER}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=rungs, help="run only this rung")
    parser.add_argument("--repeat", type=int, default=1, help="fresh compiles per rung")
    args = parser.parse_args()
    result = {}
    for name in args.only or RUNGS:
        runs = [counted(*rungs[name]) for _ in range(max(1, args.repeat))]
        sizes, times = runs[0]
        least = {layer: round(min(r[1][layer] for r in runs), 4) for layer in times}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result[name] = {**sizes, **least, "peak_mib": round(peak, 1)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
