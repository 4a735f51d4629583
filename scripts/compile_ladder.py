#!/usr/bin/env python3
"""Library seconds of the tree engine on a ladder of formulas.

    python3 scripts/compile_ladder.py [--only NAME ...] [--repeat N]

The rungs are ``X^k a`` for k = 10, 12 and 14 and the conjunctions of the
first four and five bounds of ``BOUNDS``.  For each rung it compiles the
automaton and times, in CPU seconds, five layers in order: construction,
good states, ``build_weighted``, the behaviour, and ``mlt_acceptor`` with
``enumerate_mlts(acc, 5, 20)``.  With ``--repeat N`` each layer reports
its least time over N fresh compiles.  It prints one JSON line mapping
each rung's name to its atom count and the five times.
"""

import argparse
import json
import time

from pltlf import (
    TreeAutomaton,
    behaviour,
    build_weighted,
    enumerate_mlts,
    mlt_acceptor,
    parse_formula,
)

BOUNDS = ("P<=0.5[a]", "P>=0.6[X b]", "P>0.2[F c]", "P<0.7[G d]", "P>=0.3[F e]", "P<=0.4[X X f]")
RUNGS = {
    **{f"X^{k} a": "X " * k + "a" for k in (10, 12, 14)},
    **{f"{w} bounds": " & ".join(BOUNDS[:w]) for w in (4, 5)},
}
LAYERS = ("construct", "good", "weighted", "behaviour", "mlt")


def timed(run) -> tuple:
    start = time.process_time()
    result = run()
    return result, time.process_time() - start


def rung(text: str) -> dict:
    """Atom count and CPU seconds of each layer, on one fresh compile."""
    aut, construct = timed(lambda: TreeAutomaton(parse_formula(text)))
    _, good = timed(aut.good_states)
    wa, weighted = timed(lambda: build_weighted(aut))
    _, value = timed(lambda: behaviour(wa))
    _, mlt = timed(lambda: enumerate_mlts(mlt_acceptor(wa), 5, 20))
    return {"atoms": len(aut), **dict(zip(LAYERS, (construct, good, weighted, value, mlt)))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=RUNGS, help="run only this rung")
    parser.add_argument("--repeat", type=int, default=1, help="fresh compiles per rung")
    args = parser.parse_args()
    result = {}
    for name in args.only or RUNGS:
        runs = [rung(RUNGS[name]) for _ in range(max(1, args.repeat))]
        least = {layer: round(min(r[layer] for r in runs), 4) for layer in LAYERS}
        result[name] = {"atoms": runs[0]["atoms"], **least}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
