"""Hypothesis strategies for formulas, traces and linear systems."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from pltlf.closure import ClosureSet
from pltlf.linsolve import LinearSystem
from pltlf.syntax import (
    Always,
    And,
    Comparison,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Prob,
    Prop,
    Until,
)

VARIABLES = ("a", "b")

bounds = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(1)]
)
# probability bounds take every comparison but "=", which has no inverse
comparisons = st.sampled_from([c for c in Comparison if c is not Comparison.EQ])


def formulas(max_leaves: int = 4, prob_free: bool = False):
    """Random formulas over two variables; probability bounds never nest."""
    leaves = st.sampled_from([Prop(v) for v in VARIABLES])

    def extend(children):
        options = [
            st.builds(Not, children),
            st.builds(Next, children),
            st.builds(Eventually, children),
            st.builds(Always, children),
            st.builds(lambda l, r: And((l, r)), children, children),
            st.builds(lambda l, r: Or((l, r)), children, children),
            st.builds(Implies, children, children),
            st.builds(Until, children, children),
        ]
        return st.one_of(options)

    base = st.recursive(leaves, extend, max_leaves=max_leaves)
    if prob_free:
        return base
    prob = st.builds(Prob, comparisons, bounds, base)
    return st.recursive(st.one_of(leaves, prob), extend, max_leaves=max_leaves)


def several_bounds(min_bounds: int = 3, max_bounds: int = 4, max_atoms: int = 2048):
    """Conjunctions of ``min_bounds`` to ``max_bounds`` probability bounds
    over probability-free formulas, so no bound nests, with that many
    distinct probability pairs and at most ``max_atoms`` atoms."""
    bound = st.builds(Prob, comparisons, bounds, formulas(max_leaves=3, prob_free=True))
    conjunctions = st.lists(bound, min_size=min_bounds, max_size=max_bounds).map(
        lambda parts: And(tuple(parts))
    )

    def fits(f) -> bool:
        clo = ClosureSet(f)
        return len(clo.prob_members) >= 2 * min_bounds and clo.atom_count() <= max_atoms

    return conjunctions.filter(fits)


def valuations():
    return st.sets(st.sampled_from(VARIABLES)).map(frozenset)


def traces(min_size: int = 1, max_size: int = 5):
    return st.lists(valuations(), min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def linear_systems(draw, max_vars: int = 4, max_rows: int = 7):
    """Random small systems with a bounding box so suprema stay finite."""
    n = draw(st.integers(1, max_vars))
    names = tuple(f"x{i}" for i in range(n))
    coeff = st.integers(-3, 3).map(Fraction)
    rel = st.sampled_from(
        [Comparison.LE, Comparison.GE, Comparison.LT, Comparison.GT, Comparison.EQ]
    )
    rows = []
    for name in names:
        rows.append(({name: 1}, Comparison.GE, Fraction(0)))
        rows.append(({name: 1}, Comparison.LE, Fraction(2)))
    extra = draw(st.integers(0, max_rows))
    for _ in range(extra):
        coeffs = {name: draw(coeff) for name in names}
        rows.append((coeffs, draw(rel), Fraction(draw(st.integers(-4, 4)))))
    return LinearSystem.from_rows(names, rows)
