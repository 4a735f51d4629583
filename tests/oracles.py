"""Independent reference implementations used as test oracles.

Nothing here reuses the package's decision procedures: feasibility and
suprema are recomputed by Fourier-Motzkin elimination, satisfiability by a
bounded enumeration of tree interpretations, and atom/transition conditions
by direct structural re-checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product

from pltlf.linsolve import LinearConstraint, LinearSystem
from pltlf.syntax import (
    Always,
    And,
    Comparison,
    Eventually,
    FalseConst,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prob,
    Prop,
    TrueConst,
    Until,
    all_valuations,
    formula_text,
    vars_of,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Linear systems rewritten and printed


def with_rows(system: LinearSystem, rows) -> LinearSystem:
    """The system with (coeff dict, rel, rhs) rows appended."""
    extra = LinearSystem.from_rows(system.variables, rows)
    return LinearSystem(system.variables, system.constraints + extra.constraints)


def relaxed(system: LinearSystem) -> LinearSystem:
    """Strict rows weakened to their non-strict closure."""
    return LinearSystem(
        system.variables,
        tuple(LinearConstraint(c.coeffs, c.rel.relaxed, c.rhs) for c in system.constraints),
    )


def render_rows(system: LinearSystem) -> tuple:
    """Each row as text, ``x1 + 2 x2 <= 1/2``, with unit coefficients
    unwritten and zero terms left out."""
    out = []
    for c in system.constraints:
        terms = []
        for coeff, name in zip(c.coeffs, system.variables):
            if coeff == 0:
                continue
            if coeff == 1:
                text = name
            elif coeff == -1:
                text = f"-{name}"
            else:
                text = f"{coeff} {name}"
            terms.append(text)
        lhs = " + ".join(terms) if terms else "0"
        out.append(f"{lhs} {c.rel.value} {c.rhs}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination


def _rows_of(system: LinearSystem) -> list:
    """Rows as (coeff tuple, rel, rhs); equalities split into two bounds."""
    rows = []
    for c in system.constraints:
        if c.rel is Comparison.EQ:
            rows.append((c.coeffs, Comparison.LE, c.rhs))
            rows.append((c.coeffs, Comparison.GE, c.rhs))
        else:
            rows.append((c.coeffs, c.rel, c.rhs))
    return rows


def _as_upper(row, k: int):
    """Rewrite a row as a bound on variable k: returns (kind, rest, rhs,
    strict) with kind 'upper'/'lower'/'free'."""
    coeffs, rel, rhs = row
    a = coeffs[k]
    if rel in (Comparison.GE, Comparison.GT):
        coeffs = tuple(-c for c in coeffs)
        rhs = -rhs
        rel = Comparison.LT if rel is Comparison.GT else Comparison.LE
        a = -a
    strict = rel is Comparison.LT
    if a == 0:
        return "free", coeffs, rhs, strict
    rest = tuple(c / a for i, c in enumerate(coeffs) if i != k)
    if a > 0:
        return "upper", rest, rhs / a, strict
    return "lower", rest, rhs / a, strict


def _eliminate(rows: list, k: int) -> list:
    """Project out variable k from x <= relations; exact, strictness kept."""
    uppers, lowers, keep = [], [], []
    for row in rows:
        kind, rest, rhs, strict = _as_upper(row, k)
        if kind == "free":
            coeffs = tuple(c for i, c in enumerate(row[0]) if i != k)
            keep.append((coeffs, Comparison.LT if strict else Comparison.LE, rhs))
        elif kind == "upper":
            uppers.append((rest, rhs, strict))
        else:
            lowers.append((rest, rhs, strict))
    # bound pair: rhs_l - rest_l . x  <=  x_k  <=  rhs_u - rest_u . x
    for urest, urhs, ustrict in uppers:
        for lrest, lrhs, lstrict in lowers:
            coeffs = tuple(u - l for u, l in zip(urest, lrest))
            rel = Comparison.LT if (ustrict or lstrict) else Comparison.LE
            keep.append((coeffs, rel, urhs - lrhs))
    return keep


def fm_feasible(system: LinearSystem) -> bool:
    """Feasibility by full variable elimination."""
    rows = []
    for coeffs, rel, rhs in _rows_of(system):
        if rel in (Comparison.GE, Comparison.GT):
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            rel = Comparison.LT if rel is Comparison.GT else Comparison.LE
        rows.append((coeffs, rel, rhs))
    n = len(system.variables)
    for k in range(n - 1, -1, -1):
        rows = _eliminate(rows, k)
    for coeffs, rel, rhs in rows:
        assert not coeffs
        if not rel.holds(ZERO, rhs):
            return False
    return True


def fm_supremum(system: LinearSystem, variable: str):
    """Supremum of one variable over the closure of the region, or None
    when the region is empty, or 'unbounded'."""
    if not fm_feasible(system):
        return None
    k = system.variables.index(variable)
    rows = []
    for coeffs, rel, rhs in _rows_of(system):
        if rel in (Comparison.GE, Comparison.GT):
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            rel = Comparison.LE
        rows.append((coeffs, Comparison.LE, rhs))

    # move the objective variable to the front, then eliminate the rest
    order = [k] + [i for i in range(len(system.variables)) if i != k]
    rows = [(tuple(coeffs[i] for i in order), rel, rhs) for coeffs, rel, rhs in rows]
    for j in range(len(system.variables) - 1, 0, -1):
        rows = _eliminate(rows, j)
    best = None
    for coeffs, rel, rhs in rows:
        a = coeffs[0]
        if a > 0:
            bound = rhs / a
            best = bound if best is None else min(best, bound)
    return "unbounded" if best is None else best


# ---------------------------------------------------------------------------
# Bounded brute-force satisfiability

def _subformulas(f: Formula) -> tuple:
    seen = []

    def walk(g: Formula):
        if g in seen:
            return
        match g:
            case Not(x) | Next(x) | Eventually(x) | Always(x) | Prob(_, _, x):
                walk(x)
            case And(ops):
                for o in ops:
                    walk(o)
            case Implies(l, r) | Until(l, r):
                walk(l)
                walk(r)
            case Or(ops):
                for o in ops:
                    walk(o)
        seen.append(g)

    walk(f)
    return tuple(seen)


@cache
def _realizable(children: int, bounds: tuple) -> list:
    """The truth assignments of ``(cmp, bound, holders)`` bounds that
    child masses realize: one nonnegative mass per child, summing to one,
    such that each bound made true holds over the children its holders
    mark and each bound made false fails.  Kept across calls."""
    names = tuple(f"y{i}" for i in range(children))
    base = [({y: 1}, Comparison.GE, ZERO) for y in names]
    base.append((dict.fromkeys(names, 1), Comparison.EQ, ONE))
    found = []
    for assignment in product((True, False), repeat=len(bounds)):
        rows = list(base)
        for (cmp, bound, holders), t in zip(bounds, assignment):
            on = {y: 1 for y, held in zip(names, holders) if held}
            rows.append((on, cmp if t else cmp.inverse, bound))
        if fm_feasible(LinearSystem.from_rows(names, rows)):
            found.append(assignment)
    return found


def bounded_satisfiable(f: Formula, depth: int = 3, width: int = 3) -> bool:
    """Existence of a satisfying tree interpretation of bounded shape.

    Enumerates, per tree height, the set of subformula profiles realizable
    at a root.  At an internal node over a set of distinct child
    signatures, every truth assignment of the probability subformulas is
    tried: it is realizable when child masses exist, one nonnegative mass
    per signature summing to one, that meet each bound made true and the
    negation of each bound made false, which Fourier-Motzkin elimination
    decides.  Masses may be zero.  Only the truth of next-arguments,
    until/eventually/always subformulas and probability arguments is
    visible to a parent, so profiles are projected to those bits.
    """
    subs = _subformulas(f)
    at = {g: i for i, g in enumerate(subs)}
    relevant = []
    for g in subs:
        match g:
            case Next(x) | Prob(_, _, x):
                relevant.append(x)
            case Until() | Eventually() | Always():
                relevant.append(g)
    slot = {g: k for k, g in enumerate(dict.fromkeys(relevant))}
    probs = [g for g in subs if isinstance(g, Prob)]
    prob_slots = [slot[g.operand] for g in probs]

    # each subformula as an instruction over the indices of its parts
    code = []
    for g in subs:
        match g:
            case TrueConst() | FalseConst():
                code.append(("const", isinstance(g, TrueConst)))
            case Prop(name):
                code.append(("prop", name))
            case Not(x):
                code.append(("not", at[x]))
            case And(ops) | Or(ops):
                code.append((type(g).__name__.lower(), [at[o] for o in ops]))
            case Implies(l, r):
                code.append(("implies", at[l], at[r]))
            case Next(x):
                code.append(("next", slot[x]))
            case Until(l, r):
                code.append(("until", at[l], at[r], slot[g]))
            case Eventually(x) | Always(x):
                code.append((type(g).__name__.lower(), at[x], slot[g]))
            case Prob(cmp, bound, _):
                code.append(("prob", cmp.holds(ZERO, bound), probs.index(g)))
    root = at[f]
    valuations = all_valuations(sorted(vars_of(f)))

    def evaluate(v: frozenset, every, some, assignment) -> list:
        """Truth of every subformula at a node with valuation ``v``.  At a
        leaf ``every`` is None; otherwise ``every[k]`` and ``some[k]`` say
        whether all or some children hold relevant bit k, and the
        probability subformulas are as ``assignment`` fixes them."""
        truth = []
        for op in code:
            match op:
                case ("const", t):
                    pass
                case ("prop", name):
                    t = name in v
                case ("not", x):
                    t = not truth[x]
                case ("and", xs):
                    t = all(truth[x] for x in xs)
                case ("or", xs):
                    t = any(truth[x] for x in xs)
                case ("implies", l, r):
                    t = not truth[l] or truth[r]
                case ("next", k):
                    t = every is not None and every[k]
                case ("until", l, r, k):
                    t = truth[r] or (every is not None and truth[l] and every[k])
                case ("eventually", x, k):
                    t = truth[x] or (every is not None and every[k])
                case ("always", x, k):
                    t = truth[x] and (every is None or some[k])
                case ("prob", at_zero, p):
                    t = at_zero if every is None else assignment[p]
            truth.append(t)
        return truth

    def assignments(child_sigs: tuple) -> list:
        """The truth assignments of the probability subformulas that child
        masses realize: each bound made true holds, each made false fails."""
        return _realizable(len(child_sigs), tuple(
            (g.cmp, g.bound, tuple(sig[k] for sig in child_sigs))
            for g, k in zip(probs, prob_slots)
        ))

    visible = [at[g] for g in slot]

    def signature(truth: list) -> tuple:
        return tuple(truth[i] for i in visible)

    # a level expands only the child sets with a signature found in the
    # level before: the others gave all their profiles already
    sigs, expanded = set(), set()
    for v in valuations:
        truth = evaluate(v, None, None, None)
        if truth[root]:
            return True
        sigs.add(signature(truth))
    for _ in range(depth):
        current = tuple(sorted(sigs))
        for size in range(1, min(width, len(current)) + 1):
            for chosen in combinations(current, size):
                if expanded.issuperset(chosen):
                    continue
                every = tuple(map(all, zip(*chosen)))
                some = tuple(map(any, zip(*chosen)))
                for assignment in assignments(chosen):
                    for v in valuations:
                        truth = evaluate(v, every, some, assignment)
                        if truth[root]:
                            return True
                        sigs.add(signature(truth))
        expanded.update(current)
    return False


# ---------------------------------------------------------------------------
# Structural re-checks of atom and transition conditions


def recheck_atom(closure_set, bits: int) -> bool:
    """Conditions on a member set, stated directly on the formulas:
    exactly one of each complement pair, conjunctions hold iff all parts
    do, untils unfold, constants are fixed."""
    members = closure_set.members
    index = closure_set.index
    has = lambda i: bool(bits >> i & 1)
    for i, g in enumerate(members):
        j = closure_set.negation[i]
        if has(i) == has(j):
            return False
        match g:
            case TrueConst():
                if not has(i):
                    return False
            case FalseConst():
                if has(i):
                    return False
            case And(ops):
                if has(i) != all(has(index[o]) for o in ops):
                    return False
            case Until(l, r):
                unfolded = has(index[r]) or (has(index[l]) and has(index[Next(g)]))
                if has(i) != unfolded:
                    return False
    return True


def recheck_tuple(automaton, aid: int, qsets: tuple, children: tuple) -> bool:
    """Transition conditions, re-read from the atoms themselves: next
    members propagate to every child, absent next members are refuted by
    some child, and each position realizes exactly its subset's
    probability arguments."""
    atoms = automaton.atoms
    clo = automaton.closure
    parent = atoms[aid]
    kids = [atoms[c] for c in children]
    for i in clo.next_members:
        g = clo.members[i]
        if g in parent:
            if not all(g.operand in kid for kid in kids):
                return False
        else:
            if all(g.operand in kid for kid in kids):
                return False
    for j, (pi, _, _) in enumerate(automaton._pairs):
        arg = clo.members[pi].operand
        for q, kid in zip(qsets, kids):
            if bool(q >> j & 1) != (arg in kid):
                return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive formula family for the oracle comparison

_BOUNDS = (
    ("<=", Fraction(1, 2)),
    (">", Fraction(1, 2)),
    (">=", Fraction(3, 5)),
    ("<", ONE),
)


def bounds_in(f: Formula) -> int:
    """Number of distinct probability subformulas of the formula."""
    return sum(1 for g in _subformulas(f) if isinstance(g, Prob))


def formula_family(minimum: int, closure_cap: int = 12, bounds: int = 1):
    """All formulas over {a, b} of ascending size until at least ``minimum``
    are collected: propositions under negation, next, conjunction, until
    and at most ``bounds`` probability bounds, which nest when there may
    be more than one."""
    from pltlf.closure import ClosureSet
    from pltlf.syntax import Comparison

    atoms = [Prop("a"), Prop("b")]
    by_size = {1: list(atoms)}
    family = []

    size = 1
    while True:
        for g in by_size.get(size, ()):
            if bounds_in(g) <= bounds and len(ClosureSet(g)) <= closure_cap:
                family.append(g)
        if len(family) >= minimum:
            return family
        size += 1
        built = []
        for g in by_size.get(size - 1, ()):
            built.append(Not(g))
            built.append(Next(g))
            if bounds_in(g) < bounds:
                for cmp, bound in _BOUNDS:
                    built.append(Prob(Comparison(cmp), bound, g))
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for l in by_size.get(left_size, ()):
                for r in by_size.get(right_size, ()):
                    built.append(And((l, r)))
                    built.append(Until(l, r))
        by_size[size] = built
        if size > 8:
            raise AssertionError("family enumeration ran away")
