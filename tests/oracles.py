"""Independent reference implementations used as test oracles.

Nothing here reuses the package's decision procedures: feasibility and
suprema are recomputed by Fourier-Motzkin elimination, satisfiability by a
bounded enumeration of tree interpretations, and atom/transition conditions
by direct structural re-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from pltlf.linsolve import LinearSystem
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


def bounded_satisfiable(f: Formula, depth: int = 3, width: int = 3) -> bool:
    """Existence of a satisfying tree interpretation of bounded shape.

    Enumerates, per tree height, the set of subformula profiles realizable
    at a root.  Probabilities never enter explicitly: with masses free and
    allowed to be zero, a probability bound's left side can be forced to 0
    (all mass off the argument), to 1 (all mass on it), or anywhere in
    [0, 1] when the children are mixed, so only the pattern of argument
    truth across children matters.  Only the truth of next-arguments,
    until/eventually/always subformulas and probability arguments is
    visible to a parent, so profiles are projected to those bits.
    """
    subs = _subformulas(f)
    probs = [g for g in subs if isinstance(g, Prob)]
    if len(probs) > 1:
        raise ValueError("bounded oracle supports at most one probability operator")

    relevant = []
    for g in subs:
        match g:
            case Next(x):
                relevant.append(x)
            case Until() | Eventually() | Always():
                relevant.append(g)
            case Prob(_, _, x):
                relevant.append(x)
    relevant = tuple(dict.fromkeys(relevant))
    valuations = all_valuations(sorted(vars_of(f)))

    def leaf_profile(v: frozenset) -> dict:
        truth = {}
        for g in subs:
            match g:
                case TrueConst():
                    t = True
                case FalseConst():
                    t = False
                case Prop(name):
                    t = name in v
                case Not(x):
                    t = not truth[x]
                case And(ops):
                    t = all(truth[o] for o in ops)
                case Or(ops):
                    t = any(truth[o] for o in ops)
                case Implies(l, r):
                    t = (not truth[l]) or truth[r]
                case Next(_):
                    t = False
                case Until(_, r):
                    t = truth[r]
                case Eventually(x) | Always(x):
                    t = truth[x]
                case Prob(cmp, bound, _):
                    t = cmp.holds(ZERO, bound)
            truth[g] = t
        return truth

    def node_profiles(v: frozenset, child_sigs: tuple):
        """Profiles realizable at an internal node over the given set of
        distinct child signatures; may branch on a mixed probability."""
        base = {}
        branches = [base]
        for g in subs:
            for truth in list(branches):
                match g:
                    case TrueConst():
                        t = True
                    case FalseConst():
                        t = False
                    case Prop(name):
                        t = name in v
                    case Not(x):
                        t = not truth[x]
                    case And(ops):
                        t = all(truth[o] for o in ops)
                    case Or(ops):
                        t = any(truth[o] for o in ops)
                    case Implies(l, r):
                        t = (not truth[l]) or truth[r]
                    case Next(x):
                        t = all(sig[relevant.index(x)] for sig in child_sigs)
                    case Until(l, r):
                        t = truth[r] or (
                            truth[l]
                            and all(sig[relevant.index(g)] for sig in child_sigs)
                        )
                    case Eventually(x):
                        t = truth[x] or all(
                            sig[relevant.index(g)] for sig in child_sigs
                        )
                    case Always(x):
                        t = truth[x] and any(
                            sig[relevant.index(g)] for sig in child_sigs
                        )
                    case Prob(cmp, bound, x):
                        holds = [sig[relevant.index(x)] for sig in child_sigs]
                        if all(holds):
                            t = cmp.holds(ONE, bound)
                        elif not any(holds):
                            t = cmp.holds(ZERO, bound)
                        else:
                            can_true = any(
                                cmp.holds(s, bound) for s in (ZERO, bound, ONE)
                            )
                            can_false = any(
                                not cmp.holds(s, bound) for s in (ZERO, bound, ONE)
                            )
                            if can_true and can_false:
                                other = dict(truth)
                                other[g] = False
                                branches.append(other)
                                t = True
                            else:
                                t = can_true
                truth[g] = t
        return branches

    def signature(truth: dict) -> tuple:
        return tuple(truth[g] for g in relevant)

    found = False
    sigs = set()
    for v in valuations:
        profile = leaf_profile(v)
        found = found or profile[f]
        sigs.add(signature(profile))
    for _ in range(depth):
        current = tuple(sorted(sigs))
        for size in range(1, min(width, len(current)) + 1):
            for chosen in combinations(current, size):
                for v in valuations:
                    for profile in node_profiles(v, chosen):
                        found = found or profile[f]
                        sigs.add(signature(profile))
        if found:
            return True
    return found


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


def formula_family(minimum: int, closure_cap: int = 12):
    """All formulas over {a, b} of ascending size until at least ``minimum``
    are collected: propositions under negation, next, conjunction, until
    and a single probability bound."""
    from pltlf.closure import ClosureSet
    from pltlf.syntax import Comparison

    atoms = [Prop("a"), Prop("b")]
    by_size = {1: list(atoms)}
    family = []

    def probs_in(g: Formula) -> int:
        return sum(1 for s in _subformulas(g) if isinstance(s, Prob))

    size = 1
    while True:
        for g in by_size.get(size, ()):
            if probs_in(g) <= 1 and len(ClosureSet(g)) <= closure_cap:
                family.append(g)
        if len(family) >= minimum:
            return family
        size += 1
        built = []
        for g in by_size.get(size - 1, ()):
            built.append(Not(g))
            built.append(Next(g))
            if probs_in(g) == 0:
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
