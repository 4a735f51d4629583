"""Recursive reference for the structural walks over formula trees.

The library reads a node's subformulas through one accessor,
``syntax.children``, and walks a tree with the iterative pre-order
``syntax.subformulas``.  The functions here spell out each node type's
subformulas in their own match arms and recurse, as the library once did:
node count, propositions, whether a bound occurs, whether a formula is in
the core fragment, and the members of the negation-complete closure; and
the pre-order list of a tree's nodes.
Tests compare the two on random formulas.
"""

from __future__ import annotations

from pltlf.syntax import (
    Always,
    And,
    Eventually,
    FalseConst,
    Implies,
    Next,
    Not,
    Or,
    Prob,
    Prop,
    TrueConst,
    Until,
    negate,
    normalize,
)


def subformulas(f) -> list:
    """Every node of the tree of ``f`` in pre-order, left to right."""
    match f:
        case TrueConst() | FalseConst() | Prop():
            return [f]
        case Not(x) | Next(x) | Eventually(x) | Always(x) | Prob(_, _, x):
            return [f, *subformulas(x)]
        case And(ops) | Or(ops):
            return [f, *(g for o in ops for g in subformulas(o))]
        case Implies(l, r) | Until(l, r):
            return [f, *subformulas(l), *subformulas(r)]
    raise TypeError(f"not a formula: {f!r}")


def formula_size(f) -> int:
    match f:
        case TrueConst() | FalseConst() | Prop():
            return 1
        case Not(x) | Next(x) | Eventually(x) | Always(x) | Prob(_, _, x):
            return 1 + formula_size(x)
        case And(ops) | Or(ops):
            return 1 + sum(formula_size(o) for o in ops)
        case Implies(l, r) | Until(l, r):
            return 1 + formula_size(l) + formula_size(r)
    raise TypeError(f"not a formula: {f!r}")


def vars_of(f) -> frozenset:
    match f:
        case TrueConst() | FalseConst():
            return frozenset()
        case Prop(name):
            return frozenset({name})
        case Not(x) | Next(x) | Eventually(x) | Always(x) | Prob(_, _, x):
            return vars_of(x)
        case And(ops) | Or(ops):
            return frozenset().union(*(vars_of(o) for o in ops))
        case Implies(l, r) | Until(l, r):
            return vars_of(l) | vars_of(r)
    raise TypeError(f"not a formula: {f!r}")


def has_prob(f) -> bool:
    match f:
        case Prob():
            return True
        case TrueConst() | FalseConst() | Prop():
            return False
        case Not(x) | Next(x) | Eventually(x) | Always(x):
            return has_prob(x)
        case And(ops) | Or(ops):
            return any(has_prob(o) for o in ops)
        case Implies(l, r) | Until(l, r):
            return has_prob(l) or has_prob(r)
    raise TypeError(f"not a formula: {f!r}")


def is_normalized(f) -> bool:
    match f:
        case TrueConst() | FalseConst() | Prop():
            return True
        case Not(TrueConst()) | Not(FalseConst()) | Not(Not(_)) | Not(Prob()):
            return False
        case Not(x) | Next(x) | Prob(_, _, x):
            return is_normalized(x)
        case And(ops):
            return all(is_normalized(o) and not isinstance(o, And) for o in ops)
        case Until(l, r):
            return is_normalized(l) and is_normalized(r)
        case _:
            return False


def closure_members(root) -> set:
    """Every subformula of the normal form of ``root``, the negation of
    each member and ``X(l U r)`` for each until member, unordered."""
    seen = set()

    def add(g):
        if g in seen:
            return
        seen.add(g)
        add(negate(g))
        match g:
            case Not(x) | Next(x) | Prob(_, _, x):
                add(x)
            case And(ops):
                for o in ops:
                    add(o)
            case Until(l, r):
                add(l)
                add(r)
                add(Next(g))

    add(normalize(root))
    return seen
