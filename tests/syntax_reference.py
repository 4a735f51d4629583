"""Recursive reference for the structural walks over formula trees.

The library reads a node's subformulas through one accessor,
``syntax.children``, and walks a tree with the iterative pre-order
``syntax.subformulas``.  The functions here spell out each node type's
subformulas in their own match arms and recurse, as the library once did:
node count, propositions, whether a bound occurs, whether a formula is in
the core fragment, and the members of the negation-complete closure; and
the pre-order list of a tree's nodes.
Tests compare the two on random formulas.

The parser and printer read the binary connectives from one table,
``syntax._BINARY``.  :class:`ReferenceParser` parses them as they once
were, one method per connective, loosest first, each calling the next;
:func:`formula_text` prints with the precedence levels and operand
minimums written out per node type.
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
    _Parser,
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


class ReferenceParser(_Parser):
    """The library's parser with its binary connectives parsed by four
    methods of their own; prefix operators and atoms are the library's."""

    def binary(self, level: int = 0):
        # the entry point the library's parse, brackets and bounds call
        return self.implies()

    def implies(self):
        left = self.disjunction()
        if self.current.kind == "arrow":
            self.advance()
            return Implies(left, self.nested(self.implies))
        return left

    def disjunction(self):
        parts = [self.conjunction()]
        while self.current.text == "|":
            self.advance()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self):
        parts = [self.until()]
        while self.current.text == "&":
            self.advance()
            parts.append(self.until())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def until(self):
        left = self.unary()
        if self.current.text == "U":
            self.advance()
            return Until(left, self.nested(self.until))
        return left


def parse_formula(text: str):
    return ReferenceParser(text).parse()


_P_IMPLIES, _P_OR, _P_AND, _P_UNTIL, _P_UNARY, _P_ATOM = range(1, 7)
_SPELLING = {Not: "!", Next: "X", Eventually: "F", Always: "G"}
_PRECEDENCE = {
    Implies: _P_IMPLIES,
    Or: _P_OR,
    And: _P_AND,
    Until: _P_UNTIL,
    **dict.fromkeys(_SPELLING, _P_UNARY),
}


def _precedence(f) -> int:
    return _PRECEDENCE.get(type(f), _P_ATOM)


def _text_pieces(f) -> list:
    match f:
        case TrueConst():
            return ["true"]
        case FalseConst():
            return ["false"]
        case Not(x) | Next(x) | Eventually(x) | Always(x):
            op = _SPELLING[type(f)]
            if op.isalpha() and _precedence(x) >= _P_UNARY:
                op += " "
            return [op, (x, _P_UNARY)]
        case Until(l, r):
            return [(l, _P_UNARY), " U ", (r, _P_UNTIL)]
        case And(ops) | Or(ops):
            sep, minimum = (" & ", _P_UNTIL) if isinstance(f, And) else (" | ", _P_AND)
            pieces = []
            for o in ops:
                pieces += [sep, (o, minimum)]
            return pieces[1:]
        case Implies(l, r):
            return [(l, _P_OR), " -> ", (r, _P_IMPLIES)]
        case Prob(cmp, bound, x):
            return [f"P{cmp.value}{bound}[", (x, 0), "]"]
    raise TypeError(f"not a formula: {f!r}")


def formula_text(f) -> str:
    out = []
    stack = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, minimum = item
        if type(g) is Prop:
            out.append(g.name)
        elif _precedence(g) < minimum:
            stack += [")", (g, 0), "("]
        else:
            stack += reversed(_text_pieces(g))
    return "".join(out)
