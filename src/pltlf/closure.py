"""Subformula closure and its atoms.

The closure of a normalized formula contains every subformula, the negation
of every member (reduced, so no double negations and no negated probability
bounds), and ``X(l U r)`` for every until member.  An atom is a subset that
picks exactly one member of each negation pair and is locally consistent:
a conjunction is in iff all its conjuncts are, an until is in iff its right
argument is or both its left argument and the unfolded next-step obligation
are, ``true`` is always in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .syntax import (
    And,
    FalseConst,
    Formula,
    Next,
    Not,
    Prob,
    Prop,
    TrueConst,
    Until,
    formula_size,
    formula_text,
    negate,
    normalize,
)


class ClosureSet:
    """Negation-complete subformula closure, in a fixed canonical order.

    Members are ordered by (node count, rendered text); indices into that
    order identify members everywhere downstream.
    """

    def __init__(self, root: Formula):
        root = normalize(root)
        seen = set()

        def add(g: Formula):
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

        add(root)
        members = tuple(sorted(seen, key=lambda g: (formula_size(g), formula_text(g))))
        self.root = root
        self.members = members
        self.index = {g: i for i, g in enumerate(members)}
        self.negation = tuple(self.index[negate(g)] for g in members)
        self._hash = hash(members)

        # Enumeration plan: each negation pair contributes one free bit or
        # none.  Propositions, next members and the smaller-indexed side of
        # each probability pair are free; constants are forced and the rest
        # is derived from smaller members plus the free bits.
        free, derived = [], []
        for i, g in enumerate(members):
            rep = min(i, self.negation[i])
            if isinstance(g, (Prop, Next)) or (isinstance(g, Prob) and i == rep):
                free.append(i)
            else:
                derived.append(i)
        self._free = tuple(free)
        self._derived = tuple(derived)

        self.prob_members = tuple(i for i, g in enumerate(members) if isinstance(g, Prob))
        self.next_members = tuple(i for i, g in enumerate(members) if isinstance(g, Next))
        self.prop_members = tuple(i for i, g in enumerate(members) if isinstance(g, Prop))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.index

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, ClosureSet) and self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<ClosureSet of {formula_text(self.root)}, {len(self)} members>"

    def atom_count(self) -> int:
        return 1 << len(self._free)


@dataclass(frozen=True)
class Atom:
    """Maximal locally consistent subset of a closure, as a bitmask."""

    closure: ClosureSet
    bits: int

    def __contains__(self, f: Formula) -> bool:
        i = self.closure.index.get(f)
        if i is None:
            raise KeyError(f"{formula_text(f)} is not a closure member")
        return bool(self.bits >> i & 1)

    def members(self) -> tuple:
        return tuple(g for i, g in enumerate(self.closure.members) if self.bits >> i & 1)

    def valuation(self) -> frozenset:
        return frozenset(
            self.closure.members[i].name
            for i in self.closure.prop_members
            if self.bits >> i & 1
        )

    def prob_members(self) -> tuple:
        """Probability bounds present, in closure order."""
        return tuple(
            self.closure.members[i] for i in self.closure.prob_members if self.bits >> i & 1
        )

    def __repr__(self) -> str:
        inner = ", ".join(formula_text(g) for g in self.members())
        return f"<Atom {{{inner}}}>"


def _complete(clo: ClosureSet, vals: list) -> int:
    """Fill derived members from the free bits; returns the atom bitmask.

    Derived members are processed in increasing closure order, so the
    children of a conjunction or until are already decided; the unfolded
    next obligation of an until is a free bit.
    """
    members, index = clo.members, clo.index
    for i in clo._derived:
        g = members[i]
        match g:
            case TrueConst():
                vals[i] = True
            case FalseConst():
                vals[i] = False
            case Not(x):
                vals[i] = not vals[index[x]]
            case And(ops):
                vals[i] = all(vals[index[o]] for o in ops)
            case Until(l, r):
                vals[i] = vals[index[r]] or (vals[index[l]] and vals[index[Next(g)]])
            case Prob():
                vals[i] = not vals[clo.negation[i]]
            case _:
                raise AssertionError(f"unexpected derived member {g!r}")
    bits = 0
    for i, v in enumerate(vals):
        if v:
            bits |= 1 << i
    return bits


def enumerate_atoms(clo: ClosureSet) -> Iterator[Atom]:
    """All atoms, lazily, in increasing order of their free-bit pattern."""
    free = clo._free
    n = len(clo)
    for pattern in range(1 << len(free)):
        vals = [None] * n
        for j, i in enumerate(free):
            vals[i] = bool(pattern >> j & 1)
        yield Atom(clo, _complete(clo, vals))


def atom_of_members(clo: ClosureSet, members) -> Atom:
    """Atom containing exactly the given members; checks consistency."""
    bits = 0
    for g in members:
        g = normalize(g)
        i = clo.index.get(g)
        if i is None:
            raise ValueError(f"{formula_text(g)} is not a closure member")
        bits |= 1 << i
    vals = [None] * len(clo)
    for i in clo._free:
        vals[i] = bool(bits >> i & 1)
    rebuilt = _complete(clo, vals)
    if rebuilt != bits:
        missing = [
            formula_text(clo.members[i])
            for i in range(len(clo))
            if (rebuilt >> i & 1) != (bits >> i & 1)
        ]
        raise ValueError(f"not an atom; inconsistent at: {', '.join(missing)}")
    return Atom(clo, bits)
